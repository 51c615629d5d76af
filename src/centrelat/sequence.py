"""Certified sequence-mode central operators with countable spectra.

An infinite diagonal operator is described by a symbol rule i -> lambda_i
together with certificates: a sup bound, the declared accumulation set, a
tail rule t(N) bounding the distance of lambda_i (i > N) to the accumulation
set, and a multiplicity rule for attained values.  The library validates
certificates on sampled prefixes and treats them as trusted beyond the
sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .lattice import TOL_EXACT
from .spectral import Spectrum, first_occurrence

#: Number of leading indices validated against the certificates.
SAMPLE = 10_000

#: Epsilon schedule on which spectrum certificates are exercised.
EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

#: Expansion lengths N at which the tail remainder is compared with t(N).
TAIL_CHECKPOINTS = (10, 100, 1000)


class CertificateError(ValueError):
    """A sequence-mode certificate fails on the sampled prefix."""


@dataclass(frozen=True)
class SequenceCentralOperator:
    """A certified diagonal operator on a countable atomic lattice.

    ``rule`` and ``tail`` take a 1-D int64 array of 1-based indices and
    return one value per index; a scalar result stands for every index.
    ``rule`` gives the symbol values and must be a pure function of the
    index: ``prefix`` memoises its values on the operator and returns
    read-only arrays.  ``tail`` is a nonincreasing bound with
    sup_{i>N} dist(lambda_i, accumulation) <= t(N) and t(N) -> 0.
    ``multiplicity`` takes one value and gives the number of indices
    attaining it (math.inf for infinitely many).

    An array call must give the bits of the closed form at each index, so
    ``geometric`` loops in Python (numpy's vector power differs, see there).
    """

    rule: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    accumulation: tuple[complex, ...]
    tail: Callable[[np.ndarray], np.ndarray]
    multiplicity: Callable[[complex], float]
    name: str = "custom"
    params: dict[str, float] = field(default_factory=dict)
    # longest prefix evaluated so far; an array over immutable bytes is read-only
    _prefix: np.ndarray = field(default_factory=lambda: np.frombuffer(b"", dtype=complex),
                                init=False, repr=False, compare=False)

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1, ..., lambda_n as a read-only view of the memoised prefix.

        The indices not yet memoised go to ``rule`` in one array call; a
        result that is neither one value per index nor a scalar raises
        ValueError.
        """
        cached = self._prefix  # threads racing here each extend a complete copy
        if n > len(cached):
            more = _per_index(self.rule, np.arange(len(cached) + 1, n + 1, dtype=np.int64),
                             complex)
            cached = np.concatenate((cached, more))
            cached.setflags(write=False)
            object.__setattr__(self, "_prefix", cached)
        return cached[:max(n, 0)]


def _per_index(fn: Callable[[np.ndarray], np.ndarray], index: np.ndarray,
              dtype: type) -> np.ndarray:
    """fn(index) as ``dtype``, one value per index; a scalar result is broadcast."""
    values = np.asarray(fn(index), dtype=dtype)
    if values.shape not in ((), index.shape):
        raise ValueError(f"a rule gave shape {values.shape} for {len(index)} indices; "
                         "it must give one value per index or a scalar")
    return np.broadcast_to(values, index.shape)


def _reciprocal_multiplicity(v: complex, shift: float = 0.0) -> float:
    """1 if the rule shift + 1/j gives v bit for bit at some index j, else 0.

    Rounding moves 1/(v - shift) off that j by less than 2, so the rule is
    re-evaluated at the nearest index k, then at k +- 1 and k +- 2.
    """
    v = complex(v)
    re = v.real
    inverse = 1.0 / (re - shift) if re > shift and v.imag == 0.0 else math.inf
    if not inverse < math.inf:
        return 0.0
    k = round(inverse)
    if k >= 1 and shift + 1.0 / k == re:
        return 1.0
    return float(any(j >= 1 and shift + 1.0 / j == re for j in (k - 1, k + 1, k - 2, k + 2)))


def reciprocal() -> SequenceCentralOperator:
    """lambda_i = 1/i, accumulating at 0 with tail bound 1/(N+1)."""
    return SequenceCentralOperator(
        rule=lambda i: 1.0 / i,
        sup_bound=1.0,
        accumulation=(0.0,),
        tail=lambda n: 1.0 / (n + 1),
        multiplicity=_reciprocal_multiplicity,
        name="reciprocal",
    )


def constant(c: complex = 1.0) -> SequenceCentralOperator:
    """lambda_i = c for all i."""
    return SequenceCentralOperator(
        rule=lambda i: np.full(i.shape, c),
        sup_bound=abs(c),
        accumulation=(c,),
        tail=lambda n: np.zeros(n.shape),
        multiplicity=lambda v: math.inf if v == c else 0.0,
        name="constant",
        params={"value_re": complex(c).real, "value_im": complex(c).imag},
    )


def shifted_reciprocal(shift: float = 1.0) -> SequenceCentralOperator:
    """lambda_i = shift + 1/i, accumulating at the shift."""
    return SequenceCentralOperator(
        rule=lambda i: shift + 1.0 / i,
        sup_bound=abs(shift) + 1.0,
        accumulation=(complex(shift),),
        tail=lambda n: 1.0 / (n + 1),
        multiplicity=lambda v: _reciprocal_multiplicity(v, shift),
        name="shifted_reciprocal",
        params={"shift": shift},
    )


def _geometric_multiplicity(v: complex, ratio: float) -> float:
    """1 if ratio ** k gives v bit for bit at the index k nearest
    log_ratio(v), else 0.  A value whose real part is not a positive finite
    float, or whose imaginary part is nonzero, is not attained: 0."""
    v = complex(v)
    if not (v.imag == 0.0 and 0.0 < v.real < math.inf):
        return 0.0
    return float(ratio ** max(1, round(math.log(v.real, ratio))) == v.real)


def geometric(ratio: float = 0.5) -> SequenceCentralOperator:
    """lambda_i = ratio^i, accumulating at 0.

    The rule and the tail raise ``ratio`` to each index with Python's float
    power, one index at a time.  numpy's vector power is not bit-equal to
    it: under numpy 2.4.6's AVX512 kernels it differs in the last bit in
    28,153 of 2,000,000 entries (200 ratios drawn from U(0.01, 0.99), powers
    1 to 10^4), and in none with those kernels disabled.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    return SequenceCentralOperator(
        rule=lambda i: [ratio ** k for k in i.tolist()],
        sup_bound=ratio,
        accumulation=(0.0,),
        tail=lambda n: [ratio ** k for k in (n + 1).tolist()],
        multiplicity=lambda v: _geometric_multiplicity(v, ratio),
        name="geometric",
        params={"ratio": ratio},
    )


BUILTIN_RULES: dict[str, Callable[..., SequenceCentralOperator]] = {
    "reciprocal": reciprocal,
    "constant": constant,
    "shifted_reciprocal": shifted_reciprocal,
    "geometric": geometric,
}


def _dist_to_accumulation(values: np.ndarray, accumulation: Sequence[complex]) -> np.ndarray:
    if not accumulation:
        return np.full(len(values), math.inf)
    acc = np.asarray(accumulation, dtype=complex)
    return np.abs(values[:, None] - acc[None, :]).min(axis=1)


def breakpoints(tail: Callable[[np.ndarray], np.ndarray], epsilons: Sequence[float],
                sample: int) -> Iterator[Optional[int]]:
    """Yield N(eps) = min{n in [1, sample): tail(n) <= eps}, or None, for each
    eps in turn, monotone tail or not.

    ``tail`` takes an index array, as in SequenceCentralOperator.  It is
    called on ascending blocks of 64, 128, 256, ... indices, capped at
    sample - 1, once per index and only until the eps at hand is found: a
    tail that loops in Python, as ``geometric``'s does, then runs on the few
    hundred indices its N(eps) needs, not on the whole sample.
    """
    scanned = np.empty(0)
    for eps in epsilons:
        hits = np.flatnonzero(scanned <= eps)
        while not hits.size and len(scanned) < sample - 1:
            start = len(scanned)
            block = np.arange(start + 1, min(2 * start + 64, sample - 1) + 1, dtype=np.int64)
            scanned = np.concatenate((scanned, _per_index(tail, block, float)))
            hits = start + np.flatnonzero(scanned[start:] <= eps)
        yield int(hits[0]) + 1 if hits.size else None


def validate_certificate(op: SequenceCentralOperator) -> None:
    """Validate the sup bound and the tail certificate on the first SAMPLE indices.

    For each epsilon in EPS_SCHEDULE with N(eps) inside the sample, all
    lambda_i with i > N(eps) must lie within eps of the accumulation set.
    Raises CertificateError with a witness index on failure.
    """
    values = op.prefix(SAMPLE)
    # each comparison is negated so that NaN fails it
    over = ~(np.abs(values) <= op.sup_bound + TOL_EXACT)
    if over.any():
        raise CertificateError(f"sup bound violated at index {int(np.argmax(over)) + 1}")
    dist = _dist_to_accumulation(values, op.accumulation)
    for eps, n in zip(EPS_SCHEDULE, breakpoints(op.tail, EPS_SCHEDULE, SAMPLE)):
        if n is None:
            continue
        bad = np.flatnonzero(~(dist[n:] <= eps + TOL_EXACT))
        if bad.size:
            raise CertificateError(
                f"tail certificate violated at index {n + 1 + int(bad[0])} for eps={eps}")


def sequence_spectrum(op: SequenceCentralOperator) -> Spectrum:
    """Attained values of the first SAMPLE indices union the declared
    accumulation set, once the certificates validate on that prefix."""
    validate_certificate(op)
    attained, _ = first_occurrence(op.prefix(SAMPLE))
    return Spectrum(attained, tuple(complex(a) for a in op.accumulation))


def distinct_finite_count(values: np.ndarray) -> int:
    """The number of distinct finite entries of a prefix, compared as
    ``first_occurrence`` compares them (0.0 and -0.0 are one value).

    return_index makes np.unique sort stably, which is faster than its
    default complex sort, and several times so on a monotone prefix.
    """
    values = values[np.isfinite(values)]
    return len(np.unique(values, return_index=True)[1])


@dataclass(frozen=True)
class CompactnessVerdict:
    compact: bool
    reason: str

    def __bool__(self) -> bool:
        return self.compact


def compactness_check(op: SequenceCentralOperator) -> CompactnessVerdict:
    """Compact iff the only limit point is zero and nonzero values have
    finite multiplicity.  NaN counts as nonzero.

    The entries of one distinct value share its modulus, so the values
    marked nonzero are the labels of the prefix's nonzero entries.
    ``multiplicity`` is called on the nonzero distinct values in
    first-occurrence order, up to the first one with infinitely many indices.
    """
    for a in op.accumulation:
        if not abs(complex(a)) <= TOL_EXACT:
            return CompactnessVerdict(False, f"limit point {a} is nonzero")
    prefix = op.prefix(SAMPLE)
    values, labels = first_occurrence(prefix)
    nonzero = np.zeros(len(values), dtype=bool)
    nonzero[labels[~(np.abs(prefix) <= TOL_EXACT)]] = True
    multiplicity, isfinite = op.multiplicity, math.isfinite
    for v in itertools.compress(values, nonzero):
        if not isfinite(multiplicity(v)):
            return CompactnessVerdict(False, f"eigenspace for {v} is infinite dimensional")
    return CompactnessVerdict(True, "limit points in {0} and finite nonzero multiplicities")


@dataclass(frozen=True)
class TailDominationRecord:
    n_terms: int
    certified_bound: float       # t(N)
    sampled_tail_sup: float      # sup over sampled indices > N of |lambda_i|-distance

    @property
    def dominated(self) -> bool:
        return self.sampled_tail_sup <= self.certified_bound + TOL_EXACT


def expansion_tail_report(op: SequenceCentralOperator) -> list[TailDominationRecord]:
    """Partial-sum remainders of the eigen expansion against the tail witness,
    at each N of TAIL_CHECKPOINTS, over the first SAMPLE indices.

    After N terms the remainder of T - sum lambda_i P_i is supported on
    indices > N, where the symbol is within t(N) of the accumulation set;
    for accumulation {0} the remainder sup is therefore bounded by t(N).
    """
    dist = _dist_to_accumulation(op.prefix(SAMPLE), op.accumulation)
    bounds = _per_index(op.tail, np.array(TAIL_CHECKPOINTS, dtype=np.int64), float)
    return [TailDominationRecord(n_terms=n, certified_bound=float(bound),
                                 sampled_tail_sup=float(dist[n:].max()))
            for n, bound in zip(TAIL_CHECKPOINTS, bounds)]


@dataclass(frozen=True)
class SequenceStepApproximation:
    coefficients: tuple[complex, ...]
    breakpoint: int              # indices <= breakpoint keep their own value
    certified_error: float


def freudenthal_net(op: SequenceCentralOperator, eps: float) -> SequenceStepApproximation:
    """Eps-net step approximation with coefficients in the certified spectrum.

    Leading indices up to N(eps), searched among the first SAMPLE, keep their
    attained value; the tail is sent to the nearest certified spectrum member
    (an attained value or an accumulation point), giving error at most eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = next(breakpoints(op.tail, (eps,), SAMPLE))
    if n is None:
        raise CertificateError("tail rule does not reach eps within the sampled prefix")
    head, _ = first_occurrence(op.prefix(n))
    # tail representatives: the accumulation points, which belong to the
    # certified spectrum; each tail index is within t(n) <= eps of one of them
    reps = tuple(complex(a) for a in op.accumulation)
    if not reps:
        raise CertificateError("an accumulation set is required for the eps-net")
    coeffs = tuple(dict.fromkeys(head + reps))
    error = _per_index(op.tail, np.array([n], dtype=np.int64), float)[0]
    return SequenceStepApproximation(coeffs, n, float(error))


@dataclass(frozen=True)
class SequenceEigenQuery:
    in_spectrum: bool
    is_eigenvalue: bool


def sequence_eigen_query(op: SequenceCentralOperator, value: complex) -> SequenceEigenQuery:
    """Whether a value lies in the certified spectrum and is an eigenvalue.

    The multiplicity rule decides whether the value is attained; no prefix
    is sampled, since sampling can underflow.  An unattained accumulation
    point belongs to the spectrum but carries a zero spectral projection,
    hence is not an eigenvalue.
    """
    value = complex(value)
    attained = op.multiplicity(value) > 0
    in_spec = attained or any(complex(a) == value for a in op.accumulation)
    return SequenceEigenQuery(in_spec, attained)
