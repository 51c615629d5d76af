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

#: Default number of leading indices validated against the certificates.
DEFAULT_SAMPLE = 10_000

#: Epsilon schedule on which spectrum certificates are exercised.
EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class CertificateError(ValueError):
    """A sequence-mode certificate fails on the sampled prefix."""


@dataclass(frozen=True)
class SequenceCentralOperator:
    """A certified diagonal operator on a countable atomic lattice.

    ``rule`` maps a 1-based index to the symbol value and must be a pure
    function of the index: ``prefix`` memoises its values on the operator
    and returns read-only arrays.  ``tail`` is a nonincreasing bound with
    sup_{i>N} dist(lambda_i, accumulation) <= t(N) and t(N) -> 0.
    ``multiplicity`` gives the number of indices attaining a value
    (math.inf for infinitely many).
    """

    rule: Callable[[int], complex]
    sup_bound: float
    accumulation: tuple[complex, ...] = ()
    tail: Optional[Callable[[int], float]] = None
    multiplicity: Optional[Callable[[complex], float]] = None
    name: str = "custom"
    params: dict[str, float] = field(default_factory=dict)
    # longest prefix evaluated so far; an array over immutable bytes is read-only
    _prefix: np.ndarray = field(default_factory=lambda: np.frombuffer(b"", dtype=complex),
                                init=False, repr=False, compare=False)

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1, ..., lambda_n as a read-only view of the memoised prefix."""
        cached = self._prefix  # threads racing here each extend a complete copy
        if n > len(cached):
            # scalar rule calls: numpy's vector ** can differ in the last bit
            more = np.array([self.rule(i) for i in range(len(cached) + 1, n + 1)],
                            dtype=complex)
            cached = np.concatenate((cached, more))
            cached.setflags(write=False)
            object.__setattr__(self, "_prefix", cached)
        return cached[:max(n, 0)]


def _reciprocal_multiplicity(v: complex, shift: float = 0.0) -> float:
    """1 if the rule shift + 1/j gives v bit for bit at some index j, else 0.

    Rounding moves 1/(v - shift) off that j by less than 2, so the rule is
    re-evaluated at the nearest index k, then at k +- 1 and k +- 2.
    """
    v = complex(v)
    inverse = 1.0 / (v.real - shift) if v.real > shift and v.imag == 0.0 else math.inf
    if not inverse < math.inf:
        return 0.0
    k = round(inverse)
    if k >= 1 and shift + 1.0 / k == v.real:
        return 1.0
    return float(any(j >= 1 and shift + 1.0 / j == v.real for j in (k - 1, k + 1, k - 2, k + 2)))


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
        rule=lambda i: c,
        sup_bound=abs(c),
        accumulation=(c,),
        tail=lambda n: 0.0,
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


def geometric(ratio: float = 0.5) -> SequenceCentralOperator:
    """lambda_i = ratio^i, accumulating at 0."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    return SequenceCentralOperator(
        rule=lambda i: ratio ** i,
        sup_bound=ratio,
        accumulation=(0.0,),
        tail=lambda n: ratio ** (n + 1),
        multiplicity=lambda v, r=ratio: (
            1.0 if complex(v).imag == 0.0 and complex(v).real > 0.0
            and r ** max(1, round(math.log(complex(v).real, r))) == complex(v).real
            else 0.0),
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
    return np.min(np.abs(values[:, None] - acc[None, :]), axis=1)


def breakpoints(tail: Callable[[int], float], epsilons: Sequence[float],
                sample: int) -> Iterator[Optional[int]]:
    """Yield N(eps) = min{n in [1, sample): tail(n) <= eps}, or None, for each
    eps in turn, from one ascending scan that calls tail once per n at most.

    N(eps) cannot come earlier for a smaller eps, monotone tail or not, so
    that search resumes where the last larger eps stopped.
    """
    scanned: list[float] = []
    start, last = 0, math.inf
    for eps in epsilons:
        start = start if eps <= last else 0
        n = next((i + 1 for i in range(start, len(scanned)) if scanned[i] <= eps), None)
        if n is None:
            for t in map(tail, range(len(scanned) + 1, sample)):
                scanned.append(t)
                if t <= eps:
                    n = len(scanned)
                    break
        start, last = (len(scanned) if n is None else n - 1), eps
        yield n


def validate_certificate(op: SequenceCentralOperator, sample: int = DEFAULT_SAMPLE,
                         schedule: Sequence[float] = EPS_SCHEDULE) -> None:
    """Validate the sup bound and the tail certificate on a sampled prefix.

    For each epsilon in the schedule with N(eps) inside the sample, all
    lambda_i with i > N(eps) must lie within eps of the accumulation set.
    Raises CertificateError with a witness index on failure.
    """
    values = op.prefix(sample)
    # each comparison is negated so that NaN fails it
    over = ~(np.abs(values) <= op.sup_bound + TOL_EXACT)
    if np.any(over):
        raise CertificateError(f"sup bound violated at index {int(np.argmax(over)) + 1}")
    if op.tail is None:
        return
    dist = _dist_to_accumulation(values, op.accumulation)
    for eps, n in zip(schedule, breakpoints(op.tail, schedule, sample)):
        if n is None:
            continue
        bad = np.flatnonzero(~(dist[n:] <= eps + TOL_EXACT))
        if bad.size:
            raise CertificateError(
                f"tail certificate violated at index {n + 1 + int(bad[0])} for eps={eps}")


def sequence_spectrum(op: SequenceCentralOperator, prefix: int = DEFAULT_SAMPLE,
                      validate: bool = True) -> Spectrum:
    """Attained prefix values union the declared accumulation set."""
    if validate:
        validate_certificate(op, sample=prefix)
    attained, _ = first_occurrence(op.prefix(prefix))
    return Spectrum(attained, tuple(complex(a) for a in op.accumulation))


@dataclass(frozen=True)
class CompactnessVerdict:
    compact: bool
    reason: str

    def __bool__(self) -> bool:
        return self.compact


def compactness_check(op: SequenceCentralOperator,
                      sample: int = DEFAULT_SAMPLE) -> CompactnessVerdict:
    """Compact iff the only limit point is zero and nonzero values have
    finite multiplicity.  NaN counts as nonzero."""
    for a in op.accumulation:
        if not abs(complex(a)) <= TOL_EXACT:
            return CompactnessVerdict(False, f"limit point {a} is nonzero")
    values, labels = first_occurrence(op.prefix(sample))
    nonzero = ~(np.abs(np.asarray(values, dtype=complex)) <= TOL_EXACT)
    if op.multiplicity is None:
        repeated = np.flatnonzero(nonzero & (np.bincount(labels, minlength=len(values)) > 1))
        if repeated.size:
            raise CertificateError(
                f"multiplicity rule required for repeated value {values[repeated[0]]}")
    else:
        for v in itertools.compress(values, nonzero):
            if not math.isfinite(op.multiplicity(v)):
                return CompactnessVerdict(
                    False, f"eigenspace for {v} is infinite dimensional")
    return CompactnessVerdict(True, "limit points in {0} and finite nonzero multiplicities")


@dataclass(frozen=True)
class TailDominationRecord:
    n_terms: int
    certified_bound: float       # t(N)
    sampled_tail_sup: float      # sup over sampled indices > N of |lambda_i|-distance

    @property
    def dominated(self) -> bool:
        return self.sampled_tail_sup <= self.certified_bound + TOL_EXACT


def expansion_tail_report(op: SequenceCentralOperator, checkpoints: Sequence[int],
                          sample: int = DEFAULT_SAMPLE) -> list[TailDominationRecord]:
    """Partial-sum remainders of the eigen expansion against the tail witness.

    After N terms the remainder of T - sum lambda_i P_i is supported on
    indices > N, where the symbol is within t(N) of the accumulation set;
    for accumulation {0} the remainder sup is therefore bounded by t(N).
    """
    if op.tail is None:
        raise CertificateError("tail rule required for expansion domination")
    values = op.prefix(sample)
    dist = _dist_to_accumulation(values, op.accumulation)
    records = []
    for n in checkpoints:
        if n >= sample:
            raise ValueError("checkpoint beyond the sampled prefix")
        records.append(TailDominationRecord(
            n_terms=n,
            certified_bound=float(op.tail(n)),
            sampled_tail_sup=float(np.max(dist[n:])),
        ))
    return records


@dataclass(frozen=True)
class SequenceStepApproximation:
    coefficients: tuple[complex, ...]
    breakpoint: int              # indices <= breakpoint keep their own value
    certified_error: float


def freudenthal_net(op: SequenceCentralOperator, eps: float,
                    sample: int = DEFAULT_SAMPLE) -> SequenceStepApproximation:
    """Eps-net step approximation with coefficients in the certified spectrum.

    Leading indices up to N(eps) keep their attained value; the tail is sent
    to the nearest certified spectrum member (an attained value or an
    accumulation point), giving error at most eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if op.tail is None:
        raise CertificateError("tail rule required for the eps-net construction")
    n = next(breakpoints(op.tail, (eps,), sample))
    if n is None:
        raise CertificateError("tail rule does not reach eps within the sampled prefix")
    head, _ = first_occurrence(op.prefix(n))
    # tail representatives: the accumulation points, which belong to the
    # certified spectrum; each tail index is within t(n) <= eps of one of them
    reps = tuple(complex(a) for a in op.accumulation)
    if not reps:
        raise CertificateError("an accumulation set is required for the eps-net")
    coeffs = tuple(dict.fromkeys(head + reps))
    return SequenceStepApproximation(coeffs, n, float(op.tail(n)))


@dataclass(frozen=True)
class SequenceEigenQuery:
    in_spectrum: bool
    is_eigenvalue: bool


def sequence_eigen_query(op: SequenceCentralOperator, value: complex,
                         sample: int = DEFAULT_SAMPLE) -> SequenceEigenQuery:
    """Whether a value lies in the certified spectrum and is an eigenvalue.

    An unattained accumulation point belongs to the spectrum but carries a
    zero spectral projection, hence is not an eigenvalue.
    """
    value = complex(value)
    if op.multiplicity is not None:
        # the certificate is authoritative (sampling can underflow)
        attained = op.multiplicity(value) > 0
    else:
        attained = bool(np.any(op.prefix(sample) == value))
    in_spec = attained or any(complex(a) == value for a in op.accumulation)
    return SequenceEigenQuery(in_spec, attained)
