"""Gelfand transform, spectra, spectral measures, and the functional calculus.

On an atomic lattice the Gelfand transform of a central operator is its
diagonal symbol viewed as a function on the finite structure space.  The
global spectral measure assigns coordinate projections to index sets; the
spectral measure of an individual operator is its image under the symbol,
and the functional calculus applies bounded functions to the symbol through
the order integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .exact import QComplex
from .lattice import (
    TOL_EXACT,
    TOL_ORACLE,
    ComplexElement,
    ConvergenceWitness,
    CoordinateLattice,
    DimensionMismatchError,
    DomainError,
    PrincipalIdeal,
    WitnessVerdict,
    check_witness,
)
from .measures import FiniteMeasurableSpace, LatticeValuedMeasure, integrate
from .operators import CentralOperator, RegularOperator


class PreconditionError(ValueError):
    """An operation's stated precondition is violated."""


# ---------------------------------------------------------------------------
# Gelfand transform
# ---------------------------------------------------------------------------

def gelfand(T: CentralOperator) -> np.ndarray:
    """The hat map: the symbol of T, a function on the structure space 0..dim-1."""
    return T.symbol


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Attained spectrum values, plus declared accumulation points in sequence mode."""

    attained: tuple[complex, ...]
    accumulation: tuple[complex, ...] = ()

    def as_set(self) -> set[complex]:
        return set(self.attained) | set(self.accumulation)

    def __contains__(self, value: complex) -> bool:
        return value in self.as_set()

    def __len__(self) -> int:
        return len(self.as_set())


#: Values compared together by the ``spectrum`` cross-check; bounds its
#: distance table to this many rows rather than the whole n x n matrix.
CROSS_CHECK_BLOCK_ROWS = 256


def spectrum(T: CentralOperator, cross_check: bool = True) -> Spectrum:
    """Spectrum of a central operator: the distinct symbol values.

    When ``cross_check`` is set, the result is compared with the eigenvalues
    of the dense matrix (the spectrum in the algebra of all operators), which
    must agree within TOL_ORACLE.
    """
    values = list(dict.fromkeys(T.symbol.tolist()))
    if cross_check:
        eig = np.linalg.eigvals(np.diag(T.symbol))
        arr = np.asarray(values)
        i = _first_unmatched(eig, arr)
        if i is not None:
            raise AssertionError(f"dense eigenvalue {eig[i]} missing from the symbol spectrum")
        i = _first_unmatched(arr, eig)
        if i is not None:
            raise AssertionError(f"symbol value {values[i]} missing from the dense eigenvalues")
    return Spectrum(tuple(values))


def _first_unmatched(xs: np.ndarray, ys: np.ndarray) -> Optional[int]:
    """Index of the first x farther than TOL_ORACLE from every y, or None.

    An exact member of ys is within the tolerance; the others are compared
    with all of ys in blocks of CROSS_CHECK_BLOCK_ROWS.
    """
    todo = np.flatnonzero(~np.isin(xs, ys))
    for start in range(0, len(todo), CROSS_CHECK_BLOCK_ROWS):
        rows = todo[start:start + CROSS_CHECK_BLOCK_ROWS]
        far = np.min(np.abs(ys[None, :] - xs[rows, None]), axis=1) > TOL_ORACLE
        if far.any():
            return int(rows[np.argmax(far)])
    return None


@dataclass(frozen=True)
class SpectrumShapeReport:
    """The norm/reality/positivity/unimodularity characterisations of a spectrum."""

    radius_equals_norm: bool
    real_iff_selfconjugate: bool
    positive_iff_positive_symbol: bool
    unimodular_iff_unit_modulus: bool

    def all_ok(self) -> bool:
        return (self.radius_equals_norm and self.real_iff_selfconjugate
                and self.positive_iff_positive_symbol and self.unimodular_iff_unit_modulus)


def spectrum_shape_report(T: CentralOperator, tol: float = TOL_EXACT) -> SpectrumShapeReport:
    """Check the four spectral-shape equivalences for a central operator."""
    spec = np.asarray(spectrum(T, cross_check=False).attained)
    radius = float(np.max(np.abs(spec)))
    self_conj = bool(np.all(T.symbol == np.conj(T.symbol)))
    spec_real = bool(np.all(np.abs(spec.imag) <= tol))
    nonneg = bool(np.all(T.symbol.imag == 0) and np.all(T.symbol.real >= 0))
    spec_pos = spec_real and bool(np.all(spec.real >= -tol))
    unit_mod = bool(np.all(np.abs(np.abs(T.symbol) - 1.0) <= tol))
    spec_circle = bool(np.all(np.abs(np.abs(spec) - 1.0) <= tol))
    return SpectrumShapeReport(
        radius_equals_norm=abs(radius - T.order_unit_norm()) <= tol * max(1.0, radius),
        real_iff_selfconjugate=(spec_real == self_conj),
        positive_iff_positive_symbol=(spec_pos == nonneg),
        unimodular_iff_unit_modulus=(spec_circle == unit_mod),
    )


def union_spectrum(T: CentralOperator, generators: Sequence[np.ndarray]) -> Spectrum:
    """Spectrum as the union over restrictions to covering principal ideals."""
    ideals = [PrincipalIdeal(np.asarray(u, dtype=float)) for u in generators]
    covered: set[int] = set()
    for ideal in ideals:
        covered |= set(int(i) for i in ideal.support)
    if covered != set(range(T.lattice.dim)):
        raise PreconditionError("generator supports do not cover all coordinates")
    return Spectrum(tuple(dict.fromkeys(
        v for ideal in ideals for v in T.symbol[ideal.support].tolist())))


# ---------------------------------------------------------------------------
# spectral measures
# ---------------------------------------------------------------------------

def global_spectral_measure(lattice: CoordinateLattice) -> LatticeValuedMeasure:
    """The spectral measure of the whole centre: coordinate projections.

    Defined on the structure space with singleton atoms; the value at an
    index set is the 0/1 diagonal projection onto those coordinates.
    """
    return LatticeValuedMeasure(FiniteMeasurableSpace(tuple(range(lattice.dim))),
                                np.eye(lattice.dim), lattice)


def reconstruct_from_global(T: CentralOperator,
                            mu: Optional[LatticeValuedMeasure] = None) -> CentralOperator:
    """Recover T as the order integral of its Gelfand transform against mu."""
    mu = mu if mu is not None else global_spectral_measure(T.lattice)
    return CentralOperator(T.lattice, integrate(gelfand(T), mu).values)


def _on_labels(table: Sequence[complex], labels: np.ndarray) -> np.ndarray:
    """The symbol equal to table[k] on the band labelled k.

    Adding 0j turns negative zero parts into positive ones, as the order
    integral's positive/negative-part assembly does.
    """
    return np.asarray(table, dtype=complex)[labels] + 0j


@dataclass(frozen=True)
class OperatorSpectralMeasure:
    """The projection-valued spectral measure of a single central operator.

    mu_T is the image of the global spectral measure under the symbol, so it
    is a labelling of the coordinates: mu_T({values[k]}) is the coordinate
    projection onto the band {i : labels[i] == k}.
    """

    base: CentralOperator
    values: tuple[complex, ...]     # the spectrum, in first-occurrence order
    labels: np.ndarray              # per coordinate, the index of its value

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        """The 0/1 symbols of the bands, one per spectrum value."""
        return tuple((self.labels == np.arange(len(self.values))[:, None]).astype(float))

    def projection_at(self, k: int) -> CentralOperator:
        """mu_T({values[k]}) as a central operator."""
        return CentralOperator(self.base.lattice, (self.labels == k).astype(complex))

    def projection_for(self, value: complex) -> CentralOperator:
        try:
            k = self.values.index(value)
        except ValueError:
            return CentralOperator(self.base.lattice, np.zeros(self.base.lattice.dim))
        return self.projection_at(k)

    def measure_of(self, subset) -> CentralOperator:
        """mu_T(Delta) for Delta a subset of the spectrum."""
        s = set(subset)
        unknown = s - set(self.values)
        if unknown:
            raise DomainError(f"{unknown.pop()} is not a spectrum value")
        ks = [k for k, v in enumerate(self.values) if v in s]
        return CentralOperator(self.base.lattice, np.isin(self.labels, ks).astype(complex))

    def reconstruct(self) -> CentralOperator:
        return CentralOperator(self.base.lattice, _on_labels(self.values, self.labels))

    def validate(self, tol: float = TOL_EXACT) -> None:
        """Assert that every value is attained and that the values on their
        bands reconstruct the operator within tol.

        One label per coordinate makes the projections idempotent, pairwise
        disjoint and summing to the identity by construction.
        """
        k = len(self.values)
        if self.labels.shape != (self.base.lattice.dim,) or np.any(
                (self.labels < 0) | (self.labels >= k)):
            raise AssertionError("labels do not index the spectrum values")
        empty = np.flatnonzero(np.bincount(self.labels, minlength=k) == 0)
        if len(empty):
            raise AssertionError(f"projection for attained value {self.values[empty[0]]} is zero")
        if np.max(np.abs(self.reconstruct().symbol - self.base.symbol)) > tol:
            raise AssertionError("spectral reconstruction does not recover the operator")


def build_mu_T(T: CentralOperator) -> OperatorSpectralMeasure:
    """Spectral measure of T: the image of the global measure under the symbol.

    One pass over the symbol labels each coordinate with the first-occurrence
    index of its value.
    """
    index: dict[complex, int] = {}
    labels = np.fromiter((index.setdefault(v, len(index)) for v in T.symbol.tolist()),
                         dtype=np.intp, count=T.lattice.dim)
    labels.setflags(write=False)
    return OperatorSpectralMeasure(T, tuple(index), labels)


def enumerate_unital_spectral_measures(symbols: Sequence[QComplex]) -> list[tuple[int, ...]]:
    """Enumeration oracle for uniqueness of the spectral measure, in exact arithmetic.

    A unital spectral measure valued in 0/1 diagonal projections on the
    spectrum is determined by an assignment of each coordinate to a spectrum
    value.  An assignment is admissible when the integral of the identity
    reproduces the symbol exactly, i.e. when every coordinate is assigned a
    value equal to its symbol.  Admissibility is coordinatewise, so the
    admissible set is the product of the per-coordinate matches: the scan
    compares each symbol with each distinct value (dim * |spectrum| exact
    QComplex comparisons) and is still exhaustive over all |spectrum|^dim
    assignments.  Returns the admissible assignments (as value-index tuples)
    in lexicographic order.
    """
    values: list[QComplex] = []
    for s in symbols:
        if not any(s.re == v.re and s.im == v.im for v in values):
            values.append(s)
    choices = [[k for k, v in enumerate(values) if (v - s).is_zero()] for s in symbols]
    return list(itertools.product(*choices))


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

FunctionLike = Callable[[complex], complex] | Mapping[complex, complex]


def _evaluate(f: FunctionLike, value: complex) -> complex:
    if callable(f):
        return complex(f(value))
    try:
        return complex(f[value])
    except KeyError:
        raise DomainError(f"function undefined at spectrum value {value}") from None


def rho_T(T: CentralOperator, f: FunctionLike,
          mu: Optional[OperatorSpectralMeasure] = None) -> CentralOperator:
    """Functional calculus: the order integral of f against the spectral measure.

    The bands of mu_T are disjoint 0/1 projections, so the integral takes the
    value f(values[k]) on band k: a table lookup through the labels.
    """
    mu = mu if mu is not None else build_mu_T(T)
    return CentralOperator(T.lattice, _on_labels([_evaluate(f, v) for v in mu.values],
                                                 mu.labels))


def kernel_projection(T: CentralOperator, f: FunctionLike) -> CentralOperator:
    """mu_T of the null set of f; its image band is the kernel of rho_T(f)."""
    mu = build_mu_T(T)
    null = [v for v in mu.values if _evaluate(f, v) == 0]
    return mu.measure_of(null)


@dataclass(frozen=True)
class DominatedConvergenceReport:
    verdict: WitnessVerdict
    witness: ConvergenceWitness
    element_verdict: Optional[WitnessVerdict] = None

    def __bool__(self) -> bool:
        ok = bool(self.verdict)
        if self.element_verdict is not None:
            ok = ok and bool(self.element_verdict)
        return ok


def dominated_convergence_calculus(T: CentralOperator,
                                   fs: Sequence[FunctionLike],
                                   f: FunctionLike,
                                   bound: float,
                                   z: Optional[ComplexElement] = None,
                                   tail: Optional[Callable[[int], float]] = None,
                                   ) -> DominatedConvergenceReport:
    """Certify rho_T(f_n) -> rho_T(f) in sigma-order by an explicit witness.

    The witness term u_n is the running sup over occupied spectrum values of
    sup_{m >= n} |f_m - f|, times the identity.  When ``z`` is supplied the
    convergence rho_T(f_n) z -> rho_T(f) z is certified as well.
    """
    mu = build_mu_T(T)
    occupied = mu.values
    for g in fs:
        worst = max(abs(_evaluate(g, v)) for v in occupied)
        if worst > bound + TOL_EXACT:
            raise PreconditionError(f"uniform bound {bound} violated: |f_n| reaches {worst}")
    devs = [max(abs(_evaluate(g, v) - _evaluate(f, v)) for v in occupied) for g in fs]
    running = np.maximum.accumulate(np.asarray(devs)[::-1])[::-1]
    n = T.lattice.dim
    dominating = tuple(r * np.ones(n) for r in running)
    witness = ConvergenceWitness(dominating, claim="functional calculus convergence", tail=tail)
    limit_op = rho_T(T, f, mu)
    ops = [rho_T(T, g, mu) for g in fs]
    op_values = [ComplexElement(T.lattice, op.symbol) for op in ops]
    op_limit = ComplexElement(T.lattice, limit_op.symbol)
    verdict = check_witness(op_values, op_limit, witness)
    element_verdict = None
    if z is not None:
        absz = np.abs(z.values)
        elem_witness = ConvergenceWitness(tuple(r * absz for r in running),
                                          claim="pointwise calculus convergence", tail=tail)
        element_verdict = check_witness([op.apply(z) for op in ops], limit_op.apply(z),
                                        elem_witness)
    return DominatedConvergenceReport(verdict, witness, element_verdict)


# ---------------------------------------------------------------------------
# eigen expansions and approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenExpansion:
    pairs: tuple[tuple[complex, CentralOperator], ...]
    minimal_polynomial: tuple[complex, ...]   # monic coefficients, highest degree first

    def components(self, z: ComplexElement) -> list[ComplexElement]:
        return [p.apply(z) for _, p in self.pairs]


def minimal_polynomial(values: Sequence[complex]) -> tuple[complex, ...]:
    """Monic polynomial with the given distinct roots, highest degree first."""
    coeffs = np.array([1.0 + 0j])
    for v in values:
        coeffs = np.convolve(coeffs, np.array([1.0 + 0j, -v]))
    return tuple(coeffs)


def eval_polynomial(coeffs: Sequence[complex], x: np.ndarray) -> np.ndarray:
    return np.polyval(np.asarray(coeffs, dtype=complex), x)


def annihilation_bound(roots: Sequence[complex], x: np.ndarray) -> np.ndarray:
    """A priori bound on |eval_polynomial(minimal_polynomial(roots), x) - p(x)|
    for p(z) = prod (z - r), exactly; p(x) = 0 at a root.

    After Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.),
    with u = 2**-53 and gamma_k = k u / (1 - k u).  Each of np.convolve's n
    steps c_k - r c_{k-1} is a complex dot product of length 2, off by at most
    sqrt(2) gamma_4 <= gamma_6 times |c_k| + |r| |c_{k-1}| (§3.6): each
    coefficient is within gamma_6n of its exact value, relative to that of
    p~(z) = prod (z + |r|).  Each of np.polyval's n Horner steps y x + c is a
    complex product, off by a factor 1 + d with |d| <= sqrt(2) gamma_2 <=
    gamma_3 (Lemma 3.5), and a sum, off by at most a factor 1 + u (§5.1).  So
    the result is within gamma_10n p~(|x|) of p(x) (Lemma 3.3).  Underflow
    adds at most 2**-1073 to each of the n (n + 3) / 2 complex products, which
    reaches the result times at most 2 prod (1 + |x| + |r|) (§2.1).  gamma_16n
    and a second factor 2 absorb the bound's own roundings; it is inf when
    p~(|x|) comes within 2**n of overflow.
    """
    u = 2.0 ** -53
    n = len(roots)
    tilde = loose = np.ones(np.shape(x))
    for r in roots:
        tilde = tilde * (np.abs(x) + abs(r))
        loose = loose * (1 + np.abs(x) + abs(r))
    return 16 * n * u / (1 - 16 * n * u) * tilde + n * (n + 3) * 2.0 ** -1072 * loose


def eigen_expansion(T: CentralOperator) -> EigenExpansion:
    """Expansion T = sum of lambda * P_lambda over the attained spectrum.

    Also returns the minimal polynomial, whose degree equals the number of
    distinct spectrum values and which annihilates T.
    """
    mu = build_mu_T(T)
    pairs = tuple((v, mu.projection_at(k)) for k, v in enumerate(mu.values))
    return EigenExpansion(pairs, minimal_polynomial(mu.values))


@dataclass(frozen=True)
class StepApproximation:
    coefficients: tuple[complex, ...]           # each lies in the spectrum
    projections: tuple[CentralOperator, ...]    # pairwise disjoint
    error: float


def freudenthal_approx(T: CentralOperator, eps: float) -> StepApproximation:
    """Approximate T by a disjoint step combination with coefficients in sigma(T).

    Atomic operators have finite spectrum, so the representation is exact
    with one term per spectrum value, for any positive eps.
    """
    if not eps > 0:
        raise PreconditionError("eps must be positive")
    mu = build_mu_T(T)
    projs = tuple(mu.projection_at(k) for k in range(len(mu.values)))
    err = float(np.max(np.abs(T.symbol - mu.reconstruct().symbol)))
    return StepApproximation(mu.values, projs, err)


@dataclass(frozen=True)
class EigenQuery:
    is_eigenvalue: bool
    projection: CentralOperator


def eigen_query(T: CentralOperator, value: complex) -> EigenQuery:
    """Whether ``value`` is an eigenvalue of T, with its eigen-band projection."""
    mask = (T.symbol == value)
    proj = CentralOperator(T.lattice, mask.astype(complex))
    return EigenQuery(bool(np.any(mask)), proj)


# ---------------------------------------------------------------------------
# commutants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutantReport:
    """The five commutation conditions for an operator against a central one."""

    with_operator: bool
    with_conjugate: bool
    with_continuous_calculus: bool
    with_spectral_projections: bool
    with_measurable_calculus: bool
    block_pattern: bool          # Xi supported on equal-symbol index classes

    def conditions(self) -> tuple[bool, ...]:
        return (self.with_operator, self.with_conjugate, self.with_continuous_calculus,
                self.with_spectral_projections, self.with_measurable_calculus)

    def all_equivalent(self) -> bool:
        c = self.conditions()
        return all(x == c[0] for x in c) and self.block_pattern == c[0]


def _commutes_with_diag(g: np.ndarray, X: np.ndarray, tol: float) -> bool:
    """diag(g) X = X diag(g), entrywise: (g[i] - g[j]) X[i, j] vanishes."""
    return float(np.max(np.abs((g[:, None] - g[None, :]) * X))) <= tol


def commutant_check(T: CentralOperator, Xi: RegularOperator,
                    rng: Optional[np.random.Generator] = None,
                    tol: float = TOL_EXACT) -> CommutantReport:
    """Evaluate the five equivalent commutation conditions and the block pattern.

    Condition 1 multiplies the dense matrices, as an oracle independent of
    the entrywise form that conditions 2-5 use.  Condition 3 tests the powers
    id^a with a < |sigma(T)|: their Vandermonde matrix on the distinct
    spectrum values is invertible, so by Lagrange interpolation they span
    every function on the finite spectrum, continuous ones included.
    """
    if Xi.lattice.dim != T.lattice.dim:
        raise DimensionMismatchError("operators have different dimensions")
    rng = np.random.default_rng(0) if rng is None else rng
    X = Xi.entries
    s = T.symbol
    scale = max(1.0, float(np.max(np.abs(X))))
    tol = tol * scale

    D = np.diag(s)
    c1 = float(np.max(np.abs(D @ X - X @ D))) <= tol
    c2 = _commutes_with_diag(np.conj(s), X, tol)

    mu = build_mu_T(T)
    # normalise so the powers stay well conditioned
    nrm = T.order_unit_norm()
    sn = s / nrm if nrm > 0 else s
    c3 = all(_commutes_with_diag(sn ** a, X, tol) for a in range(len(mu.values)))

    c4 = all(_commutes_with_diag(p, X, tol) for p in mu.projections)

    c5 = True
    for _ in range(8):
        vals = rng.standard_normal(len(mu.values)) + 1j * rng.standard_normal(len(mu.values))
        g = rho_T(T, dict(zip(mu.values, vals)), mu)
        if not _commutes_with_diag(g.symbol, X, tol):
            c5 = False
            break

    block = not np.any((s[:, None] != s[None, :]) & (np.abs(X) > tol))

    return CommutantReport(c1, c2, c3, c4, c5, block)
