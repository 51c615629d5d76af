"""Gelfand transform, spectra, spectral measures, and the functional calculus.

On an atomic lattice the Gelfand transform of a central operator is its
diagonal symbol viewed as a function on the finite structure space.  The
global spectral measure assigns coordinate projections to index sets; the
spectral measure of an individual operator is its image under the symbol,
and the functional calculus applies bounded functions to the symbol through
the order integral.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import (
    TOL_EXACT,
    ComplexElement,
    ConvergenceWitness,
    CoordinateLattice,
    DimensionMismatchError,
    WitnessVerdict,
    check_witness,
)
from .measures import FiniteMeasurableSpace, LatticeValuedMeasure, integrate
from .operators import CentralOperator, RegularOperator


class PreconditionError(ValueError):
    """An operation's stated precondition is violated."""


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


#: Block size of the spectrum oracle; a block's eigenvalues are matched to
#: its symbol values by the best of the k! pairings.
ORACLE_BLOCK = 4
_PAIRINGS = np.array(list(itertools.permutations(range(ORACLE_BLOCK))))


def spectrum(T: CentralOperator) -> Spectrum:
    """Spectrum of a central operator: the values of mu_T.

    The values are checked once by ``block_eigenvalue_deviation``, which
    computes eigenvalues with LAPACK; a deviation beyond its rounding bound
    raises AssertionError.
    """
    mu = build_mu_T(T)
    dev, bound = block_eigenvalue_deviation(mu)
    if not dev <= bound:
        raise AssertionError(f"block eigenvalues deviate by {dev!r} from the symbol values, "
                             f"beyond the rounding bound {bound!r}")
    return Spectrum(mu.values)


def block_eigenvalue_deviation(mu: OperatorSpectralMeasure) -> tuple[float, float]:
    """An oracle for mu_T's values: ``(deviation, bound)``, with the
    deviation within the bound unless mu misdescribes the symbol s.

    A generator seeded from the sha256 of s's bytes permutes the coordinates
    into blocks of k = ORACLE_BLOCK, wrapping round to fill the last one.
    Each block's diag(s) is conjugated by Q, the QR factor of a complex
    Gaussian matrix, and LAPACK geev (np.linalg.eigvals) takes the stack's
    eigenvalues.  A block deviates by the best of the k! pairings of its
    eigenvalues with its coordinates' ``values[labels]``; the result is the
    block closest to its bound, so it passes iff every block does.

    A block's bound, with M its largest |s|, u = 2**-53 and gamma_j = j u /
    (1 - j u), after Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed.):
    - Unitarity: with e the computed ||Q* Q - I||_F, eta = 2 e + 16 k u bounds
      ||Q* Q - I||_2, e's own rounding included, since each entry is a
      complex inner product of length k (sqrt(2) gamma_(k+2), §3.6) and
      ||Q||_F**2 <= k + sqrt(k) ||Q* Q - I||_F.  By the polar decomposition
      Q = U P, Q = U + F with U unitary and ||F||_2 <= ||P - I||_2 <= eta,
      as |sqrt(1 + x) - 1| <= |x| for x >= -1.
    - A0 = U diag(s) U* is normal with eigenvalues s, and Q diag(s) Q* is
      within M eta (2 + eta) of it.
    - Each computed entry is a sum of k terms of two complex products
      (sqrt(2) gamma_2 <= gamma_3 each, Lemma 3.5), so the product is within
      gamma_(k+5) |Q| |diag(s)| |Q|^T, of 2-norm at most k M (1 + eta)**2.
    - geev's eigenvalues are exact for the computed A plus G, ||G||_2 <=
      p(k) u ||A||_2 <= p(k) u M (1 + eta)**2 (1 + k gamma_(k+5)); the
      LAPACK Users' Guide (§4.8) says only that p grows modestly, and
      p(k) = 10 k is taken here.
    - Underflow: each of an entry's 8 k real products may also lose 2**-1075
      (§2.1), scaled by at most 2 later: 16 k**2 2**-1074 in 2-norm.  geev
      scales a tiny matrix up first and rounds each eigenvalue once more
      when it scales back: 2**-1074.
    So geev's eigenvalues are exact for A0 + E with ||E||_2 <= eps = M (eta
    (2 + eta) + (1 + eta)**2 (k gamma_(k+5) + 10 k u (1 + k gamma_(k+5)))) +
    16 k**2 2**-1074.  As A0 is normal, Bauer-Fike puts each eigenvalue of
    A0 + tE, 0 <= t <= 1, within eps of some s_j; by continuity each
    connected component of these discs holds as many eigenvalues as values,
    and within a component of j <= k discs every point is within (2 j - 1)
    eps of every centre.  So some pairing matches within (2 k - 1) eps, and
    the bound is 2 ((2 k - 1) eps + 2**-1074), the factor 2 for the bound's
    own roundings.
    """
    s, k = mu.base.symbol, ORACLE_BLOCK
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(s.tobytes()).digest(), "little"))
    blocks = np.resize(rng.permutation(len(s)), (-(-len(s) // k), k))
    q = np.linalg.qr(rng.standard_normal((len(blocks), k, k, 2)).view(complex)[..., 0])[0]
    eig = np.linalg.eigvals(np.einsum("bij,bj,bkj->bik", q, s[blocks], q.conj()))
    claimed = np.asarray(mu.values, dtype=complex)[mu.labels][blocks]
    dev = np.abs(eig[:, None, :] - claimed[:, _PAIRINGS]).max(axis=2).min(axis=1)

    u = 2.0 ** -53
    gamma = (k + 5) * u / (1 - (k + 5) * u)
    gram = np.einsum("bji,bjk->bik", q.conj(), q) - np.eye(k)
    eta = 2 * np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2))) + 16 * k * u
    size = np.abs(s[blocks]).max(axis=1)
    eps = (size * (eta * (2 + eta) + (1 + eta) ** 2 * (k * gamma + 10 * k * u * (1 + k * gamma)))
           + 16 * k * k * 2.0 ** -1074)
    bound = 2 * ((2 * k - 1) * eps + 2.0 ** -1074)
    worst = int(np.argmax(dev / bound))
    return float(dev[worst]), float(bound[worst])


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


def spectrum_shape_report(T: CentralOperator) -> SpectrumShapeReport:
    """Check the four spectral-shape equivalences for a central operator.  mu_T's
    values are the symbol's values, so one predicate judges both sides."""
    spec = np.asarray(build_mu_T(T).values)
    radius = float(np.abs(spec).max())

    def shape(v):   # real, positive, unimodular; the first two exactly
        real = bool((v.imag == 0).all())
        return (real, real and bool((v.real >= 0).all()),
                bool((np.abs(np.abs(v) - 1.0) <= TOL_EXACT).all()))

    real, positive, unimodular = (a == b for a, b in zip(shape(spec), shape(T.symbol)))
    return SpectrumShapeReport(
        radius_equals_norm=abs(radius - T.order_unit_norm()) <= TOL_EXACT * max(1.0, radius),
        real_iff_selfconjugate=real, positive_iff_positive_symbol=positive,
        unimodular_iff_unit_modulus=unimodular)


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


def reconstruct_from_global(T: CentralOperator) -> CentralOperator:
    """Recover T as the order integral of its Gelfand transform, the symbol,
    against the global measure."""
    mu = global_spectral_measure(T.lattice)
    return CentralOperator(T.lattice, integrate(T.symbol, mu).values)


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
    projection onto the band {i : labels[i] == k}.  A set of spectrum values
    is one bool per entry of ``values``.
    """

    base: CentralOperator
    values: tuple[complex, ...]     # the spectrum, in first-occurrence order
    labels: np.ndarray              # per coordinate, the index of its value

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        """The 0/1 symbols of the bands, one per spectrum value, built on each read."""
        return tuple((self.labels == k).astype(float) for k in range(len(self.values)))

    def band_operators(self) -> tuple[CentralOperator, ...]:
        """mu_T({values[k]}) as a central operator, for each k."""
        return tuple(CentralOperator(self.base.lattice, (self.labels == k).astype(complex))
                     for k in range(len(self.values)))

    def measure_of(self, where) -> CentralOperator:
        """mu_T(Delta) for the set Delta of values[k] with where[k] true."""
        where = np.asarray(where)
        if where.shape != (len(self.values),) or where.dtype != bool:
            raise ValueError(f"one bool per spectrum value required, not {where.dtype} "
                             f"of shape {where.shape}")
        return CentralOperator(self.base.lattice, where[self.labels].astype(complex))

    def reconstruct(self) -> CentralOperator:
        return CentralOperator(self.base.lattice, _on_labels(self.values, self.labels))

    def validate(self) -> None:
        """Assert that every value is attained and that the values on their
        bands reconstruct the operator within TOL_EXACT * max(1, ||base||).

        One label per coordinate makes the projections idempotent, pairwise
        disjoint and summing to the identity by construction.
        """
        k = len(self.values)
        if self.labels.shape != (self.base.lattice.dim,) or (
                (self.labels < 0) | (self.labels >= k)).any():
            raise AssertionError("labels do not index the spectrum values")
        empty = np.flatnonzero(np.bincount(self.labels, minlength=k) == 0)
        if len(empty):
            raise AssertionError(f"projection for attained value {self.values[empty[0]]} is zero")
        tol = TOL_EXACT * max(1.0, self.base.order_unit_norm())
        if np.abs(self.reconstruct().symbol - self.base.symbol).max() > tol:
            raise AssertionError("spectral reconstruction does not recover the operator")


def first_occurrence(symbol: np.ndarray) -> tuple[tuple[complex, ...], np.ndarray]:
    """The distinct entries of a symbol or prefix, in first-occurrence order,
    and for each entry the (read-only) index of its value among them.

    Entries compare as Python complex numbers do: 0.0 and -0.0 are one value,
    the first one kept, and NaN equals nothing.  A stable sort gives each
    distinct value's first index; ranking those indices relabels the values.
    """
    symbol = np.asarray(symbol)
    _, first, inverse = np.unique(symbol, return_index=True, return_inverse=True,
                                  equal_nan=False)
    order = np.argsort(first)
    labels = np.argsort(order)[inverse]
    labels.setflags(write=False)
    return tuple(symbol[first[order]].tolist()), labels


def build_mu_T(T: CentralOperator) -> OperatorSpectralMeasure:
    """Spectral measure of T: the image of the global measure under the symbol,
    labelling each coordinate with the first-occurrence index of its value."""
    return OperatorSpectralMeasure(T, *first_occurrence(T.symbol))


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def _per_value(f, values: Sequence[complex]) -> np.ndarray:
    """f, a callable or one value per entry of ``values``, as a complex array."""
    if callable(f):
        return np.array([complex(f(v)) for v in values], dtype=complex)
    table = np.asarray(f, dtype=complex)
    if table.shape != (len(values),):
        raise ValueError(f"one value per spectrum value required, not shape {table.shape}")
    return table


def rho_T(T: CentralOperator, f,
          mu: Optional[OperatorSpectralMeasure] = None) -> CentralOperator:
    """Functional calculus: the order integral of f against the spectral measure.

    ``f`` is a callable or one value per entry of ``mu.values``.  The bands of
    mu_T are disjoint 0/1 projections, so the integral takes the value
    f(values[k]) on band k: a table lookup through the labels.
    """
    mu = mu if mu is not None else build_mu_T(T)
    return CentralOperator(T.lattice, _on_labels(_per_value(f, mu.values), mu.labels))


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

    @property
    def reason(self) -> str:
        """Why the first failing verdict fails, at which term if known; "" if both hold."""
        for where, v in (("", self.verdict), ("on z: ", self.element_verdict)):
            if v is not None and not v:
                at = "" if v.first_violation is None else f" at term {v.first_violation}"
                return where + v.reason + at
        return ""


def dominated_convergence_calculus(T: CentralOperator,
                                   fs: Sequence | np.ndarray,
                                   f,
                                   tail: Callable[[int], float],
                                   z: Optional[ComplexElement] = None,
                                   ) -> DominatedConvergenceReport:
    """Certify rho_T(f_n) -> rho_T(f) in sigma-order by an explicit witness.

    The witness term u_n is the running sup over occupied spectrum values of
    sup_{m >= n} |f_m - f|, times the identity, and ``tail`` is its decay
    rule.  When ``z`` is supplied the convergence rho_T(f_n) z -> rho_T(f) z
    is certified as well.  Each function is a callable or one value per
    entry of ``build_mu_T(T).values``, and ``fs`` may be one ``(n_terms,
    |sigma|)`` table of them; every value must be finite, so the largest
    |f_n| in the table bounds the f_n uniformly.  The symbols of the
    rho_T(f_n) are one ``(n_terms, dim)`` stack.
    """
    mu = build_mu_T(T)
    limit = _per_value(f, mu.values)
    tables = np.array([_per_value(g, mu.values) for g in fs]).reshape(-1, len(limit))
    if not (np.isfinite(limit).all() and np.isfinite(tables).all()):
        raise PreconditionError("f and every f_n must be finite on the spectrum")
    # Python's abs over one flattened list; per term, sup |f_n - f|
    diff = tables - limit
    devs = np.reshape(list(map(abs, diff.ravel().tolist())), diff.shape).max(axis=1)
    running = np.maximum.accumulate(devs[::-1])[::-1]
    witness = ConvergenceWitness(running[:, None] * np.ones(T.lattice.dim), tail=tail)
    symbols, limit_symbol = tables[:, mu.labels] + 0j, _on_labels(limit, mu.labels)
    verdict = check_witness(symbols, ComplexElement(T.lattice, limit_symbol), witness)
    element_verdict = None
    if z is not None:
        if z.lattice.dim != T.lattice.dim:
            raise DimensionMismatchError("operator and element dimensions differ")
        # z as a (1, dim) row: on x86-64 numpy multiplies a (1, 1) stack by a
        # (1,) vector in another loop, which rounds unlike the per-term product
        element_verdict = check_witness(
            symbols * z.values[None, :], ComplexElement(T.lattice, limit_symbol * z.values),
            ConvergenceWitness(running[:, None] * np.abs(z.values), tail=tail))
    return DominatedConvergenceReport(verdict, witness, element_verdict)


# ---------------------------------------------------------------------------
# eigen expansions and approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenExpansion:
    """T = sum of lambda * P_lambda: mu_T and, read through pairs, its bands."""
    mu: OperatorSpectralMeasure

    @cached_property
    def pairs(self) -> tuple[tuple[complex, CentralOperator], ...]:
        """(lambda, P_lambda) per spectrum value, the bands built on first read."""
        return tuple(zip(self.mu.values, self.mu.band_operators()))


def minimal_polynomial(values: Sequence[complex]) -> tuple[complex, ...]:
    """Monic polynomial with the given distinct roots, highest degree first.

    Per root v, c_k becomes c_(k-1) b + c_k, b = -v, on the float view, and
    for finite roots has np.convolve's bits: its zdotu forms (pr br + cr) -
    (pi bi + ci 0) and (pr bi + cr 0) + (pi br + ci) and adds im 0 to re; as
    no part is ever -0.0, a product with 0 matters only as NaN, so goes last."""
    flat = np.array([1.0] + [0.0] * (2 * len(values) + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, b in enumerate((complex(-v) for v in values), 1):
            prev, cur = flat[:2 * k], flat[2:2 * k + 2]
            by_re, by_im = prev * b.real + cur, prev * b.imag
            im = by_im[0::2] + by_re[1::2] + cur[0::2] * 0.0
            cur[0::2], cur[1::2] = by_re[0::2] - by_im[1::2] + im * 0.0, im
    return tuple(flat.view(complex))


def eval_polynomial(coeffs: Sequence[complex], x: np.ndarray) -> np.ndarray:
    return np.polyval(np.asarray(coeffs, dtype=complex), x)


def annihilation_bound(roots: Sequence[complex], x: np.ndarray) -> np.ndarray:
    """A priori bound on |eval_polynomial(minimal_polynomial(roots), x) - p(x)|
    for p(z) = prod (z - r), exactly; p(x) = 0 at a root.

    After Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.),
    with u = 2**-53 and gamma_k = k u / (1 - k u).  minimal_polynomial's n
    steps c_k - r c_(k-1) sum each part from c_k's and two rounded products
    (§3.1): off by 2 gamma_3 <= gamma_6 times |c_k| + |r| |c_(k-1)|, so each
    coefficient is within gamma_6n of its exact value, relative to that of
    p~(z) = prod (z + |r|).  Each of np.polyval's n Horner steps y x + c is a
    complex product, off by a factor 1 + d with |d| <= sqrt(2) gamma_2 <=
    gamma_3 (Lemma 3.5), and a sum, off by at most a factor 1 + u (§5.1).  So
    the result is within gamma_10n p~(|x|) of p(x) (Lemma 3.3).  Underflow
    adds at most 2**-1073 to each of the n (n + 3) / 2 complex products, which
    reaches the result times at most 2 prod (1 + |x| + |r|) (§2.1).  gamma_16n
    and a second factor 2 absorb the bound's own roundings.  Where the bound is
    not finite, the products are formed again with each factor and partial
    product split by frexp into m 2**e, m in [0.5, 1), so that none over- or
    underflows: the bound is then inf only where it exceeds the largest float.
    """
    u, n = 2.0 ** -53, len(roots)
    gamma = 16 * n * u / (1 - 16 * n * u)
    tilde = loose = np.ones(np.shape(x))
    for r in roots:
        tilde = tilde * (np.abs(x) + abs(r))
        loose = loose * (1 + np.abs(x) + abs(r))
    bound = gamma * tilde + n * (n + 3) * 2.0 ** -1072 * loose
    over = ~np.isfinite(bound)
    if over.any():
        ax, absr = np.abs(x[over])[:, None], np.array([abs(r) for r in roots])
        f, e = np.frexp([ax + absr, 1 + ax + absr])
        m, e = np.ones(f.shape[:2]), e.sum(axis=-1)
        for factor in np.moveaxis(f, -1, 0):  # in root order, as above
            m, carry = np.frexp(m * factor)
            e += carry
        bound[over] = np.ldexp(gamma * m[0], e[0]) + n * (n + 3) * np.ldexp(m[1], e[1] - 1072)
    return bound


def eigen_expansion(T: CentralOperator) -> EigenExpansion:
    """Expansion T = sum of lambda * P_lambda over the attained spectrum:
    mu_T, whose bands P_lambda are built on the first read of pairs."""
    return EigenExpansion(build_mu_T(T))


@dataclass(frozen=True)
class StepApproximation:
    mu: OperatorSpectralMeasure
    error: float

    @property
    def coefficients(self) -> tuple[complex, ...]:
        """One per band; each lies in the spectrum."""
        return self.mu.values

    @cached_property
    def projections(self) -> tuple[CentralOperator, ...]:
        """The pairwise disjoint bands, built on first read."""
        return self.mu.band_operators()


def freudenthal_approx(T: CentralOperator, eps: float) -> StepApproximation:
    """Approximate T by a disjoint step combination with coefficients in sigma(T).

    Atomic operators have finite spectrum, so the representation is exact
    with one term per spectrum value, for any positive eps.
    """
    if not eps > 0:
        raise PreconditionError("eps must be positive")
    mu = build_mu_T(T)
    err = float(np.abs(T.symbol - mu.reconstruct().symbol).max())
    return StepApproximation(mu, err)


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


def _commutes_with_diag(g: np.ndarray, support: tuple[np.ndarray, np.ndarray],
                        x: np.ndarray, tol: float) -> bool:
    """diag(g) X = X diag(g) entrywise: (g[i] - g[j]) X[i, j] vanishes at
    each (i, j) of ``support``, the nonzero entries of X, whose values are
    ``x``.  Any other entry's product is (g[i] - g[j]) * 0 = 0, which passes,
    unless g[i] - g[j] overflows: the dense form's inf * 0 = NaN failed it."""
    return float(np.abs((g[support[0]] - g[support[1]]) * x).max(initial=0.0)) <= tol


def commutant_check(T: CentralOperator, Xi: RegularOperator,
                    rng: np.random.Generator) -> CommutantReport:
    """Evaluate the five equivalent commutation conditions and the block pattern.

    Condition 1 multiplies the dense matrices, as an oracle independent of
    the entrywise form that conditions 2-5 use.  It multiplies with
    np.einsum, numpy's own loop, not ``@``: on a 2-core machine the threaded
    OpenBLAS zgemm behind ``@`` waited 30-36 ms per product at n = 48-128 to
    wake its worker thread, where the loop takes 1-15 ms; past n = 128 the
    loop's n**3 work makes it the slower (115 against 50 ms at n = 256).
    Condition 3 tests the powers id^a with a < |sigma(T)|: their Vandermonde
    matrix on the distinct spectrum values is invertible, so by Lagrange
    interpolation they span every function on the finite spectrum,
    continuous ones included.
    """
    if Xi.lattice.dim != T.lattice.dim:
        raise DimensionMismatchError("operators have different dimensions")
    X = Xi.entries
    s = T.symbol
    tol = TOL_EXACT * max(1.0, float(np.abs(X).max()))

    D = np.diag(s)
    c1 = float(np.abs(np.einsum("ij,jk->ik", D, X)
                      - np.einsum("ij,jk->ik", X, D)).max()) <= tol
    support = np.nonzero(X)
    x = X[support]
    c2 = _commutes_with_diag(np.conj(s), support, x, tol)

    mu = build_mu_T(T)
    # normalise so the powers stay well conditioned.  s / nrm multiplies by
    # 1 / nrm, which overflows when nrm is subnormal: there both are first
    # scaled by 2**600, which is exact
    nrm = T.order_unit_norm()
    if 0 < nrm < np.finfo(float).tiny:
        sn = s * 2.0 ** 600 / (nrm * 2.0 ** 600)
    else:
        sn = s / nrm if nrm > 0 else s
    c3 = all(_commutes_with_diag(sn ** a, support, x, tol) for a in range(len(mu.values)))

    # (p_i - p_j) X_ij is X_ij where exactly one of i, j lies in band k: over
    # all k, the pairs with different labels
    c4 = not ((mu.labels[:, None] != mu.labels[None, :]) & (np.abs(X) > tol)).any()

    c5 = True
    for _ in range(8):
        vals = rng.standard_normal(len(mu.values)) + 1j * rng.standard_normal(len(mu.values))
        if not _commutes_with_diag(_on_labels(vals, mu.labels), support, x, tol):
            c5 = False
            break

    block = not ((s[:, None] != s[None, :]) & (np.abs(X) > tol)).any()

    return CommutantReport(c1, c2, c3, c4, c5, block)
