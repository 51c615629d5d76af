"""Regular operators as complex matrices and the centre as diagonal symbols.

On an atomic lattice the centre consists exactly of the diagonal operators;
a central operator is therefore represented by its diagonal symbol.  This
module provides moduli, the centrality test, the three coinciding norms,
polar decompositions, localisation to principal ideals, and the
Fuglede-Putnam-Rosenblum transfer check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import (
    TOL_EXACT,
    ComplexElement,
    CoordinateLattice,
    DimensionMismatchError,
    PrincipalIdeal,
    WeightedPNorm,
    ideal_norm,
    row_blocks,
)


@dataclass(frozen=True)
class RegularOperator:
    """A regular operator on the complexification, stored as a dense matrix."""

    lattice: CoordinateLattice
    entries: np.ndarray  # complex, shape (dim, dim)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex).view()  # the caller's array stays writable
        n = self.lattice.dim
        if m.shape != (n, n):
            raise DimensionMismatchError(f"matrix of shape {m.shape} on lattice of dim {n}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def apply(self, z: ComplexElement) -> ComplexElement:
        if z.lattice.dim != self.lattice.dim:
            raise DimensionMismatchError("operator and element dimensions differ")
        return ComplexElement(z.lattice, self.entries @ z.values)


@dataclass(frozen=True)
class CentralOperator:
    """A member of the centre, represented by its diagonal symbol."""

    lattice: CoordinateLattice
    symbol: np.ndarray  # complex, shape (dim,)

    def __post_init__(self):
        s = np.asarray(self.symbol, dtype=complex).view()  # the caller's array stays writable
        if s.shape != (self.lattice.dim,):
            raise DimensionMismatchError(f"symbol of shape {s.shape} on lattice of dim "
                                         f"{self.lattice.dim}")
        if not np.isfinite(s).all():
            raise ValueError("symbol values must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "symbol", s)

    def apply(self, z: ComplexElement) -> ComplexElement:
        if z.lattice.dim != self.lattice.dim:
            raise DimensionMismatchError("operator and element dimensions differ")
        return ComplexElement(z.lattice, self.symbol * z.values)

    @cached_property
    def spectral_measure(self):
        """mu_T, as ``spectral.build_mu_T`` returns it: built on the first read
        and kept, since the symbol is read-only."""
        from .spectral import OperatorSpectralMeasure, first_occurrence  # it imports this module
        return OperatorSpectralMeasure(self, *first_occurrence(self.symbol))

    def conj(self) -> "CentralOperator":
        return CentralOperator(self.lattice, np.conj(self.symbol))

    def modulus(self) -> "CentralOperator":
        return CentralOperator(self.lattice, np.abs(self.symbol).astype(complex))

    def order_unit_norm(self) -> float:
        return float(np.abs(self.symbol).max())

    def __mul__(self, other: "CentralOperator") -> "CentralOperator":
        if other.lattice.dim != self.lattice.dim:
            raise DimensionMismatchError("operators on lattices of different dimension")
        return CentralOperator(self.lattice, self.symbol * other.symbol)


@dataclass(frozen=True)
class CentralityVerdict:
    is_central: bool
    max_off_diagonal: float
    operator: Optional[CentralOperator] = None
    where: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.is_central


def is_central(T: RegularOperator) -> CentralityVerdict:
    """Test |T| <= lam * I, i.e. vanishing off-diagonal, and extract the symbol."""
    off = np.abs(T.entries).copy()
    np.fill_diagonal(off, 0.0)
    worst = float(off.max()) if off.size else 0.0
    if worst <= TOL_EXACT:
        return CentralityVerdict(True, worst, CentralOperator(T.lattice, np.diag(T.entries)))
    i, j = np.unravel_index(int(off.argmax()), off.shape)
    return CentralityVerdict(False, worst, None, (int(i), int(j)))


@dataclass(frozen=True)
class NormTriple:
    """The coinciding order unit, operator, and regular norms with certificate data."""

    order_unit: float
    operator: float
    regular: float
    attained_at: int            # basis vector index attaining the operator norm
    max_sampled_ratio: float    # largest ||Tz|| / ||z|| over the random sample


def norms(T: CentralOperator, samples: int = 1000, *, rng: np.random.Generator) -> NormTriple:
    """Order unit / operator / regular norm of a central operator.

    All three equal max |symbol|.  The operator-norm value is certified by
    exhibiting the attaining basis vector and by ``samples`` (>= 0) sampled
    ratios ||Tz|| / ||z||, none of which may exceed it beyond TOL_EXACT.

    Each sample draws the moduli r = |z| directly, one Rayleigh(1) draw per
    coordinate: the law of |z| for a standard complex Gaussian z.  For T
    central |Tz| = |T||z|, and every lattice norm has ||z|| = || |z| ||, so
    the ratio depends on z only through |z| and r gives the same law of
    ratios as z.  T is still applied to each sample, as the product T r.

    ``max_sampled_ratio`` is the largest ratio of per-row norms, NaN left out,
    over samples r != 0.  For a weighted p-norm, p finite, only candidate rows
    of the p-th-power sums a of Tr and b of r take roots: where a, b or
    q = a / b is zero, subnormal, scaled or not finite, or q >= (1 - 16 (p + 1)
    eps) max q, a margin that holds the rounding of q and of two roots within
    2 ulps and their quotient.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, not {samples}")
    value = T.order_unit_norm()
    attained = int(np.argmax(np.abs(T.symbol)))
    worst = 0.0
    if samples > 0:
        n = T.lattice.dim
        r = rng.rayleigh(size=(samples, n))
        spec = T.lattice.norm_spec
        powers = isinstance(spec, WeightedPNorm) and spec.p < np.inf
        # per sample, the norms of Tr and r, or their sums and exponents
        (num, den), (num_e, den_e) = np.empty((2, samples)), np.zeros((2, samples), dtype=int)
        for rows in row_blocks(samples, n):
            block = r[rows]
            # numpy rounds (1,) * (1, 1) differently from (1,) * (1,), so a
            # one-row block takes the 1-D product that a single sample gets
            tr = T.symbol * block if len(block) > 1 else (T.symbol * block[0])[None, :]
            if powers:
                num[rows], num_e[rows] = spec.sums(np.abs(tr))
                den[rows], den_e[rows] = spec.sums(block)
            else:
                num[rows], den[rows] = spec.rows(np.abs(tr)), spec.rows(block)
        if powers:
            with np.errstate(all="ignore"):  # q is 0 on the rows taken anyway
                abq = np.array([num, den, num / den])
            normal = ((np.finfo(float).tiny <= abq) & (abq < np.inf)).all(axis=0)
            q = np.where(normal & ((num_e | den_e) == 0), abq[2], 0.0)
            c = (q == 0) | (q >= q.max() * (1 - 16 * (spec.p + 1) * np.finfo(float).eps))
            num, den = spec.roots(num[c], num_e[c]), spec.roots(den[c], den_e[c])
        nonzero = den != 0
        worst = float(np.fmax.reduce(num[nonzero] / den[nonzero], initial=0.0))
    return NormTriple(value, value, value, attained, worst)


@dataclass(frozen=True)
class FPRVerdict:
    """Outcome of the Fuglede-Putnam-Rosenblum transfer check."""

    forward: bool                # S X = X T
    conjugate: bool              # conj(S) X = X conj(T)
    transfer_ok: bool            # forward implies conjugate on this instance
    max_forward_deviation: float
    max_conjugate_deviation: float
    first_violation: Optional[tuple[int, int]] = None


def fpr_check(S: CentralOperator, T: CentralOperator, X: RegularOperator) -> FPRVerdict:
    """Check S X = X T and its conjugate transfer."""
    if not (S.lattice.dim == T.lattice.dim == X.lattice.dim):
        raise DimensionMismatchError("operators have different dimensions")
    fwd = S.symbol[:, None] * X.entries - X.entries * T.symbol[None, :]
    con = np.conj(S.symbol)[:, None] * X.entries - X.entries * np.conj(T.symbol)[None, :]
    dev_f = float(np.abs(fwd).max()) if fwd.size else 0.0
    dev_c = float(np.abs(con).max()) if con.size else 0.0
    forward = dev_f <= TOL_EXACT
    conjugate = dev_c <= TOL_EXACT
    first = None
    if not forward:
        i, j = np.unravel_index(int(np.abs(fwd).argmax()), fwd.shape)
        first = (int(i), int(j))
    return FPRVerdict(forward=forward, conjugate=conjugate, transfer_ok=(not forward) or conjugate,
                      max_forward_deviation=dev_f, max_conjugate_deviation=dev_c,
                      first_violation=first)


@dataclass(frozen=True)
class PolarFactors:
    positive: CentralOperator   # P >= 0
    unitary: CentralOperator    # |U| = I


def polar(T: CentralOperator) -> PolarFactors:
    """Polar decomposition T = P U with P >= 0 and |U| = I.

    Where the symbol vanishes, U is set to 1 so that |U| = I holds and the
    factorisation is deterministic.  Elsewhere U = t / |t| by numpy's complex
    division, where t is s with both parts of each entry of subnormal
    modulus scaled by 2**600, which is exact: s / |s| itself gives inf + nan i
    there, and |s| keeps too few bits for |U| = 1 to hold.
    """
    s, absval = T.symbol, np.abs(T.symbol)
    t, sub = s.copy(), absval < np.finfo(float).tiny
    t.real[sub] *= 2.0 ** 600
    t.imag[sub] *= 2.0 ** 600
    abst = np.abs(t)
    u = np.where(abst > 0, t / np.where(abst > 0, abst, 1.0), 1.0)
    return PolarFactors(CentralOperator(T.lattice, absval.astype(complex)),
                        CentralOperator(T.lattice, u))


@dataclass(frozen=True)
class Localization:
    """The multiplication symbol of a central operator on a principal ideal."""

    symbol: np.ndarray          # values of the restriction on the support
    support: np.ndarray
    ideal_norm_of_Tu: float     # ||Tu||_u, equals max |symbol| on the support


def localize(T: CentralOperator, ideal: PrincipalIdeal) -> Localization:
    """Restrict a central operator to a principal ideal as a multiplication symbol.

    The restriction is the symbol on the ideal's support, so it commutes with
    conjugation and the modulus, which act coordinatewise.  The localize
    suite's restriction-isometry record checks ||Tu||_u = max_support |M(T)|.
    """
    if ideal.generator.shape != (T.lattice.dim,):
        raise DimensionMismatchError("ideal generator and operator have different dimensions")
    sup = ideal.support
    m = T.symbol[sup]
    u_elem = ComplexElement(T.lattice, ideal.generator.astype(complex))
    return Localization(m, sup, ideal_norm(T.apply(u_elem), ideal))
