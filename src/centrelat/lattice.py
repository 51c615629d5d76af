"""Finite-dimensional coordinate lattices, complex elements, and convergence witnesses.

A coordinate lattice is R^n with the coordinatewise order and a lattice norm.
Complex elements live in the complexification and carry a coordinatewise
modulus.  Claimed sigma-order convergences are certified by an explicit
decreasing dominating sequence (a ConvergenceWitness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

#: Tolerance for checks that are algebraically exact on the data.
TOL_EXACT = 1e-12
#: Tolerance for checks backed by a sampling/grid oracle.
TOL_ORACLE = 1e-9
#: Matrix entries per row block of a large pass (a complex block is 256 KiB):
#: 8 rows at dim 2048, 2048 at dim 8, one row at dims of this size or more.
ENTRIES = 8 * 2048


def row_blocks(rows: int, dim: int) -> list[slice]:
    """Slices covering range(rows) in blocks of max(1, ENTRIES // dim) rows."""
    step = max(1, ENTRIES // max(dim, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


class DimensionMismatchError(ValueError):
    """Vectors or operators with incompatible dimensions were combined."""


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


# ---------------------------------------------------------------------------
# norm specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedPNorm:
    """Weighted ell-p norm; ``p`` may be ``math.inf``; ``w`` is the weights, read-only."""

    weights: tuple[float, ...]
    p: float = 2.0
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(0 < w < math.inf for w in self.weights):  # also rejects nan
            raise ValueError("all weights must be finite and strictly positive")
        if not (self.p >= 1):
            raise ValueError("p must lie in [1, inf]")
        object.__setattr__(self, "w", np.array(self.weights, dtype=float))
        self.w.setflags(write=False)

    def rows(self, absx: np.ndarray) -> np.ndarray:
        """Norms of the rows of an (m, dim) array of moduli."""
        if math.isinf(self.p):
            return (self.w * absx).max(axis=-1)
        return self.roots(*self.sums(absx))

    def sums(self, absx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the weighted sum of p-th powers and e, with norm sum**(1/p) * 2**e:
        e = 0 unless the sum overflows, and the row is then summed divided by
        2**e, the power of two just above its largest entry."""
        with np.errstate(over="ignore"):
            sums = (self.w * absx ** self.p).sum(axis=-1)
        e = np.zeros(sums.shape, dtype=int)
        over = sums == math.inf
        if over.any():
            e[over] = np.frexp(absx[over].max(axis=-1))[1]
            sums[over] = (self.w * np.ldexp(absx[over], -e[over, None]) ** self.p).sum(axis=-1)
        return sums, e

    def roots(self, sums: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The norms sum**(1/p) * 2**e, each root by Python's scalar power,
        since numpy's vectorised power may round the last bit differently."""
        with np.errstate(over="ignore"):
            return np.ldexp([s ** (1.0 / self.p) for s in sums.tolist()], e)


@dataclass(frozen=True)
class MaxNorm:
    """Plain sup norm."""

    def rows(self, absx: np.ndarray) -> np.ndarray:
        """Norms of the rows of an (m, dim) array of moduli."""
        return absx.max(axis=-1)


NormSpec = WeightedPNorm | MaxNorm


@dataclass(frozen=True)
class CoordinateLattice:
    """An atomic Banach lattice R^dim with coordinatewise order."""

    dim: int
    norm_spec: NormSpec = field(default_factory=MaxNorm)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if isinstance(self.norm_spec, WeightedPNorm) and len(self.norm_spec.weights) != self.dim:
            raise DimensionMismatchError(f"norm has {len(self.norm_spec.weights)} weights "
                                         f"for dim {self.dim}")

    def norm(self, x: np.ndarray) -> float:
        """Lattice norm of a real or complex coordinate vector."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"vector of shape {x.shape} on lattice of dim {self.dim}")
        return float(self.norm_spec.rows(np.abs(x).astype(float)[None])[0])


# ---------------------------------------------------------------------------
# complex elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexElement:
    """An element of the complexification of a coordinate lattice."""

    lattice: CoordinateLattice
    values: np.ndarray  # complex, shape (dim,)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).view()  # the caller's array stays writable
        if values.shape != (self.lattice.dim,):
            raise DimensionMismatchError(f"element of shape {values.shape} on lattice of dim "
                                         f"{self.lattice.dim}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def conj(self) -> "ComplexElement":
        return ComplexElement(self.lattice, np.conj(self.values))

    def modulus(self) -> np.ndarray:
        return modulus(self)

    def norm(self) -> float:
        return self.lattice.norm(self.modulus())


def modulus(z: ComplexElement) -> np.ndarray:
    """Coordinatewise modulus sqrt(re^2 + im^2) of a complex element."""
    return np.abs(z.values)


def modulus_phase_oracle(z: ComplexElement) -> np.ndarray:
    """Modulus via the sup-over-phases definition sup_theta (x cos t + y sin t).

    Evaluates a uniform grid of 2^16 thetas and runs one golden-section
    refinement around the grid maximum of each coordinate.  Independent of
    the closed form; used as an oracle against it.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    x, y = z.values.real, z.values.imag
    # (dim, grid) objective, coordinatewise
    obj = x[:, None] * c[None, :] + y[:, None] * s[None, :]
    best = obj.max(axis=1)
    k = obj.argmax(axis=1)
    step = theta[1] - theta[0]
    out = np.empty_like(best)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in range(z.lattice.dim):
        f = lambda t: x[i] * math.cos(t) + y[i] * math.sin(t)
        a, b = theta[k[i]] - step, theta[k[i]] + step
        c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = f(c1), f(c2)
        for _ in range(60):
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + invphi * (b - a)
                f2 = f(c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - invphi * (b - a)
                f1 = f(c1)
        out[i] = max(best[i], f1, f2, 0.0)
    return out


# ---------------------------------------------------------------------------
# principal ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalIdeal:
    """The order ideal generated by a nonnegative, nonzero vector."""

    generator: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.generator, dtype=float).view()  # the caller's array stays writable
        if u.ndim != 1:
            raise ValueError("generator must be a vector")
        if not np.isfinite(u).all():
            raise ValueError("generator must be finite")
        if not (u >= 0).all():
            raise ValueError("generator must be nonnegative")
        if not (u > 0).any():
            raise ValueError("generator must be nonzero")
        u.setflags(write=False)
        object.__setattr__(self, "generator", u)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.generator > 0)


def ideal_norm(z: ComplexElement, ideal: PrincipalIdeal) -> float:
    """Order unit norm of z in the ideal: inf{lam >= 0 : |z| <= lam * u}."""
    u = ideal.generator
    if u.shape != (z.lattice.dim,):
        raise DimensionMismatchError("ideal generator and element have different dimensions")
    absz = modulus(z)
    off = np.flatnonzero(u == 0)
    bad = off[absz[off] != 0] if off.size else off
    if bad.size:
        raise DomainError(f"element does not lie in the ideal: coordinate {int(bad[0])} "
                          "is nonzero outside the support")
    sup = ideal.support
    return float((absz[sup] / u[sup]).max())


# ---------------------------------------------------------------------------
# sigma-order convergence certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceWitness:
    """A decreasing dominating sequence certifying sigma-order convergence.

    ``dominating`` is one read-only ``(n_terms, dim)`` array, rows u_1 >= u_2
    >= ... coordinatewise, copied from the terms given, which must share a
    shape.  Decay to zero is certified by the analytic ``tail`` rule: an
    upper bound on the sup of u_n for each n, decreasing to 0.
    """

    dominating: np.ndarray
    tail: Callable[[int], float]

    def __post_init__(self):
        terms = [np.asarray(u, dtype=float) for u in self.dominating]
        if len({u.shape for u in terms}) > 1:
            raise DimensionMismatchError("dominating terms of different shapes")
        doms = np.array(terms) if terms else np.empty((0, 0))
        doms.setflags(write=False)
        object.__setattr__(self, "dominating", doms)


@dataclass(frozen=True)
class WitnessVerdict:
    ok: bool
    first_violation: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_witness(values: Sequence[ComplexElement] | np.ndarray, limit: ComplexElement,
                  witness: ConvergenceWitness) -> WitnessVerdict:
    """Verify that a witness certifies values_n -> limit in sigma-order.

    ``values`` is a sequence of elements or the ``(m, dim)`` array of their
    coordinates; a value or term of another shape than ``(dim,)`` raises
    DimensionMismatchError.  Checks, on the whole table, that the dominating
    sequence is coordinatewise nonincreasing, that |values_n - limit| <= u_n
    for every term (in row blocks, up to the first that fails), and that the
    tail rule is nonincreasing and decays to zero.  Each test passes only if
    its ``<=`` holds, so a NaN term or bound fails it.
    """
    dim, doms = limit.lattice.dim, witness.dominating
    if not isinstance(values, np.ndarray):
        if any(z.lattice.dim != dim for z in values):
            raise DimensionMismatchError("elements on lattices of different dimension")
        values = np.array([z.values for z in values]).reshape(-1, dim)
    if values.shape[1:] != (dim,) or doms.ndim != 2 or (len(doms) and doms.shape[1] != dim):
        raise DimensionMismatchError(f"a value or dominating term not of shape ({dim},)")
    if len(values) > len(doms):
        return WitnessVerdict(False, None, "witness shorter than the value sequence")
    # each row against the one before it, row 0 against itself
    negative = ~(0 <= doms).all(axis=1)
    bad = np.flatnonzero(negative | ~(doms <= np.concatenate((doms[:1], doms[:-1]))).all(axis=1))
    if bad.size:
        n = int(bad[0])
        return WitnessVerdict(False, n, "dominating term has a negative or NaN coordinate"
                              if negative[n] else "dominating sequence increases")
    within = doms[:len(values)] + TOL_EXACT
    for rows in row_blocks(len(values), dim):
        fails = ~(np.abs(values[rows] - limit.values) <= within[rows]).all(axis=1)
        if fails.any():
            return WitnessVerdict(False, rows.start + int(np.argmax(fails)), "domination fails")
    probes = [max(1, len(doms)), 4 * len(doms) + 16, 64 * len(doms) + 256, 10 ** 9, 10 ** 12]
    bounds = [witness.tail(n) for n in probes]
    if not all(b2 <= b1 + TOL_EXACT for b1, b2 in zip(bounds, bounds[1:])):
        return WitnessVerdict(False, None, "tail rule is not nonincreasing")
    if not bounds[-1] <= 1e-6:
        return WitnessVerdict(False, None, "tail rule does not certify decay to zero")
    return WitnessVerdict(True)
