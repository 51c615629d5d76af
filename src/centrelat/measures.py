"""Lattice-valued measures on finite measurable spaces and the order integral.

Measures assign a nonnegative lattice element to every set of a finite
sigma-algebra (given by its atoms); the order integral of a measurable
function is the atom-wise sum, assembled through the positive/negative part
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from .lattice import TOL_EXACT, ComplexElement, CoordinateLattice, MaxNorm


class MeasurabilityError(ValueError):
    """A function or map is not measurable for the given sigma-algebra."""


class PositivityError(ValueError):
    """A value that must lie in the positive cone has a negative coordinate."""


Point = Hashable


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """A finite point set with a sigma-algebra given by its atoms.

    By default the sigma-algebra is the full power set (singleton atoms).
    """

    points: tuple[Point, ...]
    atoms: tuple[tuple[Point, ...], ...] = ()

    def __post_init__(self):
        points = tuple(self.points)
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        atoms = tuple(tuple(a) for a in self.atoms) or tuple((p,) for p in points)
        seen: set[Point] = set()
        for atom in atoms:
            if not atom:
                raise ValueError("atoms must be nonempty")
            if seen & set(atom):
                raise ValueError("atoms must be pairwise disjoint")
            seen |= set(atom)
        if seen != set(points):
            raise ValueError("atoms must partition the point set")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def atom_index(self, point: Point) -> int:
        for k, atom in enumerate(self.atoms):
            if point in atom:
                return k
        raise KeyError(point)

    def is_measurable(self, subset: frozenset | set | Sequence[Point]) -> bool:
        s = set(subset)
        if not s <= set(self.points):
            return False
        return all(set(a) <= s or not (set(a) & s) for a in self.atoms)

    def atoms_of(self, subset) -> list[int]:
        s = set(subset)
        if not self.is_measurable(s):
            raise MeasurabilityError(f"{sorted(map(str, s))} is not a union of atoms")
        return [k for k, a in enumerate(self.atoms) if set(a) <= s]


@dataclass(frozen=True)
class LatticeValuedMeasure:
    """A finitely additive map from a finite sigma-algebra to the positive cone.

    At finite scale, finite additivity on disjoint unions certifies the
    sigma-additivity clause; the construction validates positivity of every
    atom value.
    """

    space: FiniteMeasurableSpace
    values: tuple              # one lattice element per atom
    lattice: Optional[CoordinateLattice] = None

    def __post_init__(self):
        vals = tuple(np.asarray(v, dtype=float) for v in self.values)
        if len(vals) != self.space.n_atoms:
            raise ValueError("one value per atom required")
        dims = {len(v) for v in vals}
        if len(dims) != 1:
            raise ValueError("atom values must have a common dimension")
        dim = dims.pop()
        for k, v in enumerate(vals):
            if any(x < 0 for x in v):
                raise PositivityError(f"atom {k} has a negative coordinate")
        lattice = self.lattice or CoordinateLattice(dim, MaxNorm())
        if lattice.dim != dim:
            raise ValueError("lattice dimension does not match the values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lattice", lattice)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def zero(self):
        return np.zeros(self.dim)

    def measure_of(self, subset):
        """mu(Delta) for a measurable Delta, by additivity over its atoms."""
        total = self.zero()
        for k in self.space.atoms_of(subset):
            total = total + self.values[k]
        return total

    def total(self):
        return self.measure_of(self.space.points)


@dataclass(frozen=True)
class MeasurableFunction:
    """A complex function on a finite measurable space, constant on atoms."""

    space: FiniteMeasurableSpace
    table: Mapping[Point, complex]
    bound: Optional[float] = None

    def __post_init__(self):
        missing = [p for p in self.space.points if p not in self.table]
        if missing:
            raise MeasurabilityError(f"function undefined at point {missing[0]!r}")
        for atom in self.space.atoms:
            vals = {self.table[p] for p in atom}
            if len(vals) > 1:
                raise MeasurabilityError(f"function is not constant on atom {atom!r}")
        if self.bound is not None:
            worst = max(abs(complex(self.table[p])) for p in self.space.points)
            if worst > self.bound + TOL_EXACT:
                raise ValueError("declared bound is exceeded")

    @classmethod
    def indicator(cls, space: FiniteMeasurableSpace, subset) -> "MeasurableFunction":
        if not space.is_measurable(subset):
            raise MeasurabilityError("indicator of a non-measurable set")
        s = set(subset)
        return cls(space, {p: (1.0 if p in s else 0.0) for p in space.points}, bound=1.0)

    def __call__(self, point: Point):
        return self.table[point]

    def on_atom(self, k: int):
        return self.table[self.space.atoms[k][0]]


def integrate(f: MeasurableFunction, mu: LatticeValuedMeasure):
    """Order integral of f against mu: the atom-wise sum of f * mu(atom).

    Real and imaginary parts are assembled from the positive/negative part
    decomposition of an elementary function.  Returns a ComplexElement.
    """
    if f.space is not mu.space and f.space != mu.space:
        raise MeasurabilityError("function and measure live on different spaces")
    re_pos = np.zeros(mu.dim)
    re_neg = np.zeros(mu.dim)
    im_pos = np.zeros(mu.dim)
    im_neg = np.zeros(mu.dim)
    for k in range(mu.space.n_atoms):
        v = complex(f.on_atom(k))
        m = mu.values[k]
        re_pos += max(v.real, 0.0) * m
        re_neg += max(-v.real, 0.0) * m
        im_pos += max(v.imag, 0.0) * m
        im_neg += max(-v.imag, 0.0) * m
    return ComplexElement(mu.lattice, (re_pos - re_neg) + 1j * (im_pos - im_neg))


def image_measure(mu: LatticeValuedMeasure, mapping: Mapping[Point, Point],
                  target: FiniteMeasurableSpace) -> LatticeValuedMeasure:
    """Push mu forward along a point map: (image mu)(Delta) = mu(preimage)."""
    for p in mu.space.points:
        if p not in mapping:
            raise ValueError(f"map undefined at point {p!r}")
        if mapping[p] not in target.points:
            raise ValueError(f"target space does not contain {mapping[p]!r}")
    values = []
    for atom in target.atoms:
        pre = {p for p in mu.space.points if mapping[p] in atom}
        if not mu.space.is_measurable(pre):
            raise MeasurabilityError(f"preimage of atom {atom!r} is not measurable")
        values.append(mu.measure_of(pre))
    return LatticeValuedMeasure(target, tuple(values), mu.lattice)


@dataclass(frozen=True)
class SpectralVerdict:
    is_spectral: bool
    max_violation: float
    idempotent: tuple[bool, ...]    # per atom

    def __bool__(self) -> bool:
        return self.is_spectral


def is_spectral(mu: LatticeValuedMeasure,
                product: Optional[Callable] = None,
                tol: float = TOL_EXACT) -> SpectralVerdict:
    """Check the product law mu(D1 & D2) = mu(D1) * mu(D2) on all atom pairs.

    By additivity it suffices that each atom value is idempotent and that
    distinct atom values have product zero.
    """
    prod = product or (lambda a, b: a * b)

    def dev(a, b):
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

    worst = 0.0
    idem = []
    n = mu.space.n_atoms
    for k in range(n):
        d = dev(prod(mu.values[k], mu.values[k]), mu.values[k])
        idem.append(d <= tol)
        worst = max(worst, d)
        for j in range(k + 1, n):
            z = prod(mu.values[k], mu.values[j])
            worst = max(worst, dev(z, mu.zero()))
    return SpectralVerdict(worst <= tol, worst, tuple(idem))


def riesz_represent(pi: Callable[[np.ndarray], np.ndarray],
                    space: FiniteMeasurableSpace,
                    lattice: Optional[CoordinateLattice] = None,
                    samples: int = 64,
                    rng: Optional[np.random.Generator] = None,
                    tol: float = TOL_EXACT) -> LatticeValuedMeasure:
    """Recover the representing measure of a positive linear map on functions.

    ``pi`` maps a real function (array over ``space.points``) to a lattice
    element.  The measure is mu(Delta) = pi(indicator of Delta).  The
    construction validates positivity on indicators, the reproduction
    pi(f) = integral of f, and the sup/inf recovery formulas against sampled
    admissible functions plus the extremal indicator.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    npts = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}

    def chi(subset) -> np.ndarray:
        s = set(subset)
        return np.array([1.0 if p in s else 0.0 for p in space.points])

    values = []
    for atom in space.atoms:
        v = np.asarray(pi(chi(atom)), dtype=float)
        if np.any(v < 0):
            i = int(np.flatnonzero(v < 0)[0])
            raise PositivityError(f"pi(indicator of atom {atom!r}) has negative coordinate {i}")
        values.append(v)
    mu = LatticeValuedMeasure(space, tuple(values), lattice)

    atom_of = np.empty(npts, dtype=int)     # point index -> index of its atom
    for k, atom in enumerate(space.atoms):
        for p in atom:
            atom_of[index[p]] = k

    def random_measurable(low: float, high: float) -> np.ndarray:
        return rng.uniform(low, high, size=space.n_atoms)[atom_of]

    # reproduction pi(f) = order integral of f
    for _ in range(samples):
        arr = random_measurable(-1.0, 1.0)
        f = MeasurableFunction(space, {p: arr[index[p]] for p in space.points})
        lhs = np.asarray(pi(arr), dtype=float)
        rhs = integrate(f, mu).re
        if np.max(np.abs(lhs - rhs)) > tol:
            raise AssertionError("pi does not reproduce the order integral of its measure")

    # sup formula on a nonempty measurable V, inf formula on a nonempty K
    for _ in range(4):
        ks = sorted(rng.choice(space.n_atoms, size=rng.integers(1, space.n_atoms + 1),
                               replace=False))
        vset = {p for k in ks for p in space.atoms[k]}
        target = mu.measure_of(vset)
        extremal = np.asarray(pi(chi(vset)), dtype=float)
        if np.max(np.abs(extremal - target)) > tol:
            raise AssertionError("recovery formula is not attained at the indicator")
        mask = chi(vset)
        for _ in range(samples):
            g = random_measurable(0.0, 1.0) * mask           # 0 <= g <= 1, supp in V
            if np.any(np.asarray(pi(g), dtype=float) > target + tol):
                raise AssertionError("sup recovery formula violated")
            h = np.maximum(random_measurable(0.0, 1.0), mask)  # 0 <= h <= 1, h = 1 on K
            if np.any(np.asarray(pi(h), dtype=float) < target - tol):
                raise AssertionError("inf recovery formula violated")
    return mu
