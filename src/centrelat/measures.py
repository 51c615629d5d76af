"""Lattice-valued measures on finite measurable spaces and the order integral.

Measures assign a nonnegative lattice element to every set of a finite
sigma-algebra (given by its atoms); the order integral of a measurable
function is the atom-wise sum, assembled through the positive/negative part
decomposition.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from .lattice import TOL_EXACT, ComplexElement, CoordinateLattice, MaxNorm


class MeasurabilityError(ValueError):
    """A function or map is not measurable for the given sigma-algebra."""


class PositivityError(ValueError):
    """A value that must lie in the positive cone has a negative or non-finite
    coordinate."""


Point = Hashable


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """A finite point set with a sigma-algebra given by its atoms.

    By default the sigma-algebra is the full power set (singleton atoms).
    ``atom_of[i]`` is the index of the atom that holds ``points[i]``.
    """

    points: tuple[Point, ...]
    atoms: tuple[tuple[Point, ...], ...] = ()
    atom_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple(self.points)
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        atoms = tuple(tuple(a) for a in self.atoms) or tuple((p,) for p in points)
        if not all(atoms):
            raise ValueError("atoms must be nonempty")
        atom_at = {p: k for k, atom in enumerate(atoms) for p in atom}
        if len(atom_at) != sum(len(set(atom)) for atom in atoms):
            raise ValueError("atoms must be pairwise disjoint")
        if atom_at.keys() != set(points):
            raise ValueError("atoms must partition the point set")
        atom_of = np.fromiter((atom_at[p] for p in points), dtype=np.intp, count=len(points))
        atom_of.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_of", atom_of)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

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


def _sum_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """The rows added one at a time from zero, in order.

    numpy's reductions may regroup a sum; adding in atom order keeps every
    result reproducible bit for bit.
    """
    total = np.zeros(dim)
    for row in rows:
        total += row
    return total


@dataclass(frozen=True)
class LatticeValuedMeasure:
    """A finitely additive map from a finite sigma-algebra to the positive cone.

    ``values`` is a read-only ``(n_atoms, dim)`` matrix whose row k is the
    value of atom k.  At finite scale, finite additivity on disjoint unions
    certifies the sigma-additivity clause; the construction validates that
    every entry is finite and nonnegative.
    """

    space: FiniteMeasurableSpace
    values: np.ndarray
    lattice: Optional[CoordinateLattice] = None

    def __post_init__(self):
        # a view, so that the caller's array stays writable and is not copied
        vals = np.asarray(self.values, dtype=float).view()
        if vals.ndim != 2 or len(vals) != self.space.n_atoms:
            raise ValueError("one value row of a common dimension per atom required")
        positive = np.all((vals >= 0) & (vals < np.inf), axis=1)
        if not positive.all():
            k = int(np.argmin(positive))
            raise PositivityError(f"atom {k} has a negative or non-finite coordinate")
        vals.setflags(write=False)
        lattice = self.lattice or CoordinateLattice(vals.shape[1], MaxNorm())
        if lattice.dim != vals.shape[1]:
            raise ValueError("lattice dimension does not match the values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lattice", lattice)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def measure_of(self, subset):
        """mu(Delta) for a measurable Delta, by additivity over its atoms."""
        return _sum_rows(self.values[self.space.atoms_of(subset)], self.dim)

    def total(self):
        return self.measure_of(self.space.points)


@dataclass(frozen=True, eq=False)
class MeasurableFunction:
    """A complex function on a finite measurable space, constant on atoms.

    It is built from a table point -> value and keeps one complex value per
    atom in ``values``.
    """

    space: FiniteMeasurableSpace
    table: InitVar[Mapping[Point, complex]]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, table):
        missing = [p for p in self.space.points if p not in table]
        if missing:
            raise MeasurabilityError(f"function undefined at point {missing[0]!r}")
        for atom in self.space.atoms:
            if len({table[p] for p in atom}) > 1:
                raise MeasurabilityError(f"function is not constant on atom {atom!r}")
        values = np.array([complex(table[atom[0]]) for atom in self.space.atoms], dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, point: Point) -> complex:
        return complex(self.values[self.space.atom_of[self.space.points.index(point)]])


def integrate(f: MeasurableFunction, mu: LatticeValuedMeasure):
    """Order integral of f against mu: the atom-wise sum of f * mu(atom).

    Real and imaginary parts are assembled from the positive/negative part
    decomposition of an elementary function, each part summed over the atoms
    in atom order.  Returns a ComplexElement.
    """
    if f.space is not mu.space and f.space != mu.space:
        raise MeasurabilityError("function and measure live on different spaces")
    re, im = f.values.real, f.values.imag
    # per atom, the weights of re_pos, re_neg, im_pos and im_neg
    weights = np.maximum(np.stack([re, -re, im, -im], axis=1), 0.0)
    parts = np.zeros((4, mu.dim))
    for w, m in zip(weights, mu.values):
        parts += w[:, None] * m
    re_pos, re_neg, im_pos, im_neg = parts
    return ComplexElement(mu.lattice, (re_pos - re_neg) + 1j * (im_pos - im_neg))


def image_measure(mu: LatticeValuedMeasure, mapping: Mapping[Point, Point],
                  target: FiniteMeasurableSpace) -> LatticeValuedMeasure:
    """Push mu forward along a point map: (image mu)(Delta) = mu(preimage)."""
    target_atom = dict(zip(target.points, target.atom_of.tolist()))
    for p in mu.space.points:
        if p not in mapping:
            raise ValueError(f"map undefined at point {p!r}")
        if mapping[p] not in target_atom:
            raise ValueError(f"target space does not contain {mapping[p]!r}")
    # the target atom each source point lands in, and one landing per source
    # atom; a target atom's preimage is measurable iff no source atom splits
    lands = np.array([target_atom[mapping[p]] for p in mu.space.points], dtype=np.intp)
    owner = np.empty(mu.space.n_atoms, dtype=np.intp)
    owner[mu.space.atom_of] = lands
    split = lands != owner[mu.space.atom_of]
    if split.any():
        bad = min(lands[split].min(), owner[mu.space.atom_of[split]].min())
        raise MeasurabilityError(f"preimage of atom {target.atoms[bad]!r} is not measurable")
    values = np.array([_sum_rows(mu.values[owner == t], mu.dim) for t in range(target.n_atoms)])
    return LatticeValuedMeasure(target, values, mu.lattice)


@dataclass(frozen=True)
class SpectralVerdict:
    is_spectral: bool
    max_violation: float
    idempotent: tuple[bool, ...]    # per atom

    def __bool__(self) -> bool:
        return self.is_spectral


def is_spectral(mu: LatticeValuedMeasure, tol: float = TOL_EXACT) -> SpectralVerdict:
    """Check the product law mu(D1 & D2) = mu(D1) * mu(D2) on all atom pairs.

    By additivity it suffices that each atom value is idempotent and that
    distinct atom values have product zero.  Values are nonnegative and
    rounding is monotone, so the largest product of two distinct atoms in a
    coordinate is that of the two largest values there.
    """
    v = mu.values
    idem = np.max(np.abs(v * v - v), axis=1)
    worst = float(np.max(idem))
    if len(v) > 1:
        top = np.partition(v, len(v) - 2, axis=0)[-2:]
        worst = max(worst, float(np.max(top[0] * top[1])))
    return SpectralVerdict(worst <= tol, worst, tuple((idem <= tol).tolist()))


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

    def random_measurable(low: float, high: float) -> np.ndarray:
        return rng.uniform(low, high, size=space.n_atoms)[space.atom_of]

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
