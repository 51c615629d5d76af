"""Lattice-valued measures on finite measurable spaces and the order integral.

Measures assign a nonnegative lattice element to every set of a finite
sigma-algebra (given by its atoms); the order integral of a measurable
function is the atom-wise sum, assembled through the positive/negative part
decomposition.  Functions, sets and maps on a space are given per atom, so
each is measurable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

import numpy as np

from .lattice import TOL_EXACT, ComplexElement, CoordinateLattice, MaxNorm


class PositivityError(ValueError):
    """A value that must lie in the positive cone has a negative or non-finite
    coordinate."""


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """A finite point set with a sigma-algebra given by its atoms.

    By default the sigma-algebra is the full power set (singleton atoms).
    ``atom_of[i]`` is the index of the atom that holds ``points[i]``.
    """

    points: tuple[Hashable, ...]
    atoms: tuple[tuple[Hashable, ...], ...] = ()
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

    def measure_of(self, atoms) -> np.ndarray:
        """mu of a union of atoms, a boolean mask or index array, summed in order."""
        index = np.asarray(atoms)  # [] comes out as floats, which cannot index
        return _sum_rows(self.values[index] if index.size else self.values[:0], self.dim)

    def total(self) -> np.ndarray:
        return _sum_rows(self.values, self.dim)


def integrate(f, mu: LatticeValuedMeasure) -> ComplexElement:
    """Order integral of f against mu: the atom-wise sum of f * mu(atom).

    ``f`` is the function's complex value on each atom of ``mu.space``.  Real
    and imaginary parts are assembled from the positive/negative part
    decomposition of an elementary function, each part summed over the atoms
    in atom order.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (mu.space.n_atoms,):
        raise ValueError(f"one value per atom required, not shape {f.shape}")
    re, im = f.real, f.imag
    # per atom, the weights of re_pos, re_neg, im_pos and im_neg
    weights = np.maximum(np.stack([re, -re, im, -im], axis=1), 0.0)
    parts = np.zeros((4, mu.dim))
    for w, m in zip(weights, mu.values):
        parts += w[:, None] * m
    re_pos, re_neg, im_pos, im_neg = parts
    return ComplexElement(mu.lattice, (re_pos - re_neg) + 1j * (im_pos - im_neg))


def image_measure(mu: LatticeValuedMeasure, lands,
                  target: FiniteMeasurableSpace) -> LatticeValuedMeasure:
    """Push mu forward along a map that sends source atom k into target atom
    ``lands[k]``: (image mu)(Delta) = mu(preimage of Delta)."""
    lands = np.asarray(lands)
    if lands.shape != (mu.space.n_atoms,) or lands.dtype.kind not in "iu":
        raise ValueError("one integer target atom per source atom required")
    outside = (lands < 0) | (lands >= target.n_atoms)
    if outside.any():
        raise ValueError(f"target space has no atom {lands[outside][0]}")
    values = np.array([_sum_rows(mu.values[lands == t], mu.dim) for t in range(target.n_atoms)])
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
    values = []
    for k, atom in enumerate(space.atoms):
        v = np.asarray(pi((space.atom_of == k).astype(float)), dtype=float)
        if np.any(v < 0):
            i = int(np.flatnonzero(v < 0)[0])
            raise PositivityError(f"pi(indicator of atom {atom!r}) has negative coordinate {i}")
        values.append(v)
    mu = LatticeValuedMeasure(space, tuple(values), lattice)

    # reproduction pi(f) = order integral of f
    for _ in range(samples):
        f = rng.uniform(-1.0, 1.0, size=space.n_atoms)
        lhs = np.asarray(pi(f[space.atom_of]), dtype=float)
        rhs = integrate(f, mu).re
        if np.max(np.abs(lhs - rhs)) > tol:
            raise AssertionError("pi does not reproduce the order integral of its measure")

    # sup formula on a nonempty measurable V, inf formula on a nonempty K
    for _ in range(4):
        ks = sorted(rng.choice(space.n_atoms, size=rng.integers(1, space.n_atoms + 1),
                               replace=False))
        target = mu.measure_of(ks)
        mask = np.isin(space.atom_of, ks).astype(float)
        extremal = np.asarray(pi(mask), dtype=float)
        if np.max(np.abs(extremal - target)) > tol:
            raise AssertionError("recovery formula is not attained at the indicator")
        for _ in range(samples):
            # 0 <= g <= 1 with support in V, and 0 <= h <= 1 with h = 1 on K
            g = rng.uniform(0.0, 1.0, size=space.n_atoms)[space.atom_of] * mask
            if np.any(np.asarray(pi(g), dtype=float) > target + tol):
                raise AssertionError("sup recovery formula violated")
            h = np.maximum(rng.uniform(0.0, 1.0, size=space.n_atoms)[space.atom_of], mask)
            if np.any(np.asarray(pi(h), dtype=float) < target - tol):
                raise AssertionError("inf recovery formula violated")
    return mu
