"""Lattice-valued measures on finite measurable spaces and the order integral.

Measures assign a nonnegative lattice element to every set of a finite
sigma-algebra (given by its atoms); the order integral of a measurable
function is the atom-wise sum, assembled through the positive/negative part
decomposition.  Functions, sets and maps on a space are given per atom, so
each is measurable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Optional

import numpy as np

from .lattice import TOL_EXACT, ComplexElement, CoordinateLattice, MaxNorm, row_blocks

#: Random functions per reproduction check and per sup/inf round of the Riesz checks.
RIESZ_SAMPLES = 64


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
        if len(atom_at) != sum(len(atom) for atom in atoms):
            raise ValueError("atoms must be pairwise disjoint and list each point once")
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
        # NaN fails both comparisons; only then are the atoms scanned for the first bad one
        if not (vals.min(initial=0.0) >= 0 and vals.max(initial=0.0) < np.inf):
            k = int(np.argmin(((vals >= 0) & (vals < np.inf)).all(axis=1)))
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
        """mu of the union of the atoms k with atoms[k] true: their rows added
        from 0 in atom order."""
        mask = np.asarray(atoms)
        if mask.shape != (self.space.n_atoms,) or mask.dtype != bool:
            raise ValueError(f"one bool per atom required, not {mask.dtype} "
                             f"of shape {mask.shape}")
        return sum(self.values[mask], np.zeros(self.dim))

    def total(self) -> np.ndarray:
        return sum(self.values, np.zeros(self.dim))

    @cached_property
    def charges(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The atoms k and coordinates j of the nonzero values, or None if a coordinate
        is charged twice; found once, without numpy's slow column-wise argmax."""
        charged = self.values != 0
        if charged.sum(axis=1).max(initial=0) <= 1:  # as the global measure: one row-wise argmax
            k = np.flatnonzero(charged.any(axis=1))
            j = charged.argmax(axis=1)[k]
            return (k, j) if np.bincount(j, minlength=self.dim).max(initial=0) <= 1 else None
        return None if charged.sum(axis=0).max() > 1 else np.nonzero(charged)


def _integrals(fs, mu: LatticeValuedMeasure) -> np.ndarray:
    """Order integrals of a stack of functions: the ``(m, dim)`` matrix whose
    row i is the integral of ``fs[i]``, one value per atom of ``mu.space``.

    Per atom, the weights of re_pos, re_neg and, on a complex stack, im_pos
    and im_neg scale the atom's value, each part summed from zero over the
    atoms in atom order: row i has the same bits however many rows the stack
    holds, and on a real stack those of the complex path's real part, as no
    part is ever -0.  If no coordinate is charged twice (``mu.charges``), the
    loop adds signed zeros to +0 but for one w * m per coordinate, so the
    gathered 0.0 + w * m has its bits.
    """
    signed = [fs.real.T, -fs.real.T] + ([fs.imag.T, -fs.imag.T] if fs.dtype.kind == "c" else [])
    weights = np.maximum(np.stack(signed, axis=-1), 0.0)
    parts = np.zeros((len(fs), len(signed), mu.dim))
    if mu.charges is None:
        for w, m in zip(weights, mu.values):
            parts += w[:, :, None] * m
    else:
        k, j = mu.charges
        parts[:, :, j] = 0.0 + weights[k].transpose(1, 2, 0) * mu.values[k, j]
    real = parts[:, 0] - parts[:, 1]
    return real + 1j * (parts[:, 2] - parts[:, 3]) if len(signed) == 4 else real


def integrate(f, mu: LatticeValuedMeasure) -> ComplexElement:
    """Order integral of f against mu: the atom-wise sum of f * mu(atom).

    ``f`` is the function's complex value on each atom of ``mu.space``, and
    every value must be finite.  Real and imaginary parts are assembled from
    the positive/negative part decomposition of an elementary function, each
    part summed over the atoms in atom order.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (mu.space.n_atoms,):
        raise ValueError(f"one value per atom required, not shape {f.shape}")
    finite = np.isfinite(f)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"f has the non-finite value {f[k]} on atom {k}")
    return ComplexElement(mu.lattice, _integrals(f[None], mu)[0])


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
    values = np.array([sum(mu.values[lands == t], np.zeros(mu.dim)) for t in range(target.n_atoms)])
    return LatticeValuedMeasure(target, values, mu.lattice)


@dataclass(frozen=True)
class SpectralVerdict:
    is_spectral: bool
    max_violation: float
    idempotent: tuple[bool, ...]    # per atom

    def __bool__(self) -> bool:
        return self.is_spectral


def is_spectral(mu: LatticeValuedMeasure) -> SpectralVerdict:
    """Check the product law mu(D1 & D2) = mu(D1) * mu(D2) on all atom pairs within TOL_EXACT.

    By additivity it suffices that each atom value is idempotent and that
    distinct atom values have product zero.  Values are nonnegative and
    rounding is monotone, so the largest product of two distinct atoms in a
    coordinate is that of the two largest values there.
    """
    v = mu.values
    idem = np.abs(v * v - v).max(axis=1)
    worst = float(idem.max())
    if len(v) > 1:
        top = np.partition(v, len(v) - 2, axis=0)[-2:]
        worst = max(worst, float((top[0] * top[1]).max()))
    return SpectralVerdict(worst <= TOL_EXACT, worst, tuple((idem <= TOL_EXACT).tolist()))


def _value(value, shape: tuple, phases: tuple[str, ...]) -> np.ndarray:
    """A value of pi as a real array of ``shape``, whose last length None
    leaves free; any imaginary part other than 0, NaN included, fails."""
    if type(value) is np.ndarray and value.dtype == float and value.shape == shape:
        return value  # the checks below would return it unchanged
    value = np.asarray(value)
    if value.ndim != len(shape) or any(w not in (None, n) for n, w in zip(value.shape, shape)):
        want = "1-D" if shape == (None,) else str(shape).replace("None", "n")
        raise AssertionError(f"pi's value in the {' and '.join(dict.fromkeys(phases))} "
                             f"has shape {value.shape}, not {want}")
    if value.dtype.kind == "c" and not (value.imag == 0).all():
        raise AssertionError("pi is not real-valued")
    return np.asarray(value.real, dtype=float)


def _represent(values, space: FiniteMeasurableSpace, lattice: Optional[CoordinateLattice],
               rng: np.random.Generator) -> LatticeValuedMeasure:
    """The checks of ``riesz_represent_stack``; ``values(fs, phases, dim)`` is
    pi's checked value on the stack ``fs``, row i in the phase ``phases[i]``.
    The indicators, mu's ``charges`` and the rounds' row blocks are found once
    per call; a round's mu(V) adds V's rows from 0 in atom order, as measure_of does."""
    n_atoms, atom_of = space.n_atoms, space.atom_of
    if not n_atoms:  # no row then fixes the dimension, and there is nothing to draw from
        raise ValueError("one value row of a common dimension per atom required")
    # the indicators' value fixes the row shape of every later one
    indicators = (atom_of == np.arange(n_atoms)[:, None]).astype(float)
    atom_values = values(indicators, ("indicator phase",) * n_atoms, None)
    if (atom_values < 0).any():
        k, i = np.argwhere(atom_values < 0)[0]
        raise PositivityError(f"pi(indicator of atom {space.atoms[k]!r}) has negative "
                              f"coordinate {i}")
    mu = LatticeValuedMeasure(space, atom_values, lattice)
    dim = mu.dim

    # reproduction pi(f) = order integral of f
    fs = rng.uniform(-1.0, 1.0, size=(RIESZ_SAMPLES, n_atoms))
    on_points, phases = fs[:, atom_of], ("reproduction",) * RIESZ_SAMPLES
    for rows in row_blocks(RIESZ_SAMPLES, 4 * dim):
        lhs = values(on_points[rows], phases[rows], dim)
        if not np.abs(lhs - _integrals(fs[rows], mu)).max() <= TOL_EXACT:
            raise AssertionError("pi does not reproduce the order integral of its measure")

    # sup formula on a nonempty measurable V, inf formula on a nonempty K;
    # row i of rng.random((m, n)) has the bits of the i-th rng.uniform(0.0, 1.0, size=n)
    phases = ("sup recovery", "inf recovery") * RIESZ_SAMPLES
    sup, blocks = np.arange(2 * RIESZ_SAMPLES) % 2 == 0, row_blocks(2 * RIESZ_SAMPLES, dim)
    for _ in range(4):
        ks = sorted(rng.choice(n_atoms, size=rng.integers(1, n_atoms + 1), replace=False))
        target, mask = sum(mu.values[ks], np.zeros(dim)), indicators[ks].sum(axis=0)
        extremal = values(mask[None], ("extremal indicator",), dim)[0]
        if not np.abs(extremal - target).max() <= TOL_EXACT:
            raise AssertionError("recovery formula is not attained at the indicator")
        upper, lower = target + TOL_EXACT, target - TOL_EXACT
        # rows 0::2: 0 <= g <= 1 with support in V; rows 1::2: 0 <= h <= 1 with h = 1 on K
        fs = rng.random((2 * RIESZ_SAMPLES, n_atoms))[:, atom_of]
        fs[0::2] *= mask
        fs[1::2] = np.maximum(fs[1::2], mask)
        for rows in blocks:
            vals = values(fs[rows], phases[rows], dim)
            holds = np.where(sup[rows, None], vals <= upper, lower <= vals).all(axis=1)
            if not holds.all():
                i = rows.start + int(np.argmin(holds))
                raise AssertionError(f"{phases[i]} formula violated")
    return mu


def riesz_represent_stack(pi: Callable[[np.ndarray], np.ndarray], space: FiniteMeasurableSpace,
                          lattice: Optional[CoordinateLattice] = None, *,
                          rng: np.random.Generator) -> LatticeValuedMeasure:
    """Recover the representing measure of a positive linear map on functions.

    ``pi`` maps an ``(m, n_points)`` stack of real functions to the ``(m,
    dim)`` real array of their values; its value on the atoms' indicators is
    mu and fixes ``dim``.  One call per row block then checks the
    reproduction pi(f) = integral of f on RIESZ_SAMPLES draws from ``rng``
    and, in each of 4 rounds, the extremal indicator and the sup/inf formulas
    on RIESZ_SAMPLES pairs g, h (rows g_0, h_0, g_1, ...).  On failing input, a
    shape or real-value fault in a block is raised before a bound violation.
    """
    return _represent(lambda fs, phases, dim: _value(pi(fs), (len(fs), dim), phases),
                      space, lattice, rng)


def riesz_represent(pi: Callable[[np.ndarray], np.ndarray], space: FiniteMeasurableSpace,
                    lattice: Optional[CoordinateLattice] = None, *,
                    rng: np.random.Generator) -> LatticeValuedMeasure:
    """``riesz_represent_stack`` lifted to a ``pi`` of one function: ``pi`` is
    called on each row of each block in order, each value must be real and of
    the 1-D shape of the first, and a fault in either is raised as it is read.
    """
    def lifted(fs, phases, dim):
        out = []
        for f, phase in zip(fs, phases):
            out.append(_value(pi(f), (dim,), (phase,)))
            dim = len(out[0])
        return np.array(out)

    return _represent(lifted, space, lattice, rng)
