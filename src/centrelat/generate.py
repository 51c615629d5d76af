"""Deterministic random instance generation for verification suites.

Symbols are drawn from the unit disc scaled by powers of ten to exercise
conditioning; lattice norms vary over weighted p-norms and the sup norm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lattice import CoordinateLattice, MaxNorm, WeightedPNorm
from .measures import FiniteMeasurableSpace, LatticeValuedMeasure
from .operators import CentralOperator, RegularOperator
from .sequence import BUILTIN_RULES, SequenceCentralOperator

SCALES = (1e-2, 1e-1, 1.0, 1e1, 1e2)


def random_lattice(rng: np.random.Generator, dim: int) -> CoordinateLattice:
    kind = rng.integers(0, 3)
    if kind == 0:
        return CoordinateLattice(dim, MaxNorm())
    weights = tuple(float(w) for w in rng.uniform(0.25, 4.0, size=dim))
    p = float(rng.choice([1.0, 2.0, 3.0, np.inf]))
    return CoordinateLattice(dim, WeightedPNorm(weights, p))


def random_disc(rng: np.random.Generator, n: int) -> np.ndarray:
    r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return r * np.exp(1j * phi)


def random_central(rng: np.random.Generator,
                   lattice: Optional[CoordinateLattice] = None,
                   dim: Optional[int] = None,
                   repeats: bool = False) -> CentralOperator:
    if lattice is None:
        lattice = random_lattice(rng, dim or int(rng.integers(1, 9)))
    scale = float(rng.choice(SCALES))
    symbol = random_disc(rng, lattice.dim) * scale
    if repeats and lattice.dim >= 2:
        # force at least one repeated spectral value
        i, j = rng.choice(lattice.dim, size=2, replace=False)
        symbol[j] = symbol[i]
    return CentralOperator(lattice, symbol)


def random_measure(rng: np.random.Generator, dim: int = 4) -> LatticeValuedMeasure:
    points = tuple(range(6))
    space = FiniteMeasurableSpace(points)
    values = tuple(rng.uniform(0.0, 2.0, size=dim) for _ in points)
    return LatticeValuedMeasure(space, values)


def random_projection_measure(rng: np.random.Generator, dim: int) -> LatticeValuedMeasure:
    """A spectral measure: a random partition of coordinates into 0/1 projections."""
    k = int(rng.integers(1, dim + 1))
    labels = rng.integers(0, k, size=dim)
    labels[rng.integers(0, dim)] = 0  # keep atom 0 nonempty
    used = sorted(set(int(x) for x in labels))
    space = FiniteMeasurableSpace(tuple(range(len(used))))
    values = tuple((labels == lab).astype(float) for lab in used)
    return LatticeValuedMeasure(space, values)


def random_sequence(rng: np.random.Generator) -> SequenceCentralOperator:
    name = str(rng.choice(["reciprocal", "geometric", "shifted_reciprocal", "constant"]))
    if name == "geometric":
        return BUILTIN_RULES[name](float(rng.uniform(0.2, 0.9)))
    if name == "shifted_reciprocal":
        return BUILTIN_RULES[name](float(rng.uniform(-2.0, 2.0)))
    if name == "constant":
        return BUILTIN_RULES[name](complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return BUILTIN_RULES[name]()


def commuting_fpr_triple(rng: np.random.Generator, dim: int):
    """A triple (S, T, X) with S X = X T, built on the commutation pattern
    X_ij (s_i - t_j) = 0."""
    lattice = random_lattice(rng, dim)
    pool = random_disc(rng, max(1, dim // 2 + 1)) * float(rng.choice(SCALES))
    s = pool[rng.integers(0, len(pool), size=dim)]
    t = pool[rng.integers(0, len(pool), size=dim)]
    return (CentralOperator(lattice, s), CentralOperator(lattice, t),
            RegularOperator(lattice, _random_on(rng, s[:, None] == t[None, :])))


def commutant_block_operator(rng: np.random.Generator, T: CentralOperator) -> RegularOperator:
    """A random operator supported on the equal-symbol index classes of T."""
    s = T.symbol
    return RegularOperator(T.lattice, _random_on(rng, s[:, None] == s[None, :]))


def _random_on(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    """Zero off ``mask``; on it, standard normal parts drawn in row-major order,
    real part first, the same stream as one scalar draw per part."""
    z = rng.standard_normal((np.count_nonzero(mask), 2))
    X = np.zeros(mask.shape, dtype=complex)
    X[mask] = z[:, 0] + 1j * z[:, 1]
    return X
