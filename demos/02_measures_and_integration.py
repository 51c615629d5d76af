"""Walkthrough: lattice-valued measures and the order integral.

Builds a measure on a six-point space with values in R^3, integrates complex
functions against it, pushes it forward along a map of atoms, checks the
spectral product law on a partition measure, and recovers a measure from a
positive functional.  Functions, sets and maps on a space are arrays over its
atoms, so each is measurable by construction.

Run with:  python demos/02_measures_and_integration.py
"""

import numpy as np

from centrelat import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
)

rng = np.random.default_rng(7)

# -- a measure with values in the positive cone of R^3 ----------------------

space = FiniteMeasurableSpace(tuple(range(6)))
mu = LatticeValuedMeasure(space, tuple(rng.uniform(0, 1, size=3) for _ in range(6)))
print("total mass mu(X)     :", mu.total())
print("additivity           :", mu.measure_of([0, 2, 4]),
      "=", mu.measure_of([0]) + mu.measure_of([2]) + mu.measure_of([4]))

# a coarser sigma-algebra: three atoms of two points each
pairs = FiniteMeasurableSpace(space.points, ((0, 1), (2, 3), (4, 5)))
coarse = LatticeValuedMeasure(pairs, mu.values[0::2] + mu.values[1::2])
print("coarse atom of each point   :", pairs.atom_of.tolist())
print("coarse mass of atoms 0 and 2:", coarse.measure_of(np.array([True, False, True])))

# -- the order integral and its triangle inequality -------------------------

f = np.exp(1j * np.arange(6))      # f(p) = cos p + i sin p, one value per atom
value = integrate(f, mu)
bound = integrate(np.abs(f), mu).values.real
print("\nintegral of f        :", value.values)
print("|integral| <= integral of |f| :", np.all(np.abs(value.values) <= bound + 1e-12))

# -- image measures: change of variables ------------------------------------

target = FiniteMeasurableSpace(("a", "b"))
lands = np.arange(6) % 2           # even points go to atom 0 ("a"), odd to 1 ("b")
nu = image_measure(mu, lands, target)
g = np.array([2.0, -1j])
print("\nintegral over image  :", integrate(g, nu).values)
print("pulled-back integral :", integrate(g[lands], mu).values)

# -- spectral measures: partitions of coordinates into projections ----------

proj_space = FiniteMeasurableSpace((0, 1))
proj = LatticeValuedMeasure(proj_space, (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])))
print("\npartition measure is spectral :", bool(is_spectral(proj)))
broken = LatticeValuedMeasure(proj_space, (np.array([0.5, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])))
verdict = is_spectral(broken)
print("0.5-valued atom rejected      :", not verdict, "(idempotent per atom:",
      verdict.idempotent, ")")

# -- recovering a measure from a positive functional ------------------------

# pi takes a function as an array over the points
weights = rng.uniform(0, 1, size=(3, 6))
pi = lambda arr: weights @ np.asarray(arr)
recovered = riesz_represent(pi, space)
print("\nrecovered atom values match the functional's weights:",
      all(np.max(np.abs(recovered.values[k] - weights[:, k])) < 1e-12 for k in range(6)))
