"""Walkthrough: spectral measures and the functional calculus.

Takes a central operator with a repeated spectral value, builds its
projection-valued spectral measure, applies bounded functions through the
order integral, expands it over eigen-bands, and checks the commutant
characterisation.  A function on the spectrum is a callable or one value
per entry of ``mu.values``; a set of spectrum values is one bool per entry.

Run with:  python demos/03_spectral_calculus.py
"""

import numpy as np

from centrelat import (
    CentralOperator,
    ComplexElement,
    CoordinateLattice,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    eigen_query,
    freudenthal_approx,
    rho_T,
    spectrum,
)
from centrelat.operators import RegularOperator
from centrelat.spectral import kernel_projection

lat = CoordinateLattice(5)
T = CentralOperator(lat, np.array([1.0, 2.0, 1.0, 3j, 2.0]))

# -- spectrum and spectral measure ------------------------------------------

spec = spectrum(T)  # checked against LAPACK eigenvalues of random unitary conjugates
print("spectrum             :", spec.attained)

mu = build_mu_T(T)
mu.validate()
print("values and labels    :", mu.values, mu.labels)
for v, p in zip(mu.values, mu.projections):
    print("projection for %-8s:" % v, p)
print("mu_T({1, 3j})        :", mu.measure_of([True, False, True]).symbol.real)
print("reconstruction exact :", np.array_equal(mu.reconstruct().symbol, T.symbol))

# -- functional calculus ----------------------------------------------------

square = rho_T(T, lambda v: v * v)
print("\nrho_T(v^2) symbol    :", square.symbol)
# a table holds f(values[k]) at position k; the values are (1, 2, 3j)
indicator = rho_T(T, [1.0, 0.0, 0.0])
print("rho_T(chi_{1})       :", indicator.symbol.real, " (the eigen-band of 1)")

# the kernel of rho_T(f) is the band of the null set of f
print("kernel band of chi complement:",
      kernel_projection(T, [0.0, 1.0, 1.0]).symbol.real)

# dominated convergence: f_n = id + 1/n converges with an explicit witness
fs = [lambda v, n=n: v + 1.0 / n for n in range(1, 25)]
rep = dominated_convergence_calculus(T, fs, lambda v: v, bound=5.0,
                                     tail=lambda n: 1.0 / (n + 1))
print("dominated convergence certified:", bool(rep),
      "(first witness bound %.3g)" % float(np.max(rep.witness.dominating[0])))

# -- eigen expansion and step approximation ---------------------------------

exp = eigen_expansion(T)
z = ComplexElement(lat, np.array([1.0, 1.0, 1.0, 1.0, 1.0], dtype=complex))
comps = exp.components(z)
print("\ncomponents of (1,..,1):")
for (lam, _), comp in zip(exp.pairs, comps):
    print("  lambda = %-8s ->" % lam, comp.values.real)
print("minimal polynomial degree:", len(exp.minimal_polynomial) - 1,
      "= |spectrum| =", len(spec.attained))

approx = freudenthal_approx(T, eps=1e-3)
print("step approximation error :", approx.error, "(finite spectrum: exact)")

q = eigen_query(T, 2.0)
print("2.0 is an eigenvalue      :", q.is_eigenvalue, "with band", q.projection.symbol.real)

# -- commutant: block structure on equal-symbol classes ---------------------

X = np.zeros((5, 5), dtype=complex)
X[0, 2] = X[2, 0] = 1.0          # couples the two coordinates with symbol 1
X[1, 4] = 2j                     # couples the two coordinates with symbol 2
report = commutant_check(T, RegularOperator(lat, X))
print("\nblock operator commutes with T, conj(T), calculus, projections:",
      report.conditions(), "- all equivalent:", report.all_equivalent())

Y = X.copy()
Y[0, 3] = 1.0                    # now couples distinct spectral values
report = commutant_check(T, RegularOperator(lat, Y))
print("after coupling distinct values, all five fail together       :",
      report.conditions(), "- all equivalent:", report.all_equivalent())
