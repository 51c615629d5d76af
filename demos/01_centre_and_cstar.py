"""Walkthrough: the centre of an atomic complex Banach lattice.

Builds a small coordinate lattice, takes moduli of complex elements, checks
the C*-identity on the centre, and runs the polar decomposition, the
localisation to a principal ideal, and the conjugate-commutation transfer.

Run with:  python demos/01_centre_and_cstar.py
"""

import numpy as np

from centrelat import (
    CentralOperator,
    ComplexElement,
    CoordinateLattice,
    PrincipalIdeal,
    WeightedPNorm,
    fpr_check,
    ideal_norm,
    localize,
    modulus,
    modulus_phase_oracle,
    norms,
    polar,
)
from centrelat.operators import RegularOperator

# -- a 4-dimensional lattice with a weighted ell-2 norm ---------------------

lat = CoordinateLattice(4, WeightedPNorm((1.0, 2.0, 0.5, 1.0), 2.0))
re, im = np.array([3.0, -1.0, 0.0, 1.0]), np.array([4.0, 0.0, 2.0, -1.0])
z = ComplexElement(lat, re + 1j * im)

print("modulus |z|          :", modulus(z))
print("phase-grid oracle    :", modulus_phase_oracle(z))
print("agreement            :", np.max(np.abs(modulus(z) - modulus_phase_oracle(z))))

# -- a central operator is a diagonal symbol --------------------------------

T = CentralOperator(lat, np.array([3 + 4j, -2.0, 0.5j, 1.0]))
triple = norms(T, rng=np.random.default_rng(0))
print("\norder unit norm      :", triple.order_unit)
print("attained at basis e_%d; sampled ratios never exceed it (max %.3g)"
      % (triple.attained_at, triple.max_sampled_ratio))

# C*-identity: ||T conj(T)|| = ||T||^2, exactly on the symbol
lhs = (T * T.conj()).order_unit_norm()
print("C*-identity          : ||T T*|| = %.6g = ||T||^2 = %.6g" % (lhs, triple.order_unit ** 2))

# the Gelfand transform is just the symbol as a function on {0,..,3}
print("Gelfand values       :", T.symbol.tolist())

# -- polar decomposition ----------------------------------------------------

p = polar(T)
print("\npolar P              :", p.positive.symbol.real)
print("polar U              :", p.unitary.symbol, " (|U| = 1 everywhere)")

# -- localisation to a principal ideal --------------------------------------

u = np.array([1.0, 2.0, 0.0, 1.0])
ideal = PrincipalIdeal(u)
loc = localize(T, ideal)
print("\nlocalised symbol     :", loc.symbol, "on support", loc.support)
u_elem = ComplexElement(lat, u.astype(complex))
print("||Tu||_u             :", ideal_norm(T.apply(u_elem), ideal))

# -- conjugate-commutation transfer -----------------------------------------

# X couples only coordinates where the two symbols agree, so S X = X T holds;
# the transfer then forces conj(S) X = X conj(T) as well
S2 = CentralOperator(lat, np.array([1j, 2.0, 1j, 2.0]))
T2 = CentralOperator(lat, np.array([2.0, 1j, 2.0, 1j]))
X = np.zeros((4, 4), dtype=complex)
X[0, 1] = X[1, 0] = X[2, 3] = 1.0 + 0.5j
v = fpr_check(S2, T2, RegularOperator(lat, X))
print("\nforward S X = X T    :", v.forward)
print("conjugate transfer   :", v.conjugate, " (deviation %.2e)" % v.max_conjugate_deviation)
