"""Walkthrough: certified diagonal operators with countable spectra.

An infinite diagonal operator is described by a rule i -> lambda_i plus
certificates (sup bound, accumulation set, tail rule, multiplicity rule).
The library validates the certificates on a sampled prefix and then treats
the order-convergence statements as checkable contracts.

Run with:  python demos/04_sequence_mode.py
"""

from centrelat import compactness_check, sequence_eigen_query, sequence_spectrum
from centrelat.sequence import (
    constant,
    expansion_tail_report,
    freudenthal_net,
    reciprocal,
    shifted_reciprocal,
    validate_certificate,
)

# -- the canonical example: lambda_i = 1/i ----------------------------------

op = reciprocal()
validate_certificate(op)          # sup bound + tail rule checked on 10^4 indices
spec = sequence_spectrum(op)
print("attained (first few) :", spec.attained[:5])
print("accumulation set     :", spec.accumulation)

# 0 lies in the spectrum but is not attained, so it is not an eigenvalue
for value in (0.0, 0.5, 0.3):
    q = sequence_eigen_query(op, value)
    print("value %-4s in spectrum: %-5s eigenvalue: %s" % (value, q.in_spectrum, q.is_eigenvalue))

# -- compactness: the three canonical cases ---------------------------------

print()
for candidate in (reciprocal(), constant(1.0), shifted_reciprocal(1.0)):
    verdict = compactness_check(candidate)
    print("%-20s compact=%-5s %s" % (candidate.name, verdict.compact, verdict.reason))

# -- eigen expansion tails are dominated by the certified witness -----------

print()
for record in expansion_tail_report(op):    # at N in TAIL_CHECKPOINTS = (10, 100, 1000)
    print("after %4d terms: certified bound %.4g, sampled tail %.4g, dominated=%s"
          % (record.n_terms, record.certified_bound, record.sampled_tail_sup, record.dominated))

# -- eps-net step approximation with coefficients in the spectrum -----------

net = freudenthal_net(op, eps=0.1)
print("\neps = 0.1 net: %d coefficients, breakpoint %d, certified error %.4g"
      % (len(net.coefficients), net.breakpoint, net.certified_error))
print("coefficients :", sorted(c.real for c in net.coefficients))

# -- infinite spectrum defeats every monic annihilator of low degree --------

# a nonzero polynomial of degree <= 8 has at most 8 roots, so more than 8
# distinct values in the prefix already rule out every monic annihilator
distinct = len(spec.attained)
print("\n%d distinct prefix values > 8: no monic polynomial of degree <= 8 annihilates 1/i"
      % distinct)
