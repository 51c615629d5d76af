"""Exact complex rational scalars for enumeration oracles.

Floating point is fine for the library proper, but enumeration proofs
(uniqueness of the spectral measure) should not hinge on floating-point
ties, so they run on Fraction-valued complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)
