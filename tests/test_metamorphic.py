"""Metamorphic properties: the lattice's symmetries as exact checks.

The paper's statements hold on every Dedekind complete complex Banach
lattice, so they are invariant under its isometries.  Two act exactly on
floats: scaling an operator by 2**k away from overflow and underflow, and
conjugation.  Each property compares a primitive's output on the transformed
operator with the transformed output, bit for bit, over operators from
``centrelat.generate``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat.generate import random_central
from centrelat.operators import CentralOperator, polar
from centrelat.spectral import build_mu_T


def _same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 parts count as different."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the generator's symbols lie in the disc of radius 100, so 2**k scales them
# exactly for these k: nothing overflows, and nothing reaches the subnormals
_K = st.integers(-30, 30)


@st.composite
def _operators(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_central(rng, dim=draw(st.integers(1, 39)), repeats=draw(st.booleans()))


def _scaled(T, k):
    return CentralOperator(T.lattice, T.symbol * 2.0 ** k)


@given(_operators(), _K)
@settings(max_examples=300, deadline=None)
def test_mu_T_of_a_power_of_two_multiple(T, k):
    mu, scaled = build_mu_T(T), build_mu_T(_scaled(T, k))
    assert _same_bits(scaled.values, np.array(mu.values) * 2.0 ** k)
    assert _same_bits(scaled.labels, mu.labels)


@given(_operators())
@settings(max_examples=300, deadline=None)
def test_mu_T_of_the_conjugate(T):
    mu, conjugate = build_mu_T(T), build_mu_T(T.conj())
    assert _same_bits(conjugate.values, np.conj(mu.values))
    assert _same_bits(conjugate.labels, mu.labels)


@given(_operators(), _K)
@settings(max_examples=300, deadline=None)
def test_order_unit_norm_of_a_power_of_two_multiple(T, k):
    assert _same_bits(_scaled(T, k).order_unit_norm(), T.order_unit_norm() * 2.0 ** k)


@given(_operators(), _K)
@settings(max_examples=300, deadline=None)
def test_polar_factors_of_a_power_of_two_multiple(T, k):
    factors, scaled = polar(T), polar(_scaled(T, k))
    assert _same_bits(scaled.positive.symbol, factors.positive.symbol * 2.0 ** k)
    assert _same_bits(scaled.unitary.symbol, factors.unitary.symbol)
