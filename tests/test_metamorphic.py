"""Metamorphic properties: the lattice's symmetries as exact checks.

The paper's statements hold on every Dedekind complete complex Banach
lattice, so they are invariant under its isometries.  Three act exactly on
floats: scaling an operator by 2**k away from overflow and underflow,
conjugation, and a permutation of the coordinates.  Each property compares a
primitive's output on the transformed operator with the transformed output,
bit for bit, over operators from ``centrelat.generate``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat.generate import commutant_block_operator, random_central
from centrelat.lattice import CoordinateLattice, PrincipalIdeal, WeightedPNorm
from centrelat.operators import CentralOperator, RegularOperator, fpr_check, localize, polar
from centrelat.spectral import build_mu_T, commutant_check, rho_T, spectrum_shape_report


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


@st.composite
def _permuted(draw):
    """(T, perm, PT): coordinate i of PT is coordinate perm[i] of T, and a
    weighted norm's weights move with the coordinates."""
    T = draw(_operators())
    perm = np.array(draw(st.permutations(range(T.lattice.dim))), dtype=np.int64)
    norm = T.lattice.norm_spec
    if isinstance(norm, WeightedPNorm):
        norm = WeightedPNorm(tuple(np.asarray(norm.weights)[perm].tolist()), norm.p)
    return T, perm, CentralOperator(CoordinateLattice(T.lattice.dim, norm), T.symbol[perm])


def _bit_set(values):
    return {v.tobytes() for v in np.asarray(values, dtype=complex)}


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


@given(_permuted())
@settings(max_examples=300, deadline=None)
def test_mu_T_of_a_permuted_operator(case):
    T, perm, PT = case
    mu, permuted = build_mu_T(T), build_mu_T(PT)
    assert _bit_set(permuted.values) == _bit_set(mu.values)
    # each coordinate keeps its band's value, and two coordinates share a band
    # in PT exactly when their preimages share one in T
    assert _same_bits(np.asarray(permuted.values)[permuted.labels],
                      np.asarray(mu.values)[mu.labels][perm])
    moved = mu.labels[perm]
    assert np.array_equal(permuted.labels[:, None] == permuted.labels[None, :],
                          moved[:, None] == moved[None, :])


@given(_permuted())
@settings(max_examples=300, deadline=None)
def test_rho_T_commutes_with_a_permutation(case):
    T, perm, PT = case
    f = lambda v: v * v.conjugate() - 2j * v + 0.5
    assert _same_bits(rho_T(PT, f).symbol, rho_T(T, f).symbol[perm])


@given(_permuted())
@settings(max_examples=300, deadline=None)
def test_order_unit_norm_and_spectrum_shape_of_a_permuted_operator(case):
    T, _, PT = case
    assert _same_bits(PT.order_unit_norm(), T.order_unit_norm())
    assert spectrum_shape_report(PT) == spectrum_shape_report(T)


def _moved(X, perm, lattice):
    """The regular operator whose entry (i, j) is X's entry (perm[i], perm[j])."""
    return RegularOperator(lattice, X.entries[perm][:, perm])


@given(_permuted(), st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fpr_check_of_a_permuted_triple(case, seed, commuting):
    T, perm, PT = case
    rng = np.random.default_rng(seed)
    # S shares T's values in another order, and X is supported where s_i = t_j,
    # or anywhere to break S X = X T
    s = T.symbol[rng.permutation(T.lattice.dim)]
    mask = (s[:, None] == T.symbol[None, :]) | (not commuting)
    X = RegularOperator(T.lattice, np.where(mask, rng.standard_normal(mask.shape)
                                            + 1j * rng.standard_normal(mask.shape), 0))
    S, PS = CentralOperator(T.lattice, s), CentralOperator(PT.lattice, s[perm])
    verdict, permuted = fpr_check(S, T, X), fpr_check(PS, PT, _moved(X, perm, PT.lattice))
    for name in ("forward", "conjugate", "transfer_ok"):
        assert getattr(permuted, name) == getattr(verdict, name)
    assert _same_bits(permuted.max_forward_deviation, verdict.max_forward_deviation)
    assert _same_bits(permuted.max_conjugate_deviation, verdict.max_conjugate_deviation)
    assert (permuted.first_violation is None) == (verdict.first_violation is None)
    if verdict.first_violation is not None:
        # the first entry in row-major order that attains the largest
        # deviation: the same entry, unless another one ties with it
        i, j = (int(perm[k]) for k in permuted.first_violation)
        fwd = np.abs(s[:, None] * X.entries - X.entries * T.symbol[None, :])
        assert _same_bits(fwd[i, j], verdict.max_forward_deviation)
        if np.count_nonzero(fwd == fwd[i, j]) == 1:
            assert (i, j) == verdict.first_violation


@given(_permuted(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_localize_to_a_permuted_ideal(case, seed):
    T, perm, PT = case
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 2.0, size=T.lattice.dim)
    u[rng.random(T.lattice.dim) < 0.3] = 0.0
    u[rng.integers(T.lattice.dim)] = 1.0
    loc, permuted = localize(T, PrincipalIdeal(u)), localize(PT, PrincipalIdeal(u[perm]))
    # coordinate k of the permuted support is coordinate perm[k] of T
    moved = perm[permuted.support]
    assert np.array_equal(np.sort(moved), loc.support)
    assert _same_bits(permuted.symbol, loc.symbol[np.searchsorted(loc.support, moved)])
    assert _same_bits(permuted.ideal_norm_of_Tu, loc.ideal_norm_of_Tu)


@given(_permuted(), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_commutant_check_of_a_permuted_pair(case, seed, data):
    T, perm, PT = case
    inside = commutant_block_operator(np.random.default_rng(seed), T)
    operators = [inside]
    mismatched = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
    if len(mismatched):
        i, j = mismatched[data.draw(st.integers(0, len(mismatched) - 1))]
        broken = np.array(inside.entries)
        broken[i, j] += 1.0
        operators.append(RegularOperator(T.lattice, broken))
    for X in operators:
        report = commutant_check(T, X, rng=np.random.default_rng(seed))
        permuted = commutant_check(PT, _moved(X, perm, PT.lattice),
                                   rng=np.random.default_rng(seed))
        assert permuted.conditions() == report.conditions()
        assert permuted.block_pattern == report.block_pattern
