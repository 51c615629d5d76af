"""Tests for the Gelfand transform, spectra, spectral measures, the
functional calculus, eigen expansions, and commutants."""

import argparse
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centrelat import cli, generate, spectral, suites
from centrelat.cli import main as cli_main
from centrelat.generate import commutant_block_operator, random_central
from centrelat.lattice import ComplexElement, CoordinateLattice, DimensionMismatchError, MaxNorm
from centrelat.operators import CentralOperator, RegularOperator
from centrelat.spectral import (
    OperatorSpectralMeasure,
    PreconditionError,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    eval_polynomial,
    freudenthal_approx,
    global_spectral_measure,
    minimal_polynomial,
    reconstruct_from_global,
    rho_T,
    spectrum,
    spectrum_shape_report,
)
from centrelat.measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    integrate,
    is_spectral,
)

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-9


def harmonic_tail(n):
    return 1.0 / (n + 1)


def central(symbol):
    symbol = np.asarray(symbol, dtype=complex)
    return CentralOperator(CoordinateLattice(len(symbol), MaxNorm()), symbol)


# ---------------------------------------------------------------------------
# Gelfand transform
# ---------------------------------------------------------------------------

def test_gelfand_isometric_star_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        S = random_central(rng, dim=n)
        T = CentralOperator(S.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # the Gelfand transform of a central operator is its symbol
        assert np.max(np.abs(T.symbol)) == pytest.approx(T.order_unit_norm(), abs=TOL_EXACT)
        assert np.array_equal(T.conj().symbol, np.conj(T.symbol))
        assert np.max(np.abs((S * T).symbol - S.symbol * T.symbol)) <= TOL_EXACT


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_dedup():
    spec = spectrum(central([1.0, 1.0, 2.0]))
    assert spec.attained == (1.0, 2.0)


def test_spectrum_matches_dense_eigenvalues():
    spec = spectrum(central([0.3 + 0.4j]))
    assert spec.attained == (0.3 + 0.4j,)
    eig = np.linalg.eigvals(np.array([[0.3 + 0.4j]]))
    assert abs(eig[0] - spec.attained[0]) < TOL_ORACLE


def test_spectrum_permanence_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = random_central(rng, dim=int(rng.integers(1, 17)))
        spectrum(T)  # raises when the block eigenvalues disagree


#: Magnitudes from the smallest subnormal up to io's cap of 2**500.
_SCALES = (2.0 ** -1074, 1e-310, 2.0 ** -1022, 1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 2.0 ** 500)


@st.composite
def _oracle_symbols(draw, scales=_SCALES):
    """1-13 values drawn from a pool, so that values repeat.  Each pool member
    has a scale of its own and comes with near-cancelling partners: its
    negative and its neighbour one ulp away."""
    pool = []
    for scale, re_, im in draw(st.lists(st.tuples(st.sampled_from(scales), st.floats(-1, 1),
                                                  st.floats(-1, 1)), min_size=1, max_size=3)):
        v = complex(scale * re_, scale * im)
        pool += [v, -v, complex(np.nextafter(v.real, np.inf), v.imag)]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=13))


@given(_oracle_symbols())
@example([1.0])
@example([1.0, -1.0, 1.0])
@example([2.0 ** -1074, -(2.0 ** -1074), 0.0, 2.0 ** 500 * (1 + 1j)])
@settings(max_examples=300, deadline=None)
def test_block_eigenvalues_stay_within_the_rounding_bound(symbols):
    T = central(symbols)
    dev, bound = spectral.block_eigenvalue_deviation(build_mu_T(T))
    assert dev <= bound
    # seeded from the symbol, so it draws the same blocks each time
    assert spectral.block_eigenvalue_deviation(build_mu_T(T)) == (dev, bound)
    assert spectrum(T).attained == build_mu_T(T).values


def _perturbed(build, rel):
    """build_mu_T with its largest value changed by the relative amount rel."""
    def perturbed(T):
        mu = build(T)
        k = int(np.argmax(np.abs(mu.values)))
        values = list(mu.values)
        values[k] *= 1 + rel
        return OperatorSpectralMeasure(T, tuple(values), mu.labels)
    return perturbed


@given(_oracle_symbols(scales=(1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 2.0 ** 500)))
@settings(max_examples=100, deadline=None)
def test_a_wrong_value_in_mu_fails_the_oracle(symbols):
    # a 1e-8 relative change to the largest value, made after mu_T is built;
    # below 1e-300 it would vanish in the bound's absolute underflow term
    T = central(symbols)
    assume(np.max(np.abs(T.symbol)) >= 1e-300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "build_mu_T", _perturbed(build_mu_T, 1e-8))
        dev, bound = spectral.block_eigenvalue_deviation(spectral.build_mu_T(T))
        assert dev > bound
        with pytest.raises(AssertionError, match="^block eigenvalues deviate by "):
            spectrum(T)


def test_suite_records_a_wrong_value_in_mu(monkeypatch):
    ops = [random_central(np.random.default_rng(seed), dim=9) for seed in (1, 2)]

    def oracle_records():
        return [r for r in suites.run_suites(["spectral"], {"central": ops})[0].records
                if r.check == "symbol-spectrum-matches-block-eigenvalues"]

    assert all(r.ok and 0 < r.max_deviation < 1e-12 * np.max(np.abs(T.symbol))
               for r, T in zip(oracle_records(), ops))
    monkeypatch.setattr(suites, "build_mu_T", _perturbed(build_mu_T, 1e-8))
    # the wrong value's block: a finite deviation, not a raise
    for r, T in zip(oracle_records(), ops):
        assert not r.ok and r.witness == ""
        assert 1e-9 < r.max_deviation / np.max(np.abs(T.symbol)) < 2e-8


def test_spectrum_shape_report():
    rng = np.random.default_rng(3)
    # generic complex, self-conjugate, positive, and unimodular instances; a
    # symbol a rounding error away from real or from positive is neither, and
    # so is its spectrum
    cases = [
        random_central(rng, dim=5),
        central(rng.standard_normal(5)),
        central(np.abs(rng.standard_normal(5))),
        central(np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))),
        central([1.0 + 1e-13j, 2.0]),
        central([-1e-13, 2.0]),
    ]
    for T in cases:
        assert spectrum_shape_report(T).all_ok()


def test_spectrum_radius_equals_norm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        radius = max(abs(v) for v in build_mu_T(T).values)
        assert radius == pytest.approx(T.order_unit_norm(), abs=TOL_EXACT)


# ---------------------------------------------------------------------------
# global spectral measure
# ---------------------------------------------------------------------------

def test_global_measure_extremes():
    lat = CoordinateLattice(4)
    mu = global_spectral_measure(lat)
    assert np.array_equal(mu.total(), np.ones(4))
    assert np.array_equal(mu.measure_of(np.zeros(4, dtype=bool)), np.zeros(4))
    assert is_spectral(mu)


def test_global_measure_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        R = reconstruct_from_global(T)
        assert np.max(np.abs(R.symbol - T.symbol)) <= TOL_EXACT * max(1.0, T.order_unit_norm())


# ---------------------------------------------------------------------------
# operator spectral measure
# ---------------------------------------------------------------------------

def test_mu_t_frozen_example():
    mu = build_mu_T(central([1.0, 1.0, 2.0]))
    assert mu.values == (1.0, 2.0)
    assert np.array_equal(mu.labels, [0, 0, 1])
    assert np.array_equal(mu.measure_of([True, False]).symbol.real, [1.0, 1.0, 0.0])
    assert np.array_equal(mu.measure_of([False, True]).symbol.real, [0.0, 0.0, 1.0])


def test_mu_t_scalar_operator():
    mu = build_mu_T(central([3j, 3j]))
    assert len(mu.values) == 1
    assert np.array_equal(mu.projections[0], [1.0, 1.0])


def test_mu_t_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = random_central(rng, dim=int(rng.integers(1, 9)), repeats=True)
        mu = build_mu_T(T)
        mu.validate()


def test_mu_t_product_law():
    mu = build_mu_T(central([1.0, 2.0, 1.0, 3.0]))
    masks = [np.array(m) for m in itertools.product([False, True], repeat=len(mu.values))]
    for a in masks:
        for b in masks:
            lhs = mu.measure_of(a & b).symbol
            rhs = mu.measure_of(a).symbol * mu.measure_of(b).symbol
            assert np.array_equal(lhs, rhs)


def _brute_force_enumeration(symbols):
    """Reference oracle: scan all |spectrum|^dim assignments one by one."""
    values = list(dict.fromkeys(symbols))
    return [assign for assign in itertools.product(range(len(values)), repeat=len(symbols))
            if all(values[k] == symbols[i] for i, k in enumerate(assign))]


_dyadic = st.builds(lambda k, l: complex(k / 16, l / 16), st.integers(-8, 8), st.integers(-8, 8))


@st.composite
def _symbol_lists(draw):
    """Up to 5 dyadic symbols, which float == decides exactly, drawn from a small
    pool, so that values repeat, plus twins of the pool members that differ
    only in the imaginary part."""
    pool = draw(st.lists(_dyadic, min_size=1, max_size=3))
    twins = [z + 1j / 16 for z in pool]
    return draw(st.lists(st.sampled_from(pool + twins), min_size=1, max_size=5))


@given(_symbol_lists())
@example([0.5 + 1j, 0.5 + 1j, 0.5 - 0.375j, 0.5 + 1j])
@example([0.5 + 1j, 0.5 - 0.375j, 0.5 - 0.375j, 0.5 - 0.375j])
@settings(max_examples=150, deadline=None)
def test_mu_t_uniqueness_enumeration_oracle(symbols):
    admissible = _brute_force_enumeration(symbols)
    assert len(admissible) == 1
    # the unique assignment is the one defining mu_T
    T = central(symbols)
    mu = build_mu_T(T)
    assert admissible[0] == tuple(mu.labels.tolist())
    for i, k in enumerate(admissible[0]):
        assert mu.values[k] == T.symbol[i] == symbols[i]


def test_vanishing_lemma_exhaustive():
    # mu_T(union Delta_n) z = 0 iff mu_T(Delta_n) z = 0 for each n
    import itertools
    T = central([1.0, 2.0, 3.0, 1.0])
    mu = build_mu_T(T)
    ks = np.arange(len(mu.values))
    rng = np.random.default_rng(9)
    z = ComplexElement(T.lattice, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    z_supported = ComplexElement(T.lattice, np.array([1.0, 0, 0, 1.0], dtype=complex))
    for z_test in (z, z_supported):
        for r in range(1, len(ks) + 1):
            for parts in itertools.combinations(ks, r):
                union_zero = np.all(mu.measure_of(np.isin(ks, parts)).apply(z_test).values == 0)
                each_zero = all(np.all(mu.measure_of(ks == k).apply(z_test).values == 0)
                                for k in parts)
                assert union_zero == each_zero


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def test_rho_t_sqrt_example():
    T = central([0.0, 1.0, 4.0])
    R = rho_T(T, [0.0, 1.0, 2.0])
    assert np.array_equal(R.symbol.real, [0.0, 1.0, 2.0])
    assert set(build_mu_T(R).values) == {0.0, 1.0, 2.0}


def test_rho_t_constant_one_is_identity():
    rng = np.random.default_rng(10)
    T = random_central(rng, dim=5)
    assert np.array_equal(rho_T(T, lambda v: 1.0).symbol, np.ones(5))


def test_rho_t_homomorphism_laws():
    rng = np.random.default_rng(11)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(1, 9)), repeats=True)
        f = lambda v: v ** 2 - 1.0
        g = lambda v: v.conjugate() + 2j
        lhs = rho_T(T, lambda v: f(v) * g(v)).symbol
        rhs = (rho_T(T, f) * rho_T(T, g)).symbol
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= TOL_EXACT * scale
        assert np.array_equal(rho_T(T, lambda v: f(v).conjugate()).symbol,
                              rho_T(T, f).conj().symbol)
        assert np.array_equal(rho_T(T, lambda v: v).symbol, T.symbol)
        # modulus preservation
        mod_scale = max(1.0, float(np.max(np.abs(rho_T(T, f).symbol))))
        assert np.max(np.abs(rho_T(T, lambda v: abs(f(v))).symbol
                             - rho_T(T, f).modulus().symbol)) <= TOL_EXACT * mod_scale


def test_rho_t_spectral_mapping():
    rng = np.random.default_rng(12)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(1, 9)), repeats=True)
        f = lambda v: v * v + 0.5j
        assert (set(build_mu_T(rho_T(T, f)).values)
                == {f(v) for v in build_mu_T(T).values})


def test_rho_t_vanishes_iff_null_function():
    T = central([1.0, 2.0, 2.0])
    assert np.all(rho_T(T, [0.0, 0.0]).symbol == 0)
    assert np.any(rho_T(T, [0.0, 1.0]).symbol != 0)


@pytest.mark.parametrize("wrong", [[5.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 5.0])
def test_wrong_length_table_or_mask_raises(wrong):
    # values (1, 2): a table or mask needs exactly two entries
    T = central([1.0, 2.0, 1.0])
    mu = build_mu_T(T)
    with pytest.raises(ValueError, match="per spectrum value"):
        rho_T(T, wrong)
    with pytest.raises(ValueError, match="per spectrum value"):
        dominated_convergence_calculus(T, [[1.0, 2.0]], wrong, tail=harmonic_tail)
    with pytest.raises(ValueError, match="per spectrum value"):
        mu.measure_of(np.asarray(wrong) > 0)


def test_measure_of_takes_bools_only():
    # an index array is not a set of values: [0, 1] would read as {values[1]}
    mu = build_mu_T(central([1.0, 2.0]))
    with pytest.raises(ValueError, match="per spectrum value"):
        mu.measure_of([0, 1])


def test_rho_t_image_measure_identity():
    # integral of f against mu_T equals the integral of f(symbol) against the
    # global measure
    rng = np.random.default_rng(13)
    for _ in range(20):
        T = random_central(rng, dim=6, repeats=True)
        f = lambda v: v ** 2 - 1j * v
        lhs = rho_T(T, f).symbol
        glob = global_spectral_measure(T.lattice)
        g = [f(complex(v)) for v in T.symbol]
        rhs = integrate(g, glob).values
        assert np.max(np.abs(lhs - rhs)) <= TOL_EXACT * max(1.0, float(np.max(np.abs(rhs))))


def test_kernel_formula():
    T = central([1.0, 2.0, 2.0])
    f = [0.0, 5.0]
    K = build_mu_T(T).measure_of(np.asarray(f) == 0)
    assert np.array_equal(K.symbol.real, [1.0, 0.0, 0.0])
    # null-space oracle on the dense matrix
    R = rho_T(T, f)
    dense = np.diag(R.symbol)
    _, s, vh = np.linalg.svd(dense)
    null_dim = int(np.sum(s < 1e-10))
    assert null_dim == int(np.sum(K.symbol.real))
    null_basis = vh[len(s) - null_dim:].conj().T if null_dim else np.zeros((3, 0))
    for col in null_basis.T:
        # every null vector is fixed by the kernel projection
        assert np.max(np.abs(K.symbol * col - col)) < 1e-9


def test_kernel_formula_random():
    rng = np.random.default_rng(14)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(2, 9)), repeats=True)
        mu = build_mu_T(T)
        table = (np.arange(len(mu.values)) % 2).astype(complex)
        K = mu.measure_of(table == 0)
        R = rho_T(T, table)
        # coordinates killed by rho_T(f) are exactly the kernel projection band
        assert np.array_equal((R.symbol == 0).astype(float), K.symbol.real)


def test_dominated_convergence_trivial_and_shift():
    T = central([1.0, 2.0, 3.0])
    f = [1.0, 4.0, 9.0]
    fs = [f for _ in range(5)]
    report = dominated_convergence_calculus(T, fs, f, tail=lambda n: 0.0)
    assert report
    assert all(np.max(u) == 0.0 for u in report.witness.dominating)

    fs = [lambda v, n=n: v + 1.0 / n for n in range(1, 40)]
    ident = np.array([1.0, 2.0, 3.0])
    z = ComplexElement(T.lattice, np.array([1.0, -1j, 0.5]))
    report = dominated_convergence_calculus(T, fs, ident, tail=harmonic_tail, z=z)
    assert report
    assert np.max(report.witness.dominating[0]) == pytest.approx(1.0)


_TABLES = ([1.0, 2.0], [1.5, 2.5], [1.0 + 0.5j, 2.0])


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf, -math.inf])
@pytest.mark.parametrize("where", [("fs", n, k) for n in range(3) for k in range(2)]
                         + [("f", None, k) for k in range(2)])
def test_dominated_convergence_rejects_a_non_finite_value_anywhere(where, bad):
    # the bound check's max(map(abs, ...)) kept a NaN only in a table's first
    # entry, and a NaN or infinite f only failed later inside CentralOperator
    field, n, k = where
    fs, f = [list(g) for g in _TABLES], [1.0, 2.0]
    (fs[n] if field == "fs" else f)[k] = bad
    with pytest.raises(PreconditionError, match="must be finite on the spectrum"):
        dominated_convergence_calculus(central([1.0, 2.0]), fs, f, tail=harmonic_tail)


def test_dominated_convergence_checks_callables_for_nan_too():
    T = central([1.0, 2.0])
    with pytest.raises(PreconditionError, match="must be finite on the spectrum"):
        dominated_convergence_calculus(T, [lambda v: v, lambda v: math.nan if v == 2 else v],
                                       lambda v: v, tail=harmonic_tail)


# ---------------------------------------------------------------------------
# eigen expansion, annihilation, approximation
# ---------------------------------------------------------------------------

def test_eigen_expansion_frozen_example():
    T = central([1.0, 1.0, 2.0])
    exp = eigen_expansion(T)
    z = ComplexElement(T.lattice, np.ones(3, dtype=complex))
    comps = [np.where(exp.mu.labels == k, z.values, 0) for k in range(len(exp.mu.values))]
    assert np.array_equal(comps[0], [1.0, 1.0, 0.0])
    assert np.array_equal(comps[1], [0.0, 0.0, 1.0])
    for (lam, _), comp in zip(exp.pairs, comps):
        assert np.max(np.abs(T.symbol * comp - lam * comp)) <= TOL_EXACT
    assert np.array_equal(sum(comps), z.values)


def test_minimal_polynomial_annihilates():
    T = central([1.0, 1.0, 2.0])
    p = minimal_polynomial([1.0, 2.0])
    assert np.max(np.abs(eval_polynomial(p, T.symbol))) <= 1e-10
    assert len(p) - 1 == 2  # degree equals the number of distinct values


def test_annihilation_residual_within_its_rounding_bound():
    # roots on scales from subnormal products to 1e15, with imaginary-only twins
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(1, 17))
        roots = 10.0 ** rng.uniform(-320, 15) * (rng.standard_normal(n)
                                                 + 1j * rng.standard_normal(n))
        if n >= 2:
            roots[-1] = 1j * roots[0].real
        resid = np.abs(eval_polynomial(minimal_polynomial(roots), roots))
        bound = spectral.annihilation_bound(list(roots), roots)
        tilde = np.prod(np.abs(roots)[:, None] + np.abs(roots)[None, :], axis=1)
        assert np.all(np.isfinite(bound)) and np.all(resid <= bound)
        # a rounding bound: far below the scale of the polynomial's terms
        assert np.all(bound <= 2.0 ** -40 * tilde + 2.0 ** -1000)


def _plain_annihilation_bound(roots, x):
    """The bound as formed before its overflowing products were rescaled."""
    u, n = 2.0 ** -53, len(roots)
    tilde = loose = np.ones(np.shape(x))
    for r in roots:
        tilde = tilde * (np.abs(x) + abs(r))
        loose = loose * (1 + np.abs(x) + abs(r))
    return 16 * n * u / (1 - 16 * n * u) * tilde + n * (n + 3) * 2.0 ** -1072 * loose


def test_annihilation_bound_is_finite_where_only_its_plain_product_overflows():
    # instance 93 of the reference corpus (gen --seed 7 --dim 2..16) scaled by
    # 2**60 has 16 values with |s| up to about 2**63.3; its plain product of 16
    # factors (|x| + |r|) overflows at one coordinate, where the residuals are
    # finite
    T = cli._instances(argparse.Namespace(mode="atomic", seed=7, count=94), 2, 16)[93]["central"]
    s = T.symbol * 2.0 ** 60
    roots = build_mu_T(CentralOperator(T.lattice, s)).values
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(eval_polynomial(minimal_polynomial(roots), s))
        plain = _plain_annihilation_bound(roots, s)
        bound = spectral.annihilation_bound(roots, s)
    assert len(roots) == 16 and np.isfinite(resid).all() and (~np.isfinite(plain)).sum() == 1
    assert np.isfinite(bound).all() and np.all(resid <= bound)
    # where the plain bound is finite, the bound keeps its bits
    assert bound[np.isfinite(plain)].tobytes() == plain[np.isfinite(plain)].tobytes()


def test_annihilation_bound_keeps_its_bits_and_holds_near_overflow():
    # roots from 2**30 to 2**90, where the plain product overflows on some, and
    # a mix of roots near 2**-530 and up to 2**60, where some of its partial
    # products underflow and later ones do not
    rng = np.random.default_rng(34)
    rescaled = 0
    for k in range(300):
        n = int(rng.integers(1, 17))
        scales = (rng.uniform(30, 90, n) if k % 2 else
                  np.where(rng.random(n) < 0.5, rng.uniform(-560, -500, n), rng.uniform(0, 60, n)))
        roots = 2.0 ** scales * np.exp(2j * np.pi * rng.uniform(size=n))
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(eval_polynomial(minimal_polynomial(roots), roots))
            plain = _plain_annihilation_bound(list(roots), roots)
            bound = spectral.annihilation_bound(list(roots), roots)
        finite = np.isfinite(plain)
        rescaled += int(np.isfinite(bound[~finite]).any())
        assert bound[finite].tobytes() == plain[finite].tobytes()
        assert np.all(resid[np.isfinite(resid)] <= bound[np.isfinite(resid)])
    assert rescaled > 10
    # 1,030 values just above 1: each plain product, near 2**1030, overflows,
    # and a product of 1,030 mantissas near 0.5 underflows unless renormalised;
    # the bound, near 2**991, must match its sum of logarithms
    n = 1030
    roots = 1.0 + 2.0 ** -40 * np.arange(n)
    with np.errstate(over="ignore"):
        bound = spectral.annihilation_bound(list(roots), roots)
    gamma = 16 * n * 2.0 ** -53 / (1 - 16 * n * 2.0 ** -53)
    logs = [math.log2(gamma) + math.fsum(np.log2(x + roots)) for x in roots]
    assert np.abs(np.log2(bound) - logs).max() < 1e-9


def test_component_uniqueness():
    # projecting any claimed decomposition recovers the canonical components
    rng = np.random.default_rng(15)
    T = central([1.0, 2.0, 2.0, 3.0])
    exp = eigen_expansion(T)
    z = ComplexElement(T.lattice, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    comps = [np.where(exp.mu.labels == k, z.values, 0) for k in range(len(exp.mu.values))]
    for (_, p), comp in zip(exp.pairs, comps):
        # applying P to the reassembled alternative decomposition returns comp
        assert np.array_equal(p.apply(z).values, comp)
        for (_, q), other in zip(exp.pairs, comps):
            if q is not p:
                assert np.all(p.apply(ComplexElement(T.lattice, other)).values == 0)


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(16)
    for _ in range(50):
        T = random_central(rng, dim=int(rng.integers(1, 9)), repeats=True)
        exp = eigen_expansion(T)
        total = np.zeros(T.lattice.dim, dtype=complex)
        psum = np.zeros(T.lattice.dim, dtype=complex)
        for lam, p in exp.pairs:
            total += lam * p.symbol
            psum += p.symbol
        assert np.array_equal(total, T.symbol)
        assert np.array_equal(psum, np.ones(T.lattice.dim))
        # annihilation, relative to the conditioning of the polynomial values
        polynomial = minimal_polynomial(exp.mu.values)
        residual = np.max(np.abs(eval_polynomial(polynomial, T.symbol)))
        degree = len(polynomial) - 1
        scale = max(1.0, T.order_unit_norm()) ** degree
        assert residual <= 1e-10 * scale


def test_freudenthal_atomic_exact():
    rng = np.random.default_rng(17)
    T = random_central(rng, dim=6, repeats=True)
    approx = freudenthal_approx(T, eps=1e-6)
    assert approx.error == 0.0
    spec = set(spectrum(T).attained)
    assert set(approx.coefficients) <= spec
    # projections pairwise disjoint
    for i, p in enumerate(approx.projections):
        for q in approx.projections[i + 1:]:
            assert np.all(p.symbol * q.symbol == 0)


def test_freudenthal_rejects_nonpositive_eps():
    with pytest.raises(PreconditionError):
        freudenthal_approx(central([1.0]), 0.0)


def test_freudenthal_large_eps_keeps_coefficients_in_spectrum():
    T = central([1.0, 2.0])
    approx = freudenthal_approx(T, eps=100.0)
    assert set(approx.coefficients) <= {1.0, 2.0}
    assert approx.error <= 100.0


# ---------------------------------------------------------------------------
# eigen bands
# ---------------------------------------------------------------------------

def test_eigen_query_hit():
    mu = build_mu_T(central([1.0, 2.0]))
    hit = np.array(mu.values) == 1.0
    assert hit.any()
    assert np.array_equal(mu.measure_of(hit).symbol.real, [1.0, 0.0])


def test_eigen_query_miss():
    mu = build_mu_T(central([1.0, 2.0]))
    miss = np.array(mu.values) == 5.0
    assert not miss.any()
    assert np.all(mu.measure_of(miss).symbol == 0)


def test_eigen_bands_disjoint():
    mu = build_mu_T(central([1.0, 2.0, 1.0, 3.0]))
    p1 = mu.measure_of(np.array(mu.values) == 1.0)
    p2 = mu.measure_of(np.array(mu.values) == 2.0)
    assert np.all(p1.symbol * p2.symbol == 0)


def test_eigen_query_kernel_matches_nullspace_oracle():
    T = central([0.0, 2.0, 0.0])
    mu = build_mu_T(T)
    band = mu.measure_of(np.array(mu.values) == 0.0)
    dense = np.diag(T.symbol)
    _, s, _ = np.linalg.svd(dense)
    assert int(np.sum(s < 1e-12)) == int(np.sum(band.symbol.real))


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_commutant_polynomial_in_T():
    T = central([1.0, 2.0, 1.0])
    Xi = RegularOperator(T.lattice, np.diag(T.symbol ** 2 + 3.0))
    report = commutant_check(T, Xi, np.random.default_rng(0))
    assert all(report.conditions()) and report.all_equivalent()


def test_commutant_violation_fails_all_five():
    T = central([1.0, 1.0, 2.0])
    m = np.zeros((3, 3), dtype=complex)
    m[0, 2] = 1.0  # couples distinct symbol classes
    report = commutant_check(T, RegularOperator(T.lattice, m), np.random.default_rng(0))
    assert not any(report.conditions())
    assert not report.block_pattern
    assert report.all_equivalent()


def _loop_random_on(rng, mask):
    """The generators' masked fill as the per-entry scalar draws it replaced."""
    X = np.zeros(mask.shape, dtype=complex)
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j]:
                X[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return X


@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_masked_fill_matches_scalar_draws(n, density, seed):
    mask = np.random.default_rng(seed).uniform(size=(n, n)) < density
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    X = generate._random_on(a, mask)
    assert X.tobytes() == _loop_random_on(b, mask).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_commutant_block_operator_passes():
    rng = np.random.default_rng(18)
    for _ in range(20):
        T = random_central(rng, dim=int(rng.integers(2, 7)), repeats=True)
        Xi = commutant_block_operator(rng, T)
        report = commutant_check(T, Xi, rng=rng)
        assert all(report.conditions()) and report.all_equivalent()


@pytest.mark.parametrize("scale", [2.0 ** -1040, 2.0 ** -1074, 1e-310],
                         ids=["2**-1040", "2**-1074", "1e-310"])
def test_commutant_check_of_a_subnormal_norm(scale):
    # s / ||T|| multiplied by the reciprocal of a subnormal norm, which
    # overflowed: a RuntimeWarning, which the warning filter makes an error,
    # and inf and NaN powers that failed condition 3 inside the commutant
    rng = np.random.default_rng(19)
    T = central(np.array([1.0, -0.5j, 1.0, 0.25 + 0.5j]) * scale)
    assert 0 < T.order_unit_norm() < np.finfo(float).tiny
    report = commutant_check(T, commutant_block_operator(rng, T), rng=rng)
    assert all(report.conditions()) and report.all_equivalent()


# ---------------------------------------------------------------------------
# the label core against the dense-mask formulation it replaced
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 parts count as different."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_masks(T):
    """mu_T as one dense 0/1 mask per distinct value, in first-occurrence order."""
    values = tuple(dict.fromkeys(T.symbol.tolist()))
    return values, tuple((T.symbol == v).astype(float) for v in values)


def _reference_rho(T, f):
    """rho_T(f) as the order integral of f against the measure of the masks."""
    values, masks = _reference_masks(T)
    space = FiniteMeasurableSpace(values)
    per_value = [complex(f(v)) for v in values] if callable(f) else [complex(x) for x in f]
    measure = LatticeValuedMeasure(space, masks, T.lattice)
    return integrate(per_value, measure).values


def _reference_measure_of(T, where):
    _, masks = _reference_masks(T)
    total = np.zeros(T.lattice.dim)
    for keep, m in zip(where, masks):
        if keep:
            total = total + m
    return total.astype(complex)


def _reference_freudenthal_error(T):
    values, masks = _reference_masks(T)
    approx = np.zeros(T.lattice.dim, dtype=complex)
    for v, m in zip(values, masks):
        approx += v * m.astype(complex)
    return float(np.max(np.abs(T.symbol - approx)))


_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0)


@st.composite
def _symbols(draw, max_size=12):
    """Up to max_size symbol values drawn from a pool of up to 4, so that
    values repeat, plus twins of the pool members that differ only in the
    imaginary part; parts include both signed zeros."""
    part = st.sampled_from(_PARTS)
    pool = draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=4))
    twins = [complex(v.real, -v.imag if v.imag else 1.0) for v in pool]
    return draw(st.lists(st.sampled_from(pool + twins), min_size=1, max_size=max_size))


_FUNCTIONS = {
    "identity": lambda v: v,
    "conj": lambda v: v.conjugate(),
    "neg": lambda v: -v,
    "abs": lambda v: abs(v),
    "square": lambda v: v * v,
    "sqrt": lambda v: complex(v) ** 0.5,
    "one": lambda v: 1.0,
    "neg-zero": lambda v: complex(-0.0, -0.0),
}


def test_dim_zero_operator_is_not_constructible():
    # the property below therefore starts at dim 1
    with pytest.raises(ValueError):
        CoordinateLattice(0)


@given(_symbols(), st.sampled_from(sorted(_FUNCTIONS)), st.data())
@example([0.0], "conj", None)
@example([-0.0, 0.0, complex(0.0, -0.0)], "neg", None)
@example([1 + 0.5j, 1 - 0.5j, 1 + 0.5j, -0.0], "identity", None)
@settings(max_examples=200, deadline=None)
def test_label_core_matches_dense_masks(symbols, fname, data):
    T = central(symbols)
    values, masks = _reference_masks(T)
    mu = build_mu_T(T)
    mu.validate()

    assert mu.values == values
    assert _same_bits(np.array(mu.values), np.array(values))
    assert len(mu.projections) == len(masks)
    assert all(_same_bits(p, m) for p, m in zip(mu.projections, masks))
    assert _same_bits(mu.reconstruct().symbol, T.symbol + 0j)

    f = _FUNCTIONS[fname]
    assert _same_bits(rho_T(T, f).symbol, _reference_rho(T, f))
    if data is not None:
        table = [complex(data.draw(st.sampled_from(_PARTS)), data.draw(st.sampled_from(_PARTS)))
                 for _ in values]
        assert _same_bits(rho_T(T, table, mu).symbol, _reference_rho(T, table))
        where = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        assert _same_bits(mu.measure_of(where).symbol, _reference_measure_of(T, where))

    for k, m in enumerate(masks):
        assert _same_bits(mu.measure_of(np.arange(len(values)) == k).symbol, m.astype(complex))

    exp = eigen_expansion(T)
    assert tuple(v for v, _ in exp.pairs) == values
    assert all(_same_bits(p.symbol, m.astype(complex)) for (_, p), m in zip(exp.pairs, masks))
    assert minimal_polynomial(exp.mu.values) == minimal_polynomial(values)

    approx = freudenthal_approx(T, 0.1)
    assert approx.coefficients == values
    assert all(_same_bits(p.symbol, m.astype(complex))
               for p, m in zip(approx.projections, masks))
    assert _same_bits(approx.error, _reference_freudenthal_error(T))


@given(_symbols(), st.sampled_from(sorted(_FUNCTIONS)))
@settings(max_examples=200, deadline=None)
def test_callable_and_per_value_forms_agree(symbols, fname):
    T = central(symbols)
    mu = build_mu_T(T)
    f = _FUNCTIONS[fname]
    table = [f(v) for v in mu.values]
    assert _same_bits(rho_T(T, f).symbol, rho_T(T, table).symbol)
    null = mu.measure_of(np.asarray(table, dtype=complex) == 0)
    # the kernel formula: rho_T(f) vanishes exactly on the band of f's null set
    assert _same_bits((rho_T(T, f).symbol == 0).astype(complex), null.symbol)


def _reference_bands(mu):
    """mu_T's bands one (labels == k) comparison at a time, as complex symbols."""
    return [(mu.labels == k).astype(complex) for k in range(len(mu.values))]


def _convolve_minimal_polynomial(values):
    """The monic polynomial with the given roots, one np.convolve call per root.

    np.convolve sums with BLAS zdotu, so where a coefficient overflows, its
    NaN parts are those of the OpenBLAS build numpy ships with."""
    coeffs = np.array([1.0 + 0j])
    for v in values:
        coeffs = np.convolve(coeffs, np.array([1.0 + 0j, -v]))
    return tuple(coeffs)


def _same_bits_or_nan(a, b):
    """NaN in the same parts, and every other part with the same bits."""
    a, b = np.asarray(a, dtype=complex).view(float), np.asarray(b, dtype=complex).view(float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and _same_bits(a[~nan], b[~nan]))


@given(_symbols(max_size=64))
@example([1.0])
@example([-0.0, 0.0, complex(0.0, -0.0), 2.0] * 16)
@settings(max_examples=200, deadline=None)
def test_band_operators_match_per_band_reference(symbols):
    T = central(symbols)
    mu = build_mu_T(T)
    reference = _reference_bands(mu)
    bands = mu.band_operators()
    assert len(bands) == len(reference)
    assert all(_same_bits(p.symbol, r) for p, r in zip(bands, reference))
    # each row is what the public constructor makes of it
    for p, r in zip(bands, reference):
        q = CentralOperator(T.lattice, r)
        assert type(p) is CentralOperator and p.lattice == q.lattice
        assert p.symbol.dtype == q.symbol.dtype and _same_bits(p.symbol, q.symbol)
        assert not p.symbol.flags.writeable
    assert all(_same_bits(q, r.real) for q, r in zip(mu.projections, reference))

    with np.errstate(over="ignore", invalid="ignore"):
        polynomial = _convolve_minimal_polynomial(mu.values)
    exp = eigen_expansion(T)
    assert tuple(v for v, _ in exp.pairs) == mu.values
    assert all(_same_bits(p.symbol, r) for (_, p), r in zip(exp.pairs, reference))
    assert _same_bits_or_nan(minimal_polynomial(exp.mu.values), polynomial)

    approx = freudenthal_approx(T, 0.1)
    assert approx.coefficients == mu.values
    assert all(_same_bits(p.symbol, r) for p, r in zip(approx.projections, reference))
    assert _same_bits(approx.error, float(np.max(np.abs(T.symbol - mu.reconstruct().symbol))))


def test_band_rows_are_built_once_per_expansion():
    # the bands are built from the labels on first read and then kept
    T = central([1.0, 2.0, 2.0, 3.0])
    exp = eigen_expansion(T)
    assert exp.pairs is exp.pairs
    approx = freudenthal_approx(T, 0.1)
    assert approx.projections is approx.projections


_ROOT_PARTS = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e200, -1e200, 1e-200, 1e-300, -1e-300,
               5e-324, 1e308)


@st.composite
def _roots(draw):
    """Up to 16 finite roots: exact small integers and signed zeros, parts
    whose products overflow or underflow, and arbitrary floats, with repeats."""
    part = st.one_of(st.sampled_from(_ROOT_PARTS), st.integers(-4, 4).map(float),
                     st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(st.one_of(st.builds(complex, part, part), part),
                         min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=16))


@given(_roots())
@example([])
@example([-0.0, complex(-0.0, -0.0), 0.0, complex(0.0, -0.0)])
@example([1.0, 1.0, 2.0, 2.0])
@example([1e100, 2e100, 3e100, 4e100])
@example([complex(1e200, -1e200), complex(-1e-300, 1e200), 1e308, 5e-324])
@settings(max_examples=400, deadline=None)
def test_minimal_polynomial_matches_convolve(roots):
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _convolve_minimal_polynomial(roots)
    ours = minimal_polynomial(roots)
    assert all(isinstance(c, np.complex128) for c in ours)
    assert _same_bits_or_nan(ours, reference)


def _dense_commutant_check(T, Xi, rng, tol=TOL_EXACT):
    """The five conditions and the block pattern, each through dense products."""
    n = T.lattice.dim
    X = Xi.entries
    s = T.symbol
    tol = tol * max(1.0, float(np.max(np.abs(X))))

    def commutes(g):
        D = np.diag(g)
        return float(np.max(np.abs(D @ X - X @ D))) <= tol

    nrm = T.order_unit_norm()
    sn = s / nrm if nrm > 0 else s
    values, masks = _reference_masks(T)
    c5 = True
    for _ in range(8):
        vals = rng.standard_normal(len(values)) + 1j * rng.standard_normal(len(values))
        if not commutes(_reference_rho(T, vals)):
            c5 = False
            break
    block = all(s[i] == s[j] or abs(X[i, j]) <= tol for i in range(n) for j in range(n))
    return (commutes(s), commutes(np.conj(s)),
            all(commutes((sn ** a) * (np.conj(sn) ** b))
                for a in range(n + 1) for b in range(n + 1 - a)),
            all(commutes(m) for m in masks), c5, block)


@given(st.one_of(_symbols(), st.integers(1, 9)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_commutant_entrywise_matches_dense_products(symbols, seed):
    rng = np.random.default_rng(seed)
    if isinstance(symbols, int):
        T = random_central(rng, dim=symbols, repeats=True)
    else:
        T = central(symbols)
    inside = commutant_block_operator(rng, T)
    cases = [inside]
    mismatched = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
    if len(mismatched):
        i, j = mismatched[rng.integers(0, len(mismatched))]
        broken = np.array(inside.entries)
        broken[i, j] += 1.0
        cases.append(RegularOperator(T.lattice, broken))
        # the same entry at condition 4's threshold, and one ulp above it;
        # conditions 1-3 and 5 round products of that entry near tol, which
        # the dense products may do differently, so only 4 and the pattern
        # are compared there
        tol = TOL_EXACT * max(1.0, float(np.max(np.abs(inside.entries))))
        for entry, within in ((tol, True), (np.nextafter(tol, np.inf), False)):
            edge = np.array(inside.entries)
            edge[i, j] = entry
            Xi = RegularOperator(T.lattice, edge)
            report = commutant_check(T, Xi, rng=np.random.default_rng(seed))
            dense = _dense_commutant_check(T, Xi, np.random.default_rng(seed))
            assert (report.with_spectral_projections, report.block_pattern) == \
                (dense[3], dense[5]) == (within, within)
    for Xi in cases:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        report = commutant_check(T, Xi, rng=ours)
        assert (*report.conditions(), report.block_pattern) == \
            _dense_commutant_check(T, Xi, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert report.all_equivalent() and report.with_operator == (Xi is inside)


@given(st.sampled_from((1, 2, 3, 5, 8, 16, 48, 64)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_condition_one_agrees_with_blas_products(dim, seed):
    # at n = 48 and 64 the BLAS zgemm behind @ hands the product to a thread
    rng = np.random.default_rng(seed)
    T = random_central(rng, dim=dim, repeats=True)
    inside = commutant_block_operator(rng, T)
    cases = [inside]
    mismatched = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
    if len(mismatched):
        i, j = mismatched[rng.integers(0, len(mismatched))]
        broken = np.array(inside.entries)
        broken[i, j] += 1.0
        cases.append(RegularOperator(T.lattice, broken))
    s = T.symbol
    D = np.diag(s)
    u = 2.0 ** -53
    for Xi in cases:
        X = Xi.entries
        loop = np.einsum("ij,jk->ik", D, X) - np.einsum("ij,jk->ik", X, D)
        blas = D @ X - X @ D
        # entry (i, j) is s_i X_ij - X_ij s_j either way: two complex products,
        # each within sqrt(2) gamma_2 (FMA or not), and a difference
        bound = 4 * 3 * u / (1 - 3 * u) * (np.abs(s)[:, None] + np.abs(s)[None, :]) * np.abs(X)
        assert np.all(np.abs(loop - blas) <= bound)
        tol = TOL_EXACT * max(1.0, float(np.max(np.abs(X))))
        report = commutant_check(T, Xi, np.random.default_rng(0))
        assert report.with_operator == (float(np.max(np.abs(blas))) <= tol) == (Xi is inside)


def _dense_conditions_two_and_three(T, X):
    """Conditions 2 and 3 on every entry of X, as before the support form."""
    tol = TOL_EXACT * max(1.0, float(np.max(np.abs(X))))
    nrm = T.order_unit_norm()
    sn = T.symbol / nrm if nrm > 0 else T.symbol
    dense = lambda g: float(np.max(np.abs((g[:, None] - g[None, :]) * X))) <= tol
    return dense(np.conj(T.symbol)), all(dense(sn ** a) for a in range(len(build_mu_T(T).values)))


@given(st.one_of(st.integers(1, 80), st.just(130)), st.sampled_from((None, 1, 2, 3, 5)),
       st.floats(-14.0, 0.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_support_form_matches_the_dense_conditions(dim, few, size, seed):
    """Block operators, copies broken at one entry by 10**size, from far
    below the tolerance to far above it, and copies with every entry moved
    by up to 10**size, on all values distinct or at most ``few`` of them."""
    rng = np.random.default_rng(seed)
    T = random_central(rng, dim=dim)
    if few:
        T = central(T.symbol[rng.integers(0, min(few, dim), size=dim)])
    inside = commutant_block_operator(rng, T)
    cases = [inside.entries]
    mismatched = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
    if len(mismatched):
        i, j = mismatched[rng.integers(0, len(mismatched))]
        broken = np.array(inside.entries)
        broken[i, j] += 10.0 ** size * np.exp(1j * rng.uniform(0, 2 * np.pi))
        cases.append(broken)
    # every entry nonzero, and within tolerance of a block operator
    cases.append(inside.entries + 10.0 ** size * rng.uniform(0.5, 1.0, (dim, dim)))
    for X in cases:
        report = commutant_check(T, RegularOperator(T.lattice, X), np.random.default_rng(0))
        assert (report.with_conjugate, report.with_continuous_calculus) \
            == _dense_conditions_two_and_three(T, X)


def test_support_form_passes_entries_whose_symbol_difference_overflows():
    # s_0 - s_1 overflows to inf, and X_01 = 0: the dense form's inf * 0 = NaN
    # failed condition 2, while X = I commutes with T, as conditions 1, 3-5 say
    T = central([1e308, -1e308])
    report = commutant_check(T, RegularOperator(T.lattice, np.eye(2, dtype=complex)),
                             np.random.default_rng(0))
    assert report.with_conjugate and report.all_equivalent()


@pytest.mark.parametrize("inside", [True, False], ids=["block-operator", "dense"])
def test_commutant_check_holds_no_stack_of_powers_at_n_256(monkeypatch, inside):
    # 256 distinct values, so 256 powers: a stack of them all over every
    # entry would hold 256 (n, n) complex arrays.  Each entrywise test holds
    # two gathered operands over X's nonzero entries, the difference and the
    # product reusing the first: at most two (n, n) complex arrays
    n = 256
    rng = np.random.default_rng(3)
    T = random_central(rng, dim=n)
    assert len(build_mu_T(T).values) == n
    Xi = (commutant_block_operator(rng, T) if inside
          else RegularOperator(T.lattice, rng.standard_normal((n, n)) + 1j))
    peaks, test = [], spectral._commutes_with_diag

    def traced(g, support, x, tol):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = test(g, support, x, tol)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(spectral, "_commutes_with_diag", traced)
    tracemalloc.start()
    try:
        report = commutant_check(T, Xi, np.random.default_rng(0))
    finally:
        tracemalloc.stop()
    assert report.with_continuous_calculus == inside
    # conditions 2, 3 and 5: 1, 256 and 8 tests when X commutes; 1, 2 (power
    # 0 holds, power 1 fails) and 1 when it does not
    assert len(peaks) == (1 + n + 8 if inside else 1 + 2 + 1)
    assert max(peaks) <= 2 * n * n * 16 + 65536


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_dominated_convergence_rejects_an_element_of_another_dimension(dim):
    # at dim 1 the stacked product with the (n_terms, 3) symbols would broadcast
    T = central([1.0, 2.0, 3.0])
    z = ComplexElement(CoordinateLattice(dim), np.ones(dim, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        dominated_convergence_calculus(T, [[1.5, 2.5, 3.5]], [1.0, 2.0, 3.0],
                                       tail=harmonic_tail, z=z)


def test_calc_rho_conj_real_symbol_prints_positive_zero(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"dim": 3, "symbol": [[1.5, 0], [-2, 0], [0, 0]]}')
    assert cli_main(["calc", "rho", str(path), "--fn", "conj"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rho"]["symbol"] == [[1.5, 0.0], [-2.0, 0.0], [0.0, 0.0]]
    assert "-0.0" not in out
