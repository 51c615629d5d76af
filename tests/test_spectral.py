"""Tests for the Gelfand transform, spectra, spectral measures, the
functional calculus, eigen expansions, and commutants."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centrelat import generate, spectral, suites
from centrelat.cli import main as cli_main
from centrelat.exact import QComplex
from centrelat.generate import (
    central_from_rational,
    commutant_block_operator,
    random_central,
    random_rational_symbols,
)
from centrelat.lattice import ComplexElement, CoordinateLattice, MaxNorm
from centrelat.operators import CentralOperator, RegularOperator
from centrelat.spectral import (
    OperatorSpectralMeasure,
    PreconditionError,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    eigen_query,
    enumerate_unital_spectral_measures,
    eval_polynomial,
    freudenthal_approx,
    gelfand,
    global_spectral_measure,
    kernel_projection,
    minimal_polynomial,
    reconstruct_from_global,
    rho_T,
    spectrum,
    spectrum_shape_report,
    union_spectrum,
)
from centrelat.measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    integrate,
    is_spectral,
)

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-9


def central(symbol):
    symbol = np.asarray(symbol, dtype=complex)
    return CentralOperator(CoordinateLattice(len(symbol), MaxNorm()), symbol)


# ---------------------------------------------------------------------------
# Gelfand transform
# ---------------------------------------------------------------------------

def test_gelfand_identity_is_constant_one():
    hat = gelfand(CentralOperator.identity(CoordinateLattice(3)))
    assert all(hat[i] == 1.0 for i in range(3))


def test_gelfand_frozen_example():
    hat = gelfand(central([1 + 1j, 2.0]))
    assert hat[0] == 1 + 1j and hat[1] == 2.0 and not hat.flags.writeable


def test_gelfand_isometric_star_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        S = random_central(rng, dim=n)
        T = CentralOperator(S.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert np.max(np.abs(gelfand(T))) == pytest.approx(T.order_unit_norm(), abs=TOL_EXACT)
        assert np.array_equal(gelfand(T.conj()), np.conj(gelfand(T)))
        prod_hat = gelfand(S * T)
        assert np.max(np.abs(prod_hat - gelfand(S) * gelfand(T))) <= TOL_EXACT


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
    # generic complex, self-conjugate, positive, and unimodular instances
    cases = [
        random_central(rng, dim=5),
        central(rng.standard_normal(5)),
        central(np.abs(rng.standard_normal(5))),
        central(np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))),
    ]
    for T in cases:
        assert spectrum_shape_report(T).all_ok()


def test_spectrum_radius_equals_norm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        radius = max(abs(v) for v in build_mu_T(T).values)
        assert radius == pytest.approx(T.order_unit_norm(), abs=TOL_EXACT)


def test_union_spectrum_basis_cover():
    T = central([1.0, 2.0, 1.0])
    spec = union_spectrum(T, list(np.eye(3)))
    assert set(spec.attained) == {1.0, 2.0}


def test_union_spectrum_full_support():
    T = central([3.0, 4j])
    spec = union_spectrum(T, [np.array([1.0, 2.0])])
    assert set(spec.attained) == {3.0, 4j}


def test_union_spectrum_random_covers():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = random_central(rng, dim=8)
        gens = []
        for _ in range(3):
            mask = rng.integers(0, 2, size=8).astype(float)
            gens.append(mask)
        gens[0] = np.maximum(gens[0], 1.0 - np.maximum(gens[1], gens[2]))  # force a cover
        spec = union_spectrum(T, gens)
        assert set(spec.attained) == set(build_mu_T(T).values)


def test_union_spectrum_requires_cover():
    T = central([1.0, 2.0])
    with pytest.raises(PreconditionError):
        union_spectrum(T, [np.array([1.0, 0.0])])


# ---------------------------------------------------------------------------
# global spectral measure
# ---------------------------------------------------------------------------

def test_global_measure_extremes():
    lat = CoordinateLattice(4)
    mu = global_spectral_measure(lat)
    assert np.array_equal(mu.total(), np.ones(4))
    assert np.array_equal(mu.measure_of([]), np.zeros(4))
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


def test_mu_t_uniqueness_enumeration_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        symbols = random_rational_symbols(rng, dim)
        admissible = enumerate_unital_spectral_measures(symbols)
        assert len(admissible) == 1
        # the unique assignment is the one defining mu_T
        T = central_from_rational(symbols)
        mu = build_mu_T(T)
        assert admissible[0] == tuple(mu.labels.tolist())
        for i, k in enumerate(admissible[0]):
            assert mu.values[k] == T.symbol[i] == complex(symbols[i].to_complex())


def _brute_force_enumeration(symbols):
    """Reference oracle: scan all |spectrum|^dim assignments one by one."""
    values = []
    for s in symbols:
        if not any(s.re == v.re and s.im == v.im for v in values):
            values.append(s)
    return [assign for assign in itertools.product(range(len(values)), repeat=len(symbols))
            if all(values[k].re == symbols[i].re and values[k].im == symbols[i].im
                   for i, k in enumerate(assign))]


_qc_part = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def _symbol_lists(draw):
    """Up to 4 QComplex symbols drawn from a small pool, so that values repeat,
    plus twins of the pool members that differ only in the imaginary part."""
    pool = draw(st.lists(st.builds(QComplex, _qc_part, _qc_part), min_size=1, max_size=4))
    twins = [QComplex(q.re, q.im + Fraction(1, 3)) for q in pool]
    return draw(st.lists(st.sampled_from(pool + twins), max_size=4))


_a = QComplex(Fraction(1, 2), Fraction(1))
_b = QComplex(Fraction(1, 2), Fraction(-1, 3))


@given(_symbol_lists())
@example([_a, _a, _b, _a])
@example([_a, _b, _b, _b])
@example([])
@settings(max_examples=150, deadline=None)
def test_enumeration_oracle_matches_brute_force(symbols):
    assert enumerate_unital_spectral_measures(symbols) == _brute_force_enumeration(symbols)


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
        kernel_projection(T, wrong)
    with pytest.raises(ValueError, match="per spectrum value"):
        dominated_convergence_calculus(T, [[1.0, 2.0]], wrong, bound=5.0)
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
    K = kernel_projection(T, f)
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
        table = (np.arange(len(build_mu_T(T).values)) % 2).astype(complex)
        K = kernel_projection(T, table)
        R = rho_T(T, table)
        # coordinates killed by rho_T(f) are exactly the kernel projection band
        assert np.array_equal((R.symbol == 0).astype(float), K.symbol.real)


def test_dominated_convergence_trivial_and_shift():
    T = central([1.0, 2.0, 3.0])
    f = [1.0, 4.0, 9.0]
    fs = [f for _ in range(5)]
    report = dominated_convergence_calculus(T, fs, f, bound=10.0)
    assert report
    assert all(np.max(u) == 0.0 for u in report.witness.dominating)

    fs = [lambda v, n=n: v + 1.0 / n for n in range(1, 40)]
    ident = np.array([1.0, 2.0, 3.0])
    z = ComplexElement(T.lattice, np.array([1.0, -1j, 0.5]))
    report = dominated_convergence_calculus(T, fs, ident, bound=5.0, z=z,
                                            tail=lambda n: 1.0 / (n + 1))
    assert report
    assert np.max(report.witness.dominating[0]) == pytest.approx(1.0)


def test_dominated_convergence_bound_violation():
    T = central([1.0, 2.0])
    with pytest.raises(PreconditionError):
        dominated_convergence_calculus(T, [[100.0, 0.0]], [0.0, 0.0], bound=1.0)


# ---------------------------------------------------------------------------
# eigen expansion, annihilation, approximation
# ---------------------------------------------------------------------------

def test_eigen_expansion_frozen_example():
    T = central([1.0, 1.0, 2.0])
    exp = eigen_expansion(T)
    z = ComplexElement(T.lattice, np.ones(3, dtype=complex))
    comps = exp.components(z)
    assert np.array_equal(comps[0].values, [1.0, 1.0, 0.0])
    assert np.array_equal(comps[1].values, [0.0, 0.0, 1.0])
    for (lam, _), comp in zip(exp.pairs, comps):
        assert np.max(np.abs(T.symbol * comp.values - lam * comp.values)) <= TOL_EXACT
    assert np.array_equal(sum(c.values for c in comps), z.values)


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


def test_component_uniqueness():
    # projecting any claimed decomposition recovers the canonical components
    rng = np.random.default_rng(15)
    T = central([1.0, 2.0, 2.0, 3.0])
    exp = eigen_expansion(T)
    z = ComplexElement(T.lattice, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    comps = exp.components(z)
    for (_, p), comp in zip(exp.pairs, comps):
        # applying P to the reassembled alternative decomposition returns comp
        assert np.array_equal(p.apply(z).values, comp.values)
        for (_, q), other in zip(exp.pairs, comps):
            if q is not p:
                assert np.all(p.apply(other).values == 0)


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
        residual = np.max(np.abs(eval_polynomial(exp.minimal_polynomial, T.symbol)))
        degree = len(exp.minimal_polynomial) - 1
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
# eigen query
# ---------------------------------------------------------------------------

def test_eigen_query_hit():
    q = eigen_query(central([1.0, 2.0]), 1.0)
    assert q.is_eigenvalue
    assert np.array_equal(q.projection.symbol.real, [1.0, 0.0])


def test_eigen_query_miss():
    q = eigen_query(central([1.0, 2.0]), 5.0)
    assert not q.is_eigenvalue
    assert np.all(q.projection.symbol == 0)


def test_eigen_bands_disjoint():
    T = central([1.0, 2.0, 1.0, 3.0])
    p1 = eigen_query(T, 1.0).projection
    p2 = eigen_query(T, 2.0).projection
    assert np.all(p1.symbol * p2.symbol == 0)


def test_eigen_query_kernel_matches_nullspace_oracle():
    T = central([0.0, 2.0, 0.0])
    q = eigen_query(T, 0.0)
    dense = np.diag(T.symbol)
    _, s, _ = np.linalg.svd(dense)
    assert int(np.sum(s < 1e-12)) == int(np.sum(q.projection.symbol.real))


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_commutant_polynomial_in_T():
    T = central([1.0, 2.0, 1.0])
    Xi = RegularOperator(T.lattice, np.diag(T.symbol ** 2 + 3.0))
    report = commutant_check(T, Xi)
    assert all(report.conditions()) and report.all_equivalent()


def test_commutant_violation_fails_all_five():
    T = central([1.0, 1.0, 2.0])
    m = np.zeros((3, 3), dtype=complex)
    m[0, 2] = 1.0  # couples distinct symbol classes
    report = commutant_check(T, RegularOperator(T.lattice, m))
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
def _symbols(draw):
    """Up to 12 symbol values drawn from a pool of up to 4, so that values
    repeat, plus twins of the pool members that differ only in the imaginary
    part; parts include both signed zeros."""
    part = st.sampled_from(_PARTS)
    pool = draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=4))
    twins = [complex(v.real, -v.imag if v.imag else 1.0) for v in pool]
    return draw(st.lists(st.sampled_from(pool + twins), min_size=1, max_size=12))


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
    assert exp.minimal_polynomial == minimal_polynomial(values)

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
    null = mu.measure_of(np.array([complex(x) == 0 for x in table]))
    assert _same_bits(kernel_projection(T, f).symbol, null.symbol)
    assert _same_bits(kernel_projection(T, table).symbol, null.symbol)


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
        report = commutant_check(T, Xi)
        assert report.with_operator == (float(np.max(np.abs(blas))) <= tol) == (Xi is inside)


def test_calc_rho_conj_real_symbol_prints_positive_zero(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"dim": 3, "symbol": [[1.5, 0], [-2, 0], [0, 0]]}')
    assert cli_main(["calc", "rho", str(path), "--fn", "conj"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rho"]["symbol"] == [[1.5, 0.0], [-2.0, 0.0], [0.0, 0.0]]
    assert "-0.0" not in out
