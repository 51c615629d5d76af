"""Tests for coordinate lattices, moduli, ideals, and convergence witnesses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centrelat.lattice import (
    ENTRIES,
    ComplexElement,
    ConvergenceWitness,
    CoordinateLattice,
    DimensionMismatchError,
    DomainError,
    MaxNorm,
    PrincipalIdeal,
    WeightedPNorm,
    WitnessVerdict,
    check_witness,
    ideal_norm,
    modulus,
    modulus_phase_oracle,
    row_blocks,
)
from centrelat.generate import random_central
from centrelat.operators import CentralOperator
from centrelat.spectral import (
    DominatedConvergenceReport,
    build_mu_T,
    dominated_convergence_calculus,
    rho_T,
)

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-9


def elem(re, im=None, norm=None):
    re = np.asarray(re, dtype=float)
    im = np.zeros_like(re) if im is None else np.asarray(im, dtype=float)
    lat = CoordinateLattice(len(re), norm or MaxNorm())
    return ComplexElement(lat, re + 1j * im)


# ---------------------------------------------------------------------------
# modulus
# ---------------------------------------------------------------------------

def test_modulus_closed_form():
    z = elem([3.0, -1.0], [4.0, 0.0])
    assert np.array_equal(modulus(z), [5.0, 1.0])


def test_modulus_zero():
    z = elem([0.0, 0.0])
    assert np.array_equal(modulus(z), [0.0, 0.0])


def test_modulus_matches_phase_oracle_frozen():
    z = elem([1.0, 2.0], [1.0, -2.0])
    m = modulus(z)
    assert m == pytest.approx([math.sqrt(2.0), 2.0 * math.sqrt(2.0)], abs=TOL_EXACT)
    oracle = modulus_phase_oracle(z)
    assert np.max(np.abs(m - oracle)) < TOL_ORACLE


def test_modulus_matches_phase_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        z = elem(rng.standard_normal(n) * 10, rng.standard_normal(n) * 10)
        assert np.max(np.abs(modulus(z) - modulus_phase_oracle(z))) < TOL_ORACLE


def test_modulus_of_conjugate_is_modulus():
    rng = np.random.default_rng(0)
    z = elem(rng.standard_normal(5), rng.standard_normal(5))
    assert np.array_equal(modulus(z), modulus(z.conj()))


def test_conjugation_is_involution():
    z = elem([1.5, -2.0], [0.25, 3.0])
    assert np.array_equal(z.conj().conj().values, z.values)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_modulus_positive_homogeneity(c):
    z = elem([1.0, -2.0, 0.5], [3.0, 0.0, -0.25])
    scaled = ComplexElement(z.lattice, z.values * c)
    expected = abs(c) * modulus(z)
    assert np.max(np.abs(modulus(scaled) - expected)) <= TOL_EXACT * max(1.0, abs(c))


def test_modulus_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = elem(rng.standard_normal(4), rng.standard_normal(4))
        w = elem(rng.standard_normal(4), rng.standard_normal(4))
        zw = ComplexElement(z.lattice, z.values + w.values)
        assert np.all(modulus(zw) <= modulus(z) + modulus(w) + TOL_EXACT)


def test_dimension_mismatch_rejected():
    lat = CoordinateLattice(2)
    with pytest.raises(DimensionMismatchError):
        ComplexElement(lat, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_weighted_p_norm_values():
    n = WeightedPNorm((1.0, 2.0), 1.0)
    assert n.rows(np.array([[3.0, 4.0], [1.0, 0.0]])).tolist() == pytest.approx([11.0, 1.0])
    n_inf = WeightedPNorm((1.0, 2.0), math.inf)
    assert CoordinateLattice(2, n_inf).norm(np.array([3.0, -4.0])) == pytest.approx(8.0)


@st.composite
def _moduli_and_norm(draw):
    """A weighted p-norm and an (m, dim) array of moduli whose weighted p-th
    power sums span 1e-300 to 1e300."""
    dim, m = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    p = draw(st.one_of(st.sampled_from((1.0, 1.7, 2.0, 2.5, 3.0)), st.floats(1.0, 3.0)))
    scale = st.floats(-100 / p, 100 / p).map(lambda e: 10.0 ** e)
    weights = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    rows = draw(st.lists(st.lists(st.one_of(st.just(0.0), scale), min_size=dim, max_size=dim),
                         min_size=m, max_size=m))
    return WeightedPNorm(weights, p), np.array(rows, dtype=float).reshape(m, dim)


@given(_moduli_and_norm())
@settings(max_examples=500, deadline=None)
def test_weighted_p_norm_rows_take_python_scalar_powers(norm_and_rows):
    norm, absx = norm_and_rows
    got = norm.rows(absx)
    w = np.asarray(norm.weights)
    # each row alone: its weighted sum, then Python's float power
    want = [float(np.sum(w * row ** norm.p)) ** (1.0 / norm.p) for row in absx]
    assert got.dtype == float and got.shape == (len(absx),)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@given(st.integers(1, 6), st.sampled_from((1.0, 1.5, 2.0, 3.0, 7.0, 50.0)), st.integers(0, 1000),
       st.data())
@settings(max_examples=300, deadline=None)
def test_weighted_p_norm_rows_whose_sums_overflow_are_evaluated_scaled(dim, p, k, data):
    weights = tuple(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    row = np.ldexp(data.draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)), k)
    got = WeightedPNorm(weights, p).rows(row[None])[0]
    w = np.asarray(weights)
    with np.errstate(over="ignore"):
        unscaled = float(np.sum(w * row ** p))
    if unscaled < math.inf:
        assert got == unscaled ** (1.0 / p)  # the bits of the unscaled evaluation
    else:
        top = float(row.max())
        want = top * math.fsum(w * (row / top) ** p) ** (1.0 / p)
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-13)


def test_weighted_norm_rejects_bad_parameters():
    with pytest.raises(ValueError):
        WeightedPNorm((1.0, -1.0), 2.0)
    with pytest.raises(ValueError):
        WeightedPNorm((1.0,), 0.5)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_weighted_norm_rejects_non_finite_weights(weight):
    # `w <= 0` alone let nan through, and inf made the norms overflow to nan
    with pytest.raises(ValueError, match="finite"):
        WeightedPNorm((weight, 1.0), 2.0)


def test_norm_is_lattice_norm():
    # |x| <= |y| coordinatewise implies norm(x) <= norm(y)
    rng = np.random.default_rng(11)
    for spec in (MaxNorm(), WeightedPNorm((0.5, 2.0, 1.0), 1.0),
                 WeightedPNorm((1.0, 1.0, 3.0), 2.0)):
        lat = CoordinateLattice(3, spec)
        for _ in range(50):
            big = np.abs(rng.standard_normal(3))
            small = big * rng.uniform(0.0, 1.0, size=3)
            assert lat.norm(small) <= lat.norm(big) + TOL_EXACT


# ---------------------------------------------------------------------------
# principal ideals
# ---------------------------------------------------------------------------

def test_ideal_norm_of_generator_is_one():
    u = np.array([1.0, 2.0, 0.5])
    ideal = PrincipalIdeal(u)
    z = elem(u)
    assert ideal_norm(z, ideal) == pytest.approx(1.0, abs=TOL_EXACT)


def test_ideal_norm_frozen_values():
    ideal = PrincipalIdeal(np.array([1.0, 2.0, 0.0]))
    assert ideal_norm(elem([2.0, 2.0, 0.0]), ideal) == pytest.approx(2.0)
    # |3 + 4i| / 2 = 2.5
    assert ideal_norm(elem([0.0, 3.0, 0.0], [0.0, 4.0, 0.0]), ideal) == pytest.approx(2.5)


def test_ideal_norm_outside_ideal_names_coordinate():
    ideal = PrincipalIdeal(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError, match="coordinate 1"):
        ideal_norm(elem([0.0, 1.0, 0.0]), ideal)


def test_ideal_norm_is_a_lattice_norm():
    rng = np.random.default_rng(19)
    u = np.array([1.0, 0.5, 2.0, 3.0])
    ideal = PrincipalIdeal(u)
    for _ in range(50):
        z = elem(rng.standard_normal(4), rng.standard_normal(4))
        w = elem(rng.standard_normal(4), rng.standard_normal(4))
        c = complex(rng.standard_normal(), rng.standard_normal())
        nz, nw = ideal_norm(z, ideal), ideal_norm(w, ideal)
        # homogeneity and triangle
        zc, zw = (ComplexElement(z.lattice, v) for v in (z.values * c, z.values + w.values))
        assert ideal_norm(zc, ideal) == pytest.approx(abs(c) * nz, abs=TOL_EXACT * 10)
        assert ideal_norm(zw, ideal) <= nz + nw + TOL_EXACT
        # monotone in the modulus: shrinking every coordinate shrinks the norm
        shrunk = ComplexElement(z.lattice, z.values * rng.uniform(0, 1, size=4))
        assert ideal_norm(shrunk, ideal) <= nz + TOL_EXACT


def test_ideal_rejects_bad_generators():
    with pytest.raises(ValueError):
        PrincipalIdeal(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        PrincipalIdeal(np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_ideal_rejects_a_non_finite_generator(bad):
    # a NaN coordinate would otherwise leave the support silently
    with pytest.raises(ValueError, match="finite"):
        PrincipalIdeal(np.array([bad, 1.0]))


# ---------------------------------------------------------------------------
# convergence witnesses
# ---------------------------------------------------------------------------

def test_witness_constant_sequence():
    limit = elem([1.0, 2.0])
    values = [limit for _ in range(5)]
    w = ConvergenceWitness(tuple(np.zeros(2) for _ in range(5)), tail=lambda n: 0.0)
    assert check_witness(values, limit, w)


def test_witness_exact_domination():
    limit = elem([0.0, 0.0])
    values = [elem([1.0 / n, 0.0]) for n in range(1, 21)]
    doms = tuple(np.array([1.0 / n, 0.0]) for n in range(1, 21))
    w = ConvergenceWitness(doms, tail=lambda n: 1.0 / (n + 1))
    assert check_witness(values, limit, w)


def test_witness_too_small_fails_at_first_index():
    limit = elem([0.0])
    values = [elem([1.0 / n]) for n in range(1, 6)]
    doms = tuple(np.array([1.0 / (2 * n)]) for n in range(1, 6))
    w = ConvergenceWitness(doms, tail=lambda n: 1.0 / (n + 1))
    verdict = check_witness(values, limit, w)
    assert not verdict
    assert verdict.first_violation == 0


def test_witness_rejects_increasing_domination():
    limit = elem([0.0])
    values = [limit, limit]
    w = ConvergenceWitness((np.array([1.0]), np.array([2.0])), tail=lambda n: 1.0 / (n + 1))
    verdict = check_witness(values, limit, w)
    assert not verdict and "increases" in verdict.reason


def test_an_empty_witness_is_judged_by_its_tail_rule():
    # no term to dominate, so the tail rule alone decides
    limit = elem([0.0])
    verdict = check_witness([], limit, ConvergenceWitness((), tail=lambda n: 0.5))
    assert not verdict and "decay" in verdict.reason
    assert check_witness([], limit, ConvergenceWitness((), tail=lambda n: 1.0 / (n + 1)))


def test_witness_tail_rule_must_decay():
    limit = elem([0.0])
    values = [elem([0.5])]
    w = ConvergenceWitness((np.array([0.5]),), tail=lambda n: 0.5)
    verdict = check_witness(values, limit, w)
    assert not verdict and "decay" in verdict.reason


@pytest.mark.parametrize("position", [0, 1, 2])
def test_witness_rejects_a_nan_dominating_term(position):
    limit = elem([0.0])
    doms = [np.array([1.0]), np.array([0.5]), np.array([0.25])]
    doms[position] = np.array([math.nan])
    w = ConvergenceWitness(tuple(doms), tail=lambda n: 1.0 / (n + 1))
    verdict = check_witness([limit] * 3, limit, w)
    assert not verdict and verdict.first_violation == position


def test_witness_rejects_a_nan_value():
    limit = elem([0.0])
    w = ConvergenceWitness((np.array([1.0]),), tail=lambda n: 1.0 / (n + 1))
    verdict = check_witness([elem([math.nan])], limit, w)
    assert not verdict and "domination" in verdict.reason


@pytest.mark.parametrize("tail", [
    lambda n: math.nan,
    lambda n: math.nan if n < 10 ** 9 else 0.0,
    lambda n: 1.0 / (n + 1) if n < 10 ** 12 else math.nan,
], ids=["always", "early", "last"])
def test_witness_rejects_a_nan_tail_bound(tail):
    limit = elem([0.0])
    verdict = check_witness([limit], limit, ConvergenceWitness((np.array([0.5]),), tail=tail))
    assert not verdict and verdict.first_violation is None


@pytest.mark.parametrize("terms", [
    (np.array([10.0]),), (np.array(10.0),), (np.full(3, 10.0), np.array([10.0])),
], ids=["one-coordinate", "scalar", "ragged"])
def test_witness_terms_of_another_shape_raise(terms):
    # |values - limit| = 5 at every coordinate; each witness broadcast to a
    # dim-3 bound of 10 and passed
    limit = elem([1.0, 0.0, -2.0])
    values = [elem([6.0, 3.0, -2.0], [0.0, 4.0, 5.0])] * len(terms)
    tail = lambda n: 1.0 / (n + 1)
    if len({np.shape(u) for u in terms}) > 1:
        with pytest.raises(DimensionMismatchError):
            ConvergenceWitness(terms, tail=tail)
        return
    witness = ConvergenceWitness(terms, tail=tail)
    with pytest.raises(DimensionMismatchError):
        check_witness(values, limit, witness)
    # the same terms at the lattice's shape certify the sequence
    assert check_witness(values, limit, ConvergenceWitness([np.full(3, 10.0)] * len(terms), tail))


@pytest.mark.parametrize("shape", [(2, 4), (2,), (3,), (2, 3, 1), (0, 2)])
def test_witness_values_of_another_shape_raise(shape):
    limit = elem([0.0, 0.0, 0.0])
    witness = ConvergenceWitness(np.ones((2, 3)), tail=lambda n: 1.0 / (n + 1))
    with pytest.raises(DimensionMismatchError):
        check_witness(np.zeros(shape, dtype=complex), limit, witness)
    with pytest.raises(DimensionMismatchError):
        check_witness([limit, elem([0.0, 0.0])], limit, witness)


def test_witness_takes_a_value_array_and_keeps_its_terms_read_only():
    limit = elem([0.0, 1.0])
    values = [elem([0.5, 1.0]), elem([0.25, 1.0])]
    witness = ConvergenceWitness((np.array([0.5, 0.0]), np.array([0.25, 0.0])),
                                 tail=lambda n: 1.0 / (n + 1))
    assert witness.dominating.shape == (2, 2) and not witness.dominating.flags.writeable
    stacked = np.array([z.values for z in values])
    assert check_witness(values, limit, witness) == check_witness(stacked, limit, witness)
    assert ConvergenceWitness((), tail=witness.tail).dominating.shape == (0, 0)
    # as a measure's values, the caller's own arrays stay writable
    terms, table = (np.array([0.5, 0.0]),), np.array([[0.5, 0.0]])
    for doms in (terms, table):
        ConvergenceWitness(doms, tail=witness.tail)
    terms[0][0] = table[0, 0] = 1.0


def _loop_check_witness(values, limit, doms, tail):
    """The per-term witness check that the stacked one replaced: its reference."""
    if len(values) > len(doms):
        return WitnessVerdict(False, None, "witness shorter than the value sequence")
    for n, u in enumerate(doms):
        if not np.all(0 <= u):
            return WitnessVerdict(False, n, "dominating term has a negative or NaN coordinate")
        if n > 0 and not np.all(u <= doms[n - 1]):
            return WitnessVerdict(False, n, "dominating sequence increases")
    for n, z in enumerate(values):
        diff = np.abs(z.values - limit.values)
        if not np.all(diff <= doms[n] + TOL_EXACT):
            return WitnessVerdict(False, n, "domination fails")
    probes = [max(1, len(doms)), 4 * len(doms) + 16, 64 * len(doms) + 256, 10 ** 9, 10 ** 12]
    bounds = [tail(n) for n in probes]
    if not all(b2 <= b1 + TOL_EXACT for b1, b2 in zip(bounds, bounds[1:])):
        return WitnessVerdict(False, None, "tail rule is not nonincreasing")
    if not bounds[-1] <= 1e-6:
        return WitnessVerdict(False, None, "tail rule does not certify decay to zero")
    return WitnessVerdict(True)


_FAULTS = ("none", "nan", "negative", "increase", "break", "short",
           "tie-below", "tie-at", "tie-above")
_TAILS = (lambda n: 1.0 / (n + 1), lambda n: 0.5, lambda n: math.nan)


@given(st.sampled_from((1, 2, 3, 7, 16, 700, 2048, 2049)), st.integers(0, 24),
       st.integers(0, 3), st.sampled_from(_FAULTS), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans(), st.sampled_from(_TAILS))
@settings(max_examples=300, deadline=None)
def test_stacked_witness_check_matches_the_per_term_loop(dim, m, extra, fault, seed,
                                                         as_array, as_terms, tail):
    """Over dims whose row blocks hold 1 to 16384 rows: NaN, negative and
    increasing terms, a value that breaks domination, a witness shorter than
    the values, and u_n within one ulp of |v_n - l| - TOL_EXACT, where the
    domination test turns on the last bit of the modulus."""
    rng = np.random.default_rng(seed)
    lat = CoordinateLattice(dim)
    scale = 10.0 ** rng.uniform(-3, 3, size=dim)
    limit = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * scale
    noise = (rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))) * scale
    rows = limit + noise / np.arange(1, m + 1)[:, None]
    diff = np.array([np.abs(row - limit) for row in rows]).reshape(m, dim)
    doms = np.maximum.accumulate(diff[::-1], axis=0)[::-1] if m else np.zeros((0, dim))
    tailrows = (doms[-1] if m else np.ones(dim)) * 0.5 ** np.arange(1, extra + 1)[:, None]
    doms = np.concatenate((doms, tailrows))
    n = int(rng.integers(0, max(len(doms), 1)))
    c = int(rng.integers(0, dim))
    if fault == "short":
        doms = doms[:int(rng.integers(0, m))] if m else doms
    elif len(doms) and fault in ("nan", "negative", "increase"):
        doms[n, c] = {"nan": math.nan, "negative": -1e-300,
                      "increase": doms[n - 1, c] * 2.0 + 1.0 if n else doms[n, c]}[fault]
    elif m and fault == "break":
        n = min(n, m - 1)
        rows[n, c] = limit[c] + (doms[n, c] + 1e-9 * scale[c]) * np.exp(1j * rng.uniform(0, 6))
    elif m and fault.startswith("tie"):
        n = min(n, m - 1)
        rows[n, c] = limit[c] + scale[c] * np.exp(1j * rng.uniform(0, 6))
        rows[n + 1:, c] = limit[c]
        near = float(np.abs(rows[n] - limit)[c]) - TOL_EXACT
        near = {"tie-below": np.nextafter(near, -np.inf), "tie-at": near,
                "tie-above": np.nextafter(near, np.inf)}[fault]
        doms[:n + 1, c] = np.maximum(doms[:n + 1, c], near)
        doms[n:, c] = np.minimum(doms[n:, c], near)
    values = [ComplexElement(lat, row) for row in rows]
    lim = ComplexElement(lat, limit)
    reference = _loop_check_witness(values, lim, tuple(doms), tail)
    witness = ConvergenceWitness(tuple(doms) if as_terms else doms, tail=tail)
    assert check_witness(rows if as_array else values, lim, witness) == reference


def _loop_calculus(T, fs, f, tail, z):
    """The calculus with one operator and one element per term, as the stacked
    one replaced, on tables: verdict, element verdict and dominating terms."""
    mu = build_mu_T(T)
    tables = [np.asarray(g, dtype=complex) for g in fs]
    devs = [max(map(abs, (g - f).tolist())) for g in tables]
    running = np.maximum.accumulate(np.asarray(devs)[::-1])[::-1]
    limit_op, ops = rho_T(T, f, mu), [rho_T(T, g, mu) for g in tables]
    verdict = _loop_check_witness([ComplexElement(T.lattice, op.symbol) for op in ops],
                                  ComplexElement(T.lattice, limit_op.symbol),
                                  tuple(r * np.ones(T.lattice.dim) for r in running), tail)
    absz = np.abs(z.values)
    element = _loop_check_witness([op.apply(z) for op in ops], limit_op.apply(z),
                                  tuple(r * absz for r in running), tail)
    return verdict, element, np.array([r * np.ones(T.lattice.dim) for r in running])


@given(st.integers(1, 40), st.integers(-30, 30), st.integers(0, 14), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("array", "tables", "callables")))
@settings(max_examples=200, deadline=None)
@example(dim=1, k=24, n_terms=1, seed=2, form="array")  # one term, one coordinate
def test_stacked_calculus_matches_the_per_term_loop(dim, k, n_terms, seed, form):
    """The suite's shifted tables and random ones, on symbols scaled by 2**k:
    at k >= 10 the absolute TOL_EXACT makes domination fail, on T or on z."""
    rng = np.random.default_rng(seed)
    base = random_central(rng, dim=dim, repeats=bool(rng.integers(0, 2)))
    T = CentralOperator(base.lattice, base.symbol * 2.0 ** k)
    mu = build_mu_T(T)
    vals = np.array(mu.values)
    shifts = 1.0 / np.arange(1, n_terms + 1)[:, None]
    if rng.integers(0, 2):
        shifts = shifts * (rng.standard_normal((n_terms, len(vals)))
                           + 1j * rng.standard_normal((n_terms, len(vals))))
    tables = vals + shifts
    z = ComplexElement(T.lattice, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    fs = {"array": tables, "tables": list(tables),
          "callables": [lambda v, t=dict(zip(mu.values, row.tolist())): t[v] for row in tables]
          }[form]
    tail = lambda n: 1.0 / (n + 1)
    verdict, element, dominating = _loop_calculus(T, tables, vals, tail, z)
    rep = dominated_convergence_calculus(T, fs, vals, tail, z=z)
    assert (rep.verdict, rep.element_verdict) == (verdict, element)
    assert rep.reason == DominatedConvergenceReport(verdict, rep.witness, element).reason
    assert rep.witness.dominating.reshape(dominating.shape).tobytes() == dominating.tobytes()


@given(st.integers(0, 5000), st.integers(1, 3 * ENTRIES))
@settings(max_examples=300, deadline=None)
def test_row_blocks_cover_the_rows_in_blocks_of_the_rule(rows, dim):
    step = max(1, ENTRIES // dim)
    blocks = row_blocks(rows, dim)
    assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
    assert all(b.stop - b.start == step for b in blocks)
    assert len(blocks) == -(-rows // step)
