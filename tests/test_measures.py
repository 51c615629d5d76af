"""Tests for lattice-valued measures, the order integral, image measures,
spectral laws, and the representation of positive functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat.lattice import ConvergenceWitness, CoordinateLattice, check_witness
from centrelat.measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    PositivityError,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
)

TOL_EXACT = 1e-12


def powerset_space(n):
    return FiniteMeasurableSpace(tuple(range(n)))


def random_pair(rng, n_points=6, dim=4):
    space = powerset_space(n_points)
    mu = LatticeValuedMeasure(space, tuple(rng.uniform(0, 2, size=dim) for _ in range(n_points)))
    f = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in space.points])
    return mu, f


# ---------------------------------------------------------------------------
# spaces and measures
# ---------------------------------------------------------------------------

def test_space_atoms_partition_enforced():
    with pytest.raises(ValueError):
        FiniteMeasurableSpace((1, 2, 3), ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        FiniteMeasurableSpace((1, 2, 3), ((1, 2),))


def test_atom_of_indexes_coarse_atoms():
    space = FiniteMeasurableSpace((1, 2, 3, 4), ((3,), (1, 2), (4,)))
    assert space.n_atoms == 3
    assert space.atom_of.tolist() == [1, 1, 0, 2] and not space.atom_of.flags.writeable


def test_measure_positivity_enforced():
    space = powerset_space(2)
    with pytest.raises(PositivityError):
        LatticeValuedMeasure(space, (np.array([1.0, -0.5]), np.array([0.0, 0.0])))


def test_measure_empty_set_and_additivity():
    space = powerset_space(3)
    mu = LatticeValuedMeasure(space, (np.array([1.0, 0.0]), np.array([0.0, 2.0]),
                                      np.array([0.5, 0.5])))
    for empty in ([], np.zeros(3, dtype=bool), np.array([], dtype=np.intp)):
        assert np.array_equal(mu.measure_of(empty), [0.0, 0.0])
    lhs = mu.measure_of([0, 2])
    assert np.array_equal(lhs, mu.measure_of([0]) + mu.measure_of([2]))
    assert np.array_equal(lhs, mu.measure_of(np.array([True, False, True])))
    assert np.array_equal(mu.total(), [1.5, 2.5])


def test_measure_of_rejects_a_mask_of_another_length():
    mu = LatticeValuedMeasure(powerset_space(3), np.eye(3))
    with pytest.raises(IndexError):
        mu.measure_of(np.array([True, False]))


# ---------------------------------------------------------------------------
# measurable functions and the order integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
def test_integrate_takes_one_value_per_atom(f):
    # a function on the two points of a one-atom space is one value, not two
    space = FiniteMeasurableSpace((1, 2), ((1, 2),))
    mu = LatticeValuedMeasure(space, np.ones((1, 2)))
    assert np.array_equal(integrate([2j], mu).values, [2j, 2j])
    with pytest.raises(ValueError, match="one value per atom"):
        integrate(f, LatticeValuedMeasure(powerset_space(2), np.ones((2, 2))))


def test_integrate_frozen_example():
    space = powerset_space(2)
    mu = LatticeValuedMeasure(space, (np.array([1.0, 0.0]), np.array([0.0, 2.0])))
    assert np.array_equal(integrate([3.0, 1.0], mu).values, [3.0, 2.0])


def test_integrate_zero_function():
    rng = np.random.default_rng(0)
    mu, _ = random_pair(rng)
    assert np.array_equal(integrate(np.zeros(mu.space.n_atoms), mu).values, np.zeros(4))


def test_integrate_decomposition_independence():
    # integrating over the coarse space equals integrating the lifted function
    # over the singleton refinement
    rng = np.random.default_rng(1)
    for _ in range(20):
        coarse = FiniteMeasurableSpace((0, 1, 2, 3, 4, 5), ((0, 1), (2,), (3, 4, 5)))
        vals = tuple(rng.uniform(0, 1, size=4) for _ in range(3))
        mu = LatticeValuedMeasure(coarse, vals)
        f = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
        fine = FiniteMeasurableSpace(coarse.points)
        fine_vals = []
        for p in fine.points:
            k = coarse.atom_of[coarse.points.index(p)]
            share = vals[k] / len(coarse.atoms[k])
            fine_vals.append(share)
        mu_fine = LatticeValuedMeasure(fine, tuple(fine_vals))
        f_fine = f[coarse.atom_of]  # the fine atoms are the points, in order
        a = integrate(f, mu).values
        b = integrate(f_fine, mu_fine).values
        assert np.max(np.abs(a - b)) <= TOL_EXACT


def test_triangle_inequality_for_integrals():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mu, f = random_pair(rng)
        lhs = np.abs(integrate(f, mu).values)
        rhs = integrate(np.abs(f), mu).values.real
        assert np.all(lhs <= rhs + TOL_EXACT)


def test_monotone_convergence_finite():
    rng = np.random.default_rng(3)
    mu, f = random_pair(rng)
    target = np.abs(f)
    ints = [integrate(target * (1 - 1.0 / n), mu).values.real for n in range(1, 30)]
    limit = integrate(target, mu).values.real
    for a, b in zip(ints, ints[1:]):
        assert np.all(b >= a - TOL_EXACT)
    assert np.all(ints[-1] <= limit + TOL_EXACT)


def test_dominated_convergence_with_witness():
    rng = np.random.default_rng(4)
    mu, f = random_pair(rng)
    lat = mu.lattice
    fs = [f + 1.0 / n for n in range(1, 50)]
    limit = integrate(f, mu)
    values = [integrate(g, mu) for g in fs]
    # witness: (1/n) * mu(X), with the analytic tail rule
    total = mu.total()
    doms = tuple(total / n for n in range(1, 50))
    w = ConvergenceWitness(doms, tail=lambda n: float(np.max(total)) / (n + 1))
    assert check_witness(values, limit, w)


# ---------------------------------------------------------------------------
# image measures
# ---------------------------------------------------------------------------

def test_image_measure_identity():
    rng = np.random.default_rng(5)
    mu, _ = random_pair(rng)
    out = image_measure(mu, np.arange(mu.space.n_atoms), mu.space)
    for a, b in zip(out.values, mu.values):
        assert np.array_equal(a, b)


def test_image_measure_collapse():
    rng = np.random.default_rng(6)
    mu, _ = random_pair(rng)
    target = FiniteMeasurableSpace(("pt",))
    out = image_measure(mu, np.zeros(mu.space.n_atoms, dtype=int), target)
    assert np.array_equal(out.values[0], mu.total())


def test_image_measure_change_of_variables():
    rng = np.random.default_rng(7)
    for _ in range(30):
        mu, _ = random_pair(rng)
        target = FiniteMeasurableSpace((0, 1, 2))
        lands = rng.integers(0, 3, size=mu.space.n_atoms)
        out = image_measure(mu, lands, target)
        for _ in range(10):
            f = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
            a = integrate(f, out).values
            b = integrate(f[lands], mu).values
            assert np.max(np.abs(a - b)) <= TOL_EXACT


def test_image_measure_target_must_cover():
    rng = np.random.default_rng(8)
    mu, _ = random_pair(rng)
    target = FiniteMeasurableSpace((0,))
    with pytest.raises(ValueError, match="target space has no atom 1"):
        image_measure(mu, np.arange(mu.space.n_atoms), target)
    with pytest.raises(ValueError, match="target space has no atom -1"):
        image_measure(mu, np.full(mu.space.n_atoms, -1), target)


@pytest.mark.parametrize("lands", [np.zeros(5, dtype=int), np.zeros(7, dtype=int),
                                   np.zeros((6, 1), dtype=int), np.zeros(6),
                                   np.zeros(6, dtype=bool)])
def test_image_measure_takes_one_integer_target_atom_per_source_atom(lands):
    mu, _ = random_pair(np.random.default_rng(8))
    with pytest.raises(ValueError, match="one integer target atom per source atom"):
        image_measure(mu, lands, FiniteMeasurableSpace((0,)))


# ---------------------------------------------------------------------------
# spectral law
# ---------------------------------------------------------------------------

def test_partition_projections_are_spectral():
    space = powerset_space(3)
    mu = LatticeValuedMeasure(space, (np.array([1.0, 0, 0, 1.0]), np.array([0, 1.0, 0, 0]),
                                      np.array([0, 0, 1.0, 0])))
    verdict = is_spectral(mu)
    assert verdict and all(verdict.idempotent)


def test_half_value_is_not_spectral():
    space = powerset_space(2)
    mu = LatticeValuedMeasure(space, (np.array([0.5, 0.0]), np.array([0.0, 1.0])))
    verdict = is_spectral(mu)
    assert not verdict
    assert not verdict.idempotent[0] and verdict.idempotent[1]


def test_random_partitions_are_spectral():
    rng = np.random.default_rng(9)
    for _ in range(30):
        dim = int(rng.integers(2, 8))
        k = int(rng.integers(1, dim + 1))
        labels = rng.integers(0, k, size=dim)
        used = sorted(set(int(x) for x in labels))
        space = powerset_space(len(used))
        vals = tuple((labels == lab).astype(float) for lab in used)
        assert is_spectral(LatticeValuedMeasure(space, vals))


# ---------------------------------------------------------------------------
# Riesz representation
# ---------------------------------------------------------------------------

def test_riesz_frozen_example():
    space = FiniteMeasurableSpace(("a", "b"))

    def pi(f):
        return np.array([f[0] + f[1], f[1]])

    mu = riesz_represent(pi, space)
    assert np.array_equal(mu.values[0], [1.0, 0.0])
    assert np.array_equal(mu.values[1], [1.0, 1.0])


def test_riesz_zero_functional():
    space = powerset_space(3)
    mu = riesz_represent(lambda f: np.zeros(2), space)
    assert all(np.array_equal(v, np.zeros(2)) for v in mu.values)


def test_riesz_rejects_negative_functional():
    space = powerset_space(2)
    with pytest.raises(PositivityError):
        riesz_represent(lambda f: np.array([f[0] - 2 * f[1]]), space)


def test_riesz_random_positive_functionals():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n, dim = 5, 3
        space = powerset_space(n)
        weights = rng.uniform(0, 1, size=(dim, n))
        mu = riesz_represent(lambda f, w=weights: w @ np.asarray(f), space,
                             lattice=CoordinateLattice(dim), rng=rng)
        for k in range(n):
            assert np.max(np.abs(mu.values[k] - weights[:, k])) <= TOL_EXACT


def test_riesz_draws_match_per_atom_fill():
    # coarse atoms scattered over the points; the sampled functions and the
    # generator state afterwards must be those of filling each atom's points
    # one by one from a per-atom draw
    space = FiniteMeasurableSpace(tuple("abcdefg"),
                                  (("a", "c"), ("b",), ("d", "e", "g"), ("f",)))
    index = {p: i for i, p in enumerate(space.points)}
    weights = np.random.default_rng(3).uniform(0, 1, size=(3, 7))
    seen = []

    def pi(f):
        seen.append(np.array(f))
        return weights @ f

    samples = 16
    rng = np.random.default_rng(21)
    riesz_represent(pi, space, lattice=CoordinateLattice(3), samples=samples, rng=rng)

    ref = np.random.default_rng(21)

    def per_atom_fill(low, high):
        per_atom = ref.uniform(low, high, size=space.n_atoms)
        out = np.empty(len(space.points))
        for k, atom in enumerate(space.atoms):
            for p in atom:
                out[index[p]] = per_atom[k]
        return out

    reproduction = seen[space.n_atoms:space.n_atoms + samples]
    for f in reproduction:
        assert np.array_equal(f, per_atom_fill(-1.0, 1.0))
    for _ in range(4):
        ref.choice(space.n_atoms, size=ref.integers(1, space.n_atoms + 1), replace=False)
        for _ in range(samples):
            per_atom_fill(0.0, 1.0)
            per_atom_fill(0.0, 1.0)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_riesz_multiplicative_functional_gives_spectral_measure():
    rng = np.random.default_rng(11)
    n = 4
    space = powerset_space(n)
    # pi(f)_i = f(assignment(i)): an algebra homomorphism into coordinatewise E
    assign = rng.integers(0, n, size=3)
    mu = riesz_represent(lambda f: np.asarray(f)[assign], space, rng=rng)
    assert is_spectral(mu)


def test_riesz_uniqueness_via_indicators():
    # two measures that agree with pi on all functions agree on every atom
    rng = np.random.default_rng(12)
    space = powerset_space(4)
    vals = tuple(rng.uniform(0, 1, size=2) for _ in range(4))
    mu = LatticeValuedMeasure(space, vals)

    def pi(f):
        return integrate(f, mu).values.real  # singleton atoms: points are atoms

    nu = riesz_represent(pi, space, rng=rng)
    for a, b in zip(mu.values, nu.values):
        assert np.max(np.abs(a - b)) <= TOL_EXACT


def test_regularity_trivial_on_discrete_space():
    # inner/outer regularity is vacuous on a finite discrete space: every set
    # is simultaneously open and compact, so the measure value is its own
    # inner and outer approximation — pinned once
    space = powerset_space(3)
    mu = LatticeValuedMeasure(space, (np.array([1.0]), np.array([2.0]), np.array([0.5])))
    for atoms in ([0], [0, 1], [0, 1, 2], []):
        v = mu.measure_of(atoms)
        assert np.array_equal(v, mu.measure_of(atoms))  # open = compact = the set itself



# ---------------------------------------------------------------------------
# the atom matrix against the per-atom loops it replaced
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 parts count as different."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _loop_first_bad_atom(rows):
    """The positivity test of the tuple layout: a generator over each row."""
    for k, v in enumerate(rows):
        if any(x < 0 for x in v):
            return k
    return None


def _loop_measure_of(rows, atoms):
    total = np.zeros(len(rows[0]))
    for k in atoms:
        total = total + rows[k]
    return total


def _loop_integrate(per_atom, rows):
    re_pos, re_neg, im_pos, im_neg = (np.zeros(len(rows[0])) for _ in range(4))
    for k in range(len(rows)):
        v = complex(per_atom[k])
        m = rows[k]
        re_pos += max(v.real, 0.0) * m
        re_neg += max(-v.real, 0.0) * m
        im_pos += max(v.imag, 0.0) * m
        im_neg += max(-v.imag, 0.0) * m
    return (re_pos - re_neg) + 1j * (im_pos - im_neg)


def _loop_image_values(rows, lands, target):
    """Each target atom's value: mu of the source atoms that land in it."""
    return [_loop_measure_of(rows, [k for k in range(len(rows)) if lands[k] == t])
            for t in range(target.n_atoms)]


def _loop_is_spectral(rows, tol):
    def dev(a, b):
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

    worst = 0.0
    idem = []
    for k in range(len(rows)):
        d = dev(rows[k] * rows[k], rows[k])
        idem.append(d <= tol)
        worst = max(worst, d)
        for j in range(k + 1, len(rows)):
            worst = max(worst, dev(rows[k] * rows[j], np.zeros(len(rows[0]))))
    return worst <= tol, worst, tuple(idem)


_VALUES = (0.0, -0.0, 1.0, 0.5, 2.25, 0.1, 0.7, 3.0, 1e-300)
_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 0.1, -0.7)


@st.composite
def _spaces(draw, max_points=7):
    """Points in a drawn order, grouped into coarse atoms listed in a drawn
    order; one-atom spaces included."""
    n = draw(st.integers(1, max_points))
    points = tuple(draw(st.permutations(range(n))))
    n_labels = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n))
    order = draw(st.permutations(sorted(set(labels))))
    atoms = tuple(tuple(p for p, lab in zip(points, labels) if lab == k) for k in order)
    return FiniteMeasurableSpace(points, atoms)


def _rows(draw, n_atoms, dim, pool):
    """Pool values, or generic floats (whose sums depend on the order of
    addition) with some entries replaced by pool values."""
    if draw(st.booleans()):
        value = st.one_of(st.sampled_from(pool), st.floats(0.0, 4.0))
        return tuple(np.array(draw(st.lists(value, min_size=dim, max_size=dim)))
                     for _ in range(n_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.uniform(0.0, 4.0, size=(n_atoms, dim))
    mask = rng.uniform(size=rows.shape) < 0.3
    rows[mask] = rng.choice(pool, size=int(mask.sum()))
    return tuple(rows)


def _complex_values(draw, n):
    if draw(st.booleans()):
        part = st.one_of(st.sampled_from(_PARTS), st.floats(-3.0, 3.0))
        return [complex(draw(part), draw(part)) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = rng.uniform(-3.0, 3.0, size=(2, n))
    mask = rng.uniform(size=parts.shape) < 0.3
    parts[mask] = rng.choice(_PARTS, size=int(mask.sum()))
    return [complex(a, b) for a, b in parts.T]


def _check_against_loops(space, rows, chosen, per_atom, target, lands, spectral_rows, tol):
    mu = LatticeValuedMeasure(space, rows)
    assert mu.values.shape == (space.n_atoms, len(rows[0])) and not mu.values.flags.writeable
    assert all(_same_bits(mu.values[k], rows[k]) for k in range(space.n_atoms))

    chosen = sorted(chosen)
    mask = np.isin(np.arange(space.n_atoms), chosen)
    assert _same_bits(mu.measure_of(chosen), _loop_measure_of(rows, chosen))
    assert _same_bits(mu.measure_of(mask), _loop_measure_of(rows, chosen))
    assert _same_bits(mu.total(), _loop_measure_of(rows, range(space.n_atoms)))

    assert _same_bits(integrate(per_atom, mu).values, _loop_integrate(per_atom, rows))

    expected = _loop_image_values(rows, lands, target)
    image = image_measure(mu, lands, target)
    assert image.space is target and len(image.values) == len(expected)
    assert all(_same_bits(a, b) for a, b in zip(image.values, expected))

    for candidate in (rows, spectral_rows):
        verdict = is_spectral(LatticeValuedMeasure(space, candidate), tol=tol)
        ok, worst, idem = _loop_is_spectral(candidate, tol)
        assert verdict.is_spectral is ok and verdict.idempotent == idem
        assert _same_bits(verdict.max_violation, worst)


@given(_spaces(max_points=24), _spaces(max_points=4), st.integers(1, 4), st.data())
@settings(max_examples=400, deadline=None)
def test_atom_matrix_matches_per_atom_loops(space, target, dim, data):
    draw = data.draw
    _check_against_loops(
        space,
        rows=_rows(draw, space.n_atoms, dim, _VALUES),
        chosen=draw(st.sets(st.integers(0, space.n_atoms - 1))),
        per_atom=_complex_values(draw, space.n_atoms),
        target=target,
        lands=draw(st.lists(st.integers(0, target.n_atoms - 1),
                            min_size=space.n_atoms, max_size=space.n_atoms)),
        spectral_rows=_rows(draw, space.n_atoms, dim, (0.0, -0.0, 1.0, 0.5)),
        tol=draw(st.sampled_from((0.0, 1e-12, 0.3))))


def test_one_atom_space_with_signed_zeros_matches_loops():
    one = FiniteMeasurableSpace(("a", "b"), (("b", "a"),))
    rows = (np.array([-0.0, 0.0, 1.0]),)
    for value in (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.0, 0.5)):
        _check_against_loops(one, rows, {0}, [value], FiniteMeasurableSpace(("x",)),
                             [0], (np.array([1.0, -0.0, 0.0]),), 0.0)


@given(st.integers(1, 6), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_positivity_error_names_first_negative_atom(n_atoms, dim, data):
    rows = _rows(data.draw, n_atoms, dim, _VALUES + (-0.5, -1e-300, -3.0))
    first = _loop_first_bad_atom(rows)
    space = FiniteMeasurableSpace(tuple(range(n_atoms)))
    if first is None:
        LatticeValuedMeasure(space, rows)
    else:
        with pytest.raises(PositivityError, match=f"^atom {first} has a negative"):
            LatticeValuedMeasure(space, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_non_finite_values(bad):
    space = powerset_space(3)
    rows = (np.array([1.0, 0.0]), np.array([0.5, bad]), np.array([-1.0, 0.0]))
    with pytest.raises(PositivityError, match="^atom 1 has a negative or non-finite"):
        LatticeValuedMeasure(space, rows)


def test_measure_views_caller_matrix_without_copying():
    eye = np.eye(4)
    mu = LatticeValuedMeasure(powerset_space(4), eye)
    assert np.shares_memory(mu.values, eye)
    assert eye.flags.writeable and not mu.values.flags.writeable
