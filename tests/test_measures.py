"""Tests for lattice-valued measures, the order integral, image measures,
spectral laws, and the representation of positive functionals."""

from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat.lattice import (
    ENTRIES,
    ConvergenceWitness,
    CoordinateLattice,
    check_witness,
    row_blocks,
)
from centrelat.measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    RIESZ_SAMPLES,
    PositivityError,
    _integrals,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
    riesz_represent_stack,
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


def test_space_rejects_a_point_listed_twice_in_one_atom():
    # kept, the repetition would reach measure_to_json and the instance digest
    with pytest.raises(ValueError, match="list each point once"):
        FiniteMeasurableSpace((0, 1), ((0, 0), (1,)))


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
    assert np.array_equal(mu.measure_of(np.zeros(3, dtype=bool)), [0.0, 0.0])
    lhs = mu.measure_of(np.array([True, False, True]))
    assert np.array_equal(lhs, mu.measure_of(np.array([True, False, False]))
                          + mu.measure_of(np.array([False, False, True])))
    assert np.array_equal(mu.total(), [1.5, 2.5])


def test_measure_of_rejects_a_mask_of_another_length():
    # atom indices of the right length, and [], are no masks either
    mu = LatticeValuedMeasure(powerset_space(3), np.eye(3))
    for atoms, found in ((np.array([True, False]), r"bool of shape \(2,\)"),
                         (np.array([1, 0, 1]), r"int\d+ of shape \(3,\)"),
                         ([], r"float64 of shape \(0,\)")):
        with pytest.raises(ValueError, match=rf"^one bool per atom required, not {found}$"):
            mu.measure_of(atoms)


@pytest.mark.parametrize("index", [[-1], [3], [0, 3], np.array([1, -4])],
                         ids=["last", "past-the-end", "one-of-two", "array"])
def test_measure_of_rejects_an_atom_index_out_of_range(index):
    # a set of atoms is a mask; an index is no mask, and -1 would read the last atom
    mu = LatticeValuedMeasure(powerset_space(3), np.eye(3))
    with pytest.raises(ValueError, match=r"^one bool per atom required, not int\d+ of shape"):
        mu.measure_of(index)


def test_measure_of_counts_each_atom_once_in_atom_order():
    # 1e16 + 1 rounds back to 1e16, so the order of addition shows in the sum:
    # from 0 in atom order, both 1.0 rows come after 1e16 and are lost
    mu = LatticeValuedMeasure(powerset_space(3), np.array([[1e16], [1.0], [1.0]]))
    assert mu.measure_of([True, True, True]).tolist() == [1e16]
    assert mu.measure_of([False, True, True]).tolist() == [2.0]


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


@pytest.mark.parametrize("f, bad", [([np.nan, 1, 1, 1], 0), ([np.inf, 0, 0, 0], 0),
                                    ([0, 1, complex(1, -np.inf), 1], 2),
                                    ([1, 1, 1, complex(np.nan, np.nan)], 3)])
def test_integrate_rejects_a_non_finite_function(f, bad):
    # NaN or inf would spread to every coordinate of the integral
    mu = LatticeValuedMeasure(powerset_space(4), np.eye(4))
    with pytest.raises(ValueError, match=f"non-finite value .* on atom {bad}$"):
        integrate(f, mu)


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

    mu = riesz_represent(pi, space, rng=np.random.default_rng(0))
    assert np.array_equal(mu.values[0], [1.0, 0.0])
    assert np.array_equal(mu.values[1], [1.0, 1.0])


def test_riesz_zero_functional():
    space = powerset_space(3)
    mu = riesz_represent(lambda f: np.zeros(2), space, rng=np.random.default_rng(0))
    assert all(np.array_equal(v, np.zeros(2)) for v in mu.values)


def test_riesz_rejects_negative_functional():
    space = powerset_space(2)
    with pytest.raises(PositivityError):
        riesz_represent(lambda f: np.array([f[0] - 2 * f[1]]), space, rng=np.random.default_rng(0))


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

    samples = RIESZ_SAMPLES
    rng = np.random.default_rng(21)
    riesz_represent(pi, space, lattice=CoordinateLattice(3), rng=rng)

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


def test_riesz_rejects_nan_off_the_indicators():
    # exact on 0/1 functions, NaN on every other one
    space = powerset_space(4)

    def pi(f):
        f = np.asarray(f)
        return f[:2] + f[2:] if np.all((f == 0) | (f == 1)) else np.full(2, np.nan)

    with pytest.raises(AssertionError, match="reproduce"):
        riesz_represent(pi, space, rng=np.random.default_rng(0))


@pytest.mark.parametrize("check, offset", [("reproduce", 0), ("attained", RIESZ_SAMPLES),
                                           ("sup recovery", RIESZ_SAMPLES + 1),
                                           ("inf recovery", RIESZ_SAMPLES + 2)])
def test_riesz_each_check_rejects_nan(check, offset):
    # an exact functional that returns NaN in one coordinate at one call: the
    # indicators come first, then the reproduction samples, then per round the
    # extremal indicator and the sup and inf samples in turn
    space = powerset_space(4)
    weights = np.random.default_rng(4).uniform(0, 1, size=(3, 4))
    calls = []

    def pi(f):
        calls.append(None)
        out = weights @ np.asarray(f)
        if len(calls) == space.n_atoms + offset + 1:
            out[1] = np.nan
        return out

    with pytest.raises(AssertionError, match=check):
        riesz_represent(pi, space, lattice=CoordinateLattice(3), rng=np.random.default_rng(9))


@pytest.mark.parametrize("imag", [1e-300, -1.0, np.nan])
@pytest.mark.parametrize("call", [1, 5, 4 + RIESZ_SAMPLES, 5 + RIESZ_SAMPLES, 6 + RIESZ_SAMPLES,
                                  7 + RIESZ_SAMPLES],
                         ids=["indicator", "first-sample", "last-sample", "extremal", "sup",
                              "inf"])
def test_riesz_each_value_of_pi_must_be_real(call, imag):
    # an exact functional of complex dtype with an imaginary part at one call:
    # 4 indicators come first, then the reproduction samples, then per round the
    # extremal indicator and the sup and inf samples in turn
    space = powerset_space(4)
    weights = np.random.default_rng(4).uniform(0, 1, size=(3, 4))
    calls = []

    def pi(f):
        calls.append(None)
        out = (weights @ np.asarray(f)).astype(complex)
        if len(calls) == call:
            out.imag[2] = imag
        return out

    with pytest.raises(AssertionError, match="not real-valued"):
        riesz_represent(pi, space, lattice=CoordinateLattice(3), rng=np.random.default_rng(9))


@pytest.mark.parametrize("shape", [lambda v: v[:1], lambda v: v[0], lambda v: v[:, None]],
                         ids=["first-coordinate", "scalar", "column"])
@pytest.mark.parametrize("call, phase", [(5, "reproduction"), (4 + RIESZ_SAMPLES, "reproduction"),
                                         (5 + RIESZ_SAMPLES, "extremal indicator"),
                                         (6 + RIESZ_SAMPLES, "sup recovery"),
                                         (7 + RIESZ_SAMPLES, "inf recovery")],
                         ids=["first-sample", "last-sample", "extremal", "sup", "inf"])
def test_riesz_each_value_of_pi_must_have_the_measures_row_shape(call, phase, shape):
    # an exact functional whose value has another shape at one call: 4
    # indicators come first, then the reproduction samples, then per round the
    # extremal indicator and the sup and inf samples in turn.  The weight rows
    # are equal, so a first-coordinate value would pass every comparison by
    # broadcasting
    space = powerset_space(4)
    weights = np.tile(np.random.default_rng(4).uniform(0, 1, size=4), (3, 1))
    calls = []

    def pi(f):
        calls.append(None)
        out = weights @ np.asarray(f)
        return shape(out) if len(calls) == call else out

    with pytest.raises(AssertionError, match=f"^pi's value in the {phase} has shape"):
        riesz_represent(pi, space, lattice=CoordinateLattice(3), rng=np.random.default_rng(9))


@pytest.mark.parametrize("pi", [lambda f: np.ones(2 + int(f[1])), lambda f: 1.0,
                                lambda f: np.ones((2, 1))], ids=["ragged", "scalar", "2-D"])
def test_riesz_indicator_values_must_be_rows_of_one_shape(pi):
    # on three atoms: lengths 2 then 3, a scalar, a column.  The failure names
    # the indicator phase, which draws nothing
    rng = np.random.default_rng(1)
    with pytest.raises(AssertionError, match="^pi's value in the indicator phase has shape"):
        riesz_represent(pi, powerset_space(3), rng=rng)
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_riesz_accepts_a_complex_dtype_functional_with_zero_imaginary_parts():
    space = powerset_space(4)
    w = np.random.default_rng(5).uniform(0, 1, size=(3, 4))
    mu = riesz_represent(lambda f: (w @ f).astype(complex), space, lattice=CoordinateLattice(3),
                         rng=np.random.default_rng(0))
    assert np.array_equal(mu.values, w.T)


def test_failing_reproduction_uses_one_stacked_draw():
    # exact on the indicators and off by 1 elsewhere: the reproduction fails,
    # having drawn all its samples as one (samples, n_atoms) array and
    # evaluated pi on each row of the failing block
    space = powerset_space(5)
    w = np.random.default_rng(8).uniform(0, 1, size=(2, 5))
    calls = []

    def pi(f):
        calls.append(None)
        return w @ f + (0.0 if len(calls) <= space.n_atoms else 1.0)

    rng = np.random.default_rng(17)
    with pytest.raises(AssertionError, match="reproduce"):
        riesz_represent(pi, space, lattice=CoordinateLattice(2), rng=rng)
    ref = np.random.default_rng(17)
    ref.uniform(-1.0, 1.0, size=(RIESZ_SAMPLES, space.n_atoms))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(calls) == space.n_atoms + RIESZ_SAMPLES


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
    for atoms in np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=bool):
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


def _check_against_loops(space, rows, chosen, per_atom, target, lands, spectral_rows):
    mu = LatticeValuedMeasure(space, rows)
    assert mu.values.shape == (space.n_atoms, len(rows[0])) and not mu.values.flags.writeable
    assert all(_same_bits(mu.values[k], rows[k]) for k in range(space.n_atoms))

    chosen = sorted(chosen)
    mask = np.isin(np.arange(space.n_atoms), chosen)
    assert _same_bits(mu.measure_of(mask), _loop_measure_of(rows, chosen))
    assert _same_bits(mu.total(), _loop_measure_of(rows, range(space.n_atoms)))

    assert _same_bits(integrate(per_atom, mu).values, _loop_integrate(per_atom, rows))

    expected = _loop_image_values(rows, lands, target)
    image = image_measure(mu, lands, target)
    assert image.space is target and len(image.values) == len(expected)
    assert all(_same_bits(a, b) for a, b in zip(image.values, expected))

    for candidate in (rows, spectral_rows):
        verdict = is_spectral(LatticeValuedMeasure(space, candidate))
        ok, worst, idem = _loop_is_spectral(candidate, TOL_EXACT)
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
        spectral_rows=_rows(draw, space.n_atoms, dim, (0.0, -0.0, 1.0, 0.5)))


@given(_spaces(max_points=8), st.sampled_from((1, 2, 5, 64)), st.sampled_from((0, 1, 7, 65)),
       st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_stacked_integrals_match_the_loop_row_by_row(space, dim, m, seed, data):
    # 65 rows at dim 64 span more entries than one row block of a large pass
    rows = _rows(data.draw, space.n_atoms, dim, _VALUES)
    mu = LatticeValuedMeasure(space, rows)
    rng = np.random.default_rng(seed)
    parts = rng.uniform(-3.0, 3.0, size=(2, m, space.n_atoms))
    mask = rng.uniform(size=parts.shape) < 0.3
    parts[mask] = rng.choice(_PARTS, size=int(mask.sum()))
    fs = np.empty((m, space.n_atoms), dtype=complex)
    fs.real, fs.imag = parts
    got = _integrals(fs, mu)
    assert got.shape == (m, dim) and got.dtype == complex
    for i in range(m):
        assert _same_bits(got[i], _loop_integrate(fs[i], rows))


def test_one_atom_space_with_signed_zeros_matches_loops():
    one = FiniteMeasurableSpace(("a", "b"), (("b", "a"),))
    rows = (np.array([-0.0, 0.0, 1.0]),)
    for value in (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.0, 0.5)):
        _check_against_loops(one, rows, {0}, [value], FiniteMeasurableSpace(("x",)),
                             [0], (np.array([1.0, -0.0, 0.0]),))


#: An atom's value where it charges a coordinate: subnormal, and large enough
#: that its product with a large weight overflows.
_CHARGES = (1.0, 0.5, 3.0, 5e-324, 1e-300, 2.0 ** 1000)
#: Parts of the functions: signed zeros, subnormal and large ones.
_EDGE_PARTS = (0.0, -0.0, 1.5, -2.25, 5e-324, -1e-300, 2.0 ** 600, -(2.0 ** 600))


@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_disjoint_measure_integrals_match_the_atom_order_loop(n_atoms, dim, m, data):
    # each coordinate charged by at most one atom, or by none, with signed
    # zeros elsewhere; or one coordinate charged twice, which takes the loop
    draw = data.draw
    rows = np.array(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n_atoms * dim,
                                  max_size=n_atoms * dim))).reshape(n_atoms, dim)
    for j, k in enumerate(draw(st.lists(st.integers(-1, n_atoms - 1), min_size=dim,
                                        max_size=dim))):
        if k >= 0:
            rows[k, j] = draw(st.sampled_from(_CHARGES))
    twice = n_atoms > 1 and draw(st.booleans())
    if twice:
        j = draw(st.integers(0, dim - 1))
        for k in draw(st.lists(st.integers(0, n_atoms - 1), min_size=2, max_size=2, unique=True)):
            rows[k, j] = draw(st.sampled_from(_CHARGES))
    mu = LatticeValuedMeasure(powerset_space(n_atoms), rows)
    assert (mu.charges is None) == twice
    parts = np.array(draw(st.lists(st.sampled_from(_EDGE_PARTS), min_size=2 * m * n_atoms,
                                   max_size=2 * m * n_atoms))).reshape(2, m, n_atoms)
    fs = np.empty((m, n_atoms), dtype=complex)
    fs.real, fs.imag = parts
    with np.errstate(all="ignore"):  # products overflow, and 1j * inf has a NaN part
        got = _integrals(fs, mu)
        for i in range(m):
            assert _same_bits(got[i], _loop_integrate(fs[i], tuple(rows)))


@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_real_stack_integrals_are_the_real_part_of_the_complex_path(n_atoms, dim, m, data):
    # a real stack forms only the two real parts; they must keep the bits of
    # the four-part path's real part: signed zeros in the functions, subnormal
    # and overflowing products, uncharged coordinates, and one coordinate
    # charged twice, which takes the loop
    draw = data.draw
    rows = np.array(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n_atoms * dim,
                                  max_size=n_atoms * dim))).reshape(n_atoms, dim)
    for j, k in enumerate(draw(st.lists(st.integers(-1, n_atoms - 1), min_size=dim,
                                        max_size=dim))):
        if k >= 0:
            rows[k, j] = draw(st.sampled_from(_CHARGES))
    twice = n_atoms > 1 and draw(st.booleans())
    if twice:
        j = draw(st.integers(0, dim - 1))
        for k in draw(st.lists(st.integers(0, n_atoms - 1), min_size=2, max_size=2, unique=True)):
            rows[k, j] = draw(st.sampled_from(_CHARGES))
    mu = LatticeValuedMeasure(powerset_space(n_atoms), rows)
    assert (mu.charges is None) == twice
    fs = np.array(draw(st.lists(st.sampled_from(_EDGE_PARTS), min_size=m * n_atoms,
                                max_size=m * n_atoms))).reshape(m, n_atoms)
    with np.errstate(all="ignore"):  # products overflow, and inf - inf is NaN
        got = _integrals(fs, mu)
        want = _integrals(fs.astype(complex), mu).real
    assert got.dtype == float and _same_bits(got, want)


@given(st.integers(1, 6), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_measure_names_the_first_atom_with_a_bad_entry_in_any_position(n_atoms, dim, data):
    draw = data.draw
    rows = np.array(draw(st.lists(st.sampled_from(_VALUES + _CHARGES), min_size=n_atoms * dim,
                                  max_size=n_atoms * dim))).reshape(n_atoms, dim)
    bad = draw(st.lists(st.tuples(st.integers(0, n_atoms - 1), st.integers(0, dim - 1),
                                  st.sampled_from((-1.0, -5e-324, -0.5, np.nan, np.inf,
                                                   -np.inf))), max_size=3))
    for k, j, value in bad:
        rows[k, j] = value
    space = FiniteMeasurableSpace(tuple(range(n_atoms)))
    if not bad:
        LatticeValuedMeasure(space, rows)
        return
    first = min(k for k, _, _ in bad)
    with pytest.raises(PositivityError) as raised:
        LatticeValuedMeasure(space, rows)
    assert str(raised.value) == f"atom {first} has a negative or non-finite coordinate"


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


_STEP = ENTRIES // 2048  # rows per block of a large pass at dim 2048


@pytest.mark.parametrize("bad_atoms, named", [
    ((_STEP - 1,), _STEP - 1),      # ends the first block
    ((_STEP,), _STEP),              # starts the second
    ((4 * _STEP + 3,), 4 * _STEP + 3),
    ((_STEP, 3 * _STEP - 1), _STEP),
    ((5 * _STEP - 1,), 5 * _STEP - 1),
])
def test_positivity_error_names_the_first_bad_atom_across_row_blocks(bad_atoms, named):
    rows = np.zeros((5 * _STEP, 2048))
    for k, value in zip(bad_atoms, (-1.0, np.nan)):
        rows[k, k % 2048] = value
    with pytest.raises(PositivityError, match=f"^atom {named} has a negative or non-finite"):
        LatticeValuedMeasure(powerset_space(5 * _STEP), rows)


# ---------------------------------------------------------------------------
# riesz_represent against its per-sample loop
# ---------------------------------------------------------------------------

def _real(value) -> np.ndarray:
    """A value of pi as a real array; an imaginary part other than 0, NaN
    included, fails."""
    value = np.asarray(value)
    if value.dtype.kind == "c":
        if not (value.imag == 0).all():
            raise AssertionError("pi is not real-valued")
        value = value.real
    return np.asarray(value, dtype=float)


def _reference_riesz_represent(pi: Callable[[np.ndarray], np.ndarray],
                               space: FiniteMeasurableSpace,
                               lattice: Optional[CoordinateLattice] = None, *,
                               rng: np.random.Generator) -> LatticeValuedMeasure:
    """The loop as it was before its invariants left the sup/inf rounds."""
    samples = RIESZ_SAMPLES
    values = []
    for k, atom in enumerate(space.atoms):
        v = _real(pi((space.atom_of == k).astype(float)))
        if np.any(v < 0):
            i = int(np.flatnonzero(v < 0)[0])
            raise PositivityError(f"pi(indicator of atom {atom!r}) has negative coordinate {i}")
        values.append(v)
    mu = LatticeValuedMeasure(space, tuple(values), lattice)

    # reproduction pi(f) = order integral of f
    fs = rng.uniform(-1.0, 1.0, size=(samples, space.n_atoms))
    for rows in row_blocks(samples, 4 * mu.dim):
        lhs = np.array([_real(pi(f[space.atom_of])) for f in fs[rows]])
        if not np.max(np.abs(lhs - _integrals(fs[rows], mu).real)) <= TOL_EXACT:
            raise AssertionError("pi does not reproduce the order integral of its measure")

    # sup formula on a nonempty measurable V, inf formula on a nonempty K
    for _ in range(4):
        ks = sorted(rng.choice(space.n_atoms, size=rng.integers(1, space.n_atoms + 1),
                               replace=False))
        target = mu.measure_of(np.isin(np.arange(space.n_atoms), ks))
        mask = np.isin(space.atom_of, ks).astype(float)
        extremal = _real(pi(mask))
        if not np.max(np.abs(extremal - target)) <= TOL_EXACT:
            raise AssertionError("recovery formula is not attained at the indicator")
        for _ in range(samples):
            # 0 <= g <= 1 with support in V, and 0 <= h <= 1 with h = 1 on K
            g = rng.uniform(0.0, 1.0, size=space.n_atoms)[space.atom_of] * mask
            if not np.all(_real(pi(g)) <= target + TOL_EXACT):
                raise AssertionError("sup recovery formula violated")
            h = np.maximum(rng.uniform(0.0, 1.0, size=space.n_atoms)[space.atom_of], mask)
            if not np.all(target - TOL_EXACT <= _real(pi(h))):
                raise AssertionError("inf recovery formula violated")
    return mu


def _as_batched(run, space, dim):
    """A run of the reference as the batched sup/inf rounds make it.

    Where the reference raised at a round's sample row j, the batch has drawn
    the whole round, and has called ``pi`` on the rest of j's row block before
    the same raise.  The rest is drawn here one sample at a time, continuing
    from the reference's generator state, with the mask of the round's
    extremal call.  Any other run is the batch's as it stands."""
    result, calls, state = run
    samples = RIESZ_SAMPLES
    first = space.n_atoms + samples     # round 0's extremal indicator call
    if not isinstance(result, tuple) or len(calls) <= first:
        return run
    round_, j = divmod(len(calls) - 1 - first, 2 * samples + 1)
    j -= 1
    if j < 0:
        return run
    mask = calls[first + round_ * (2 * samples + 1)]
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    rest = []
    for i in range(j + 1, 2 * samples):
        f = rng.uniform(0.0, 1.0, size=space.n_atoms)[space.atom_of]
        rest.append(f * mask if i % 2 == 0 else np.maximum(f, mask))
    end = next(rows.stop for rows in row_blocks(2 * samples, dim) if j < rows.stop)
    return result, calls + rest[:end - j - 1], rng.bit_generator.state


def _assert_same_run(got, want):
    assert type(got[0]) is type(want[0])
    if isinstance(want[0], tuple):
        assert got[0] == want[0]
    else:
        assert _same_bits(got[0], want[0])
    assert len(got[1]) == len(want[1])
    assert all(_same_bits(a, b) for a, b in zip(got[1], want[1]))
    assert got[2] == want[2]


def _run_riesz(represent, weights, space, seed, fault, convert=None, block=None):
    """The measure or the exception's type and text, the arrays pi was called
    with, and the generator state afterwards.  ``fault`` is None or
    (call, coordinate, value): at that call, pi's value gets ``value`` added
    in that coordinate.  ``convert``, if given, maps each value pi returns.

    With ``block``, pi also takes a stack, as ``riesz_represent_stack``
    calls it: the stack's rows are evaluated in order as calls of the
    one-row pi, and ``block(i, value)`` maps its ``(m, dim)`` value, i being
    the call of its first row.  A single row goes through ``block`` as a
    stack of one."""
    calls = []

    def value(f):
        calls.append(np.array(f))
        out = weights @ f
        if fault is not None and len(calls) == fault[0] + 1:
            out[fault[1]] += fault[2]
        return out

    def pi(f):
        if block is None:
            out = value(f)
        elif np.ndim(f) == 1:
            out = block(len(calls), value(f)[None])[0]
        else:
            out = block(len(calls), np.array([value(row) for row in f]))
        return out if convert is None else convert(out)

    rng = np.random.default_rng(seed)
    try:
        result = represent(pi, space, CoordinateLattice(len(weights)), rng=rng).values
    except (AssertionError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, calls, rng.bit_generator.state


@given(_spaces(max_points=6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("exact", "off", "nan")), st.data())
@settings(max_examples=300, deadline=None)
def test_riesz_matches_the_per_sample_loop(space, dim, seed, case, data):
    weights, fault = _draw_weights_and_fault(data.draw, space, dim, case)
    got = _run_riesz(riesz_represent, weights, space, seed, fault)
    want = _run_riesz(_reference_riesz_represent, weights, space, seed, fault)
    _assert_same_run(got, _as_batched(want, space, dim))


#: Values of pi that are not float64 arrays of the measure's row shape, and so
#: miss ``_row``'s fast path; each reads as the same real row.
_OFF_FAST_PATH = {
    "float32": lambda out: out.astype(np.float32),
    "list": lambda out: out.tolist(),
    "complex with zero imaginary parts": lambda out: out.astype(complex),
    "big-endian float64": lambda out: out.astype(">f8"),
}


@given(_spaces(max_points=6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("exact", "off", "nan")), st.sampled_from(sorted(_OFF_FAST_PATH)),
       st.data())
@settings(max_examples=200, deadline=None)
def test_riesz_matches_the_per_sample_loop_off_the_fast_path(space, dim, seed, case, kind, data):
    weights, fault = _draw_weights_and_fault(data.draw, space, dim, case)
    convert = _OFF_FAST_PATH[kind]
    got = _run_riesz(riesz_represent, weights, space, seed, fault, convert)
    want = _run_riesz(_reference_riesz_represent, weights, space, seed, fault, convert)
    _assert_same_run(got, _as_batched(want, space, dim))


_ROUND = 2 * RIESZ_SAMPLES + 1     # calls per sup/inf round: the extremal indicator, g and h rows


@pytest.mark.parametrize("call, phase", [
    (0, "indicator phase"), (1, "indicator phase"), (5, "reproduction"),
    (3 + RIESZ_SAMPLES, "extremal indicator"), (5 + RIESZ_SAMPLES, "inf recovery"),
    (8 + RIESZ_SAMPLES, "sup recovery"), (5 + RIESZ_SAMPLES + 2 * _ROUND, "inf recovery"),
])
def test_riesz_raises_at_a_value_with_a_row_of_shape_one_by_dim(call, phase):
    # three atoms: calls 0-2 are the indicators, then the reproduction, then
    # per round r the extremal indicator and its g and h rows, in row blocks
    # of three; a (1, dim) value raises as it is read, before the rest of its
    # block
    calls = []
    weights = np.random.default_rng(2).uniform(0.0, 1.0, size=(_ODD_DIM, 3))

    def pi(f):
        calls.append(f)
        out = weights @ f
        return out[None] if len(calls) == call + 1 else out

    want = "1-D" if call == 0 else f"({_ODD_DIM},)"
    with pytest.raises(AssertionError) as raised:
        riesz_represent(pi, powerset_space(3), CoordinateLattice(_ODD_DIM),
                        rng=np.random.default_rng(4))
    assert str(raised.value) == f"pi's value in the {phase} has shape (1, {_ODD_DIM}), not {want}"
    assert len(calls) == call + 1


def _draw_weights_and_fault(draw, space, dim, case):
    """A (dim, n_points) weight matrix for pi, and a fault as ``_run_riesz`` takes it."""
    weight = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 0.1, 3.0)), st.floats(0.0, 4.0))
    weights = np.array(draw(st.lists(st.lists(weight, min_size=len(space.points),
                                              max_size=len(space.points)),
                                     min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        # a zero coordinate: there pi(g) and pi(h) equal the sup and inf
        # targets, so any perturbation of the right sign fails
        weights[draw(st.integers(0, dim - 1))] = 0.0
    samples = RIESZ_SAMPLES
    first_round = space.n_atoms + samples
    fault = None
    if case == "off":
        # one of the sup (even j) or inf (odd j) calls of one round
        round_, j = draw(st.integers(0, 3)), draw(st.integers(0, 2 * samples - 1))
        fault = (first_round + round_ * (2 * samples + 1) + 1 + j,
                 draw(st.integers(0, dim - 1)), draw(st.sampled_from((1e-6, -1e-6))))
    elif case == "nan":
        fault = (draw(st.integers(0, first_round + 4 * (2 * samples + 1) - 1)),
                 draw(st.integers(0, dim - 1)), np.nan)
    return weights, fault


_ODD_DIM = ENTRIES // 3     # sup/inf row blocks of 3 rows, so some start at an h row


@pytest.mark.parametrize("row", range(8))
def test_riesz_matches_the_per_sample_loop_across_row_blocks(row):
    space = FiniteMeasurableSpace((0, 1, 2), ((0, 2), (1,)))
    weights = np.random.default_rng(1).uniform(0.0, 1.0, size=(_ODD_DIM, 3))
    fault = (space.n_atoms + RIESZ_SAMPLES + 2 * _ROUND + 1 + row, 7, np.nan)  # round 2
    got = _run_riesz(riesz_represent, weights, space, 5, fault)
    want = _run_riesz(_reference_riesz_represent, weights, space, 5, fault)
    assert want[0] == (AssertionError, f"{('sup', 'inf')[row % 2]} recovery formula violated")
    assert len(got[1]) == fault[0] + 1 + min(2 - row % 3, 2 * RIESZ_SAMPLES - 1 - row)
    _assert_same_run(got, _as_batched(want, space, _ODD_DIM))


@pytest.mark.parametrize("faults, message, rows_called", [
    ({3: np.nan, 4: np.nan}, "inf recovery formula violated", 6),
    ({4: np.nan, 5: np.nan}, "sup recovery formula violated", 6),
    ({3: np.nan, 5: 1j}, "pi is not real-valued", 6),
    ({3: np.nan, 4: None}, r"pi's value in the sup recovery has shape \(1, 5461\)", 5),
    ({2 * RIESZ_SAMPLES - 1: np.nan}, "inf recovery formula violated", 2 * RIESZ_SAMPLES),
    ({0: np.nan, 2: 1j}, "pi is not real-valued", 3),
])
def test_riesz_raises_the_first_fault_of_a_row_block(faults, message, rows_called):
    # a shape or real-value fault raises as pi's value is read, before the
    # block's comparison, so it wins over a bound violation in an earlier row
    weights = np.random.default_rng(1).uniform(0.0, 1.0, size=(_ODD_DIM, 2))
    first = 2 + RIESZ_SAMPLES + 1       # round 0's g_0 on two atoms
    calls = []

    def pi(f):
        calls.append(f)
        out, fault = weights @ f, faults.get(len(calls) - 1 - first, 0.0)
        return out[None] if fault is None else out + fault

    with pytest.raises(AssertionError, match=message):
        riesz_represent(pi, powerset_space(2), CoordinateLattice(_ODD_DIM),
                        rng=np.random.default_rng(3))
    assert len(calls) == first + rows_called


# ---------------------------------------------------------------------------
# riesz_represent_stack against the one-row entry
# ---------------------------------------------------------------------------

def _imaginary(row, coordinate, part):
    """A ``block`` for ``_run_riesz`` that sets the imaginary part of call
    ``row``'s value in ``coordinate`` to ``part``."""
    def block(start, out):
        if start <= row < start + len(out):
            out = out.astype(complex)
            out.imag[row - start, coordinate] = part
        return out
    return block


def _negative(rows, coordinate):
    """A ``block`` for ``_run_riesz`` that makes ``coordinate`` of the value
    of each call in ``rows`` negative."""
    def block(start, out):
        for row in rows:
            if start <= row < start + len(out):
                out[row - start, coordinate] = -1.0
        return out
    return block


@given(_spaces(max_points=6), st.sampled_from((1, 2, 4, _ODD_DIM)),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(("exact", "off", "nan")),
       st.sampled_from(("none", "imaginary", "negative indicator")), st.data())
@settings(max_examples=300, deadline=None)
def test_stack_entry_matches_the_one_row_entry(space, dim, seed, case, block_fault, data):
    # the same measure bits or exception, the same rows in the same order and
    # the same generator state afterwards; at _ODD_DIM each row block of the
    # reproduction holds one row, and each sup/inf block three
    weights, fault = _draw_weights_and_fault(data.draw, space, min(dim, 4), case)
    weights = np.resize(weights, (dim, len(space.points)))
    calls = space.n_atoms + RIESZ_SAMPLES + 4 * _ROUND
    block = None
    if block_fault == "imaginary":
        block = _imaginary(data.draw(st.integers(0, calls - 1)), data.draw(st.integers(0, dim - 1)),
                           data.draw(st.sampled_from((1e-300, -1.0, np.nan))))
    elif block_fault == "negative indicator":
        block = _negative(data.draw(st.sets(st.integers(0, space.n_atoms - 1), min_size=1)),
                          data.draw(st.integers(0, dim - 1)))
    kinds = [None, "list", "complex with zero imaginary parts"]
    if block is None:
        kinds += ["float32", "big-endian float64"]
    kind = data.draw(st.sampled_from(kinds))
    convert = None if kind is None else _OFF_FAST_PATH[kind]
    got = _run_riesz(riesz_represent_stack, weights, space, seed, fault, convert,
                     block or (lambda start, out: out))
    want = _run_riesz(riesz_represent, weights, space, seed, fault, convert, block)
    if isinstance(want[0], tuple) and want[0] == (AssertionError, "pi is not real-valued"):
        # the one-row entry raises as it reads the row; the stack entry has
        # evaluated the row's whole block
        assert len(got[1]) >= len(want[1])
        got = got[0], got[1][:len(want[1])], got[2]
    _assert_same_run(got, want)


def _phase(call, n_atoms):
    """The phase of the row that call ``call`` of a one-row ``pi`` evaluates."""
    if call < n_atoms:
        return "indicator phase"
    if call < n_atoms + RIESZ_SAMPLES:
        return "reproduction"
    j = (call - n_atoms - RIESZ_SAMPLES) % _ROUND
    return "extremal indicator" if j == 0 else ("sup recovery", "inf recovery")[(j - 1) % 2]


_SHAPE_FAULTS = {
    "one row short": lambda out: out[:-1],
    "one column wide": lambda out: np.hstack([out, out[:, :1]]),
    "1-D": lambda out: out.ravel(),
}


@given(_spaces(max_points=5), st.sampled_from((1, 3, _ODD_DIM)),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(_SHAPE_FAULTS)), st.data())
@settings(max_examples=100, deadline=None)
def test_stack_entry_names_the_phases_of_a_value_of_another_shape(space, dim, seed, kind, data):
    # a wider value on the indicators would fix a wider row shape, so that
    # fault is put on a later block
    n_atoms = space.n_atoms
    low = n_atoms if kind == "one column wide" else 0
    row = data.draw(st.integers(low, n_atoms + RIESZ_SAMPLES + 4 * _ROUND - 1))
    weights = np.resize(np.random.default_rng(seed).uniform(0.0, 1.0, (3, len(space.points))),
                        (dim, len(space.points)))
    faulted = []

    def block(start, out):
        if start <= row < start + len(out):
            faulted.append((start, out.shape))
            return _SHAPE_FAULTS[kind](out)
        return out

    result, calls, _ = _run_riesz(riesz_represent_stack, weights, space, seed, None,
                                  block=block)
    (start, (m, width)), = faulted
    phases = " and ".join(dict.fromkeys(_phase(i, n_atoms) for i in range(start, start + m)))
    shape = _SHAPE_FAULTS[kind](np.zeros((m, width))).shape
    want = f"({m}, n)" if start < n_atoms else f"({m}, {width})"
    assert result == (AssertionError, f"pi's value in the {phases} has shape {shape}, not {want}")
    assert len(calls) == start + m


@given(_spaces(max_points=6), st.integers(1, 4), st.data())
@settings(max_examples=50, deadline=None)
def test_both_entries_name_the_first_atom_with_a_negative_coordinate(space, dim, data):
    bad = data.draw(st.sets(st.integers(0, space.n_atoms - 1), min_size=1))
    coordinate = data.draw(st.integers(0, dim - 1))
    weights = np.random.default_rng(len(bad)).uniform(0.0, 1.0, (dim, len(space.points)))
    message = (f"pi(indicator of atom {space.atoms[min(bad)]!r}) "
               f"has negative coordinate {coordinate}")
    for represent in (riesz_represent_stack, riesz_represent):
        result, calls, state = _run_riesz(represent, weights, space, 0, None,
                                          block=_negative(bad, coordinate))
        assert result == (PositivityError, message)
        # the indicators are one block, and nothing is drawn before they pass
        assert len(calls) == space.n_atoms
        assert state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("represent", [riesz_represent_stack, riesz_represent])
def test_both_entries_reject_a_space_with_no_atoms_before_any_draw(represent):
    calls = []

    def pi(fs):
        calls.append(np.shape(fs))
        return np.zeros((len(fs), 3)) if represent is riesz_represent_stack else np.zeros(3)

    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^one value row of a common dimension per atom required$"):
        represent(pi, FiniteMeasurableSpace(()), rng=rng)
    assert calls == []
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
