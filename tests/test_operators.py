"""Tests for regular/central operators: moduli, norms, polar, localisation,
and the conjugate-commutation transfer."""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat.lattice import (
    ENTRIES,
    ComplexElement,
    CoordinateLattice,
    DimensionMismatchError,
    MaxNorm,
    PrincipalIdeal,
    WeightedPNorm,
    ideal_norm,
)
from centrelat.operators import (
    CentralOperator,
    RegularOperator,
    fpr_check,
    is_central,
    localize,
    norms,
    polar,
)
from centrelat.generate import commuting_fpr_triple, random_central, random_lattice

TOL_EXACT = 1e-12


def central(symbol, norm=None):
    symbol = np.asarray(symbol, dtype=complex)
    return CentralOperator(CoordinateLattice(len(symbol), norm or MaxNorm()), symbol)


def dense(entries):
    entries = np.asarray(entries, dtype=complex)
    return RegularOperator(CoordinateLattice(len(entries)), entries)


_CONSTRUCTORS = {
    "ComplexElement": (lambda a: ComplexElement(CoordinateLattice(3), a), "values", (3,), complex),
    "CentralOperator": (lambda a: CentralOperator(CoordinateLattice(3), a), "symbol", (3,),
                        complex),
    "RegularOperator": (lambda a: RegularOperator(CoordinateLattice(3), a), "entries", (3, 3),
                        complex),
    "PrincipalIdeal": (lambda a: PrincipalIdeal(a), "generator", (3,), float),
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_view_the_callers_array_and_leave_it_writable(name):
    # the object's array is a read-only view of the caller's, which stays writable
    make, field, shape, dtype = _CONSTRUCTORS[name]
    given = np.ones(shape, dtype=dtype)
    held = getattr(make(given), field)
    assert np.shares_memory(held, given)
    assert given.flags.writeable and not held.flags.writeable


# ---------------------------------------------------------------------------
# operator modulus
# ---------------------------------------------------------------------------

def modulus_action_oracle(T: RegularOperator, x: np.ndarray, samples: int = 10_000,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Lower bound for (|T|x) via sup{|Ty| : |y| <= x} over phase choices.

    Samples random phase vectors y = x * exp(i phi) and improves the best one
    by eight rounds of coordinate ascent on the phases.  The result approaches
    (|T|x) from below; it never uses the entrywise closed form.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    x = np.asarray(x, dtype=float)
    n = T.lattice.dim
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(samples, n))
    ys = x[None, :] * np.exp(1j * phases)
    vals = np.abs(ys @ T.entries.T)  # (samples, dim) moduli of T y
    best = vals.max(axis=0)
    # refine per output coordinate: maximise |sum_j t_ij x_j e^{i phi_j}|
    out = best.copy()
    for i in range(n):
        k = int(vals[:, i].argmax())
        phi = phases[k].copy()
        row = T.entries[i] * x
        for _ in range(8):
            for j in range(n):
                rest = np.sum(row * np.exp(1j * phi)) - row[j] * np.exp(1j * phi[j])
                if row[j] != 0:
                    phi[j] = np.angle(rest) - np.angle(row[j]) if rest != 0 else 0.0
        out[i] = max(out[i], abs(np.sum(row * np.exp(1j * phi))))
    return out


def test_operator_modulus_action_oracle():
    # (|T| x)_i = sum_j |t_ij| x_j; the phase-sampling oracle approaches it
    # from below and gets within 1e-4
    rng = np.random.default_rng(5)
    T = dense(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    x = np.abs(rng.standard_normal(3)) + 0.1
    exact = np.abs(T.entries) @ x
    sampled = modulus_action_oracle(T, x, samples=10_000, rng=rng)
    assert np.all(sampled <= exact + TOL_EXACT)
    assert np.max(exact - sampled) < 1e-4


def test_operator_inequality_modulus():
    # |Tz| <= |T| |z| coordinatewise for dense operators
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        T = dense(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        z = ComplexElement(T.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = T.apply(z).modulus()
        rhs = np.abs(T.entries) @ z.modulus()
        assert np.all(lhs <= rhs + TOL_EXACT)


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

def test_is_central_diagonal():
    verdict = is_central(dense(np.diag([1 + 1j, 2])))
    assert verdict
    assert np.array_equal(verdict.operator.symbol, [1 + 1j, 2])


def test_is_central_rejects_off_diagonal():
    m = np.diag([1.0, 2.0]).astype(complex)
    m[0, 1] = 0.1
    verdict = is_central(dense(m))
    assert not verdict
    assert verdict.where == (0, 1)
    assert verdict.max_off_diagonal == pytest.approx(0.1)


def test_is_central_tolerates_tiny_noise():
    rng = np.random.default_rng(1)
    m = np.diag(rng.standard_normal(4)).astype(complex)
    m += 1e-15 * rng.standard_normal((4, 4))
    assert is_central(dense(m))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_frozen_value():
    t = norms(central([1 + 1j, -2]), rng=np.random.default_rng(0))
    assert t.order_unit == t.operator == t.regular == pytest.approx(2.0)
    assert t.attained_at == 1


def test_norms_zero_operator():
    t = norms(central([0.0, 0.0, 0.0]), rng=np.random.default_rng(0))
    assert t.order_unit == 0.0 and t.max_sampled_ratio == 0.0


@pytest.mark.parametrize("samples", [-1, -1000])
def test_norms_rejects_negative_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        norms(central([1 + 1j, -2]), samples=samples, rng=np.random.default_rng(0))


def test_norms_with_zero_samples_checks_only_the_attaining_vector():
    rng = np.random.default_rng(0)
    t = norms(central([1 + 1j, -2]), samples=0, rng=rng)
    assert t.attained_at == 1 and t.max_sampled_ratio == 0.0
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_norms_weighted_lattice_certificate():
    lat = CoordinateLattice(3, WeightedPNorm((1.0, 1.0, 1.0), 3.0))
    T = CentralOperator(lat, np.array([0.5, -3j, 1.0]))
    t = norms(T, samples=1000, rng=np.random.default_rng(0))
    assert t.order_unit == pytest.approx(3.0)
    assert t.attained_at == 1
    # a basis vector attains the bound exactly
    e = ComplexElement(lat, np.eye(3)[1].astype(complex))
    assert T.apply(e).norm() / e.norm() == pytest.approx(3.0, abs=TOL_EXACT)
    assert t.max_sampled_ratio <= 3.0 + TOL_EXACT


def test_norm_never_exceeded_random():
    rng = np.random.default_rng(77)
    for _ in range(20):
        T = random_central(rng, lattice=random_lattice(rng, int(rng.integers(1, 9))))
        t = norms(T, samples=200, rng=rng)
        assert t.max_sampled_ratio <= t.order_unit + TOL_EXACT


def _sampled_ratio_per_row(T, samples, rng):
    """Reference for norms(): the same draws of moduli, one ComplexElement per
    sample row."""
    n = T.lattice.dim
    zs = rng.rayleigh(size=(samples, n))
    worst = 0.0
    for row in zs:
        z = ComplexElement(T.lattice, row)
        nz = z.norm()
        if nz == 0:
            continue
        worst = max(worst, T.apply(z).norm() / nz)
    return worst


_NORM_SPECS = {
    "max": lambda dim: MaxNorm(),
    "p1": lambda dim: WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), 1.0),
    "p2": lambda dim: WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), 2.0),
    "p3": lambda dim: WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), 3.0),
    "pinf": lambda dim: WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), np.inf),
}


def _norm_cases(spec):
    """(seed, dim, sample counts): small dims, counts that straddle the block
    boundaries at dims 70 and 2048, and for the cheap max norm a dim whose
    blocks are one row each."""
    cases = [(seed, dim, (1, 63, 64, 65, 300)) for seed, dim in enumerate((1, 3, 13, 70))]
    for seed, dim in ((4, 70), (5, 2048)):
        step = ENTRIES // dim
        cases.append((seed, dim, (step - 1, step, step + 1, 2 * step + 1)))
    if spec == "max":
        cases.append((6, ENTRIES, (1, 2, 3)))
    return cases


@pytest.mark.parametrize("spec", sorted(_NORM_SPECS))
def test_norms_batched_ratio_is_bit_equal_to_per_row_loop(spec):
    for seed, dim, sample_counts in _norm_cases(spec):
        lat = CoordinateLattice(dim, _NORM_SPECS[spec](dim))
        T = random_central(np.random.default_rng(seed), lattice=lat)
        for samples in sample_counts:
            rng = np.random.default_rng(100 + seed)
            ref = np.random.default_rng(100 + seed)
            t = norms(T, samples=samples, rng=rng)
            assert t.max_sampled_ratio == _sampled_ratio_per_row(T, samples, ref)
            # the call consumes exactly the reference draws, so later draws do not shift
            assert rng.bit_generator.state == ref.bit_generator.state


_LAW_NORMS = {**_NORM_SPECS,
              "p7": lambda dim: WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), 7.0)}


def _law_case(norm, dim, k, seed):
    """A lattice, a symbol scaled by 2**k and three standard complex Gaussian rows."""
    rng = np.random.default_rng(seed)
    re, im = np.ldexp(rng.standard_normal((2, dim)), k)
    T = CentralOperator(CoordinateLattice(dim, _LAW_NORMS[norm](dim)), re + 1j * im)
    return T, rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))


_LAW_CASES = (st.sampled_from(sorted(_LAW_NORMS)), st.integers(1, 2048),
              st.sampled_from((-100, -40, 0, 40, 400, 1000)), st.integers(0, 2 ** 32 - 1))


@given(*_LAW_CASES)
@settings(max_examples=200, deadline=None)
def test_lattice_norm_of_z_is_bit_equal_to_that_of_its_modulus(norm, dim, k, seed):
    # ||z|| = || |z| || in every lattice norm, and np.abs(|z| + 0j) is |z| itself,
    # so norms() may sample the moduli and keep the denominators' bits
    T, zs = _law_case(norm, dim, k, seed)
    for z in (*zs, *(T.symbol * zs)):
        a, b = ComplexElement(T.lattice, z), ComplexElement(T.lattice, np.abs(z))
        assert a.norm().hex() == b.norm().hex()


def _ratio_bound(dim, spec):
    """A bound on |R(z) / R(|z|) - 1|, R(z) = ||Tz|| / ||z|| as one row gives it.

    With u = 2**-53 and gamma_k = k u / (1 - k u), to first order in u:

    - Coordinates (Higham, Lemma 3.5): fl(s z) = s z (1 + d), |d| <= sqrt(2)
      gamma_2.  s |z| takes |z| + 0j, so each part rounds once, |d| <= u.
      numpy's complex modulus, on any of its kernels (max sqrt(1 + (min /
      max)**2) at worst), adds |e| <= gamma_4.  So a_i = |T z|_i and b_i =
      |T |z||_i both equal |s_i||z_i| within rho = sqrt(2) gamma_2 + u + 2
      gamma_4 of each other.
    - ||z|| and || |z| || have the same bits (the test above), so only the
      numerators ||a|| and ||b|| and the two divisions (u each) differ.
    - A lattice norm is monotone and homogeneous, so the max norm keeps rho;
      the weighted sup norm adds one product per side, 2u.
    - A weighted p-norm, p finite, is S**q with S = sum w_i x_i**p and q =
      fl(1/p).  Per term, the ratio of a's to b's is (1 + rho)**p, times a
      power within one ulp and a product per side, 2 (2u) + 2u.  The sums
      of n nonnegative terms each round by at most gamma_(n-1) (Higham §4),
      and q <= (1 + u) / p, so S_a**q / S_b**q adds (6u + 2 gamma_(n-1)) / p
      to rho.  Python's root is within one ulp, 2u per side.  A row whose sum
      overflows is summed divided by 2**e, and scaled back by 2**e; that is
      exact up to terms below 2**-1000 of the sum, and where the two sides
      take different e (|e| <= 1100), 2**(e p q - e) adds at most 1100 u ln 2.
    - No p-th power underflows: the symbols' scale is at least 2**-100, and
      (2**-100 x)**7 is normal for every |x| > 2**-46.

    Doubling the first-order total covers every second-order term, since the
    total stays below 1e-11.
    """
    u = 2.0 ** -53
    gamma = lambda k: k * u / (1 - k * u)
    rho = math.sqrt(2) * gamma(2) + u + 2 * gamma(4)
    if isinstance(spec, MaxNorm):
        total = rho
    elif math.isinf(spec.p):
        total = rho + 2 * u
    else:
        total = (rho + (6 * u + 2 * gamma(dim - 1)) / spec.p + 4 * u
                 + 1100 * u * math.log(2))
    return 2 * (total + 2 * u)


@given(*_LAW_CASES)
@settings(max_examples=200, deadline=None)
def test_sampled_ratio_on_z_and_on_its_modulus_agree_within_rounding(norm, dim, k, seed):
    T, zs = _law_case(norm, dim, k, seed)
    bound = _ratio_bound(dim, T.lattice.norm_spec)
    for z in zs:
        on_z, on_modulus = (T.apply(x).norm() / x.norm()
                            for x in (ComplexElement(T.lattice, z),
                                      ComplexElement(T.lattice, np.abs(z))))
        assert abs(on_z - on_modulus) <= bound * on_modulus


class _Draws:
    """A generator stand-in whose rayleigh returns the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def rayleigh(self, scale=1.0, size=None):
        out = self.arrays.pop(0)
        assert scale == 1.0 and out.shape == size
        return out.copy()


#: Per kind of sample row, the row of moduli made from a drawn base row:
#: near ties, zeros, subnormals, and rows whose p-th powers overflow.
_EDGE_ROWS = {
    "base": lambda base, rng: base,
    "one-ulp": lambda base, rng: np.nextafter(base, np.inf),
    "two-ulps": lambda base, rng: np.nextafter(np.nextafter(base, np.inf), np.inf),
    "drawn": lambda base, rng: rng.rayleigh(size=base.shape),
    "zero": lambda base, rng: np.zeros_like(base),
    "subnormal": lambda base, rng: np.ldexp(base, -1070),
    "huge": lambda base, rng: np.ldexp(base, 400),
}
#: Symbols: drawn, one unimodular value everywhere (every ratio then ties
#: with 1 up to rounding), drawn with zero entries, and drawn at 2**500, where
#: the sums of Tz overflow while those of z need not.
_EDGE_SYMBOLS = {
    "drawn": lambda rng, dim: rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    "large": lambda rng, dim: np.ldexp(rng.standard_normal(dim), 500) + 0.5j,
    "unimodular": lambda rng, dim: np.full(dim, 0.6 + 0.8j),
    "sparse": lambda rng, dim: (rng.standard_normal(dim) + 0.5j) * (rng.random(dim) < 0.5),
}


@given(st.sampled_from((None, 1.0, 1.0 + 2.0 ** -20, 1.5, 2.0, 3.0, 7.0, 50.0, math.inf)),
       st.sampled_from((1, 3, 16, 2048)), st.sampled_from(sorted(_EDGE_SYMBOLS)),
       st.lists(st.sampled_from(sorted(_EDGE_ROWS)), min_size=1, max_size=24),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_norms_ratio_on_edge_rows_is_bit_equal_to_per_row_loop(p, dim, symbol, kinds, seed):
    # at dim 2048 a row block holds 8 rows, so up to 24 rows span three
    # blocks; near p = 1 the root of a subnormal sum is subnormal
    rng = np.random.default_rng(seed)
    norm = MaxNorm() if p is None else WeightedPNorm(tuple(np.linspace(0.5, 2.0, dim)), p)
    T = CentralOperator(CoordinateLattice(dim, norm), _EDGE_SYMBOLS[symbol](rng, dim))
    base = rng.rayleigh(size=dim)
    rows = np.stack([_EDGE_ROWS[kind](base, rng) for kind in kinds])
    got = norms(T, samples=len(kinds), rng=_Draws(rows)).max_sampled_ratio
    want = _sampled_ratio_per_row(T, len(kinds), _Draws(rows))
    assert got.hex() == want.hex()


# ---------------------------------------------------------------------------
# C* and modulus laws on the centre
# ---------------------------------------------------------------------------

def test_cstar_identity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        lhs = (T * T.conj()).order_unit_norm()
        assert lhs == pytest.approx(T.order_unit_norm() ** 2, rel=TOL_EXACT, abs=TOL_EXACT)


def test_modulus_multiplicativity():
    rng = np.random.default_rng(29)
    lat = CoordinateLattice(6)
    for _ in range(50):
        S = CentralOperator(lat, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        T = CentralOperator(lat, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert np.max(np.abs((S * T).modulus().symbol
                             - S.modulus().symbol * T.modulus().symbol)) <= TOL_EXACT
        assert np.max(np.abs((T * T.conj()).modulus().symbol
                             - T.modulus().symbol ** 2)) <= TOL_EXACT


def test_four_equalities():
    # modulus(Tz) = |T| modulus(z), unchanged under conjugating T or z
    rng = np.random.default_rng(31)
    lat = CoordinateLattice(5)
    for _ in range(50):
        T = CentralOperator(lat, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        z = ComplexElement(lat, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        expected = T.modulus().symbol.real * z.modulus()
        for op in (T, T.conj()):
            for vec in (z, z.conj()):
                got = op.apply(vec).modulus()
                assert np.max(np.abs(got - expected)) <= TOL_EXACT * max(1.0, np.max(expected))


# ---------------------------------------------------------------------------
# FPR transfer
# ---------------------------------------------------------------------------

def test_fpr_identity_trivial():
    lat = CoordinateLattice(3)
    I = CentralOperator(lat, np.ones(3))
    X = RegularOperator(lat, np.arange(9, dtype=float).reshape(3, 3).astype(complex))
    v = fpr_check(I, I, X)
    assert v.forward and v.conjugate and v.transfer_ok


def test_fpr_swap_example():
    S = central([1j, 2.0])
    T = central([2.0, 1j])
    X = dense([[0.0, 1.0], [1.0, 0.0]])
    v = fpr_check(S, T, X)
    assert v.forward and v.conjugate


def test_fpr_failure_reports_entry():
    S = central([1.0, 2.0])
    T = central([3.0, 4.0])
    X = dense(np.ones((2, 2)))
    v = fpr_check(S, T, X)
    assert not v.forward
    assert v.first_violation is not None
    assert v.transfer_ok  # vacuous: forward fails


def test_fpr_constructed_triples_always_transfer():
    rng = np.random.default_rng(41)
    for _ in range(100):
        S, T, X = commuting_fpr_triple(rng, int(rng.integers(2, 9)))
        v = fpr_check(S, T, X)
        assert v.forward and v.conjugate and v.transfer_ok


def test_fpr_fault_injection_detected():
    rng = np.random.default_rng(43)
    for _ in range(100):
        S, T, X = commuting_fpr_triple(rng, int(rng.integers(2, 7)))
        bad = X.entries.copy()
        # break the pattern at an entry with distinct symbols, if any
        diff = np.abs(S.symbol[:, None] - T.symbol[None, :]) > 1e-9
        if not diff.any():
            continue
        i, j = np.argwhere(diff)[0]
        bad[i, j] += 1.0
        v = fpr_check(S, T, RegularOperator(X.lattice, bad))
        assert not v.forward


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

def test_polar_frozen_example():
    p = polar(central([3 + 4j, 2j]))
    assert np.allclose(p.positive.symbol, [5.0, 2.0], atol=TOL_EXACT)
    assert np.allclose(p.unitary.symbol, [(3 + 4j) / 5, 1j], atol=TOL_EXACT)


def test_polar_identity():
    p = polar(central([1.0, 1.0]))
    assert np.array_equal(p.positive.symbol, [1.0, 1.0])
    assert np.array_equal(p.unitary.symbol, [1.0, 1.0])


def test_polar_kernel_convention():
    p = polar(central([0.0, -2.0]))
    assert np.array_equal(p.positive.symbol, [0.0, 2.0])
    assert np.array_equal(p.unitary.symbol, [1.0, -1.0])


def test_polar_reconstruction_and_unimodularity():
    rng = np.random.default_rng(47)
    for _ in range(50):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        p = polar(T)
        recon = p.positive.symbol * p.unitary.symbol
        assert np.max(np.abs(recon - T.symbol)) <= TOL_EXACT * max(1.0, T.order_unit_norm())
        assert np.max(np.abs(np.abs(p.unitary.symbol) - 1.0)) <= TOL_EXACT
        assert np.all(p.positive.symbol.imag == 0) and np.all(p.positive.symbol.real >= 0)


@pytest.mark.parametrize("s, unit", [(1e-310, 1.0), (-1e-310, -1.0), (1e-310j, 1j),
                                     (-5e-324j, -1j), (complex(3e-310, -4e-310), None),
                                     (complex(-2e-320, 1e-315), None)],
                         ids=["1e-310", "-1e-310", "1e-310i", "-5e-324i", "3e-310-4e-310i",
                              "-2e-320+1e-315i"])
def test_polar_of_a_subnormal_modulus(s, unit):
    # numpy's complex division s / |s| gave inf + nan i, which CentralOperator
    # rejects, and |s| keeps too few bits for |u| = 1 to the last bits
    p = polar(central([s, 0.0, 2.0]))
    assert p.positive.symbol.tolist() == [abs(s), 0.0, 2.0]
    assert p.unitary.symbol[1:].tolist() == [1.0, 1.0]
    u = p.unitary.symbol[0]
    assert abs(abs(u) - 1.0) <= 2.0 ** -51
    if unit is not None:
        assert u == unit
    else:
        # |s| is rounded to a multiple of 2**-1074
        assert abs(u * abs(s) - s) <= 2.0 ** -1073


def test_polar_unit_factor_of_a_normal_modulus_is_numpys_division():
    rng = np.random.default_rng(61)
    s = (rng.standard_normal(4099) + 1j * rng.standard_normal(4099)) * 2.0 ** rng.integers(
        -900, 900, 4099)
    s[::5] = 0.0
    absval = np.abs(s)
    expected = np.where(absval > 0, s / np.where(absval > 0, absval, 1.0), 1.0)
    assert polar(central(s)).unitary.symbol.tobytes() == expected.tobytes()


def test_polar_multiplicative_on_invertibles():
    rng = np.random.default_rng(53)
    lat = CoordinateLattice(5)
    for _ in range(20):
        s = rng.standard_normal(5) + 1j * rng.standard_normal(5) + 3.0  # bounded away from 0
        t = rng.standard_normal(5) + 1j * rng.standard_normal(5) + 3.0
        S, T = CentralOperator(lat, s), CentralOperator(lat, t)
        pS, pT, pST = polar(S), polar(T), polar(S * T)
        assert np.allclose(pST.positive.symbol, (pS.positive * pT.positive).symbol, atol=1e-10)
        assert np.allclose(pST.unitary.symbol, (pS.unitary * pT.unitary).symbol, atol=1e-10)


# ---------------------------------------------------------------------------
# localisation
# ---------------------------------------------------------------------------

def test_localize_frozen_example():
    T = central([3.0, 4j, 7.0])
    loc = localize(T, PrincipalIdeal(np.array([1.0, 2.0, 0.0])))
    assert np.array_equal(loc.symbol, [3.0, 4j])
    assert np.array_equal(loc.support, [0, 1])
    assert loc.ideal_norm_of_Tu == pytest.approx(4.0)


def test_localize_basis_vector():
    T = central([5.0, -1j, 2.0])
    loc = localize(T, PrincipalIdeal(np.eye(3)[0]))
    assert np.array_equal(loc.symbol, [5.0])


def test_localize_full_support_isometry():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        T = random_central(rng, dim=n)
        u = np.abs(rng.standard_normal(n)) + 0.1
        ideal = PrincipalIdeal(u)
        loc = localize(T, ideal)
        assert np.array_equal(loc.symbol, T.symbol)
        u_elem = ComplexElement(T.lattice, u.astype(complex))
        assert ideal_norm(T.apply(u_elem), ideal) == pytest.approx(
            T.order_unit_norm(), rel=TOL_EXACT, abs=TOL_EXACT)


# ---------------------------------------------------------------------------
# central operator construction and arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", ["mul"])
def test_central_arithmetic_rejects_dimension_mismatch(op):
    # used to broadcast silently: dim 3 times dim 1 gave [5, 10, 15]
    a, b = central([1.0, 2.0, 3.0]), central([5.0])
    with pytest.raises(DimensionMismatchError):
        a * b
    with pytest.raises(DimensionMismatchError):
        b * a


def test_central_arithmetic_same_dimension_and_scalars():
    a, b = central([1.0, 2.0j]), central([3.0, -1.0])
    assert np.array_equal((a * b).symbol, [3.0, -2.0j])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(1, np.inf)])
def test_central_rejects_non_finite_symbol(bad):
    with pytest.raises(ValueError, match="finite"):
        central([1.0, bad, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(1, np.inf)])
def test_regular_rejects_a_non_finite_entry(bad):
    entries = np.ones((3, 3), dtype=complex)
    entries[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        RegularOperator(CoordinateLattice(3), entries)


def test_regular_takes_entries_in_any_memory_order():
    # a transposed or column-indexed matrix is not C-contiguous
    entries = np.arange(9.0).reshape(3, 3) + 1j * np.arange(9.0)[::-1].reshape(3, 3)
    for view in (entries.T, np.asfortranarray(entries), entries[:, [2, 0, 1]]):
        X = RegularOperator(CoordinateLattice(3), view)
        assert np.array_equal(X.entries, view)
