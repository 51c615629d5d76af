"""Tests for certified sequence-mode operators: certificates, spectra,
compactness, expansion tails, eps-nets, and eigen queries."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centrelat.lattice import TOL_EXACT, CoordinateLattice
from centrelat.operators import CentralOperator
from centrelat.sequence import (
    BUILTIN_RULES,
    EPS_SCHEDULE,
    SAMPLE,
    TAIL_CHECKPOINTS,
    CertificateError,
    SequenceCentralOperator,
    SequenceEigenQuery,
    breakpoints,
    compactness_check,
    constant,
    distinct_finite_count,
    expansion_tail_report,
    freudenthal_net,
    geometric,
    reciprocal,
    sequence_eigen_query,
    sequence_spectrum,
    shifted_reciprocal,
    validate_certificate,
)
from centrelat.spectral import build_mu_T, first_occurrence, spectrum
from centrelat.suites import op_digest


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_builtin_certificates_validate():
    for op in (reciprocal(), constant(2j), shifted_reciprocal(-1.5), geometric(0.7)):
        validate_certificate(op)


def test_sup_bound_violation_detected():
    op = SequenceCentralOperator(rule=lambda i: 1.0 / i, sup_bound=0.5,
                                 accumulation=(0.0,), tail=lambda n: 1.0 / (n + 1),
                                 multiplicity=lambda v: 1.0)
    with pytest.raises(CertificateError, match="sup bound"):
        validate_certificate(op)


def test_tail_certificate_violation_detected():
    # claims the tail decays like 1/n^2 but the sequence only decays like 1/n
    op = SequenceCentralOperator(rule=lambda i: 1.0 / i, sup_bound=1.0,
                                 accumulation=(0.0,), tail=lambda n: 1.0 / (n + 1) ** 2,
                                 multiplicity=lambda v: 1.0)
    with pytest.raises(CertificateError, match="tail"):
        validate_certificate(op)


@given(st.integers(1, 500), st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.nan),
                                              complex(math.inf, math.nan)]))
@example(1, complex(math.nan, 0.0))
@settings(max_examples=50, deadline=None)
def test_nan_value_violates_the_sup_bound_at_its_index(k, nan):
    op = SequenceCentralOperator(rule=lambda i: np.where(i == k, nan, 1.0 / i), sup_bound=1.0,
                                 accumulation=(0.0,), tail=lambda n: 1.0 / (n + 1),
                                 multiplicity=lambda v: 1.0)
    with pytest.raises(CertificateError, match=f"sup bound violated at index {k}$"):
        validate_certificate(op)


def test_nan_accumulation_point_fails_every_check():
    op = SequenceCentralOperator(rule=lambda i: 1.0 / i, sup_bound=1.0,
                                 accumulation=(math.nan,), tail=lambda n: 1.0 / (n + 1),
                                 multiplicity=reciprocal().multiplicity)
    # N(0.1) = 9, so index 10 is the first one checked against the NaN point
    with pytest.raises(CertificateError, match="index 10 for eps=0.1"):
        validate_certificate(op)
    verdict = compactness_check(op)
    assert not verdict.compact and verdict.reason == "limit point nan is nonzero"
    assert not any(r.dominated for r in expansion_tail_report(op))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_reciprocal_spectrum():
    spec = sequence_spectrum(reciprocal())
    assert spec.accumulation == (0.0,)
    assert {1.0, 0.5, 1.0 / 3.0} <= set(spec.attained)
    assert 0.0 in spec


def test_constant_spectrum_is_singleton():
    spec = sequence_spectrum(constant(3.0))
    assert set(spec.attained) == {3.0}


def test_spectrum_certificate_schedule():
    # N(eps) = ceil(1/eps) for the reciprocal rule: validated implicitly by
    # sequence_spectrum; exercise it on the published schedule
    op = reciprocal()
    for eps in (1e-1, 1e-2, 1e-3):
        n = next(n for n in range(1, 10_000) if op.tail(n) <= eps)
        assert n == math.ceil(1.0 / eps) - 1 or op.tail(n) <= eps


# ---------------------------------------------------------------------------
# compactness
# ---------------------------------------------------------------------------

def test_compactness_canonical_trio():
    # each verdict and its reason, the witness that verify's former
    # canonical-classification record printed for these three operators
    verdicts = [compactness_check(op) for op in (reciprocal(), constant(1.0),
                                                 shifted_reciprocal(1.0))]
    assert [(v.compact, v.reason) for v in verdicts] == [
        (True, "limit points in {0} and finite nonzero multiplicities"),
        (False, "limit point 1.0 is nonzero"),
        (False, "limit point (1+0j) is nonzero")]


def test_compactness_infinite_multiplicity_not_compact():
    op = SequenceCentralOperator(rule=lambda i: np.where(i % 2, 1.0, 1.0 / i), sup_bound=1.0,
                                 accumulation=(0.0, 1.0), tail=lambda n: 1.0,
                                 multiplicity=lambda v: math.inf if v == 1.0 else 1.0)
    verdict = compactness_check(op)
    assert not verdict.compact


def _tuple_nonzero_mask(values):
    """The per-value mask compactness_check built from the values tuple
    before it set the mask through the prefix's labels."""
    return ~(np.abs(np.asarray(values, dtype=complex)) <= TOL_EXACT)


def _ulps_around(t):
    """t and the three floats on either side of it."""
    return [float(x) for x in t + np.arange(-3, 4) * np.spacing(t)]


# NaN, infinities, signed zeros, nonzero imaginary parts, and moduli within a
# few ulps of TOL_EXACT: real, negative, imaginary and 3-4-5 complex
_NEAR_TOL = _ulps_around(TOL_EXACT)
_PREFIX_POOL = ([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), math.inf, -math.inf,
                 complex(math.inf, 1.0), complex(1.0, -math.inf), complex(math.nan, 0.0),
                 complex(0.0, math.nan), 1.0, 1 + 1j, 1 - 1j, 0.5j]
                + _NEAR_TOL + [-t for t in _NEAR_TOL] + [complex(0.0, t) for t in _NEAR_TOL]
                + [complex(0.6 * t, 0.8 * t) for t in _NEAR_TOL])
_PREFIXES = st.lists(st.one_of(st.sampled_from(_PREFIX_POOL), st.complex_numbers()),
                     min_size=1, max_size=24)


def _then_zeros(values):
    """A rule giving ``values`` at the leading indices and 0 at every later one."""
    table = np.zeros(SAMPLE, dtype=complex)
    table[:len(values)] = values
    return lambda i: table[i - 1]


@given(_PREFIXES)
@example([TOL_EXACT, -0.0, TOL_EXACT, math.nan, math.nan, 0.0, math.inf, math.inf])
@example([_NEAR_TOL[4], _NEAR_TOL[2], complex(0.6 * _NEAR_TOL[4], 0.8 * _NEAR_TOL[4]),
          _NEAR_TOL[4], -_NEAR_TOL[4]])
@settings(max_examples=200, deadline=None)
def test_nonzero_mask_through_labels_matches_the_tuple_mask(values):
    # a finite multiplicity rule is asked about exactly the masked values
    calls = []
    op = SequenceCentralOperator(rule=_then_zeros(values),
                                 sup_bound=3.0, accumulation=(), tail=lambda n: math.inf,
                                 multiplicity=lambda v: calls.append(v) or 1.0)
    distinct, _ = first_occurrence(op.prefix(SAMPLE))
    assert compactness_check(op).compact
    assert repr(calls) == repr(list(itertools.compress(distinct, _tuple_nonzero_mask(distinct))))


# 0.5 repeats; the zeros (and the rule's trailing ones) and 1e-13 are skipped;
# 3.0 comes back after 2.0
_ORDER_VALUES = [0.5, 0.0, 1j, 0.5, 1e-13, 3.0, -0.0, 2.0, 3.0, complex(math.nan, 0.0)]


@pytest.mark.parametrize("stop", [math.inf, math.nan, 2.0])
def test_compactness_asks_multiplicity_in_first_occurrence_order_up_to_the_first_infinite(stop):
    calls = []

    def multiplicity(v):
        calls.append(v)
        return stop if v == 3.0 else 2.0

    op = SequenceCentralOperator(rule=_then_zeros(_ORDER_VALUES),
                                 sup_bound=3.0, accumulation=(0.0,), tail=lambda n: 3.0,
                                 multiplicity=multiplicity)
    verdict = compactness_check(op)
    assert all(type(v) is complex for v in calls)
    if math.isfinite(stop):
        assert verdict.compact
        assert repr(calls) == repr([0.5 + 0j, 1j, 3 + 0j, 2 + 0j, complex(math.nan, 0.0)])
    else:
        assert repr(calls) == repr([0.5 + 0j, 1j, 3 + 0j])
        assert not verdict.compact
        assert verdict.reason == "eigenspace for (3+0j) is infinite dimensional"


# ---------------------------------------------------------------------------
# expansion tails and eps-nets
# ---------------------------------------------------------------------------

def test_expansion_tail_domination_checkpoints():
    records = expansion_tail_report(reciprocal())
    assert [r.n_terms for r in records] == list(TAIL_CHECKPOINTS)
    for r in records:
        assert r.dominated
        assert r.certified_bound == pytest.approx(1.0 / (r.n_terms + 1))
        assert r.sampled_tail_sup <= r.certified_bound + 1e-12


def test_expansion_tail_geometric():
    records = expansion_tail_report(geometric(0.5))
    assert [r.n_terms for r in records] == list(TAIL_CHECKPOINTS)
    assert all(r.dominated for r in records)


def test_freudenthal_net_reciprocal():
    net = freudenthal_net(reciprocal(), eps=0.1)
    coeffs = set(net.coefficients)
    # head values 1, 1/2, ..., 1/9 plus the accumulation point 0
    assert {1.0 / k for k in range(1, 10)} <= coeffs
    assert 0.0 in coeffs
    assert net.certified_error <= 0.1
    spec = sequence_spectrum(reciprocal())
    assert coeffs <= spec.as_set()


def test_freudenthal_net_rejects_bad_eps():
    with pytest.raises(ValueError):
        freudenthal_net(reciprocal(), eps=0.0)


# ---------------------------------------------------------------------------
# eigen queries
# ---------------------------------------------------------------------------

def test_accumulation_point_is_not_eigenvalue():
    q = sequence_eigen_query(reciprocal(), 0.0)
    assert q.in_spectrum and not q.is_eigenvalue


def test_attained_value_is_eigenvalue():
    q = sequence_eigen_query(reciprocal(), 0.5)
    assert q.in_spectrum and q.is_eigenvalue


def test_outside_spectrum():
    q = sequence_eigen_query(reciprocal(), 0.3)
    assert not q.in_spectrum and not q.is_eigenvalue


def test_constant_value_is_eigenvalue():
    q = sequence_eigen_query(constant(2.0), 2.0)
    assert q.in_spectrum and q.is_eigenvalue


@given(st.floats(-2.0, 2.0), st.integers(1, 10_000))
@example(0.7, 10_000)
@example(-1.0, 1)
@example(2.0, 9_999)
@settings(max_examples=200, deadline=None)
def test_reciprocal_multiplicity_identifies_every_rule_value(shift, k):
    op = shifted_reciprocal(shift)
    assert op.multiplicity(op.rule(k)) == 1.0
    q = sequence_eigen_query(op, op.rule(k))
    assert q.in_spectrum and q.is_eigenvalue
    # the accumulation point is in the spectrum but never attained
    assert op.multiplicity(shift) == 0.0
    q = sequence_eigen_query(op, shift)
    assert q.in_spectrum and not q.is_eigenvalue


def test_reciprocal_multiplicity_rejects_unattained_values():
    op = shifted_reciprocal(0.7)
    for v in (0.3 + 0.7, 0.7 - 0.5, 1.7 + 1e-9j, math.nan, math.inf, -math.inf):
        assert op.multiplicity(v) == 0.0
    # 1/1e-320 overflows to inf: no index is that large
    assert reciprocal().multiplicity(1e-320) == 0.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0),
                                   complex(math.inf, 1.0), complex(0.5, math.inf),
                                   complex(math.nan, 0.0)])
def test_geometric_multiplicity_of_a_non_finite_value_is_zero(value):
    # round(log_ratio(+inf)) overflows, so +inf must be answered before it
    op = geometric(0.9)
    assert op.multiplicity(value) == 0.0
    assert sequence_eigen_query(op, value) == SequenceEigenQuery(False, False)
    assert all(op.multiplicity(v) == 1.0 for v in op.prefix(500))


def test_shifted_reciprocal_prefix_values_are_all_eigenvalues():
    # comparing 1.0 / k with v - shift in floats finds only 14 of these values
    op = shifted_reciprocal(0.7)
    assert all(op.multiplicity(v) == 1.0 for v in op.prefix(10_000))


# ---------------------------------------------------------------------------
# prefix memoisation
# ---------------------------------------------------------------------------

_RULE_ARGS = {
    "reciprocal": st.just(()),
    "constant": st.tuples(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                             allow_infinity=False)),
    "shifted_reciprocal": st.tuples(st.floats(-2.0, 2.0)),
    "geometric": st.tuples(st.floats(0.01, 0.99)),
}


#: Each builtin rule's term and tail, one Python float operation per index.
_SCALAR_REFERENCE = {
    "reciprocal": lambda: (lambda i: 1.0 / i, lambda n: 1.0 / (n + 1)),
    "constant": lambda c: (lambda i: c, lambda n: 0.0),
    "shifted_reciprocal": lambda shift: (lambda i: shift + 1.0 / i, lambda n: 1.0 / (n + 1)),
    "geometric": lambda ratio: (lambda i: ratio ** i, lambda n: ratio ** (n + 1)),
}


def test_prefix_property_covers_every_builtin_rule():
    assert set(_RULE_ARGS) == set(BUILTIN_RULES) == set(_SCALAR_REFERENCE)


@given(st.sampled_from(sorted(_RULE_ARGS)).flatmap(
           lambda name: _RULE_ARGS[name].map(lambda args: (name, args))),
       st.lists(st.integers(0, 300), min_size=1, max_size=6))
@example(("geometric", (0.3,)), [0, 5, 2, 2, 9, 9, 1, 0])
@example(("shifted_reciprocal", (1.0,)), [300, 17, 301, 301])
@example(("constant", (complex(-0.0, 2.5),)), [3, 200])
@settings(max_examples=100, deadline=None)
def test_prefix_cache_is_bit_equal_to_the_rule(named, lengths):
    # the prefix grows by one array call per extension; the reference
    # evaluates each index on its own, in Python floats
    name, args = named
    op = BUILTIN_RULES[name](*args)
    term, tail = _SCALAR_REFERENCE[name](*args)
    for n in lengths:
        got = op.prefix(n)
        want = np.array([complex(term(i)) for i in range(1, n + 1)], dtype=complex)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[...] = 0
        index = np.arange(0, n + 1, dtype=np.int64)
        tails = np.broadcast_to(np.asarray(op.tail(index), dtype=float), index.shape)
        assert tails.tobytes() == np.array([float(tail(k)) for k in range(n + 1)]).tobytes()
    uncached = SequenceCentralOperator(op.rule, op.sup_bound, op.accumulation, op.tail,
                                       op.multiplicity, op.name, op.params)
    assert uncached == op
    assert repr(uncached) == repr(op)
    assert op_digest(uncached) == op_digest(op)


def test_geometric_raises_the_ratio_with_python_float_power():
    # np.power(ratio, k) is not bit-equal to Python's ratio ** k: under numpy
    # 2.4.6's AVX512 dispatch it differs in the last bit in 28,153 of
    # 2,000,000 entries (200 ratios drawn from U(0.01, 0.99), k = 1..10^4),
    # and in none with that dispatch disabled.  On such a CPU each ratio
    # below has such entries; a rule or tail built on np.power fails here.
    for ratio in (0.2, 0.3, 0.7, 0.9, 0.99):
        op = geometric(ratio)
        want = np.array([ratio ** k for k in range(1, 10_001)])
        assert op.prefix(10_000).real.tobytes() == want.tobytes()
        assert not np.any(op.prefix(10_000).imag)
        tails = np.asarray(op.tail(np.arange(0, 10_000, dtype=np.int64)), dtype=float)
        assert tails.tobytes() == np.array([ratio ** (n + 1) for n in range(10_000)]).tobytes()


def test_a_scalar_rule_or_tail_stands_for_every_index():
    op = SequenceCentralOperator(rule=lambda i: 2.0, sup_bound=2.0, accumulation=(2.0,),
                                 tail=lambda n: 0.0,
                                 multiplicity=lambda v: math.inf if v == 2.0 else 0.0)
    assert op.prefix(70).tolist() == [2.0] * 70
    validate_certificate(op)
    assert [r.certified_bound for r in expansion_tail_report(op)] == [0, 0, 0]


@pytest.mark.parametrize("rule", [lambda i: np.ones(len(i) + 1), lambda i: np.ones((len(i), 1)),
                                  lambda i: [1.0]],
                         ids=["one-too-many", "column", "one-value"])
def test_prefix_rejects_a_rule_without_one_value_per_index(rule):
    op = SequenceCentralOperator(rule=rule, sup_bound=1.0, accumulation=(1.0,),
                                 tail=lambda n: 0.0, multiplicity=lambda v: math.inf)
    with pytest.raises(ValueError, match="must give one value per index or a scalar"):
        op.prefix(3)
    assert len(op.prefix(0)) == 0


# ---------------------------------------------------------------------------
# N(eps): the shared scan against the per-eps scan it replaced
# ---------------------------------------------------------------------------

def _scan_reference(tail, eps, sample):
    """The first-hit scan, one index per tail call."""
    return next((n for n in range(1, sample) if tail(np.array([n]))[0] <= eps), None)


def _whole_sample_breakpoints(tail, epsilons):
    """N(eps) for each eps from one tail call on every index in [1, SAMPLE)."""
    tails = tail(np.arange(1, SAMPLE, dtype=np.int64))
    hits = [np.flatnonzero(tails <= eps) for eps in epsilons]
    return [int(h[0]) + 1 if h.size else None for h in hits]


def _validate_reference(op):
    """validate_certificate's tail loop before the shared scan, on whole-sample N(eps)."""
    values = op.prefix(SAMPLE)
    dist = np.min(np.abs(values[:, None] - np.asarray(op.accumulation)[None, :]), axis=1)
    for eps, n in zip(EPS_SCHEDULE, _whole_sample_breakpoints(op.tail, EPS_SCHEDULE)):
        if n is None:
            continue
        bad = np.flatnonzero(dist[n:] > eps + 1e-12)
        if bad.size:
            raise CertificateError(
                f"tail certificate violated at index {n + 1 + int(bad[0])} for eps={eps}")


def _error_text(call):
    try:
        call()
    except CertificateError as exc:
        return str(exc)
    return None


_TAIL_VALUES = st.one_of(st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.1, 0.5, 2.0, math.nan]),
                         st.floats(0.0, 1.0))
_EPS = st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 0.0, 0.5, math.nan])


@given(st.lists(_TAIL_VALUES, min_size=0, max_size=40),
       st.lists(_EPS, min_size=1, max_size=7),
       st.integers(1, 45))
@example([0.5, 0.05, 0.2, 1e-3, math.nan, 0.0], [1e-1, 1e-2, 1e-3, 1e-4, 1e-6], 7)
@example([0.5, math.nan, 0.5], [1e-1, 1e-2], 4)
@example([0.05, 0.2, 0.05], [1e-3, 1e-1, 0.5, 1e-2], 4)
@settings(max_examples=300, deadline=None)
def test_shared_scan_matches_the_per_eps_scan(table, schedule, sample):
    calls = []

    def tail(n):
        calls.extend(n.tolist())
        return np.array([table[k - 1] if k <= len(table) else 1.0 for k in n.tolist()])

    want = [_scan_reference(tail, eps, sample) for eps in schedule]
    calls.clear()
    assert list(breakpoints(tail, schedule, sample)) == want
    # each n is evaluated at most once, in ascending order
    assert calls == list(range(1, len(calls) + 1)) and len(calls) <= max(sample - 1, 0)

    # on the certificates' own sample: the sequence runs 1/i, and the
    # accumulation point 0 and this tail table decide which eps of the
    # schedule, if any, is violated first
    op = SequenceCentralOperator(rule=lambda i: 1.0 / i, sup_bound=1.0, accumulation=(0.0,),
                                 tail=tail, multiplicity=lambda v: 1.0)
    assert _error_text(lambda: validate_certificate(op)) \
        == _error_text(lambda: _validate_reference(op))
    for eps, n in zip(schedule, _whole_sample_breakpoints(tail, schedule)):
        if not eps > 0:
            continue
        if n is None:
            with pytest.raises(CertificateError, match="does not reach eps"):
                freudenthal_net(op, eps)
        else:
            assert freudenthal_net(op, eps).breakpoint == n


def _block_ends(sample):
    """Where breakpoints' index blocks of 64, 128, 256, ... end, capped at sample - 1."""
    ends, end = [], 0
    while end < sample - 1:
        end = min(2 * end + 64, sample - 1)
        ends.append(end)
    return ends


_BLOCK_EPS = st.sampled_from([1e-1, 1e-2, 2e-3, 1e-3, 5e-4, 1e-4, 1e-6, 0.0, 0.5, math.nan])


@given(st.booleans(), st.floats(0.01, 10.0),
       st.dictionaries(st.integers(1, 1300), _TAIL_VALUES, max_size=6),
       st.lists(_BLOCK_EPS, min_size=1, max_size=7), st.integers(1, 1300))
@example(False, 1.0, {}, [1e-1, 1e-2, 1e-3], 1000)
@example(True, 1.0, {700: 1e-4}, [1e-4, 1e-1, 1e-3, 0.5], 1300)
@example(True, 1.0, {449: 1e-6}, [1e-6], 450)
@settings(max_examples=200, deadline=None)
def test_breakpoints_match_the_first_hit_scan_across_blocks(wavy, scale, dips, schedule,
                                                            sample):
    calls = []

    def tail(n):
        calls.append(n.tolist())
        # the wavy tail rises by up to a factor 3 from one index to the next
        base = scale / (n + 1) * (1 + n % 3 if wavy else 1)
        return np.array([dips.get(k, b) for k, b in zip(n.tolist(), base.tolist())])

    want = [_scan_reference(tail, eps, sample) for eps in schedule]
    calls.clear()
    assert list(breakpoints(tail, schedule, sample)) == want
    # ascending blocks of doubling size, each index once, and no block past
    # the one in which the last eps is found
    ends = _block_ends(sample)
    if None not in want:
        ends = ends[:next(k for k, end in enumerate(ends) if end >= max(want)) + 1]
    assert [block[-1] for block in calls] == ends
    assert sum(calls, []) == list(range(1, len(sum(calls, [])) + 1))


def test_validate_calls_tail_at_most_once_per_index():
    calls = []
    op = reciprocal()
    counted = SequenceCentralOperator(op.rule, op.sup_bound, op.accumulation,
                                      lambda n: calls.extend(n.tolist()) or op.tail(n),
                                      op.multiplicity)
    validate_certificate(counted)
    # 1e-5 and 1e-6 are not reached within 10^4 indices, so the scan runs to the end
    assert sorted(calls) == list(range(1, 10_000))


# ---------------------------------------------------------------------------
# first-occurrence deduplication
# ---------------------------------------------------------------------------

def _first_occurrence_loop(values):
    """The seen/out loop that sequence_spectrum and spectrum(T) once used,
    extended to give each entry's index in ``out``."""
    seen: dict[complex, int] = {}
    out: list[complex] = []
    labels: list[int] = []
    for v in values:
        v = complex(v)
        if v not in seen:
            seen[v] = len(out)
            out.append(v)
        labels.append(seen[v])
    return out, labels


# signed zeros and values that differ only in their imaginary part
_DEDUP_POOL = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, 1 + 1j, 1 - 1j,
               1 + 2j, complex(-0.0, 1.0), 0.5j, 2.5]
# NaN equals nothing, itself included; only sequence mode admits it
_NAN_POOL = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(1.0, math.nan)]


@given(st.lists(st.sampled_from(_DEDUP_POOL + _NAN_POOL), min_size=1, max_size=16))
@example([-0.0, 0.0, 1 + 1j, 1 - 1j, 1 + 1j, -0.0])
@example([1.0, 1 + 1j, 1 + 2j, 1.0, 1 - 1j, 0.0, -0.0, 2.5, 0.5j] * 2)
@example([complex(math.nan, 0.0), -0.0, complex(math.nan, 0.0), 0.0, complex(0.0, math.nan)])
@settings(max_examples=150, deadline=None)
def test_dedup_matches_the_first_occurrence_loop(values):
    # repr tells -0.0 from 0.0, which == does not
    prefix = np.array(values, dtype=complex)
    want, labels = _first_occurrence_loop(prefix)
    got, got_labels = first_occurrence(prefix)
    assert repr(got) == repr(tuple(want)) and got_labels.tolist() == labels
    assert not got_labels.flags.writeable
    finite = [v for v in values if not cmath.isnan(v)]
    if finite:
        symbol = np.array(finite, dtype=complex)
        want, labels = _first_occurrence_loop(symbol)
        T = CentralOperator(CoordinateLattice(len(finite)), symbol)
        mu = build_mu_T(T)
        assert repr(mu.values) == repr(tuple(want)) and mu.labels.tolist() == labels
        assert repr(spectrum(T).attained) == repr(tuple(want))


@given(_PREFIXES)
@example([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)])
@example([math.nan, math.nan, math.inf, -math.inf, complex(math.inf, 1.0)])
@example([1 + 1j, 1 - 1j, 1 + 1j, complex(1.0, -0.0), 1.0, TOL_EXACT, TOL_EXACT])
@settings(max_examples=200, deadline=None)
def test_distinct_finite_count_matches_first_occurrence(values):
    p = np.array(values, dtype=complex)
    assert distinct_finite_count(p) == np.count_nonzero(np.isfinite(first_occurrence(p)[0]))


def test_distinct_finite_count_on_builtin_prefixes():
    for op in (reciprocal(), geometric(0.3), constant(1 + 1j), shifted_reciprocal(-1.5)):
        p = op.prefix(10_000)
        assert distinct_finite_count(p) == np.count_nonzero(np.isfinite(first_occurrence(p)[0]))
    assert distinct_finite_count(reciprocal().prefix(10_000)) == 10_000
