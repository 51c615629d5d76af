"""Tests for the suites' verdict path: the record helpers, and the guarded
checks that turn a raised exception into a failed record."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from centrelat import spectral, suites
from centrelat.generate import random_central, random_measure
from centrelat.lattice import CoordinateLattice
from centrelat.operators import CentralOperator
from centrelat.sequence import (
    CertificateError,
    constant,
    geometric,
    reciprocal,
    shifted_reciprocal,
)
from centrelat.spectral import OperatorSpectralMeasure
from centrelat.suites import Records, op_digest, run_suites

SPECTRAL_PER_OPERATOR = ("symbol-spectrum-matches-block-eigenvalues",
                         "spectral-radius-and-shape-equivalences",
                         "band-cover-union-spectrum",
                         "global-measure-reconstruction",
                         "spectral-measure-invariants")


def centrals(n=2):
    rng = np.random.default_rng(5)
    return [random_central(rng, dim=4) for _ in range(n)]


def raising(exc_type, text):
    def call(*args, **kwargs):
        raise exc_type(text)
    return call


def records_of(suite, instances, check=None):
    [report] = run_suites([suite], instances)
    return [r for r in report.records if check is None or r.check == check]


def assert_guarded_failures(records, text, count):
    assert len(records) == count
    for r in records:
        assert r.ok is False
        assert math.isinf(r.max_deviation)
        assert r.witness == text


# ---------------------------------------------------------------------------
# the record helpers
# ---------------------------------------------------------------------------

def test_check_passes_iff_deviation_within_tolerance():
    out = Records("cstar")
    out.check("at-tol", "d", 1e-12, 1e-12)
    out.check("above-tol", "d", 2e-12, 1e-12)
    out.check("nan", "d", math.nan, 1e-12)
    out.check("inf", "d", math.inf, 1e-12)
    assert [(r.suite, r.check, r.ok) for r in out] == [
        ("cstar", "at-tol", True), ("cstar", "above-tol", False),
        ("cstar", "nan", False), ("cstar", "inf", False)]
    assert math.isnan(out[2].max_deviation)


def test_holds_records_a_plain_bool_and_the_witness():
    out = Records("spectral")
    out.holds("numpy-bool", "d", np.bool_(True))
    out.holds("with-witness", "d", False, 1.0, "an atom value is not idempotent")
    assert out[0].ok is True and out[0].max_deviation == 0.0 and out[0].witness == ""
    assert out[1].to_json() == {"suite": "spectral", "check": "with-witness", "instance": "d",
                                "ok": False, "max_deviation": 1.0,
                                "witness": "an atom value is not idempotent"}


def test_guarded_records_the_verdict_and_returns_the_result():
    out = Records("riesz")
    assert out.guarded("plain", "d", AssertionError, lambda: 7) == 7
    assert out.guarded("judged", "d", AssertionError, lambda: 3.0,
                       lambda x: (x < 1.0, x)) == 3.0
    assert [(r.ok, r.max_deviation, r.witness) for r in out] == [(True, 0.0, ""),
                                                                 (False, 3.0, "")]


def test_guarded_catches_its_class_only():
    out = Records("riesz")
    assert out.guarded("raised", "d", AssertionError,
                       raising(AssertionError, "positivity fails")) is None
    assert_guarded_failures(out, "positivity fails", 1)
    with pytest.raises(ValueError):
        out.guarded("other-class", "d", AssertionError, raising(ValueError, "not caught"))
    assert len(out) == 1
    # an exception the verdict raises fails the check too
    out.guarded("verdict-raises", "d", Exception, lambda: [], lambda rs: (True, max(rs)))
    assert out[-1].ok is False and math.isinf(out[-1].max_deviation)
    assert out[-1].witness == "max() arg is an empty sequence"


def test_suite_name_comes_from_the_registry():
    reports = run_suites(list(suites.SUITES), {"central": centrals(1)})
    for report in reports:
        assert {r.suite for r in report.records} <= {report.suite}


# ---------------------------------------------------------------------------
# guarded sites in the suites
# ---------------------------------------------------------------------------

def test_failed_spectral_cross_check_skips_that_instance(monkeypatch):
    ops = centrals(2)
    bad = op_digest(ops[0])
    real = suites.block_eigenvalue_deviation

    def block_eigenvalue_deviation(mu):
        if op_digest(mu.base) == bad:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(mu)

    monkeypatch.setattr(suites, "block_eigenvalue_deviation", block_eigenvalue_deviation)
    records = records_of("spectral", {"central": ops})
    failed = [r for r in records if r.instance == bad]
    assert_guarded_failures(failed, "Eigenvalues did not converge", 1)
    assert failed[0].check == "symbol-spectrum-matches-block-eigenvalues"
    good = [r.check for r in records if r.instance == op_digest(ops[1])]
    assert good == list(SPECTRAL_PER_OPERATOR)
    assert all(r.ok for r in records if r.instance != bad)


def test_failed_spectral_measure_validation(monkeypatch):
    monkeypatch.setattr(OperatorSpectralMeasure, "validate",
                        raising(AssertionError, "labels do not index the spectrum values"))
    failed = [r for r in records_of("spectral", {"central": centrals(2)}) if not r.ok]
    assert [r.check for r in failed] == ["spectral-measure-invariants"] * 2
    assert_guarded_failures(failed, "labels do not index the spectrum values", 2)


def test_failed_riesz_representation(monkeypatch):
    monkeypatch.setattr(suites, "riesz_represent",
                        raising(AssertionError, "reproduction fails on a sample"))
    rng = np.random.default_rng(3)
    records = records_of("riesz", {"measure": [random_measure(rng), random_measure(rng)]})
    assert [r.check for r in records] == ["representing-measure-recovery",
                                          "homomorphism-yields-spectral-measure"] * 2
    assert_guarded_failures(records, "reproduction fails on a sample", 4)


def test_riesz_keeps_its_exception_class(monkeypatch):
    monkeypatch.setattr(suites, "riesz_represent", raising(ValueError, "not an assertion"))
    with pytest.raises(ValueError):
        records_of("riesz", {"measure": [random_measure(np.random.default_rng(3))]})


@pytest.mark.parametrize("suite, target", [("eigen", "expansion_tail_report"),
                                           ("compactness", "validate_certificate")])
def test_sequence_sites_let_a_bug_crash(monkeypatch, suite, target):
    monkeypatch.setattr(suites, target, raising(TypeError, "a bug, not a failed check"))
    with pytest.raises(TypeError):
        records_of(suite, {"sequence": [reciprocal()]})


def broad_catches(source):
    """Line numbers of ``guarded`` calls whose catch is Exception or BaseException."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "guarded":
            catch = node.args[2:3] + [k.value for k in node.keywords if k.arg == "catch"]
            if any(getattr(c, "id", None) in ("Exception", "BaseException") for c in catch):
                lines.append(node.lineno)
    return lines


def test_no_guarded_site_catches_every_exception():
    assert broad_catches("out.guarded('a', d, Exception, f)\n"
                         "out.guarded('b', d, ValueError, f)\n"
                         "out.guarded('c', d, catch=BaseException, call=f)\n") == [1, 3]
    assert broad_catches(Path(suites.__file__).read_text()) == []


def test_failed_expansion_tail_report(monkeypatch):
    monkeypatch.setattr(suites, "expansion_tail_report",
                        raising(ValueError, "checkpoint beyond the sampled prefix"))
    records = records_of("eigen", {"sequence": [reciprocal()]},
                         "sequence-partial-sum-tail-domination")
    assert_guarded_failures(records, "checkpoint beyond the sampled prefix", 1)


def test_failed_certificate_validation(monkeypatch):
    monkeypatch.setattr(suites, "validate_certificate",
                        raising(CertificateError, "sup bound violated at index 3"))
    records = records_of("compactness", {"sequence": [reciprocal(), reciprocal()]},
                         "certificate-validates-on-prefix")
    assert_guarded_failures(records, "sup bound violated at index 3", 2)


def test_guarded_sites_pass_with_zero_deviation_when_nothing_raises():
    rng = np.random.default_rng(3)
    instances = {"central": centrals(2), "measure": [random_measure(rng)],
                 "sequence": [reciprocal()]}
    guarded = {"spectral-measure-invariants", "certificate-validates-on-prefix"}
    size = {op_digest(T): float(np.max(np.abs(T.symbol))) for T in instances["central"]}
    records = [r for report in run_suites(["spectral", "compactness", "riesz", "eigen"],
                                          instances)
               for r in report.records]
    assert all(r.ok for r in records)
    for r in records:
        if r.check in guarded:
            assert (r.max_deviation, r.witness) == (0.0, "")
        if r.check == "symbol-spectrum-matches-block-eigenvalues":
            # the oracle's matched distance, within its rounding bound
            assert 0.0 <= r.max_deviation < 1e-12 * size[r.instance] and r.witness == ""


# ---------------------------------------------------------------------------
# the monic record, decided by the number of distinct prefix values
# ---------------------------------------------------------------------------

MONIC = "infinite-spectrum-defeats-monic-annihilators"


def test_monic_record_passes_with_its_distinct_count():
    [record] = records_of("eigen", {"sequence": [reciprocal()]}, MONIC)
    assert record.ok and record.max_deviation == 0.0
    assert record.witness == "10000 distinct prefix values"
    # 1e-40 ** i: eight nonzero values (the last subnormal), then 0.0
    [record] = records_of("eigen", {"sequence": [geometric(1e-40)]}, MONIC)
    assert record.ok and record.witness == "9 distinct prefix values"


def test_no_monic_record_for_at_most_eight_distinct_values():
    # 1e-45 ** i has seven nonzero values, 1e20 + 1/i is the constant 1e20
    # in floats, and NaN is nobody's root, so it adds nothing to the count
    for op in (constant(2.0), geometric(1e-45), shifted_reciprocal(1e20),
               shifted_reciprocal(math.nan)):
        assert records_of("eigen", {"sequence": [op]}, MONIC) == []


# ---------------------------------------------------------------------------
# the annihilation record, decided by its a-priori rounding bound
# ---------------------------------------------------------------------------

ANNIHILATION = "minimal-polynomial-annihilation"


def test_annihilation_passes_within_its_rounding_bound():
    records = records_of("eigen", {"central": centrals(20)}, ANNIHILATION)
    assert len(records) == 20 and all(r.ok for r in records)


def test_annihilation_fails_on_a_root_moved_by_1e_8_of_the_norm(monkeypatch):
    def moved(T):
        exp = spectral.eigen_expansion(T)
        roots = [lam for lam, _ in exp.pairs]
        roots[0] += 1e-8 * T.order_unit_norm()
        return dataclasses.replace(exp, minimal_polynomial=spectral.minimal_polynomial(roots))

    monkeypatch.setattr(suites, "eigen_expansion", moved)
    records = records_of("eigen", {"central": centrals(20)}, ANNIHILATION)
    assert len(records) == 20 and not any(r.ok for r in records)


def test_annihilation_fails_without_warning_when_its_scale_overflows():
    # prod (|x| + |lambda|) ~ 1e401 overflows, so neither bound nor residual
    # is finite; filterwarnings = error turns any numpy warning into a failure
    T = CentralOperator(CoordinateLattice(4), np.array([1e100, 2e100, 3e100, 4e100]))
    [record] = records_of("eigen", {"central": [T]}, ANNIHILATION)
    assert not record.ok and not math.isfinite(record.max_deviation)
