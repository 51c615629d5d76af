"""Tests for the suites' verdict path: the record helpers, and the guarded
checks that turn a raised exception into a failed record."""

import ast
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat import io as cio
from centrelat import measures, operators, spectral, suites
from centrelat.cli import main
from centrelat.generate import random_central, random_measure
from centrelat.lattice import CoordinateLattice, row_blocks
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
    failed = [r for r in records if not r.ok]
    assert_guarded_failures(failed, "Eigenvalues did not converge", 1)
    assert (failed[0].check, failed[0].instance) == ("symbol-spectrum-matches-block-eigenvalues",
                                                     bad)
    # the failed instance keeps only the cross-check's record; the other
    # instance keeps all of its records, the same as alone
    assert [r.check for r in records if r.instance == bad] == [
        "symbol-spectrum-matches-block-eigenvalues"]
    good = [r for r in records if r.instance == op_digest(ops[1])]
    assert [r.check for r in good] == list(SPECTRAL_PER_OPERATOR)
    assert good == records_of("spectral", {"central": ops[1:]})


def test_failed_spectral_measure_validation(monkeypatch):
    monkeypatch.setattr(OperatorSpectralMeasure, "validate",
                        raising(AssertionError, "labels do not index the spectrum values"))
    failed = [r for r in records_of("spectral", {"central": centrals(2)}) if not r.ok]
    assert [r.check for r in failed] == ["spectral-measure-invariants"] * 2
    assert_guarded_failures(failed, "labels do not index the spectrum values", 2)


def test_failed_riesz_representation(monkeypatch):
    monkeypatch.setattr(suites, "riesz_represent_stack",
                        raising(AssertionError, "reproduction fails on a sample"))
    rng = np.random.default_rng(3)
    records = records_of("riesz", {"measure": [random_measure(rng), random_measure(rng)]})
    assert [r.check for r in records] == ["representing-measure-recovery",
                                          "homomorphism-yields-spectral-measure"] * 2
    assert_guarded_failures(records, "reproduction fails on a sample", 4)


def test_misreported_localisation_fails_its_isometry_record(monkeypatch):
    # localize no longer raises on a broken isometry; the record compares it
    monkeypatch.setattr(operators, "ideal_norm", lambda z, ideal: 2.0 * suites.ideal_norm(z, ideal))
    records = records_of("localize", {"central": centrals(2)})
    assert [(r.check, r.ok) for r in records] == [("restriction-isometry", False),
                                                  ("full-support-norm-equality", True)] * 2
    assert all(r.max_deviation > 0 and not r.witness for r in records[::2])


def test_riesz_keeps_its_exception_class(monkeypatch):
    monkeypatch.setattr(suites, "riesz_represent_stack", raising(ValueError, "not an assertion"))
    with pytest.raises(ValueError):
        records_of("riesz", {"measure": [random_measure(np.random.default_rng(3))]})


def test_riesz_suite_calls_pi_once_per_row_block(monkeypatch, tmp_path):
    # on the golden riesz corpus, against the one-row entry given the rows of
    # the same pi one at a time: the same records, as many rows, and one call
    # per row block of riesz_represent_stack, whose rounds draw RIESZ_SAMPLES
    # rows each
    corpus = tmp_path / "corpus.json"
    assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "20",
                 "--out", str(corpus)]) == 0
    instances = cio.read_instances([str(corpus)])
    counts = Counter()
    stack_entry = suites.riesz_represent_stack

    def counted(pi, *args, **kwargs):
        def stack_pi(fs):
            counts["calls"] += 1
            counts["rows"] += len(fs)
            return pi(fs)
        return stack_entry(stack_pi, *args, **kwargs)

    def one_row(pi, *args, **kwargs):
        def row_pi(f):
            counts["one-row calls"] += 1
            return pi(f[None])[0]
        return measures.riesz_represent(row_pi, *args, **kwargs)

    monkeypatch.setattr(suites, "riesz_represent_stack", counted)
    [stack] = run_suites(["riesz"], instances, seed=7)
    monkeypatch.setattr(suites, "riesz_represent_stack", one_row)
    [rows] = run_suites(["riesz"], instances, seed=7)
    assert stack.records == rows.records and stack.passed

    # two calls per measure, each with rows of the measure's dim
    mus = instances["measure"]
    samples = measures.RIESZ_SAMPLES
    assert counts["calls"] == sum(2 * (1 + len(row_blocks(samples, 4 * mu.dim))
                                       + 4 * (1 + len(row_blocks(2 * samples, mu.dim))))
                                  for mu in mus)
    assert counts["rows"] == counts["one-row calls"] == sum(
        2 * (mu.space.n_atoms + samples + 4 * (1 + 2 * samples)) for mu in mus)


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
    # the one ValueError it raises: a tail rule that gives the wrong shape
    text = "a rule gave shape (2,) for 3 indices; it must give one value per index or a scalar"
    monkeypatch.setattr(suites, "expansion_tail_report", raising(ValueError, text))
    records = records_of("eigen", {"sequence": [reciprocal()]},
                         "sequence-partial-sum-tail-domination")
    assert_guarded_failures(records, text, 1)


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
    def moved(values):
        roots = list(values)
        roots[0] += 1e-8 * max(map(abs, roots))
        return spectral.minimal_polynomial(roots)

    monkeypatch.setattr(suites, "minimal_polynomial", moved)
    records = records_of("eigen", {"central": centrals(20)}, ANNIHILATION)
    assert len(records) == 20 and not any(r.ok for r in records)


def test_annihilation_fails_without_warning_when_its_scale_overflows():
    # prod (|x| + |lambda|) ~ 1e401 overflows, so neither bound nor residual
    # is finite; filterwarnings = error turns any numpy warning into a failure
    T = CentralOperator(CoordinateLattice(4), np.array([1e100, 2e100, 3e100, 4e100]))
    [record] = records_of("eigen", {"central": [T]}, ANNIHILATION)
    assert not record.ok and not math.isfinite(record.max_deviation)


# ---------------------------------------------------------------------------
# the dominated-convergence record, whose witness says why it failed
# ---------------------------------------------------------------------------

def test_failed_dominated_convergence_names_its_reason_and_term():
    # scaled by 2**20, rho_T(f_n) z - rho_T(f) z rounds above the witness's
    # absolute tolerance, so domination fails on the element
    ops = [CentralOperator(T.lattice, T.symbol * 2.0 ** 20) for T in centrals(20)]
    records = records_of("calculus", {"central": ops}, "dominated-convergence-witness")
    failed = [r for r in records if not r.ok]
    assert len(records) == 20 and len(failed) == 18
    assert {r.witness for r in failed} == {f"on z: domination fails at term {n}"
                                          for n in (0, 1, 7)}
    assert all(r.witness == "" for r in records if r.ok)
    # a failing operator verdict with no term gives its reason alone
    T = centrals(1)[0]
    vals = np.array(spectral.build_mu_T(T).values)
    rep = spectral.dominated_convergence_calculus(T, [vals], vals, tail=lambda n: 1.0)
    assert not rep and rep.reason == "tail rule does not certify decay to zero"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A file holding the ROADMAP corpus, ``gen --seed 7 --dim 2..16 --count 100``."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                     "--out", str(path)]) == 0
    return path


# sha256 of the annihilation lines of ``verify --suite eigen --seed 7`` on the
# corpus, seconds removed; recorded while eigen_expansion built the polynomial,
# so the suite building it instead changed no record.  Re-recorded when gen
# stopped writing the regular kind, whose draws no longer come between the
# central operators, so every operator after the first is a new draw
ANNIHILATION_SEED7_SHA256 = "446635ae799be6aba29f1531a584a7d8b2cb3f73115652c2061a576d82004301"


def test_annihilation_builds_the_polynomial_once_per_central_instance(monkeypatch, corpus,
                                                                       tmp_path):
    calls, real = [], spectral.minimal_polynomial

    def counting(values):
        calls.append(tuple(values))
        return real(values)

    # every module's name for it, so that no caller slips past the count
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "centrelat" and getattr(module, "minimal_polynomial", None) is real:
            monkeypatch.setattr(module, "minimal_polynomial", counting)
    assert spectral.minimal_polynomial is suites.minimal_polynomial is counting

    T = random_central(np.random.default_rng(3), dim=64, repeats=True)
    assert len(spectral.eigen_expansion(T).pairs) > 1
    operator = tmp_path / "operator.json"
    operator.write_text(json.dumps(cio.operator_to_json(T)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calc", "eigen", str(operator)]) == 0
    assert calls == []

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--suite", "eigen", "--seed", "7", str(corpus)]) == 0
    instances = cio.read_instances([corpus])["central"]
    assert len(instances) == 100
    assert calls == [spectral.build_mu_T(T).values for T in instances]
    lines = [json.dumps({k: v for k, v in record.items() if k != "seconds"}, sort_keys=True)
             for record in map(json.loads, out.getvalue().splitlines())
             if record.get("check") == ANNIHILATION]
    assert len(lines) == 100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ANNIHILATION_SEED7_SHA256


# ---------------------------------------------------------------------------
# instance digests, each computed once per run_suites call
# ---------------------------------------------------------------------------

def test_verify_digests_each_object_at_most_once_per_call(monkeypatch, corpus):
    calls, inputs = [], []
    real_digest, real_read = suites.op_digest, cio.read_instances

    def counting_digest(obj):
        calls.append(obj)    # kept, so that no two of them share an id
        return real_digest(obj)

    def read_instances(paths):
        bag = real_read(paths)
        inputs.extend(obj for key, objects in bag.items() if key != "lattice"
                      for obj in objects)
        return bag

    monkeypatch.setattr(suites, "op_digest", counting_digest)
    monkeypatch.setattr(cio, "read_instances", read_instances)
    for _ in range(2):
        calls.clear()
        inputs.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--seed", "7", str(corpus)]) == 0
        counts = Counter(map(id, calls))
        # every input object is digested once, and so is each object a suite makes
        assert len(inputs) == 300 and all(counts[id(obj)] == 1 for obj in inputs)
        assert max(counts.values()) == 1


def test_each_record_names_the_op_digest_of_its_object(corpus):
    instances = cio.read_instances([corpus])
    instances["sequence"] = [reciprocal(), geometric(0.5)]
    digests = {kind: {op_digest(obj) for obj in objects}
               for kind, objects in instances.items() if kind != "lattice"}
    reports = run_suites(list(suites.SUITES), instances, seed=3)
    for report in reports:
        read = set().union(*(digests[kind] for kind in suites.SUITES[report.suite]))
        assert {r.instance for r in report.records} <= read
    # and every input object is named by some record
    assert {r.instance for report in reports for r in report.records} == set().union(
        *digests.values())


def test_consecutive_calls_give_the_same_records(corpus):
    instances = cio.read_instances([corpus])
    instances["sequence"] = [reciprocal(), geometric(0.5)]
    first, second = (run_suites(list(suites.SUITES), instances, seed=11) for _ in range(2))
    assert [r.records for r in first] == [r.records for r in second]


# ---------------------------------------------------------------------------
# per-instance generators: a record depends only on its own instance
# ---------------------------------------------------------------------------

def verify_bundle(doc, *options):
    """What ``verify`` prints on a bundle document, written to a temporary file."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", *options, str(path)]) == 0
    return out.getvalue()


def untimed_records(text):
    """The record lines of a verify report, by (suite, check, instance).  Equal
    objects share a digest, and their records must then be equal too."""
    keyed = {}
    for r in map(json.loads, text.splitlines()):
        if "check" in r:
            assert keyed.setdefault((r["suite"], r["check"], r["instance"]), r) == r
    return keyed


class Verified:
    """A bundle's instances, the digests of each one's objects, and its verify
    records, with a short repr for the report of a failing hypothesis example."""

    def __init__(self, instances, digests, records):
        self.instances, self.digests, self.records = instances, digests, records

    def __repr__(self):
        return f"Verified({len(self.instances)} instances)"


@pytest.fixture(scope="module")
def mixed_run(corpus):
    """The reference corpus with two sequence instances, the digests of each
    instance's objects, and the records of ``verify --seed 5`` on all of it."""
    doc = json.loads(corpus.read_text())
    doc["instances"] += [{"kind": "sequence", "sequence": cio.sequence_to_json(op)}
                         for op in (reciprocal(), geometric(0.5))]
    digests = [{op_digest(obj) for key, obj in each.items() if key != "lattice"}
               for each in cio.bundle_from_json(doc)]
    return Verified(doc["instances"], digests,
                    untimed_records(verify_bundle(doc, "--seed", "5")))


# a random subset of the corpus's 102 instances, in a random order, and of the suites
@given(picked=st.lists(st.integers(0, 101), unique=True, min_size=1, max_size=6),
       names=st.lists(st.sampled_from(list(suites.SUITES)), unique=True, min_size=1))
@settings(max_examples=15, deadline=None)
def test_a_sub_bundle_gives_the_full_runs_records_for_its_instances(mixed_run, picked, names):
    instances, digests, full = mixed_run.instances, mixed_run.digests, mixed_run.records
    assert len(instances) == 102
    text = verify_bundle({"instances": [instances[i] for i in picked]}, "--seed", "5",
                         *[arg for name in names for arg in ("--suite", name)])
    named = set().union(*(digests[i] for i in picked))
    assert untimed_records(text) == {key: r for key, r in full.items()
                                     if key[0] in names and key[2] in named}
