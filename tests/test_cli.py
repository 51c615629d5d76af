"""Tests for the batch interface: generation determinism, the verify
exit-code contract, report structure, and calc artifacts."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat import suites
from centrelat.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name="inst.json", extra=()):
    path = tmp_path / name
    code, _, _ = run(capsys, ["gen", "--seed", "7", "--dim", "3..6", "--count", "4",
                              "--out", str(path), *extra])
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_deterministic(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "a.json")
    b = gen_file(tmp_path, capsys, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_different_seed_differs(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "a.json")
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, ["gen", "--seed", "8", "--dim", "3..6", "--count", "4",
                              "--out", str(path)])
    assert code == 0
    assert a.read_bytes() != path.read_bytes()


def test_gen_count_and_dim_range(tmp_path, capsys):
    path = tmp_path / "many.json"
    code, _, _ = run(capsys, ["gen", "--seed", "1", "--dim", "2..16", "--count", "100",
                              "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["instances"]) == 100
    dims = [inst["lattice"]["dim"] for inst in doc["instances"]]
    assert min(dims) >= 2 and max(dims) <= 16
    assert len(set(dims)) > 5  # spread over the range


def test_gen_sequence_mode(capsys):
    code, out, _ = run(capsys, ["gen", "--mode", "sequence", "--rule", "reciprocal"])
    assert code == 0
    doc = json.loads(out)
    inst = doc["instances"][0]
    assert inst["kind"] == "sequence"
    assert inst["sequence"]["rule"]["name"] == "reciprocal"
    assert inst["sequence"]["accumulation"] == [[0.0, 0.0]]


def test_gen_usage_errors(capsys):
    assert run(capsys, ["gen", "--dim", "5..2"])[0] == 2
    assert run(capsys, ["gen", "--count", "0"])[0] == 2
    assert run(capsys, ["gen", "--mode", "sequence", "--rule", "nope"])[0] == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_suites_pass(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["pass"] is True and summary["n_failed"] == 0
    assert set(summary["suites"]) == {"cstar", "norms", "fpr", "polar", "localize",
                                      "integral", "riesz", "spectral", "calculus",
                                      "eigen", "commutant", "compactness"}
    # every record line is valid JSON with a verdict
    for line in lines:
        assert isinstance(line, dict)


def test_verify_suite_subset(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, ["verify", str(path), "--suite", "cstar",
                                "--suite", "polar"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["suites"] == ["cstar", "polar"]


def test_verify_suite_none_empty_report(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, ["verify", str(path), "--suite", "none"])
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"pass": True, "suites": [], "n_failed": 0}


def test_verify_unknown_suite_exit_2(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, _, err = run(capsys, ["verify", str(path), "--suite", "bogus"])
    assert code == 2 and "bogus" in err


def test_verify_unreadable_file_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err


def test_verify_fault_injection_exit_1(tmp_path, capsys):
    # hand-edit a projection value to break idempotence: the report must fail
    # and name the product-law check
    path = gen_file(tmp_path, capsys)
    doc = json.loads(path.read_text())
    sm = doc["instances"][0]["spectral_measure"]
    key = next(iter(sm["values"]))
    sm["values"][key][0] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(bad), "--suite", "spectral"])
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["pass"] is False
    assert summary["first_failure"]["check"] == "spectral-measure-product-law"
    failed = [l for l in lines if l.get("ok") is False]
    assert failed and failed[0]["check"] == "spectral-measure-product-law"


# ---------------------------------------------------------------------------
# calc
# ---------------------------------------------------------------------------

def write_op(tmp_path, doc, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_calc_spectrum_frozen(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 3, "symbol": [[1, 0], [1, 0], [2, 0]]})
    code, out, _ = run(capsys, ["calc", "spectrum", str(path)])
    assert code == 0
    assert json.loads(out) == {"spectrum": [[1.0, 0.0], [2.0, 0.0]]}


def test_calc_polar_frozen(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 2, "symbol": [[3, 4], [0, 2]]})
    code, out, _ = run(capsys, ["calc", "polar", str(path)])
    assert code == 0
    doc = json.loads(out)["polar"]
    assert doc["positive"]["symbol"] == [[5.0, 0.0], [2.0, 0.0]]
    flat = [x for pair in doc["unitary"]["symbol"] for x in pair]
    assert flat == pytest.approx([0.6, 0.8, 0.0, 1.0], abs=1e-12)


def test_calc_mu_t_and_eigen(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 3, "symbol": [[1, 0], [1, 0], [2, 0]]})
    code, out, _ = run(capsys, ["calc", "mu_t", str(path)])
    assert code == 0
    mu = json.loads(out)["mu_t"]
    assert sorted(mu.values()) == [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    code, out, _ = run(capsys, ["calc", "eigen", str(path)])
    assert code == 0
    eig = json.loads(out)["eigen"]
    assert {tuple(e["value"]) for e in eig} == {(1.0, 0.0), (2.0, 0.0)}


def test_calc_rho_named_function(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 2, "symbol": [[4, 0], [9, 0]]})
    code, out, _ = run(capsys, ["calc", "rho", str(path), "--fn", "sqrt"])
    assert code == 0
    doc = json.loads(out)["rho"]
    assert doc["symbol"] == [[2.0, 0.0], [3.0, 0.0]]
    code, _, err = run(capsys, ["calc", "rho", str(path), "--fn", "nope"])
    assert code == 2


def test_calc_non_central_exit_1(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 2, "entries": [[[1, 0], [1, 0]], [[0, 0], [2, 0]]]})
    code, out, _ = run(capsys, ["calc", "spectrum", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "operator is not central"
    assert doc["max_off_diagonal"] == pytest.approx(1.0)


def test_calc_central_entries_accepted(tmp_path, capsys):
    path = write_op(tmp_path, {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})
    code, out, _ = run(capsys, ["calc", "spectrum", str(path)])
    assert code == 0
    assert json.loads(out) == {"spectrum": [[1.0, 0.0], [2.0, 0.0]]}


def test_calc_freudenthal_sequence(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    code, out, _ = run(capsys, ["gen", "--mode", "sequence", "--rule", "reciprocal",
                                "--out", str(seq)])
    assert code == 0
    code, out, _ = run(capsys, ["calc", "freudenthal", str(seq), "--eps", "0.1"])
    assert code == 0
    doc = json.loads(out)["freudenthal"]
    coeffs = {complex(a, b) for a, b in doc["coefficients"]}
    assert {1.0, 0.5, 0.0} <= coeffs
    assert doc["error"] <= 0.1


def test_calc_unreadable_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["calc", "spectrum", str(tmp_path / "nope.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# malformed input: exit 2 with an error line, never a traceback
# ---------------------------------------------------------------------------

_NAN_SYMBOL = '{"dim": 2, "symbol": [[NaN, 0], [1, 0]]}'
_ATOMIC = '{"dim": 2, "symbol": [[1, 0], [2, 0]]}'
_SEQUENCE = ('{"instances": [{"kind": "sequence", "sequence": {"accumulation": [[0.0, 0.0]], '
             '"rule": {"name": "reciprocal", "params": {}}, "sup": 1.0}}]}')
_HUGE = '{"dim": 2, "symbol": [[1e200, 0], [2, 0]]}'  # finite, but its square is not
_CALC = ("calc", "spectrum")
_VERIFY = ("verify",)
_MALFORMED = {
    "calc-nan-symbol": (_CALC, _NAN_SYMBOL),
    "calc-scalar-symbol": (_CALC, '{"symbol": 5}'),
    "calc-short-entry": (_CALC, '{"symbol": [[1]]}'),
    "calc-dim-mismatch": (_CALC, '{"dim": 3, "symbol": [[1, 0], [2, 0]]}'),
    "calc-top-level-list": (_CALC, '[1, 2]'),
    "calc-empty-bundle": (_CALC, '{"instances": []}'),
    "calc-unknown-rule": (_CALC, '{"instances": [{"kind": "sequence", '
                                 '"sequence": {"rule": {"name": "nope"}}}]}'),
    "calc-eps-zero": (("calc", "freudenthal", "--eps", "0"), _ATOMIC),
    "calc-eps-negative": (("calc", "freudenthal", "--eps=-0.5"), _ATOMIC),
    "calc-eps-nan": (("calc", "freudenthal", "--eps", "nan"), _ATOMIC),
    "calc-sequence-eps-zero": (("calc", "freudenthal", "--eps", "0"), _SEQUENCE),
    "calc-sequence-eps-negative": (("calc", "freudenthal", "--eps=-0.5"), _SEQUENCE),
    "calc-sequence-eps-nan": (("calc", "freudenthal", "--eps", "nan"), _SEQUENCE),
    # a positive eps that the reciprocal tail rule does not reach within its prefix
    "calc-sequence-eps-unreached": (("calc", "freudenthal", "--eps", "1e-9"), _SEQUENCE),
    "verify-top-level-list": (_VERIFY, '[1, 2]'),
    "verify-scalar-instances": (_VERIFY, '{"instances": 5}'),
    "verify-empty-bundle": (_VERIFY, '{"instances": []}'),
    "verify-string-instances": (_VERIFY, '{"instances": "ab"}'),
    "verify-scalar-instance": (_VERIFY, '{"instances": [5]}'),
    "verify-nan-symbol": (_VERIFY, '{"instances": [{"central": %s}]}' % _NAN_SYMBOL),
    "verify-scalar-symbol": (_VERIFY, '{"instances": [{"central": {"symbol": 5}}]}'),
    "verify-short-entry": (_VERIFY, '{"instances": [{"central": {"symbol": [[1]]}}]}'),
    "verify-nan-shift": (_VERIFY, '{"instances": [{"kind": "sequence", "sequence": '
                                  '{"rule": {"name": "shifted_reciprocal", '
                                  '"params": {"shift": NaN}}}}]}'),
    "verify-nan-constant": (_VERIFY, '{"instances": [{"kind": "sequence", "sequence": '
                                     '{"rule": {"name": "constant", '
                                     '"params": {"value_re": 1.0, "value_im": NaN}}}}]}'),
    "verify-nan-measure": (_VERIFY, '{"instances": [{"measure": {"points": [0, 1], '
                                    '"atoms": [[0], [1]], '
                                    '"values": {"0": [0.5, NaN], "1": [1, 0]}}}]}'),
    # each row below also names the field at fault, see _FIELDS
    "verify-unknown-instance-key": (_VERIFY, '{"instances": [{"centrl": %s}]}' % _ATOMIC),
    "verify-unknown-top-level-key": (_VERIFY, '{"instancs": [{"central": %s}]}' % _ATOMIC),
    "verify-fractional-dim": (_VERIFY, '{"instances": [{"central": '
                                       '{"dim": 2.5, "symbol": [[1, 0], [2, 0]]}}]}'),
    "verify-triple-entry": (_VERIFY, '{"instances": [{"central": '
                                     '{"dim": 2, "symbol": [[1, 0, 7], [2, 0]]}}]}'),
    "verify-wrong-sup": (_VERIFY, _SEQUENCE.replace('"sup": 1.0', '"sup": -5')),
    "verify-wrong-accumulation": (_VERIFY, _SEQUENCE.replace("[[0.0, 0.0]]", "[[3, 0]]")),
    "verify-lattice-mismatch": (_VERIFY, '{"instances": [{"lattice": {"dim": 5, "norm": '
                                         '{"kind": "max"}}, "central": %s}]}' % _ATOMIC),
    "verify-extra-measure-value": (_VERIFY, '{"instances": [{"measure": {"points": [0, 1], '
                                            '"atoms": [[0], [1]], "values": {"0": [1, 0], '
                                            '"1": [0, 1], "2": [1, 1]}}}]}'),
    "verify-overflowing-p": (_VERIFY, '{"instances": [{"central": {"dim": 2, "norm": '
                                      '{"kind": "weighted-p", "weights": [1, 1], "p": 1e999}, '
                                      '"symbol": [[1, 0], [2, 0]]}}]}'),
    "verify-unknown-rule-parameter": (_VERIFY, '{"instances": [{"kind": "sequence", '
                                               '"sequence": {"rule": {"name": "constant", '
                                               '"params": {"foo": 1}}}}]}'),
    "verify-nan-weight": (_VERIFY, '{"instances": [{"central": {"dim": 2, "norm": '
                                   '{"kind": "weighted-p", "weights": [NaN, 1], "p": 2}, '
                                   '"symbol": [[1, 0], [2, 0]]}}]}'),
    "verify-inf-weight": (_VERIFY, '{"instances": [{"central": {"dim": 2, "norm": '
                                   '{"kind": "weighted-p", "weights": [Infinity, 1], "p": 2}, '
                                   '"symbol": [[1, 0], [2, 0]]}}]}'),
    "verify-huge-symbol": (_VERIFY, '{"instances": [{"central": %s}]}' % _HUGE),
    "calc-huge-square": (("calc", "rho", "--fn", "square"), _HUGE),
}
_FIELDS = {
    "verify-empty-bundle": "instances: expected a nonempty list of instances",
    "verify-unknown-instance-key": "instance 0: centrl: unknown field",
    "verify-unknown-top-level-key": "instancs: unknown field",
    "verify-fractional-dim": "instance 0: central.dim: expected an integer",
    "verify-triple-entry": "instance 0: central.symbol: expected [re, im] pairs",
    "verify-wrong-sup": "instance 0: sequence.sup:",
    "verify-wrong-accumulation": "instance 0: sequence.accumulation:",
    "verify-lattice-mismatch": "instance 0: lattice:",
    "verify-extra-measure-value": "instance 0: measure.values.2: unknown field",
    "verify-overflowing-p": "instance 0: central.norm.p:",
    "verify-unknown-rule-parameter": "instance 0: sequence.rule.params.foo: unknown field",
    "verify-nan-weight": "instance 0: central.norm.weights[0]:",
    "verify-inf-weight": "instance 0: central.norm.weights[0]:",
    "verify-huge-symbol": "instance 0: central.symbol[0][0]:",
    "calc-huge-square": "operator.symbol[0][0]:",
}


@pytest.mark.parametrize("name,argv,text", [(name, *row) for name, row in _MALFORMED.items()],
                         ids=list(_MALFORMED))
def test_malformed_input_exit_2(tmp_path, capsys, name, argv, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, [*argv, str(path)])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err and out == ""
    assert len(err.splitlines()) == 1
    if name in _FIELDS:
        assert f"error: cannot read {path}: {_FIELDS[name]}" in err


def test_calc_freudenthal_atomic_positive_eps(tmp_path, capsys):
    path = write_op(tmp_path, json.loads(_ATOMIC))
    code, out, _ = run(capsys, ["calc", "freudenthal", str(path), "--eps", "0.5"])
    assert code == 0
    assert json.loads(out) == {"freudenthal": {"coefficients": [[1.0, 0.0], [2.0, 0.0]],
                                               "error": 0.0}}


# ---------------------------------------------------------------------------
# mutations of a small valid bundle: exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

_NORM = {"kind": "weighted-p", "weights": [1.0, 2.0], "p": "inf"}
_SMALL_BUNDLE = {"instances": [
    {"kind": "atomic",
     "lattice": {"dim": 2, "norm": _NORM},
     "central": {"dim": 2, "norm": _NORM, "symbol": [[0.5, -0.25], [2.0, 0.0]]},
     "regular": {"dim": 2, "norm": _NORM,
                 "entries": [[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [2.0, 0.0]]]},
     "measure": {"points": [0, 1, 2], "atoms": [[0, 1], [2]],
                 "values": {"0": [0.5, 1.0], "1": [1.5, 0.25]}},
     "spectral_measure": {"points": ["a", "b", "c"], "atoms": [["a", "c"], ["b"]],
                          "values": {"0": [1.0, 0.0], "1": [0.0, 1.0]}}},
    {"kind": "sequence",
     "sequence": {"rule": {"name": "shifted_reciprocal", "params": {"shift": 0.5}},
                  "sup": 1.5, "accumulation": [[0.5, 0.0]]}},
]}


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


_NODES = list(_nodes(_SMALL_BUNDLE))
_LEAVES = [path for path, value in _NODES if not isinstance(value, (dict, list))]
_KEYS = [path for path, _ in _NODES if path and isinstance(path[-1], str)]
_OBJECTS = [path for path, value in _NODES if isinstance(value, dict)]
_NON_FINITE = (math.nan, math.inf, -math.inf, 1e300)  # 1e300 is above the 2**500 bound
_MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(_LEAVES),
              st.sampled_from([*_NON_FINITE, -1, 2.5, True, None, "x", [], {}])),
    st.tuples(st.just("delete"), st.sampled_from(_KEYS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(_OBJECTS), st.none()),
)


def _mutated(kind, path, value):
    doc = copy.deepcopy(_SMALL_BUNDLE)
    *parents, last = path if kind != "add" else (*path, "unknown_key")
    node = doc
    for key in parents:
        node = node[key]
    if kind == "delete":
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return json.dumps(doc)


def test_verify_overflowing_minimal_polynomial_exit_1(tmp_path, capsys):
    # in-bound symbols whose minimal polynomial overflows fail its record,
    # with no traceback and no warning (filterwarnings = error)
    symbol = [[1e100, 0], [2e100, 0], [3e100, 0], [4e100, 0]]
    path = write_op(tmp_path, {"instances": [{"central": {"symbol": symbol}}]})
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 1 and err == ""
    failed = {json.loads(line).get("check") for line in out.splitlines()
              if json.loads(line).get("ok") is False}
    assert failed == {"minimal-polynomial-annihilation"}


def _strict_json(line):
    """``line`` parsed as standard JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=reject)


def test_verify_prints_non_finite_deviations_as_null(tmp_path, capsys, monkeypatch):
    # NaN from an overflowing minimal polynomial
    symbol = [[1e100, 0], [2e100, 0], [3e100, 0], [4e100, 0]]
    path = write_op(tmp_path, {"instances": [{"central": {"symbol": symbol}}]})
    code, out, _ = run(capsys, ["verify", str(path)])
    docs = [_strict_json(line) for line in out.splitlines()]
    assert code == 1
    assert [d["max_deviation"] for d in docs if d.get("ok") is False] == [None]
    assert docs[-1]["first_failure"]["max_deviation"] is None

    # inf from a guarded check that raises
    def block_eigenvalue_deviation(mu):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(suites, "block_eigenvalue_deviation", block_eigenvalue_deviation)
    path = write_op(tmp_path, _SMALL_BUNDLE, "small.json")
    code, out, _ = run(capsys, ["verify", "--suite", "spectral", str(path)])
    docs = [_strict_json(line) for line in out.splitlines()]
    failed = [d for d in docs if d.get("ok") is False]
    assert code == 1
    assert [d["check"] for d in failed] == ["symbol-spectrum-matches-block-eigenvalues"]
    assert failed[0]["max_deviation"] is None
    assert docs[-1]["first_failure"] == failed[0]


def test_small_bundle_passes(tmp_path, capsys):
    path = write_op(tmp_path, _SMALL_BUNDLE)
    assert run(capsys, ["verify", str(path)])[0] == 0


@given(_MUTATIONS)
@settings(max_examples=120, deadline=None)
def test_verify_contract_holds_under_mutation(mutation):
    kind, path, value = mutation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle.json")
        with open(bundle, "w") as fh:
            fh.write(_mutated(kind, path, value))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", bundle])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
    if kind == "add" or any(value is v for v in _NON_FINITE):
        assert code == 2, (kind, path, value)
