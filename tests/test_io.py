"""Tests for the input boundary: every ``*_to_json``/``*_from_json`` pair
round-trips through JSON text, and each reader names the field it rejects."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrelat import io as cio
from centrelat.lattice import CoordinateLattice, MaxNorm, WeightedPNorm
from centrelat.measures import FiniteMeasurableSpace, LatticeValuedMeasure
from centrelat.operators import CentralOperator, RegularOperator
from centrelat.sequence import BUILTIN_RULES


def through_text(doc):
    return json.loads(json.dumps(doc))


_finite = st.floats(-1e100, 1e100, allow_nan=False)
_complex = st.builds(complex, _finite, _finite)


@st.composite
def _lattices(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        return CoordinateLattice(dim, MaxNorm())
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
    p = draw(st.one_of(st.just(math.inf), st.floats(1.0, 10.0)))
    return CoordinateLattice(dim, WeightedPNorm(tuple(weights), p))


@st.composite
def _central_operators(draw):
    lat = draw(_lattices())
    n = lat.dim
    return CentralOperator(lat, np.array(draw(st.lists(_complex, min_size=n, max_size=n)),
                                         dtype=complex))


@st.composite
def _operators(draw):
    """Central operators, and regular ones in the bare ``entries`` form."""
    if draw(st.booleans()):
        return draw(_central_operators())
    lat = draw(_lattices())
    n = lat.dim
    entries = draw(st.lists(_complex, min_size=n * n, max_size=n * n))
    return RegularOperator(lat, np.array(entries, dtype=complex).reshape(n, n))


@st.composite
def _measures(draw):
    """Measures on string and integer points, with atoms coarser than singletons."""
    points = draw(st.lists(st.one_of(st.text(max_size=3), st.integers(-5, 5)),
                           min_size=1, max_size=7, unique=True))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points)))
    atoms = tuple(tuple(p for p, lab in zip(points, labels) if lab == k)
                  for k in sorted(set(labels)))
    dim = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(0.0, 1e100), min_size=len(atoms) * dim,
                           max_size=len(atoms) * dim))
    return LatticeValuedMeasure(FiniteMeasurableSpace(tuple(points), atoms),
                                np.array(values).reshape(len(atoms), dim))


_RULE_ARGS = {
    "reciprocal": st.just(()),
    "constant": st.tuples(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                             allow_infinity=False)),
    "shifted_reciprocal": st.tuples(st.floats(-2.0, 2.0)),
    "geometric": st.tuples(st.floats(0.01, 0.99)),
}


def test_sequence_round_trip_covers_every_builtin_rule():
    assert set(_RULE_ARGS) == set(BUILTIN_RULES)


@given(_lattices())
@settings(max_examples=100, deadline=None)
def test_norm_and_lattice_round_trip(lat):
    assert cio.norm_from_json(through_text(cio.norm_to_json(lat.norm_spec))) == lat.norm_spec
    assert cio.lattice_from_json(through_text(cio.lattice_to_json(lat))) == lat


@given(_operators())
@settings(max_examples=100, deadline=None)
def test_operator_round_trip_is_bit_exact(op):
    back = cio.operator_from_json(through_text(cio.operator_to_json(op)))
    assert type(back) is type(op) and back.lattice == op.lattice
    attr = "symbol" if isinstance(op, CentralOperator) else "entries"
    # bytes, so that the sign of zero parts counts too
    assert getattr(back, attr).tobytes() == getattr(op, attr).tobytes()


_EDGE = st.sampled_from((0.0, -0.0, 2.0 ** 500, -(2.0 ** 500), math.nextafter(2.0 ** 500, 0),
                         5e-324, -5e-324, 1 / 3, -1e-300))


def _per_entry(op):
    """operator_to_json's document built one entry at a time through ``_c``."""
    doc = {"dim": op.lattice.dim, "norm": cio.norm_to_json(op.lattice.norm_spec)}
    if isinstance(op, CentralOperator):
        return {**doc, "symbol": [cio._c(v) for v in op.symbol]}
    return {**doc, "entries": [[cio._c(v) for v in row] for row in op.entries]}


@given(_operators(), st.data())
@settings(max_examples=200, deadline=None)
def test_operator_to_json_matches_the_per_entry_pairs(op, data):
    values = op.symbol if isinstance(op, CentralOperator) else op.entries
    # signed zeros, subnormals and magnitudes at the 2**500 input limit
    edges = data.draw(st.lists(st.tuples(_EDGE, _EDGE), max_size=values.size))
    values = values.copy()
    values.flat[:len(edges)] = [complex(re, im) for re, im in edges]
    op = type(op)(op.lattice, values)
    want = json.dumps(_per_entry(op), sort_keys=True)
    assert json.dumps(cio.operator_to_json(op), sort_keys=True) == want


def test_operator_to_json_reads_a_strided_symbol():
    values = np.array([1 + 2j, -0.0 - 0.0j, 3j, 2.0 ** 500, 0.5, -1.0])
    op = CentralOperator(CoordinateLattice(3), values[::2])
    assert not op.symbol.flags.c_contiguous
    assert cio.operator_to_json(op) == _per_entry(op)


@given(_measures())
@settings(max_examples=100, deadline=None)
def test_measure_round_trip(mu):
    back = cio.measure_from_json(through_text(cio.measure_to_json(mu)))
    assert back.space == mu.space
    assert back.values.tobytes() == mu.values.tobytes()


@given(st.sampled_from(sorted(_RULE_ARGS)).flatmap(
    lambda name: _RULE_ARGS[name].map(lambda args: (name, args))))
@settings(max_examples=100, deadline=None)
def test_sequence_round_trip_checks_sup_and_accumulation(named):
    name, args = named
    op = BUILTIN_RULES[name](*args)
    doc = through_text(cio.sequence_to_json(op))
    assert "sup" in doc and "accumulation" in doc
    back = cio.sequence_from_json(doc)
    assert (back.name, dict(back.params), back.sup_bound) == (op.name, dict(op.params),
                                                              op.sup_bound)
    assert np.array_equal(back.accumulation, op.accumulation)


@given(_central_operators(), _measures(), st.sampled_from(sorted(BUILTIN_RULES)))
@settings(max_examples=50, deadline=None)
def test_bundle_round_trip(op, mu, rule):
    instances = [{"lattice": op.lattice, "central": op, "measure": mu},
                 {"sequence": BUILTIN_RULES[rule]()}]
    doc = through_text(cio.bundle_to_json(instances))
    assert [inst["kind"] for inst in doc["instances"]] == ["atomic", "sequence"]
    assert cio.bundle_to_json(cio.bundle_from_json(doc)) == doc


def test_input_error_is_a_value_error():
    assert issubclass(cio.InputError, ValueError)


_OPERATOR = {"dim": 2, "symbol": [[1, 0], [2, 0]]}


# the rows of test_malformed_input_exit_2 in tests/test_cli.py cover the other checks
@pytest.mark.parametrize("read,doc,field", [
    (cio.operator_from_json, {**_OPERATOR, "dim": True}, "operator.dim:"),
    (cio.operator_from_json, {**_OPERATOR, "symbol": [[1, 0], [True, 0]]}, "operator.symbol:"),
    (cio.operator_from_json, {**_OPERATOR, "symbol": [[1, 0], [2, 0]], "entries": []},
     "operator:"),
    (cio.operator_from_json, {**_OPERATOR, "symbl": []}, "operator.symbl: unknown field"),
    (cio.operator_from_json, {**_OPERATOR, "norm": {"kind": "max", "p": 2}},
     "operator.norm.p: unknown field"),
    (cio.lattice_from_json, {"dim": 0, "norm": {"kind": "max"}}, "lattice.dim: dim must be"),
    (cio.measure_from_json, {"points": [0, 1], "atoms": [[0], [1]],
                             "values": {"0": [1.0], "1": [-1.0]}}, "measure.values:"),
    (cio.measure_from_json, {"points": [0, 1], "atoms": [[0, 1]],
                             "values": {"0": [1.0], "1": [1.0]}}, "measure.values.1:"),
    (cio.measure_from_json, {"points": [0, [1]], "atoms": [[0], [1]],
                             "values": {"0": [1.0], "1": [1.0]}}, "measure:"),
    (cio.sequence_from_json, {"rule": {"name": "geometric", "params": {"ratio": 2.0}}},
     "sequence.rule.params: ratio must lie in (0, 1)"),
    (cio.bundle_from_json, {"instances": [{"kind": "sequence"}]},
     "instance 0: sequence: required field is missing"),
    (cio.measure_from_json, {"points": [0, 1], "atoms": [[0, 0], [1]],
                             "values": {"0": [1.0], "1": [1.0]}}, "measure.atoms:"),
])
def test_readers_name_the_field_at_fault(read, doc, field):
    with pytest.raises(cio.InputError) as raised:
        read(doc)
    assert str(raised.value).startswith(field)


def test_read_operator_takes_a_bundle_a_bare_sequence_or_a_bare_operator(tmp_path):
    sequence = cio.sequence_to_json(BUILTIN_RULES["reciprocal"]())
    path = tmp_path / "op.json"
    for doc in ({"instances": [{"kind": "sequence", "sequence": sequence}]}, sequence):
        path.write_text(json.dumps(doc))
        assert cio.read_operator(path).name == "reciprocal"
    path.write_text(json.dumps(_OPERATOR))
    assert cio.read_operator(path).symbol.tolist() == [1, 2]


@pytest.mark.parametrize("text", [b"{", b'{"instances": [\xff]}', b"[" * 100_000])
def test_unparsable_files_name_the_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(cio.InputError, match=f"^{re.escape(str(path))}: not valid JSON"):
        cio.read_instances([path])


def test_missing_file_is_named(tmp_path):
    with pytest.raises(cio.InputError, match="missing.json: No such file"):
        cio.read_operator(tmp_path / "missing.json")
