"""The input boundary: JSON (de)serialization of lattices, operators, measures,
sequence operators and instance bundles, with complex entries as [re, im] pairs.
Every reader checks what it reads and raises ``InputError`` naming the field at
fault; the README's "Input format" section lists the checks."""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from typing import Any

import numpy as np

from .lattice import CoordinateLattice, MaxNorm, WeightedPNorm
from .measures import FiniteMeasurableSpace, LatticeValuedMeasure
from .operators import CentralOperator, RegularOperator
from .sequence import BUILTIN_RULES, SequenceCentralOperator

#: Largest magnitude an input number may have, so that a product of two stays finite.
MAX_MAGNITUDE = 2.0 ** 500
_NESTING = ("a number", "a list of numbers", "a list of lists of numbers")
#: The fields an instance of each kind must and may hold, besides ``kind``.
_KINDS = {"atomic": ((), ("lattice", "central", "measure", "spectral_measure")),
          "sequence": (("sequence",), ())}


class InputError(ValueError):
    """Input that cannot be read; the message names the field at fault."""


def _fields(doc, where: str, required=(), optional=()) -> dict:
    """``doc`` as an object that holds every required key and no unknown one."""
    if not isinstance(doc, dict):
        raise InputError(f"{where + ': ' if where else ''}expected an object, "
                         f"got {type(doc).__name__}")
    for key in (*doc, *required):
        if key not in doc or key not in required and key not in optional:
            problem = "unknown field" if key in doc else "required field is missing"
            raise InputError(f"{where + '.' if where else ''}{key}: {problem}")
    return doc


def _numbers(value, where: str, depth: int, pairs: bool = False) -> np.ndarray:
    """The ``depth``-deep nested list of real numbers at ``where`` as a float array;
    with ``pairs``, as a complex array of the [re, im] pairs in its innermost lists."""
    arr = np.array(value, dtype=object)  # ragged lists give a shallower array of lists
    if (arr.ndim != depth or not set(map(type, arr.flat)) <= {int, float}
            or pairs and arr.shape[-1] != 2):
        raise InputError(f"{where}: expected {'[re, im] pairs' if pairs else _NESTING[depth]}")
    try:
        arr = arr.astype(float)
    except OverflowError:
        raise InputError(f"{where}: an integer is too large for a float") from None
    ok = np.abs(arr) <= MAX_MAGNITUDE  # false for nan and inf
    if not ok.all():
        index = "".join(f"[{i}]" for i in np.argwhere(~ok)[0])
        raise InputError(f"{where}{index}: expected a finite number of magnitude at most 2**500")
    return arr.view(complex)[..., 0] if pairs else arr  # bit for bit complex(re, im)


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, re-raising its ValueError as an InputError at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _c(v: complex) -> list[float]:
    return [complex(v).real, complex(v).imag]


def norm_to_json(spec) -> dict[str, Any]:
    if isinstance(spec, WeightedPNorm):
        return {"kind": "weighted-p", "weights": list(spec.weights),
                "p": "inf" if spec.p == float("inf") else spec.p}
    if isinstance(spec, MaxNorm):
        return {"kind": "max"}
    raise ValueError(f"norm spec {spec!r} is not serializable")


def norm_from_json(doc, where: str = "norm") -> Any:
    kind = _fields(doc, where, ("kind",), ("weights", "p"))["kind"]
    if kind not in ("max", "weighted-p"):
        raise InputError(f"{where}.kind: expected 'max' or 'weighted-p'")
    _fields(doc, where, ("kind",) if kind == "max" else ("kind", "weights", "p"))
    if kind == "max":
        return MaxNorm()
    p = math.inf if doc["p"] == "inf" else float(_numbers(doc["p"], f"{where}.p", 0))
    return _build(where, WeightedPNorm, tuple(_numbers(doc["weights"], f"{where}.weights", 1)), p)


def lattice_to_json(lat: CoordinateLattice) -> dict[str, Any]:
    return {"dim": lat.dim, "norm": norm_to_json(lat.norm_spec)}


def lattice_from_json(doc, where: str = "lattice") -> CoordinateLattice:
    if type(_fields(doc, where, ("dim", "norm"))["dim"]) is not int:
        raise InputError(f"{where}.dim: expected an integer")
    norm = norm_from_json(doc["norm"], f"{where}.norm")
    return _build(f"{where}.dim", CoordinateLattice, doc["dim"], norm)


def operator_to_json(op) -> dict[str, Any]:
    if not isinstance(op, (CentralOperator, RegularOperator)):
        raise ValueError(f"operator {op!r} is not serializable")
    key = "symbol" if isinstance(op, CentralOperator) else "entries"
    values = np.ascontiguousarray(getattr(op, key))
    # each complex entry as the [re, im] pair of its bits, as _c gives it
    return {"dim": op.lattice.dim, "norm": norm_to_json(op.lattice.norm_spec),
            key: values.view(float).reshape(*values.shape, 2).tolist()}


def operator_from_json(doc, where: str = "operator"):
    _fields(doc, where, (), ("dim", "norm", "symbol", "entries"))
    if ("symbol" in doc) == ("entries" in doc):
        raise InputError(f"{where}: expected exactly one of 'symbol' and 'entries'")
    key, make = ("symbol", CentralOperator) if "symbol" in doc else ("entries", RegularOperator)
    values = _numbers(doc[key], f"{where}.{key}", 2 if key == "symbol" else 3, pairs=True)
    lattice = {"dim": len(values), "norm": {"kind": "max"}}
    lattice.update((k, doc[k]) for k in ("dim", "norm") if k in doc)
    return _build(f"{where}.{key}", make, lattice_from_json(lattice, where), values)


def _central_from_json(doc, where: str) -> CentralOperator:
    """A bundle's central operator: an operator document with a ``symbol``."""
    return operator_from_json(_fields(doc, where, ("symbol",), ("dim", "norm", "symbol")), where)


def measure_to_json(mu: LatticeValuedMeasure) -> dict[str, Any]:
    return {
        "points": list(mu.space.points),
        "atoms": [list(a) for a in mu.space.atoms],
        "values": {str(k): v.tolist() for k, v in enumerate(mu.values)},
    }


def measure_from_json(doc, where: str = "measure") -> LatticeValuedMeasure:
    _fields(doc, where, ("points", "atoms", "values"))
    points, atoms = doc["points"], doc["atoms"]
    if not isinstance(atoms, list) or not all(
            isinstance(x, list) and {type(p) for p in x} <= {str, int} for x in [points, *atoms]):
        raise InputError(f"{where}: points and atoms must be lists of strings and integers")
    space = _build(f"{where}.atoms", FiniteMeasurableSpace, tuple(points), atoms)
    values = _fields(doc["values"], f"{where}.values", [str(k) for k in range(space.n_atoms)])
    rows = _numbers([values[str(k)] for k in range(space.n_atoms)], f"{where}.values", 2)
    return _build(f"{where}.values", LatticeValuedMeasure, space, rows)


def sequence_to_json(op: SequenceCentralOperator) -> dict[str, Any]:
    if op.name not in BUILTIN_RULES:
        raise ValueError("only named builtin rules are serializable")
    return {
        "rule": {"name": op.name, "params": dict(op.params)},
        "sup": op.sup_bound,
        "accumulation": [_c(a) for a in op.accumulation],
    }


def sequence_from_json(doc, where: str = "sequence") -> SequenceCentralOperator:
    _fields(doc, where, ("rule",), ("sup", "accumulation"))
    rule = _fields(doc["rule"], f"{where}.rule", ("name",), ("params",))
    if not isinstance(rule["name"], str) or rule["name"] not in BUILTIN_RULES:
        raise InputError(f"{where}.rule.name: expected one of {', '.join(BUILTIN_RULES)}")
    make, at = BUILTIN_RULES[rule["name"]], f"{where}.rule.params"
    # a rule's own parameter names are those its default operator reports
    params = _fields(rule.get("params", {}), at, (), tuple(make().params))
    params = {key: float(_numbers(value, f"{at}.{key}", 0)) for key, value in params.items()}
    if make is BUILTIN_RULES["constant"]:
        params = {"c": complex(params.get("value_re", 1.0), params.get("value_im", 0.0))}
    op = _build(at, make, **params)
    rebuilt = sequence_to_json(op)
    for key, ndim in (("sup", 0), ("accumulation", 2)):
        if key in doc and not np.array_equal(_numbers(doc[key], f"{where}.{key}", ndim),
                                             rebuilt[key]):
            raise InputError(f"{where}.{key}: expected {rebuilt[key]}, as the rule gives")
    return op


def bundle_to_json(instances) -> dict[str, Any]:
    """The bundle of instances, each a mapping from field to object (see ``_KINDS``)."""
    write = {"lattice": lattice_to_json, "central": operator_to_json, "measure": measure_to_json,
             "spectral_measure": measure_to_json, "sequence": sequence_to_json}
    return {"instances": [{"kind": "sequence" if "sequence" in objects else "atomic",
                           **{key: write[key](obj) for key, obj in objects.items()}}
                          for objects in instances]}


def bundle_from_json(doc) -> list[dict[str, Any]]:
    """The instances of a bundle, each a mapping from field to object (see ``_KINDS``)."""
    read = {"lattice": lattice_from_json, "central": _central_from_json,
            "measure": measure_from_json, "spectral_measure": measure_from_json,
            "sequence": sequence_from_json}
    instances = _fields(doc, "", ("instances",))["instances"]
    if not isinstance(instances, list) or not instances:
        raise InputError("instances: expected a nonempty list of instances")
    out = []
    for i, inst in enumerate(instances):
        try:
            kind = inst.get("kind", "atomic") if isinstance(inst, dict) else "atomic"
            if kind not in ("atomic", "sequence"):
                raise InputError("kind: expected 'atomic' or 'sequence'")
            _fields(inst, "", _KINDS[kind][0], ("kind", *_KINDS[kind][1]))
            objects = {key: read[key](inst[key], key) for key in inst if key != "kind"}
            lattice, central = objects.get("lattice"), objects.get("central")
            if lattice is not None and central is not None and central.lattice != lattice:
                raise InputError("lattice: does not match the lattice of central")
        except InputError as exc:
            raise InputError(f"instance {i}: {exc}") from None
        out.append(objects)
    return out


@contextmanager
def _document(path):
    """The JSON document in a file; an InputError raised while it is read names the file."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # JSON or Unicode decode error, deep nesting
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    try:
        yield doc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_instances(paths) -> dict[str, list]:
    """The objects of the instances in bundle files, by field, as ``run_suites`` takes them."""
    bag: dict[str, list] = defaultdict(list)
    for path in paths:
        with _document(path) as doc:
            for objects in bundle_from_json(doc):
                for key, obj in objects.items():
                    bag[key].append(obj)
    return bag


def read_operator(path):
    """The operator in a file: the sequence or else central operator of a bundle's
    first instance, a bare sequence document or a bare operator."""
    with _document(path) as doc:
        if isinstance(doc, dict) and "instances" in doc:
            first = next(iter(bundle_from_json(doc)), {})
            if not {"sequence", "central"} & first.keys():
                raise InputError("instances: no central or sequence operator in a first instance")
            return first.get("sequence", first.get("central"))
        if isinstance(doc, dict) and "rule" in doc:
            return sequence_from_json(doc)
        return operator_from_json(doc)
