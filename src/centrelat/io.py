"""JSON (de)serialization for lattices, operators, measures, and sequence
operators.  Complex entries are serialized as two-element arrays [re, im]."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .lattice import CoordinateLattice, MaxNorm, WeightedPNorm
from .measures import FiniteMeasurableSpace, LatticeValuedMeasure
from .operators import CentralOperator, RegularOperator
from .sequence import BUILTIN_RULES, SequenceCentralOperator


def _c(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _from_c(v) -> complex:
    return complex(v[0], v[1])


def norm_to_json(spec) -> dict[str, Any]:
    if isinstance(spec, WeightedPNorm):
        return {"kind": "weighted-p", "weights": list(spec.weights),
                "p": "inf" if spec.p == float("inf") else spec.p}
    if isinstance(spec, MaxNorm):
        return {"kind": "max"}
    raise ValueError(f"norm spec {spec!r} is not serializable")


def norm_from_json(doc) -> Any:
    if doc["kind"] == "max":
        return MaxNorm()
    if doc["kind"] == "weighted-p":
        p = float("inf") if doc["p"] == "inf" else float(doc["p"])
        return WeightedPNorm(tuple(float(w) for w in doc["weights"]), p)
    raise ValueError(f"unknown norm kind {doc['kind']!r}")


def lattice_to_json(lat: CoordinateLattice) -> dict[str, Any]:
    return {"dim": lat.dim, "norm": norm_to_json(lat.norm_spec)}


def lattice_from_json(doc) -> CoordinateLattice:
    return CoordinateLattice(int(doc["dim"]), norm_from_json(doc["norm"]))


def operator_to_json(op) -> dict[str, Any]:
    if isinstance(op, CentralOperator):
        return {"dim": op.lattice.dim, "norm": norm_to_json(op.lattice.norm_spec),
                "symbol": [_c(v) for v in op.symbol]}
    if isinstance(op, RegularOperator):
        return {"dim": op.lattice.dim, "norm": norm_to_json(op.lattice.norm_spec),
                "entries": [[_c(v) for v in row] for row in op.entries]}
    raise ValueError(f"operator {op!r} is not serializable")


def operator_from_json(doc):
    norm = norm_from_json(doc.get("norm", {"kind": "max"}))
    if "symbol" in doc:
        symbol = np.array([_from_c(v) for v in doc["symbol"]])
        lat = CoordinateLattice(int(doc.get("dim", len(symbol))), norm)
        return CentralOperator(lat, symbol)
    entries = np.array([[_from_c(v) for v in row] for row in doc["entries"]])
    lat = CoordinateLattice(int(doc.get("dim", len(entries))), norm)
    return RegularOperator(lat, entries)


def measure_to_json(mu: LatticeValuedMeasure) -> dict[str, Any]:
    return {
        "points": list(mu.space.points),
        "atoms": [list(a) for a in mu.space.atoms],
        "values": {str(k): v.tolist() for k, v in enumerate(mu.values)},
    }


def measure_from_json(doc) -> LatticeValuedMeasure:
    space = FiniteMeasurableSpace(tuple(doc["points"]),
                                  tuple(tuple(a) for a in doc["atoms"]))
    return LatticeValuedMeasure(space, [doc["values"][str(k)] for k in range(space.n_atoms)])


def sequence_to_json(op: SequenceCentralOperator) -> dict[str, Any]:
    if op.name not in BUILTIN_RULES:
        raise ValueError("only named builtin rules are serializable")
    return {
        "rule": {"name": op.name, "params": dict(op.params)},
        "sup": op.sup_bound,
        "accumulation": [_c(a) for a in op.accumulation],
    }


def sequence_from_json(doc) -> SequenceCentralOperator:
    name = doc["rule"]["name"]
    params = dict(doc["rule"].get("params", {}))
    if name not in BUILTIN_RULES:
        raise ValueError(f"unknown sequence rule {name!r}")
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"sequence parameter {key!r} must be finite")
    if name == "constant":
        value = complex(params.pop("value_re", 1.0), params.pop("value_im", 0.0))
        return BUILTIN_RULES[name](value)
    return BUILTIN_RULES[name](**params)
