"""Batch interface: generate instances, run verification suites, compute
spectral objects.

Subcommands:
    gen     deterministic instance generation (atomic or sequence mode)
    verify  run theorem-verification suites over instance files
    calc    compute a spectral artifact for one operator

Reports stream one JSON object per line.  Exit codes: 0 success, 1 failed
check or non-central input, 2 usage/unreadable input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import io as cio
from .generate import random_central, random_lattice, random_measure, random_projection_measure
from .operators import is_central, polar
from .sequence import BUILTIN_RULES, CertificateError, SequenceCentralOperator, freudenthal_net
from .spectral import build_mu_T, freudenthal_approx, rho_T, spectrum
from .suites import SUITES, Record, run_suites

CALC_FUNCTIONS = {
    "identity": lambda v: v,
    "conj": lambda v: v.conjugate(),
    "abs": lambda v: abs(v),
    "square": lambda v: v * v,
    "sqrt": lambda v: complex(v) ** 0.5,
    "one": lambda v: 1.0,
}


def _parse_dims(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid dim range {text!r}")
    return lo, hi


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _instances(args, lo: int, hi: int) -> list[dict]:
    """The instances ``gen`` writes, from ``--seed``, ``--mode`` and ``--count``."""
    if args.mode == "sequence":
        return [{"sequence": BUILTIN_RULES[args.rule]()} for _ in range(args.count)]
    rng = np.random.default_rng(args.seed)
    instances = []
    for _ in range(args.count):
        dim = int(rng.integers(lo, hi + 1))
        lattice = random_lattice(rng, dim)
        instances.append({
            "lattice": lattice,
            "central": random_central(rng, lattice=lattice),
            "measure": random_measure(rng, dim=dim),
            "spectral_measure": random_projection_measure(rng, dim),
        })
    return instances


def cmd_gen(args) -> int:
    try:
        lo, hi = _parse_dims(args.dim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.count < 1:
        print("error: --count must be positive", file=sys.stderr)
        return 2
    try:  # --out is opened before the work, so an unwritable path costs nothing
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            print(_dump(cio.bundle_to_json(_instances(args, lo, hi))), file=out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    suites = list(dict.fromkeys(args.suite or SUITES))  # each suite once, first mention first
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(f"error: unknown suite {unknown[0]!r}", file=sys.stderr)
        return 2
    try:
        instances = cio.read_instances(args.instances)
    except cio.InputError as exc:
        print(f"error: cannot read {exc}", file=sys.stderr)
        return 2
    reports = run_suites(suites, instances, seed=args.seed)

    first_failure: Record | None = None
    for report in reports:
        # merge deterministically by instance digest order within each suite
        for record in sorted(report.records, key=lambda r: (r.instance, r.check)):
            print(_dump(record.to_json()))
            if not record.ok and first_failure is None:
                first_failure = record
        print(_dump(report.to_json()))
    overall = all(r.passed for r in reports)
    summary = {"pass": overall, "suites": [r.suite for r in reports],
               "n_failed": sum(sum(not rec.ok for rec in r.records) for r in reports)}
    if first_failure is not None:
        summary["first_failure"] = first_failure.to_json()
    print(_dump(summary))
    return 0 if overall else 1


def cmd_calc(args) -> int:
    if not args.eps > 0:    # also rejects nan
        print(f"error: --eps must be positive, got {args.eps}", file=sys.stderr)
        return 2
    try:
        op = cio.read_operator(args.operator)
    except cio.InputError as exc:
        print(f"error: cannot read {exc}", file=sys.stderr)
        return 2

    if isinstance(op, SequenceCentralOperator):
        if args.request != "freudenthal":
            print("error: only the freudenthal request supports sequence operators",
                  file=sys.stderr)
            return 2
        try:
            net = freudenthal_net(op, args.eps)
        except CertificateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(_dump({"freudenthal": {
            "coefficients": [[c.real, c.imag] for c in net.coefficients],
            "breakpoint": net.breakpoint,
            "error": net.certified_error,
        }}))
        return 0

    T = op
    if hasattr(op, "entries"):
        verdict = is_central(op)
        if not verdict:
            print(_dump({"error": "operator is not central",
                         "max_off_diagonal": verdict.max_off_diagonal,
                         "where": list(verdict.where)}))
            return 1
        T = verdict.operator

    if args.request == "spectrum":
        spec = spectrum(T)
        print(_dump({"spectrum": [[v.real, v.imag] for v in spec.attained]}))
    elif args.request in ("mu_t", "eigen"):
        # T = sum of lambda P_lambda: the values, and each coordinate's band
        mu = build_mu_T(T)
        print(_dump({args.request: {"values": [[v.real, v.imag] for v in mu.values],
                                    "labels": mu.labels.tolist()}}))
    elif args.request == "rho":
        print(_dump({"rho": cio.operator_to_json(rho_T(T, CALC_FUNCTIONS[args.fn]))}))
    elif args.request == "polar":
        p = polar(T)
        print(_dump({"polar": {"positive": cio.operator_to_json(p.positive),
                               "unitary": cio.operator_to_json(p.unitary)}}))
    else:  # freudenthal; argparse admits no other request
        approx = freudenthal_approx(T, args.eps)
        print(_dump({"freudenthal": {
            "coefficients": [[c.real, c.imag] for c in approx.coefficients],
            "error": approx.error,
        }}))
    return 0


@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="centrelat")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate deterministic instances")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--dim", default="4", help="dimension or range lo..hi")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--mode", choices=["atomic", "sequence"], default="atomic")
    g.add_argument("--rule", choices=list(BUILTIN_RULES), default="reciprocal",
                   help="builtin sequence rule")
    g.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run verification suites over instance files")
    v.add_argument("instances", nargs="+")
    v.add_argument("--suite", action="append", default=None)
    v.add_argument("--seed", type=_seed, default=0)

    c = sub.add_parser("calc", help="compute a spectral artifact for one operator")
    c.add_argument("request",
                   choices=["spectrum", "mu_t", "rho", "polar", "eigen", "freudenthal"])
    c.add_argument("operator", help="operator instance file")
    c.add_argument("--fn", choices=list(CALC_FUNCTIONS), default="identity",
                   help="named function for rho")
    c.add_argument("--eps", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up on each call, so that a command replaced after the first call runs
    return {"gen": cmd_gen, "verify": cmd_verify, "calc": cmd_calc}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
