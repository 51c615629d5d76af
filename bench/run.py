"""centrelat benchmark runner.

Run from the repository root:

    python3 bench/run.py --workload verify-corpus --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 30

One invocation runs one workload in this process on one Python thread.  It
sets up the inputs several times (``setup_s`` is the median), makes one
warm-up pass (reported as ``warmup.pass_s``, kept out of ``pass_s``), then
makes passes until ``--seconds`` have gone by since the warm-up began,
starting no pass that would end after that and making at least one.  With
``--trace 0`` all passes are untraced and the end-to-end metrics are
printed; with ``--trace 1`` the first half of the time is untraced and the
second half traced, and the per-layer metrics are printed.  ``--workload
all`` runs every workload in its own process, untraced and traced, and
prints all metrics.

``setup_s`` and ``pass_s`` are normalised to a reference speed (see
``workloads.NOMINAL_REFERENCE_S``): the host's speed drifts too much for raw
wall time to be compared between runs.  The raw wall times are printed as
the per-layer metrics ``wall.setup_s`` and ``wall.pass_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
carry the run's metadata and a summary that includes ``failed_share``.
Inputs, metadata and spans are written under ``.bench_run/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS, Pass, normalised, reference_seconds, sha256_file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORKLOAD_NAMES = ("verify-corpus", "calculus-large", "sequence-certify")
SETUP_REPEATS = 9
MODULES = ("cli", "io", "generate", "spectral", "measures", "operators", "sequence")

SUITES = ("cstar", "norms", "fpr", "polar", "localize", "integral", "riesz", "spectral",
          "calculus", "eigen", "commutant", "compactness")
CONFIG_TAGS = ("d8", "d64", "d512-few", "d512-distinct", "d2048-few", "d2048-distinct")
DIM_TAGS = ("d8", "d64", "d512", "d2048")
COMMUTANT_TAGS = ("d16", "d32", "d48", "d64")
LOAD_FUNCTIONS = ("norm_from_json", "lattice_from_json", "element_from_json",
                  "operator_from_json", "measure_from_json", "sequence_from_json")
SEQUENCE_FUNCTIONS = ("validate_certificate", "sequence_spectrum", "compactness_check",
                      "expansion_tail_report", "monic_candidates", "annihilation_residuals",
                      "freudenthal_net", "sequence_eigen_query")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = [(f"suites.{s}.s", "s", "lower") for s in SUITES]
    out += [("spectral.enumerate_unital_spectral_measures.s", "s", "lower"),
            ("spectral.enumerate_unital_spectral_measures.calls", "count", "lower"),
            ("measures.riesz_represent.s", "s", "lower"),
            ("measures.riesz_represent.calls", "count", "lower"),
            ("measures.is_spectral.s", "s", "lower"),
            ("operators.norms.s", "s", "lower"),
            ("operators.norms.calls", "count", "lower")]
    out += [(f"operators.norms.{d}.ms", "ms", "lower") for d in DIM_TAGS]
    for fn in ("build_mu_T", "rho_T", "eigen_expansion", "freudenthal_approx", "spectrum"):
        out += [(f"spectral.{fn}.s", "s", "lower"), (f"spectral.{fn}.calls", "count", "lower")]
        out += [(f"spectral.{fn}.{c}.ms", "ms", "lower") for c in CONFIG_TAGS]
    out += [("measures.integrate.s", "s", "lower"), ("measures.integrate.calls", "count", "lower")]
    out += [(f"measures.integrate.{d}.ms", "ms", "lower") for d in DIM_TAGS]
    out += [("spectral.commutant_check.s", "s", "lower"),
            ("spectral.commutant_check.calls", "count", "lower")]
    out += [(f"spectral.commutant_check.{d}.ms", "ms", "lower") for d in COMMUTANT_TAGS]
    out += [("io.load.s", "s", "lower")]
    out += [(f"io.{fn}.{c}.ms", "ms", "lower")
            for fn in ("operator_from_json", "operator_to_json") for c in CONFIG_TAGS]
    out += [(f"sequence.{fn}.s", "s", "lower") for fn in SEQUENCE_FUNCTIONS]
    out += [("sequence.prefix.s", "s", "lower"), ("sequence.prefix.calls", "count", "lower"),
            ("sequence.prefix.elements", "count", "lower"),
            ("ops.attempted", "count", "higher"), ("ops.failed", "count", "lower"),
            ("failed_share", "ratio", "lower"), ("trace.overhead_share", "ratio", "lower"),
            ("warmup.pass_s", "s", "lower"), ("warmup.commutant_check.d48.ms", "ms", "lower"),
            ("wall.pass_s", "s", "lower"), ("wall.setup_s", "s", "lower"),
            ("reference.ms", "ms", "lower")]
    return out


def import_centrelat():
    """Import centrelat afresh from the sources, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "centrelat" or n.startswith("centrelat.")]:
        del sys.modules[name]
    importlib.import_module("centrelat")
    return argparse.Namespace(**{name: importlib.import_module(f"centrelat.{name}")
                                 for name in MODULES})


def blas_info() -> dict:
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def make_passes(workload, m, state, deadline: float, tracer=None) -> list:
    """At least one pass; more while the next, as long as the last, ends by ``deadline``."""
    passes = []
    while not passes or perf_counter() + passes[-1].wall <= deadline:
        gc.collect()
        start = perf_counter()
        p = Pass(tracer)
        workload.run(m, state, p)
        p.finish()
        p.wall = perf_counter() - start
        passes.append(p)
    return passes


def run_one(args) -> int:
    if not (SRC / "centrelat" / "__init__.py").is_file():
        print(f"error: centrelat sources not found under {SRC}", file=sys.stderr)
        return 2
    # measure the program default, without the suite thread pool
    centrelat_threads = os.environ.pop("CENTRELAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times, setup_normalised = [], []
    references = [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        m = import_centrelat()
        state, inputs = workload.setup(m, args.seed, workdir)
        setup_times.append(perf_counter() - start)
        references.append(reference_seconds())
        setup_normalised.append(normalised(setup_times[-1], *references[-2:]))

    start = perf_counter()
    warmup = make_passes(workload, m, state, 0.0)
    if args.trace:
        untraced = make_passes(workload, m, state, start + args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = make_passes(workload, m, state, start + args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced, traced = make_passes(workload, m, state, start + args.seconds), []
    passes = warmup + untraced + traced
    references += [r for p in passes for r in p.references]

    # Every pass issues the same operations with the same outcomes, so the
    # counts of one pass are those of the run, whatever the number of passes.
    attempted, failed, causes = passes[0].attempted, passes[0].failed, dict(passes[0].failures)
    outcomes_differ = len({p.outcome for p in passes}) > 1
    digests = sorted({p.verify_digest for p in passes if p.verify_digest})
    unexplained = [c for c in causes if not c.startswith("known:")]
    correct = (not unexplained and len(digests) <= 1 and not outcomes_differ
               and not any(p.crashed for p in passes))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(),
        "CENTRELAT_THREADS": centrelat_threads,
        "inputs_sha256": {p.name: sha256_file(p) for p in inputs},
        "verify_output_sha256": digests,
        "setup_seconds": setup_times, "setup_seconds_normalised": setup_normalised,
        "pass_seconds": {"warmup": [p.busy for p in warmup], "untraced": [p.busy for p in untraced],
                         "traced": [p.busy for p in traced]},
        "pass_seconds_normalised": {"warmup": [p.normalised_busy for p in warmup],
                                    "untraced": [p.normalised_busy for p in untraced],
                                    "traced": [p.normalised_busy for p in traced]},
        "reference_seconds": {"setup": references[:SETUP_REPEATS + 1],
                              "warmup": [p.references for p in warmup],
                              "untraced": [p.references for p in untraced],
                              "traced": [p.references for p in traced]},
        "ops_per_pass": attempted, "failures": causes, "outcomes_differ": outcomes_differ,
    }
    (workdir / f"meta-trace{args.trace}.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(json.dumps({"meta": meta}, sort_keys=True))

    pass_s = statistics.median(p.normalised_busy for p in untraced)
    setup_s = statistics.median(setup_normalised)
    wall_pass_s = statistics.median(p.busy for p in untraced)
    if args.trace:
        agg = tracing.summarize(tracer.spans, len(traced))
        agg["io.load.s"] = sum(agg.get(f"io.{fn}.s", 0.0) for fn in LOAD_FUNCTIONS)
        for s in SUITES:
            agg[f"suites.{s}.s"] = statistics.fmean(p.suite_seconds.get(s, 0.0) for p in traced)
        agg["ops.attempted"] = attempted
        agg["ops.failed"] = failed
        agg["failed_share"] = failed / attempted
        agg["trace.overhead_share"] = tracing.overhead_share(
            [p.busy for p in untraced], [p.busy for p in traced])
        agg["warmup.pass_s"] = warmup[0].busy
        agg["warmup.commutant_check.d48.ms"] = 1000.0 * warmup[0].call_seconds.get(
            ("spectral.commutant_check", "d48"), 0.0)
        agg["wall.pass_s"] = wall_pass_s
        agg["wall.setup_s"] = statistics.median(setup_times)
        agg["reference.ms"] = 1000.0 * statistics.median(references)
        metrics = {name: {"value": agg.get(name, 0.0), "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
        with open(workdir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        values = {"setup_s": setup_s, "pass_s": pass_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "pass_s": pass_s, "setup_s": setup_s,
        "wall_pass_s": wall_pass_s, "wall_setup_s": statistics.median(setup_times),
        "reference_ms": 1000.0 * statistics.median(references), "warmup_pass_s": warmup[0].busy,
        "failed_share": failed / attempted, "attempted": attempted, "failed": failed}},
        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; print every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            entry = results.setdefault(name, {"correct": True, "metrics": {}})
            entry["correct"] &= result["correct"]
            entry["metrics"].update(result["metrics"])
            for metric, v in result["metrics"].items():
                print(f"{name:17s} trace={trace} {metric:52s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
