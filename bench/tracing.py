"""In-memory span tracing for the benchmark's traced runs.

The tracer wraps public centrelat functions from outside the package: each
wrapped function is replaced at every module attribute (and class attribute)
through which callers look it up, so calls made inside the package are
traced as well as the benchmark's own calls.  A span is
``[name, tag, start, end, parent, size]``; ``parent`` is the index of the
enclosing span (-1 at top level), ``tag`` is the benchmark's current input
label, and ``size`` is an optional work count taken from the arguments.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

#: Functions wrapped in a traced run, by module.  ``lattice`` and ``exact``
#: are not wrapped: their functions run once per element or per Fraction
#: operation, and are timed through their callers.
TARGETS = {
    "spectral": ("enumerate_unital_spectral_measures", "build_mu_T", "rho_T",
                 "eigen_expansion", "freudenthal_approx", "spectrum", "commutant_check"),
    "measures": ("riesz_represent", "is_spectral", "integrate"),
    "operators": ("norms",),
    "io": ("norm_from_json", "lattice_from_json", "element_from_json", "operator_from_json",
           "measure_from_json", "sequence_from_json", "operator_to_json"),
    "sequence": ("validate_certificate", "sequence_spectrum", "compactness_check",
                 "expansion_tail_report", "monic_candidates", "annihilation_residuals",
                 "freudenthal_net", "sequence_eigen_query"),
}


def _prefix_length(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.tag, perf_counter(), 0.0, stack[-1] if stack else -1,
                    size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "centrelat" or n.startswith("centrelat."))]
        for mod_name, names in TARGETS.items():
            home = sys.modules[f"centrelat.{mod_name}"]
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        cls = sys.modules["centrelat.sequence"].SequenceCentralOperator
        self._patches.append((cls, "prefix", cls.prefix))
        cls.prefix = self.wrap("sequence.prefix", cls.prefix, size=_prefix_length)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def summarize(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-pass aggregates of a list of spans recorded over ``n_passes`` passes.

    ``<name>.s`` is self time (span minus the time its child spans cover),
    ``<name>.calls`` the number of calls, ``<name>.elements`` the summed
    size, and ``<name>.<tag>.ms`` the inclusive time of top-level calls
    (those issued by the benchmark, not from inside another traced call)
    made under that input tag.  All are means per pass.
    """
    child_time = [0.0] * len(spans)
    for name, tag, start, end, parent, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, tag, start, end, parent, size) in enumerate(spans):
        out[f"{name}.s"] += end - start - child_time[k]
        out[f"{name}.calls"] += 1
        out[f"{name}.elements"] += size
        if parent < 0 and tag:
            out[f"{name}.{tag}.ms"] += 1000.0 * (end - start)
    return {key: value / n_passes for key, value in out.items()}


def overhead_share(untraced: list[float], traced: list[float]) -> float:
    """(traced - untraced) / untraced, on the medians of the pass times."""
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base
