"""The three benchmark workloads and their output oracles.

Each workload has ``setup(m, seed, workdir)``, which generates its inputs
from the seed with centrelat's public generators and writes them to disk,
and ``run(m, state, p)``, which makes one pass over those inputs through
``p.call``.  ``m`` holds the centrelat modules; functions are looked up on
it at call time, so a traced run sees every call.

Busy time is also reported normalised to a reference speed (see
``NOMINAL_REFERENCE_S``).  Every operation's result is checked against an
oracle that does not use the code under test.  A failed check is recorded
under a cause; causes starting with ``known:`` are defects listed in
``bench/README.md`` and do not make a run incorrect, any other cause does.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io as stdio
import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

CORPUS_CHUNKS = 20
SEQUENCE_CHUNKS = 4
SEQUENCE_COUNT = 24
EIGEN_QUERY_PREFIX = 199
NET_EPS = (1e-1, 1e-2, 1e-3)
#: (tag, dim, number of distinct symbol values; 0 means all distinct)
CONFIGS = (("d8", 8, 0), ("d64", 64, 0), ("d512-few", 512, 8),
           ("d512-distinct", 512, 0), ("d2048-few", 2048, 8), ("d2048-distinct", 2048, 0))
#: dims for norms, integrate and riesz, with the config whose operator is used
DIM_CONFIGS = (("d8", "d8"), ("d64", "d64"), ("d512", "d512-distinct"),
               ("d2048", "d2048-distinct"))
COMMUTANT_DIMS = ("d16", "d32", "d48", "d64")

KNOWN_FLOAT_EQ = ("known: sequence_eigen_query decides shift + 1/k by float 1/k == v - shift "
                  "(shifted_reciprocal)")
KNOWN_MONIC = ("known: infinite-spectrum-defeats-monic-annihilators uses an absolute 1e-10 "
               "residual threshold (geometric)")


#: Reference-speed normalisation.  On a shared 2-core VM the speed drifted
#: by 20-40% over seconds to minutes, and CPU time drifted with it, so raw
#: wall time could not be compared from run to run.  A pass is
#: cut into segments of at least SEGMENT_S of busy time; a fixed reference
#: loop is timed at each segment boundary, and a segment's busy time is
#: scaled by NOMINAL_REFERENCE_S over the mean of the reference times at its
#: two ends.  A normalised time is the time the work would take on a host
#: where the reference loop takes NOMINAL_REFERENCE_S.
NOMINAL_REFERENCE_S = 0.030
SEGMENT_S = 0.25
_REFERENCE_VECTOR = np.linspace(-1.0, 1.0, 64)


def reference_work() -> float:
    """A fixed mix of the interpreter work centrelat does: Fraction
    arithmetic (the enumeration oracle), dict traffic and calls on small
    numpy arrays.  It calls no centrelat code, so no change to the program
    changes its time."""
    base = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(3000):
        acc = Fraction(i % 13 + 1, i % 11 + 2) - base
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    total = 0.0
    for i in range(1500):
        total += float(np.max(np.abs(_REFERENCE_VECTOR * i)))
    return float(acc) + total + len(counts)


def reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def normalised(seconds: float, reference_before: float, reference_after: float) -> float:
    return seconds * NOMINAL_REFERENCE_S / ((reference_before + reference_after) / 2)


class PassCrashed(Exception):
    """verify exited with code 2 or raised: every operation of the pass failed."""


class Pass:
    """One pass over a workload's inputs: busy time (raw and normalised),
    outcomes and suite times."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.busy = 0.0
        self.normalised_busy = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.crashed = False
        self.call_seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.suite_seconds: dict[str, float] = defaultdict(float)
        self.verify_lines: list[str] = []
        self._segment = 0.0
        self.references = [reference_seconds()]

    @property
    def failed(self) -> int:
        return self.attempted if self.crashed else sum(self.failures.values())

    @property
    def outcome(self) -> tuple:
        """What the pass did, apart from timing: equal on every pass of a run."""
        return self.attempted, self.failed, tuple(sorted(self.failures.items()))

    @property
    def verify_digest(self) -> str | None:
        if not self.verify_lines:
            return None
        return hashlib.sha256("\n".join(self.verify_lines).encode()).hexdigest()

    def close_segment(self) -> None:
        """Time the reference and add the segment's normalised busy time."""
        reference = reference_seconds()
        self.normalised_busy += normalised(self._segment, self.references[-1], reference)
        self.references.append(reference)
        self._segment = 0.0

    def finish(self) -> None:
        if self._segment > 0.0:
            self.close_segment()

    def call(self, name: str, tag: str, thunk, check):
        """Time ``thunk()``; then, outside the timed region, check its result.

        ``check(result)`` returns one entry per operation: None when it
        passed, else the cause of the failure.  Returns the result, or None
        when the call raised.
        """
        if self.tracer is not None:
            self.tracer.tag = tag
        start = perf_counter()
        try:
            result = thunk()
            raised = None
        except Exception as exc:  # a failing call is an outcome, not a crash of the benchmark
            result, raised = None, f"{name} raised {type(exc).__name__}"
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.tag = ""
        self.busy += elapsed
        self._segment += elapsed
        self.call_seconds[(name, tag)] += elapsed
        if raised is not None:
            outcomes = [raised]
        else:
            try:
                outcomes = list(check(result))
            except PassCrashed as exc:
                self.crashed = True
                outcomes = [str(exc)]
        self.attempted += len(outcomes)
        self.failures.update(c for c in outcomes if c is not None)
        if self._segment >= SEGMENT_S:
            self.close_segment()
        return result


def expect(ok, cause: str):
    return [None if ok else cause]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# verify through the CLI, in process
# ---------------------------------------------------------------------------

def run_verify(m, path: Path, *options: str):
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main(["verify", str(path), *options])
    return rc, buf.getvalue()


def verify_outcomes(p: Pass, result, explain):
    """One outcome per verify record; suite seconds and output lines go to ``p``.

    The pass's digest covers every output line with its ``seconds`` field
    removed, so equal digests mean equal reports apart from timing.
    """
    rc, text = result
    if rc not in (0, 1):
        raise PassCrashed(f"verify exited with code {rc}")
    try:
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise PassCrashed(f"verify printed a line that is not JSON: {exc}") from None
    outcomes = []
    for doc in lines:
        if "check" in doc:
            outcomes.append(None if doc["ok"] else explain(doc))
        elif "seconds" in doc:
            p.suite_seconds[doc["suite"]] += float(doc["seconds"])
        p.verify_lines.append(json.dumps({k: v for k, v in doc.items() if k != "seconds"},
                                         sort_keys=True))
    if (rc == 0) != all(o is None for o in outcomes):
        outcomes.append(f"verify exit code {rc} disagrees with its records")
    return outcomes


def _unexplained(record) -> str:
    return f"verify {record['suite']}/{record['check']} failed"


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------

class VerifyCorpus:
    """``centrelat verify --seed <seed>`` over the ROADMAP's fixed corpus,
    ``gen --seed 7 --dim 2..16 --count 100``.

    The benchmark seed reaches the program as ``verify --seed``, which seeds
    the suites' own draws (sampled vectors, the enumeration oracle's rational
    symbols, FPR triples, riesz test functions).  The corpus stays fixed so
    that pass_s stays comparable with the ROADMAP baseline.  A corpus drawn
    per seed changes the number of dim >= 6 instances, which set the
    enumeration oracle's |sigma|^6 cost: over gen seeds 1-20 that cost has an
    interquartile range of 10% of its median, against 1% over verify seeds.

    The corpus is verified in CORPUS_CHUNKS files of every CORPUS_CHUNKS-th
    instance, one ``verify`` call each, so that a pass has segments for the
    reference-speed normalisation.
    """

    name = "verify-corpus"

    def setup(self, m, seed: int, workdir: Path):
        path = workdir / "corpus.json"
        rc = m.cli.main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                         "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"centrelat gen exited with code {rc}")
        instances = json.loads(path.read_text())["instances"]
        chunks = [write_json(workdir / f"corpus-{c}.json",
                             {"instances": instances[c::CORPUS_CHUNKS]})
                  for c in range(CORPUS_CHUNKS)]
        return (chunks, seed), [path, *chunks]

    def run(self, m, state, p: Pass) -> None:
        chunks, seed = state
        for chunk in chunks:
            p.call("cli.verify", "", lambda: run_verify(m, chunk, "--seed", str(seed)),
                   lambda r: verify_outcomes(p, r, _unexplained))


# ---------------------------------------------------------------------------
# calculus-large
# ---------------------------------------------------------------------------

def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _partition_ok(values, projections, symbol) -> bool:
    """0/1 projections, each nonempty, covering every coordinate once, with
    sum value * projection equal to the symbol and values the distinct symbol values."""
    cover = np.zeros(len(symbol))
    recon = np.zeros(len(symbol), dtype=complex)
    for v, proj in zip(values, projections):
        proj = np.asarray(proj)
        if not (np.all((proj == 0) | (proj == 1)) and proj.any()):
            return False
        cover += proj.real
        recon += v * proj
    scale = max(1.0, _max_abs(symbol))
    return (len(values) == len(set(complex(v) for v in symbol))
            and set(values) == set(complex(v) for v in symbol)
            and bool(np.all(cover == 1.0)) and _max_abs(recon - symbol) <= 1e-12 * scale)


class CalculusLarge:
    """Direct spectral-calculus calls on large diagonal operators."""

    name = "calculus-large"

    def setup(self, m, seed: int, workdir: Path):
        gen = m.generate
        rng = np.random.default_rng(seed)
        doc = {"configs": {}, "riesz": {}, "commutant": {}}
        for tag, dim, few in CONFIGS:
            T = gen.random_central(rng, lattice=gen.random_lattice(rng, dim))
            if few:
                labels = rng.permutation(np.arange(dim) % few)
                T = m.operators.CentralOperator(T.lattice, T.symbol[:few][labels])
            doc["configs"][tag] = m.io.operator_to_json(T)
        for tag, _ in DIM_CONFIGS:
            doc["riesz"][tag] = m.io.measure_to_json(gen.random_measure(rng, dim=int(tag[1:])))
        for tag in COMMUTANT_DIMS:
            # as suite_commutant builds them: a block operator inside the
            # commutant, and a copy broken at one mismatched entry
            T = gen.random_central(rng, dim=int(tag[1:]), repeats=True)
            inside = gen.commutant_block_operator(rng, T)
            mismatched = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
            i, j = mismatched[rng.integers(0, len(mismatched))]
            broken = np.array(inside.entries)
            broken[i, j] += 1.0
            doc["commutant"][tag] = {
                "T": m.io.operator_to_json(T),
                "inside": m.io.operator_to_json(inside),
                "broken": m.io.operator_to_json(m.operators.RegularOperator(T.lattice, broken)),
            }
        path = write_json(workdir / "calculus.json", doc)
        return (path, seed), [path]

    @staticmethod
    def _load(m, path: Path):
        with open(path) as fh:
            doc = json.load(fh)
        ops = {tag: m.io.operator_from_json(d) for tag, d in doc["configs"].items()}
        measures = {tag: m.io.measure_from_json(d) for tag, d in doc["riesz"].items()}
        commutant = {tag: tuple(m.io.operator_from_json(d[k]) for k in ("T", "inside", "broken"))
                     for tag, d in doc["commutant"].items()}
        return ops, measures, commutant

    def run(self, m, state, p: Pass) -> None:
        path, seed = state
        loaded = p.call("io.load", "", lambda: self._load(m, path),
                        lambda r: expect(len(r[0]) == len(CONFIGS), "inputs incomplete"))
        if loaded is None:
            return
        ops, measures, commutant = loaded
        sp = m.spectral
        for tag, T in ops.items():
            s = T.symbol
            distinct = set(complex(v) for v in s)
            p.call("spectral.spectrum", tag, lambda: sp.spectrum(T),
                   lambda r: expect(len(r.attained) == len(distinct)
                                    and set(r.attained) == distinct,
                                    "spectrum is not the set of symbol values"))
            p.call("spectral.build_mu_T", tag, lambda: sp.build_mu_T(T),
                   lambda r: expect(_partition_ok(r.values, r.projections, s),
                                    "mu_T does not partition the coordinates"))
            p.call("spectral.rho_T", tag, lambda: sp.rho_T(T, cmath.sqrt),
                   lambda r: expect(np.array_equal(r.symbol, [cmath.sqrt(v) for v in s]),
                                    "rho_T(sqrt) differs from sqrt(symbol)"))
            p.call("spectral.eigen_expansion", tag, lambda: sp.eigen_expansion(T),
                   lambda r: expect(_partition_ok([v for v, _ in r.pairs],
                                                  [q.symbol for _, q in r.pairs], s),
                                    "eigen expansion does not reconstruct T"))
            p.call("spectral.freudenthal_approx", tag, lambda: sp.freudenthal_approx(T, 0.1),
                   lambda r: expect(_partition_ok(r.coefficients,
                                                  [q.symbol for q in r.projections], s)
                                    and r.error <= 1e-12 * max(1.0, _max_abs(s)),
                                    "step approximation is not exact"))
            doc = p.call("io.operator_to_json", tag, lambda: m.io.operator_to_json(T),
                         lambda r: expect(isinstance(r, dict), "operator_to_json gave no object"))
            text = json.loads(json.dumps(doc))
            p.call("io.operator_from_json", tag, lambda: m.io.operator_from_json(text),
                   lambda r: expect(r.lattice == T.lattice and np.array_equal(r.symbol, s),
                                    "io round trip changed the operator"))
        for tag, config in DIM_CONFIGS:
            T = ops[config]
            s = T.symbol
            top = _max_abs(s)
            rng = np.random.default_rng(seed)
            p.call("operators.norms", tag, lambda: m.operators.norms(T, samples=1000, rng=rng),
                   lambda r: expect(r.order_unit == r.operator == r.regular == top
                                    and np.abs(s)[r.attained_at] == top
                                    and r.max_sampled_ratio <= top * (1 + 1e-12),
                                    "norms differ from max |symbol|"))
            # the global measure has atoms e_k, so sum_k f(k) mu_k is the symbol itself
            p.call("spectral.reconstruct_from_global", tag,
                   lambda: sp.reconstruct_from_global(T),
                   lambda r: expect(_max_abs(r.symbol - s) <= 1e-12 * max(1.0, top),
                                    "integral differs from sum f(k) mu_k"))
            mu = measures[tag]
            atoms = np.array(mu.values)
            first = [mu.space.points.index(a[0]) for a in mu.space.atoms]
            rng = np.random.default_rng(seed)
            p.call("measures.riesz_represent", tag,
                   lambda: m.measures.riesz_represent(lambda f: np.asarray(f)[first] @ atoms,
                                                      mu.space, mu.lattice, rng=rng),
                   lambda r: expect(_max_abs(np.array(r.values) - atoms) <= 1e-12,
                                    "riesz did not recover the atom values"))
        for tag in COMMUTANT_DIMS:
            T, inside, broken = commutant[tag]
            rng = np.random.default_rng(seed)
            p.call("spectral.commutant_check", tag, lambda: sp.commutant_check(T, inside, rng=rng),
                   lambda r: expect(all(r.conditions()) and r.block_pattern,
                                    "block operator reported outside the commutant"))
            rng = np.random.default_rng(seed)
            p.call("spectral.commutant_check", tag, lambda: sp.commutant_check(T, broken, rng=rng),
                   lambda r: expect(not r.with_operator,
                                    "broken operator reported commuting with T"))


# ---------------------------------------------------------------------------
# sequence-certify
# ---------------------------------------------------------------------------

class ClosedForm:
    """A builtin sequence rule, evaluated from its JSON description."""

    def __init__(self, doc):
        self.name = doc["rule"]["name"]
        params = doc["rule"].get("params", {})
        self.ratio = params.get("ratio")
        if self.name == "reciprocal":
            self.term, self.acc = (lambda k: 1.0 / k), 0j
        elif self.name == "shifted_reciprocal":
            shift = params["shift"]
            self.term, self.acc = (lambda k: shift + 1.0 / k), complex(shift)
        elif self.name == "geometric":
            self.term, self.acc = (lambda k: self.ratio ** k), 0j
        elif self.name == "constant":
            c = complex(params["value_re"], params["value_im"])
            self.term, self.acc = (lambda k: c), c
        else:
            raise ValueError(f"no closed form for rule {self.name!r}")

    def tail(self, n: int) -> float:
        """sup over i > n of |term(i) - acc|, in closed form."""
        if self.name == "geometric":
            return self.ratio ** (n + 1)
        return 0.0 if self.name == "constant" else 1.0 / (n + 1)

    def breakpoint(self, eps: float) -> int:
        return next(n for n in range(1, 10 ** 6) if self.tail(n) <= eps)


def monic_threshold_reached(ratio: float, sample: int = 10_000, tol: float = 1e-10) -> bool:
    """Whether a monic product over <= 8 consecutive leading values of r^i has a
    sampled sup residual under the absolute threshold ``tol``.

    r^i takes infinitely many values, so no polynomial annihilates it; a
    residual under ``tol`` is an artefact of the threshold being absolute.
    """
    values = np.array([ratio ** i for i in range(1, sample + 1)])
    distinct = np.array(list(dict.fromkeys(values.tolist())))
    for degree in range(1, 9):
        for start in range(min(len(distinct) - degree, 12)):
            roots = distinct[start:start + degree]
            if np.max(np.abs(np.prod(values[:, None] - roots[None, :], axis=1))) <= tol:
                return True
    return False


class SequenceCertify:
    """Sequence-mode certificates: verify, eigen queries and eps-nets."""

    name = "sequence-certify"

    def setup(self, m, seed: int, workdir: Path):
        # Draws are kept until each builtin rule has SEQUENCE_COUNT / 4
        # operators.  A constant operator costs ~4% of the others in verify,
        # so in a free draw (constants ~ Binomial(24, 1/4)) the work per pass
        # would vary by ~9% from the mix alone.  Every rule, and so every
        # known defect, is present at every seed.
        rng = np.random.default_rng(seed)
        quota = Counter({name: SEQUENCE_COUNT // 4 for name in
                         ("reciprocal", "shifted_reciprocal", "geometric", "constant")})
        docs = []
        for _ in range(100 * SEQUENCE_COUNT):
            if len(docs) == SEQUENCE_COUNT:
                break
            doc = m.io.sequence_to_json(m.generate.random_sequence(rng))
            if quota[doc["rule"]["name"]] > 0:
                quota[doc["rule"]["name"]] -= 1
                docs.append(doc)
        if len(docs) < SEQUENCE_COUNT:
            raise RuntimeError("random_sequence did not draw every builtin rule")
        instances = [{"kind": "sequence", "sequence": d} for d in docs]
        path = write_json(workdir / "sequences.json", {"instances": instances})
        # verified in chunks, one verify call each, so a pass has segments
        # for the reference-speed normalisation
        chunks = [write_json(workdir / f"sequences-{c}.json",
                             {"instances": instances[c::SEQUENCE_CHUNKS]})
                  for c in range(SEQUENCE_CHUNKS)]
        forms = [ClosedForm(d) for d in docs]
        return ({"path": path, "chunks": chunks, "forms": forms, "monic_explained": None},
                [path, *chunks])

    def run(self, m, state, p: Pass) -> None:
        forms = state["forms"]
        if state["monic_explained"] is None:
            state["monic_explained"] = sum(f.name == "geometric"
                                           and monic_threshold_reached(f.ratio) for f in forms)
        budget = [state["monic_explained"]]

        def explain(record):
            if record["check"] == "infinite-spectrum-defeats-monic-annihilators" and budget[0]:
                budget[0] -= 1
                return KNOWN_MONIC
            return _unexplained(record)

        for chunk in state["chunks"]:
            p.call("cli.verify", "", lambda: run_verify(m, chunk),
                   lambda r: verify_outcomes(p, r, explain))

        def load():
            with open(state["path"]) as fh:
                return [m.io.sequence_from_json(inst["sequence"])
                        for inst in json.load(fh)["instances"]]

        ops = p.call("io.load", "", load,
                     lambda r: expect(len(r) == len(forms), "inputs incomplete"))
        if ops is None:
            return
        sq = m.sequence
        for op, form in zip(ops, forms):
            expected = np.array([form.term(k) for k in range(1, EIGEN_QUERY_PREFIX + 1)],
                                dtype=complex)
            values = p.call("sequence.prefix", "", lambda: op.prefix(EIGEN_QUERY_PREFIX),
                            lambda r: expect(np.array_equal(r, expected),
                                             "prefix differs from the closed form"))
            attained_cause = (KNOWN_FLOAT_EQ if form.name == "shifted_reciprocal"
                              else f"attained {form.name} value not an eigenvalue")
            for v in values if values is not None else ():
                p.call("sequence.sequence_eigen_query", "",
                       lambda: sq.sequence_eigen_query(op, v),
                       lambda r: expect(r.in_spectrum and r.is_eigenvalue, attained_cause))
            # the accumulation point is attained only by the constant rule
            attained = form.name == "constant"
            p.call("sequence.sequence_eigen_query", "",
                   lambda: sq.sequence_eigen_query(op, form.acc),
                   lambda r: expect(r.in_spectrum and r.is_eigenvalue == attained,
                                    f"{form.name} accumulation point misclassified"))
            for eps in NET_EPS:
                n = form.breakpoint(eps)
                coeffs = {complex(form.term(k)) for k in range(1, n + 1)} | {form.acc}
                p.call("sequence.freudenthal_net", "", lambda: sq.freudenthal_net(op, eps),
                       lambda r: expect(r.breakpoint == n
                                        and abs(complex(form.term(n + 1)) - form.acc)
                                        <= r.certified_error + 1e-12
                                        and r.certified_error <= eps
                                        and set(r.coefficients) == coeffs,
                                        f"{form.name} eps-net wrong at eps={eps}"))


WORKLOADS = {w.name: w for w in (VerifyCorpus(), CalculusLarge(), SequenceCertify())}
