"""Theorem-verification suites over generated or user-supplied instances.

Each suite maps an instance kind to a check family: a function of one object,
its digest and a generator of its own, which makes one record per check,
carrying the capability tag, the object's digest, the verdict, and the largest
observed deviation.  Every record is made through ``Records``, which holds the
one verdict rule.  ``run_suites`` is the only loop over the instances: it
digests each object once per call and seeds each family call from the seed,
the suite and the digest, so a record depends on its own instance alone and
the same seed reproduces it from any bundle that holds that instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import io as cio
from .generate import (
    commutant_block_operator,
    commuting_fpr_triple,
    random_central,
)
from .lattice import TOL_EXACT, TOL_ORACLE, ComplexElement, PrincipalIdeal, ideal_norm, modulus
from .measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent_stack,
)
from .operators import (
    CentralOperator,
    RegularOperator,
    fpr_check,
    norms,
    polar,
    localize,
)
from .sequence import (
    SAMPLE,
    CertificateError,
    distinct_finite_count,
    expansion_tail_report,
    validate_certificate,
)
from .spectral import (
    annihilation_bound,
    block_eigenvalue_deviation,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    eval_polynomial,
    minimal_polynomial,
    reconstruct_from_global,
    rho_T,
    spectrum_shape_report,
)


def digest(doc: Any) -> str:
    """Stable digest of a JSON-serializable instance description."""
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def op_digest(op) -> str:
    if isinstance(op, CentralOperator):
        return digest(cio.operator_to_json(op))
    if isinstance(op, LatticeValuedMeasure):
        return digest(cio.measure_to_json(op))
    return digest(cio.sequence_to_json(op))


@dataclass
class Record:
    suite: str
    check: str
    instance: str
    ok: bool
    max_deviation: float = 0.0
    witness: str = ""

    def to_json(self) -> dict[str, Any]:
        """The record as strict JSON, with null for a non-finite deviation."""
        dev = self.max_deviation if math.isfinite(self.max_deviation) else None
        return {"suite": self.suite, "check": self.check, "instance": self.instance,
                "ok": self.ok, "max_deviation": dev, "witness": self.witness}


def within(dev: float, tol: float) -> tuple[bool, float]:
    """The verdict on a deviation: it passes iff ``dev <= tol``, so NaN fails."""
    return dev <= tol, dev


class Records(list):
    """The records of one suite, each made under the suite's name."""

    def __init__(self, suite: str):
        super().__init__()
        self.suite = suite

    def holds(self, name: str, instance: str, ok, dev: float = 0.0,
              witness: str = "") -> None:
        self.append(Record(self.suite, name, instance, bool(ok), dev, witness))

    def check(self, name: str, instance: str, dev: float, tol: float) -> None:
        self.holds(name, instance, *within(dev, tol))

    def guarded(self, name: str, instance: str, catch: type[Exception],
                call: Callable[[], Any],
                verdict: Optional[Callable[[Any], tuple[bool, float]]] = None) -> Any:
        """Record ``verdict(call())`` as ``(ok, dev)``, or a pass if no
        verdict is given, and return ``call()``'s result.  If either raises
        ``catch``, the check fails with deviation inf and the exception text
        as its witness, and None is returned."""
        try:
            result = call()
            ok, dev = verdict(result) if verdict else (True, 0.0)
        except catch as exc:
            self.holds(name, instance, False, math.inf, str(exc))
            return None
        self.holds(name, instance, ok, dev)
        return result


@dataclass
class SuiteReport:
    suite: str
    records: list[Record]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict[str, Any]:
        return {"suite": self.suite, "pass": self.passed, "seconds": self.seconds,
                "n_checks": len(self.records),
                "n_failed": sum(not r.ok for r in self.records)}


# ---------------------------------------------------------------------------
# check families, each on one object with its digest d and its own generator
# ---------------------------------------------------------------------------

def _rel(dev: float, scale: float) -> float:
    return dev / max(1.0, scale)


def cstar_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    """C*-identity, modulus laws, four equalities."""
    n2 = (T * T.conj()).order_unit_norm()
    dev = _rel(abs(n2 - T.order_unit_norm() ** 2), T.order_unit_norm() ** 2)
    out.check("cstar-identity", d, dev, TOL_EXACT)

    S = random_central(rng, lattice=T.lattice)
    # modulus multiplicativity, exact on symbols
    dev = _rel(float(np.abs((S * T).modulus().symbol
                            - S.modulus().symbol * T.modulus().symbol).max()),
               S.order_unit_norm() * T.order_unit_norm())
    out.check("modulus-multiplicative", d, dev, TOL_EXACT)
    dev = _rel(float(np.abs((T * T.conj()).modulus().symbol
                            - T.modulus().symbol ** 2).max()),
               T.order_unit_norm() ** 2)
    out.check("modulus-of-selfproduct", d, dev, TOL_EXACT)

    # four equalities: |Tz| = |T||z|, invariant under conjugations
    z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                       + 1j * rng.standard_normal(T.lattice.dim))
    ref = modulus(T.apply(z))
    worst = 0.0
    for Top in (T, T.conj(), T.modulus()):
        for zop in (z, z.conj(), ComplexElement(T.lattice, modulus(z).astype(complex))):
            worst = max(worst, float(np.abs(modulus(Top.apply(zop)) - ref).max()))
    out.check("modulus-action-four-equalities", d, _rel(worst, T.order_unit_norm()), TOL_EXACT)


def norms_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    """Norm coincidence for a central operator."""
    trip = norms(T, samples=1000, rng=rng)
    basis = np.zeros(T.lattice.dim)
    basis[trip.attained_at] = 1.0
    e = ComplexElement(T.lattice, basis.astype(complex))
    attained = T.apply(e).norm() / e.norm()
    scaled = TOL_EXACT * max(1.0, trip.order_unit)
    out.check("operator-norm-attained-at-basis-vector", d,
              abs(attained - trip.order_unit), scaled)
    out.check("sampled-norm-never-exceeds-order-unit", d,
              max(0.0, trip.max_sampled_ratio - trip.order_unit), scaled)


def fpr_central(out: Records, op, d: str, rng: np.random.Generator) -> None:
    """The commutation transfer on a triple of the instance's dimension."""
    S, T, X = commuting_fpr_triple(rng, op.lattice.dim)
    v = fpr_check(S, T, X)
    out.holds("conjugate-commutation-transfer", d,
              v.forward and v.conjugate and v.transfer_ok, v.max_conjugate_deviation)
    # fault injection: perturb one admissible entry off the pattern
    bad = np.array(X.entries)
    mism = np.argwhere(S.symbol[:, None] != T.symbol[None, :])
    if len(mism):
        i, j = mism[rng.integers(0, len(mism))]
        bad[i, j] += 0.5
        vb = fpr_check(S, T, RegularOperator(X.lattice, bad))
        out.holds("fault-injection-detected", d,
                  (not vb.forward) and vb.first_violation is not None,
                  vb.max_forward_deviation)


def polar_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    p = polar(T)
    dev = _rel(float(np.abs((p.positive * p.unitary).symbol - T.symbol).max()),
               T.order_unit_norm())
    ok = dev <= TOL_EXACT
    ok &= bool((p.positive.symbol.imag == 0).all() and (p.positive.symbol.real >= 0).all())
    udev = float(np.abs(np.abs(p.unitary.symbol) - 1.0).max())
    ok &= udev <= TOL_EXACT
    out.holds("factorisation-with-positive-and-unimodular", d, ok, max(dev, udev))
    if (np.abs(T.symbol) > 0).all():
        S = random_central(rng, lattice=T.lattice)
        pst, ps = polar(S * T), polar(S)
        dev = max(
            float(np.abs(pst.positive.symbol - (ps.positive * p.positive).symbol).max()),
            float(np.abs(pst.unitary.symbol - (ps.unitary * p.unitary).symbol).max()),
        )
        dev = _rel(dev, S.order_unit_norm() * T.order_unit_norm())
        out.check("multiplicative-on-invertibles", d, dev, TOL_EXACT)


def localize_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    n = T.lattice.dim
    u = rng.uniform(0.1, 2.0, size=n)
    if n >= 2 and rng.uniform() < 0.5:
        u[rng.integers(0, n)] = 0.0
    ideal = PrincipalIdeal(u)
    loc = localize(T, ideal)
    dev = abs(loc.ideal_norm_of_Tu - float(np.abs(loc.symbol).max()))
    out.check("restriction-isometry", d, dev, TOL_EXACT * max(1.0, loc.ideal_norm_of_Tu))
    full = PrincipalIdeal(rng.uniform(0.1, 2.0, size=n))
    tu = T.apply(ComplexElement(T.lattice, full.generator.astype(complex)))
    dev = abs(ideal_norm(tu, full) - T.order_unit_norm())
    out.check("full-support-norm-equality", d, dev, TOL_EXACT * max(1.0, T.order_unit_norm()))


def _random_measurable_f(rng, space):
    """A complex function on the atoms of a space, real parts drawn first."""
    return (rng.uniform(-1.0, 1.0, size=space.n_atoms)
            + 1j * rng.uniform(-1.0, 1.0, size=space.n_atoms))


def integral_measure(out: Records, mu, d: str, rng: np.random.Generator) -> None:
    space = mu.space
    # decomposition independence: the integral of sum r_i chi_{D_i} vs sum r_i mu(D_i)
    m = int(rng.integers(2, 5))
    total = np.zeros(space.n_atoms, dtype=complex)
    direct = np.zeros(mu.dim, dtype=complex)
    for _ in range(m):
        ks = rng.uniform(size=space.n_atoms) < 0.5
        r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        total[ks] += r
        direct += r * mu.measure_of(ks)
    dev = float(np.abs(integrate(total, mu).values - direct).max())
    out.check("decomposition-independence", d, dev, TOL_EXACT)

    f = _random_measurable_f(rng, space)
    # Python's abs, which numpy's differs from in the last bit
    absf = [abs(z) for z in f.tolist()]
    lhs = modulus(integrate(f, mu))
    rhs = integrate(absf, mu).values.real
    out.check("triangle-inequality", d, float(np.maximum(lhs - rhs, 0.0).max()), TOL_EXACT)

    # image measure change of variables, collapsing the atoms onto 3 points
    target = FiniteMeasurableSpace(tuple(range(3)))
    lands = np.array([int(rng.integers(0, 3)) for _ in range(space.n_atoms)])
    img = image_measure(mu, lands, target)
    g = _random_measurable_f(rng, target)
    dev = float(np.abs(integrate(g, img).values - integrate(g[lands], mu).values).max())
    out.check("image-measure-change-of-variables", d, dev, TOL_EXACT)

    # additivity on a random disjoint pair
    ks = rng.uniform(size=space.n_atoms) < 0.5
    dev = float(np.abs(mu.total() - mu.measure_of(ks) - mu.measure_of(~ks)).max())
    out.check("finite-additivity", d, dev, TOL_EXACT)


def riesz_measure(out: Records, mu, d: str, rng: np.random.Generator) -> None:
    space = mu.space
    first = np.array([space.points.index(atom[0]) for atom in space.atoms])

    out.guarded("representing-measure-recovery", d, AssertionError,
                lambda: riesz_represent_stack(lambda fs: fs[:, first] @ mu.values, space,
                                              mu.lattice, rng=rng),
                lambda nu: within(float(np.abs(nu.values - mu.values).max()), TOL_EXACT))

    # multiplicative pi: coordinates evaluate f at assigned points
    assign_idx = np.array([int(rng.integers(0, len(space.points))) for _ in range(mu.dim)])
    out.guarded("homomorphism-yields-spectral-measure", d, AssertionError,
                lambda: is_spectral(riesz_represent_stack(lambda fs: fs[:, assign_idx],
                                                          space, None, rng=rng)),
                lambda verdict: (bool(verdict), verdict.max_violation))


def spectral_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    mu = build_mu_T(T)
    # what spectrum(T) checks, recorded against the oracle's rounding bound;
    # geev raises LinAlgError when its iteration does not converge
    if out.guarded("symbol-spectrum-matches-block-eigenvalues", d, np.linalg.LinAlgError,
                   lambda: block_eigenvalue_deviation(mu), lambda r: within(*r)) is None:
        return
    out.holds("spectral-radius-and-shape-equivalences", d, spectrum_shape_report(T).all_ok())

    rec = reconstruct_from_global(T)
    dev = _rel(float(np.abs(rec.symbol - T.symbol).max()), T.order_unit_norm())
    out.check("global-measure-reconstruction", d, dev, TOL_EXACT)

    out.guarded("spectral-measure-invariants", d, AssertionError, mu.validate)


def spectral_projection_measure(out: Records, mu, d: str, rng: np.random.Generator) -> None:
    verdict = is_spectral(mu)
    idem_ok = all(verdict.idempotent)
    out.holds("spectral-measure-product-law", d, bool(verdict) and idem_ok,
              verdict.max_violation, "" if idem_ok else "an atom value is not idempotent")


def calculus_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    mu = build_mu_T(T)
    vals = np.array(mu.values)
    # per value, a real and an imaginary part: the complex view pairs them
    fa, fb = rng.uniform(-1, 1, (2, len(vals), 2)).view(complex)[..., 0]
    ra, rb = rho_T(T, fa), rho_T(T, fb)
    # Python's product and abs, which numpy's differ from in the last bit
    fab = [a * b for a, b in zip(fa.tolist(), fb.tolist())]
    dev = float(np.abs(rho_T(T, fab).symbol - (ra * rb).symbol).max())
    ok = dev <= TOL_EXACT
    dev2 = float(np.abs(rho_T(T, fa.conj()).symbol - ra.conj().symbol).max())
    ok &= dev2 <= TOL_EXACT
    unit = rho_T(T, np.ones(len(vals)))
    ident = rho_T(T, vals)
    ok &= bool((unit.symbol == 1.0).all()) and bool((ident.symbol == T.symbol).all())
    dev3 = float(np.abs(rho_T(T, [abs(v) for v in mu.values]).symbol
                        - ident.modulus().symbol).max())
    ok &= dev3 <= TOL_EXACT
    out.holds("star-homomorphism-laws", d, ok, max(dev, dev2, dev3))

    ok = set(build_mu_T(ra).values) == set(fa.tolist())
    out.holds("spectral-mapping", d, ok, 0.0 if ok else 1.0)

    # kernel formula against a null-space oracle on the dense matrix
    fker = np.arange(len(vals)) % 2
    op = rho_T(T, fker)
    proj = mu.measure_of(fker == 0)
    dense = np.diag(op.symbol)
    sv = np.linalg.svd(dense, compute_uv=False) if T.lattice.dim else np.array([])
    null_dim = int((sv <= TOL_ORACLE * max(1.0, float(sv.max(initial=0.0)))).sum())
    rank_proj = int((np.abs(proj.symbol) > 0.5).sum())
    ok = null_dim == rank_proj
    dev = float(np.abs((op * proj).symbol).max()) if T.lattice.dim else 0.0
    ok &= dev <= TOL_EXACT
    out.holds("kernel-formula-matches-null-space-oracle", d, ok, dev)

    # dominated convergence with an explicit witness
    fs = vals + 1.0 / np.arange(1, 13)[:, None]
    z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                       + 1j * rng.standard_normal(T.lattice.dim))
    rep = dominated_convergence_calculus(T, fs, vals, lambda n: 1.0 / (n + 1), z=z)
    out.holds("dominated-convergence-witness", d, rep, witness=rep.reason)


def eigen_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    mu = eigen_expansion(T).mu
    z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                       + 1j * rng.standard_normal(T.lattice.dim))
    # row k of bands is the 0/1 mask of band k, row k of comps z's component there
    bands = mu.labels == np.arange(len(mu.values))[:, None]
    comps = np.where(bands, z.values, 0)
    resid = T.symbol * comps - np.asarray(mu.values)[:, None] * comps
    ok = float(np.abs(resid).max()) <= TOL_EXACT * max(1.0, T.order_unit_norm())
    back = comps.sum(axis=0)
    ok &= float(np.abs(back - z.values).max()) <= TOL_EXACT
    # component uniqueness: projecting the reassembled decomposition onto
    # each band returns exactly its component
    ok &= bool(np.array_equal(np.where(bands, back, 0), comps))
    out.holds("eigenvector-components-and-uniqueness", d, ok)

    # each residual within its a-priori rounding bound, which is finite
    poly = minimal_polynomial(mu.values)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(eval_polynomial(poly, T.symbol))
        bound = annihilation_bound(mu.values, T.symbol)
    ok = (np.isfinite(bound).all() and (resid <= bound).all()
          and len(poly) == len(mu.values) + 1)
    out.holds("minimal-polynomial-annihilation", d, ok, float(resid.max()))


def eigen_sequence(out: Records, op, d: str, rng: np.random.Generator) -> None:
    out.guarded("sequence-partial-sum-tail-domination", d, ValueError,
                lambda: expansion_tail_report(op),
                lambda records: (all(r.dominated for r in records),
                                 max(0.0, max(r.sampled_tail_sup - r.certified_bound
                                              for r in records))))
    # a nonzero polynomial of degree <= 8 has at most 8 roots, so more
    # than 8 distinct (finite) prefix values defeat every monic one
    distinct = distinct_finite_count(op.prefix(SAMPLE))
    if distinct > 8:
        out.holds("infinite-spectrum-defeats-monic-annihilators", d, True,
                  witness=f"{distinct} distinct prefix values")


def commutant_central(out: Records, T, d: str, rng: np.random.Generator) -> None:
    inside = commutant_block_operator(rng, T)
    rep = commutant_check(T, inside, rng=rng)
    out.holds("five-conditions-agree-inside", d, rep.all_equivalent() and rep.with_operator)
    mism = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
    if len(mism):
        i, j = mism[rng.integers(0, len(mism))]
        broken = np.array(inside.entries)
        broken[i, j] += 1.0
        repb = commutant_check(T, RegularOperator(T.lattice, broken), rng=rng)
        out.holds("five-conditions-agree-outside", d,
                  repb.all_equivalent() and not repb.with_operator)


def compactness_sequence(out: Records, op, d: str, rng: np.random.Generator) -> None:
    out.guarded("certificate-validates-on-prefix", d, CertificateError,
                lambda: validate_certificate(op))


#: Each suite's check families, by the instance kind that each one reads.
SUITES: dict[str, dict[str, Callable]] = {
    "cstar": {"central": cstar_central},
    "norms": {"central": norms_central},
    "fpr": {"central": fpr_central},
    "polar": {"central": polar_central},
    "localize": {"central": localize_central},
    "integral": {"measure": integral_measure},
    "riesz": {"measure": riesz_measure},
    "spectral": {"central": spectral_central, "spectral_measure": spectral_projection_measure},
    "calculus": {"central": calculus_central},
    "eigen": {"central": eigen_central, "sequence": eigen_sequence},
    "commutant": {"central": commutant_central},
    "compactness": {"sequence": compactness_sequence},
}


def run_suites(names, instances, seed: int = 0) -> list[SuiteReport]:
    """Each named suite's families over the objects of their kinds, in order.

    An object is digested once per call, when a suite first reads its kind.
    Each family call draws from ``default_rng([seed, i, digest])``, where i is
    the suite's index in ``SUITES``, so its records depend on nothing else."""
    reports, digests = [], {}
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        index, out = list(SUITES).index(name), Records(name)
        start = time.perf_counter()
        for kind, family in SUITES[name].items():
            objects = instances.get(kind, [])
            if kind not in digests:
                digests[kind] = [op_digest(obj) for obj in objects]
            for obj, d in zip(objects, digests[kind]):
                family(out, obj, d, np.random.default_rng([seed, index, int(d, 16)]))
        reports.append(SuiteReport(name, out, time.perf_counter() - start))
    return reports
