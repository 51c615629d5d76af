"""Theorem-verification suites over generated or user-supplied instances.

Each suite runs a family of checks against a batch of instances and makes
one record per check, carrying the capability tag, an instance digest, the
verdict, and the largest observed deviation.  Every record is made through
``Records``, which holds the one verdict rule.  Suites are pure functions of
their inputs and a seeded generator, so reports are reproducible.
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
    random_rational_symbols,
    central_from_rational,
)
from .lattice import TOL_EXACT, TOL_ORACLE, ComplexElement, PrincipalIdeal, ideal_norm, modulus
from .measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
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
    DEFAULT_SAMPLE,
    CertificateError,
    compactness_check,
    constant,
    expansion_tail_report,
    reciprocal,
    shifted_reciprocal,
    validate_certificate,
)
from .spectral import (
    annihilation_bound,
    block_eigenvalue_deviation,
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    enumerate_unital_spectral_measures,
    eval_polynomial,
    first_occurrence,
    gelfand,
    reconstruct_from_global,
    rho_T,
    spectrum_shape_report,
    union_spectrum,
)


def digest(doc: Any) -> str:
    """Stable digest of a JSON-serializable instance description."""
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def op_digest(op) -> str:
    if isinstance(op, (CentralOperator, RegularOperator)):
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


@dataclass
class Tolerances:
    exact: float = TOL_EXACT
    oracle: float = TOL_ORACLE


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _rel(dev: float, scale: float) -> float:
    return dev / max(1.0, scale)


def suite_cstar(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    """C*-identity, Gelfand transform laws, modulus laws, four equalities."""
    for T in instances.get("central", []):
        d = op_digest(T)
        n2 = (T * T.conj()).order_unit_norm()
        dev = _rel(abs(n2 - T.order_unit_norm() ** 2), T.order_unit_norm() ** 2)
        out.check("cstar-identity", d, dev, tol.exact)

        hat = gelfand(T)
        sup = float(np.max(np.abs(hat)))
        out.check("gelfand-isometry", d, abs(sup - T.order_unit_norm()), tol.exact)
        dev = float(np.max(np.abs(gelfand(T.conj()) - np.conj(hat))))
        out.check("gelfand-star", d, dev, tol.exact)

        S = random_central(rng, lattice=T.lattice)
        dev = _rel(float(np.max(np.abs(gelfand(S * T) - gelfand(S) * hat))),
                   S.order_unit_norm() * T.order_unit_norm())
        out.check("gelfand-multiplicative", d, dev, tol.exact)

        # modulus multiplicativity, exact on symbols
        dev = _rel(float(np.max(np.abs((S * T).modulus().symbol
                                       - S.modulus().symbol * T.modulus().symbol))),
                   S.order_unit_norm() * T.order_unit_norm())
        out.check("modulus-multiplicative", d, dev, tol.exact)
        dev = _rel(float(np.max(np.abs((T * T.conj()).modulus().symbol
                                       - T.modulus().symbol ** 2))),
                   T.order_unit_norm() ** 2)
        out.check("modulus-of-selfproduct", d, dev, tol.exact)

        # four equalities: |Tz| = |T||z|, invariant under conjugations
        z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                           + 1j * rng.standard_normal(T.lattice.dim))
        ref = modulus(T.apply(z))
        worst = 0.0
        for Top in (T, T.conj(), T.modulus()):
            for zop in (z, z.conj(), ComplexElement(T.lattice, modulus(z).astype(complex))):
                worst = max(worst, float(np.max(np.abs(modulus(Top.apply(zop)) - ref))))
        out.check("modulus-action-four-equalities", d, _rel(worst, T.order_unit_norm()),
                  tol.exact)


def suite_norms(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    """Norm coincidence for central operators; modulus bounds for dense ones."""
    for T in instances.get("central", []):
        d = op_digest(T)
        trip = norms(T, samples=1000, rng=rng)
        basis = np.zeros(T.lattice.dim)
        basis[trip.attained_at] = 1.0
        e = ComplexElement(T.lattice, basis.astype(complex))
        attained = T.apply(e).norm() / e.norm()
        scaled = tol.exact * max(1.0, trip.order_unit)
        out.check("operator-norm-attained-at-basis-vector", d,
                  abs(attained - trip.order_unit), scaled)
        out.check("sampled-norm-never-exceeds-order-unit", d,
                  max(0.0, trip.max_sampled_ratio - trip.order_unit), scaled)
    for X in instances.get("regular", []):
        d = op_digest(X)
        n = X.lattice.dim
        z = ComplexElement(X.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = modulus(X.apply(z))
        rhs = np.abs(X.entries) @ modulus(z)
        dev = _rel(float(np.max(lhs - rhs)), float(np.max(rhs)))
        out.check("dense-modulus-inequality", d, dev, tol.exact)


def suite_fpr(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    triples = [commuting_fpr_triple(rng, T.lattice.dim) for T in instances.get("central", [])]
    for (S, T, X) in triples:
        d = digest([op_digest(S), op_digest(T), op_digest(X)])
        v = fpr_check(S, T, X, tol=tol.exact)
        out.holds("conjugate-commutation-transfer", d,
                  v.forward and v.conjugate and v.transfer_ok, v.max_conjugate_deviation)
        # fault injection: perturb one admissible entry off the pattern
        bad = np.array(X.entries)
        mism = np.argwhere(S.symbol[:, None] != T.symbol[None, :])
        if len(mism):
            i, j = mism[rng.integers(0, len(mism))]
            bad[i, j] += 0.5
            vb = fpr_check(S, T, RegularOperator(X.lattice, bad), tol=tol.exact)
            out.holds("fault-injection-detected", d,
                      (not vb.forward) and vb.first_violation is not None,
                      vb.max_forward_deviation)


def suite_polar(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    prev_invertible = None
    for T in instances.get("central", []):
        d = op_digest(T)
        p = polar(T)
        dev = _rel(float(np.max(np.abs((p.positive * p.unitary).symbol - T.symbol))),
                   T.order_unit_norm())
        ok = dev <= tol.exact
        ok &= bool(np.all(p.positive.symbol.imag == 0) and np.all(p.positive.symbol.real >= 0))
        udev = float(np.max(np.abs(np.abs(p.unitary.symbol) - 1.0)))
        ok &= udev <= tol.exact
        out.holds("factorisation-with-positive-and-unimodular", d, ok, max(dev, udev))
        if np.all(np.abs(T.symbol) > 0):
            if prev_invertible is not None and prev_invertible.lattice.dim == T.lattice.dim:
                S = prev_invertible
                pst = polar(S * T)
                ps, pt = polar(S), polar(T)
                dev = max(
                    float(np.max(np.abs(pst.positive.symbol
                                        - (ps.positive * pt.positive).symbol))),
                    float(np.max(np.abs(pst.unitary.symbol
                                        - (ps.unitary * pt.unitary).symbol))),
                )
                dev = _rel(dev, S.order_unit_norm() * T.order_unit_norm())
                out.check("multiplicative-on-invertibles", d, dev, tol.exact)
            prev_invertible = T


def suite_localize(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for T in instances.get("central", []):
        d = op_digest(T)
        n = T.lattice.dim
        u = rng.uniform(0.1, 2.0, size=n)
        if n >= 2 and rng.uniform() < 0.5:
            u[rng.integers(0, n)] = 0.0
        ideal = PrincipalIdeal(u)
        loc = localize(T, ideal)
        dev = abs(loc.ideal_norm_of_Tu - float(np.max(np.abs(loc.symbol))))
        out.check("restriction-isometry", d, dev,
                  tol.exact * max(1.0, loc.ideal_norm_of_Tu))
        full = PrincipalIdeal(rng.uniform(0.1, 2.0, size=n))
        tu = T.apply(ComplexElement(T.lattice, full.generator.astype(complex)))
        dev = abs(ideal_norm(tu, full) - T.order_unit_norm())
        out.check("full-support-norm-equality", d, dev,
                  tol.exact * max(1.0, T.order_unit_norm()))


def _random_measurable_f(rng, space):
    """A complex function on the atoms of a space, real parts drawn first."""
    return (rng.uniform(-1.0, 1.0, size=space.n_atoms)
            + 1j * rng.uniform(-1.0, 1.0, size=space.n_atoms))


def suite_integral(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for mu in instances.get("measure", []):
        d = op_digest(mu)
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
        dev = float(np.max(np.abs(integrate(total, mu).values - direct)))
        out.check("decomposition-independence", d, dev, tol.exact)

        f = _random_measurable_f(rng, space)
        # Python's abs, which numpy's differs from in the last bit
        absf = [abs(z) for z in f.tolist()]
        lhs = modulus(integrate(f, mu))
        rhs = integrate(absf, mu).re
        out.check("triangle-inequality", d, float(np.max(lhs - rhs)), tol.exact)

        # image measure change of variables, collapsing the atoms onto 3 points
        target = FiniteMeasurableSpace(tuple(range(3)))
        lands = np.array([int(rng.integers(0, 3)) for _ in range(space.n_atoms)])
        img = image_measure(mu, lands, target)
        g = _random_measurable_f(rng, target)
        dev = float(np.max(np.abs(integrate(g, img).values - integrate(g[lands], mu).values)))
        out.check("image-measure-change-of-variables", d, dev, tol.exact)

        # additivity on a random disjoint pair
        ks = rng.uniform(size=space.n_atoms) < 0.5
        dev = float(np.max(np.abs(mu.total() - mu.measure_of(ks) - mu.measure_of(~ks))))
        out.check("finite-additivity", d, dev, tol.exact)


def suite_riesz(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for mu in instances.get("measure", []):
        d = op_digest(mu)
        space = mu.space
        first = np.array([space.points.index(atom[0]) for atom in space.atoms])

        def pi(arr):
            return arr[first] @ mu.values

        def recovery_error(recovered):
            return within(float(np.max(np.abs(recovered.values - mu.values))), tol.exact)

        out.guarded("representing-measure-recovery", d, AssertionError,
                    lambda: riesz_represent(pi, space, mu.lattice, rng=rng, tol=tol.exact),
                    recovery_error)

        # multiplicative pi: coordinates evaluate f at assigned points
        assign_idx = np.array([int(rng.integers(0, len(space.points))) for _ in range(mu.dim)])

        def pi_hom(arr):
            return arr[assign_idx]

        out.guarded("homomorphism-yields-spectral-measure", d, AssertionError,
                    lambda: is_spectral(riesz_represent(pi_hom, space, None, rng=rng,
                                                        tol=tol.exact), tol=tol.exact),
                    lambda verdict: (bool(verdict), verdict.max_violation))


def suite_spectral(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for T in instances.get("central", []):
        d = op_digest(T)
        mu = build_mu_T(T)
        # what spectrum(T) checks, recorded against the oracle's rounding bound;
        # geev raises LinAlgError when its iteration does not converge
        if out.guarded("symbol-spectrum-matches-block-eigenvalues", d, np.linalg.LinAlgError,
                       lambda: block_eigenvalue_deviation(mu), lambda r: within(*r)) is None:
            continue
        out.holds("spectral-radius-and-shape-equivalences", d,
                  spectrum_shape_report(T).all_ok())

        n = T.lattice.dim
        gens = []
        covered = np.zeros(n, dtype=bool)
        while not covered.all():
            mask = rng.uniform(size=n) < 0.6
            if not mask.any():
                continue
            covered |= mask
            gens.append(mask.astype(float))
        ok = union_spectrum(T, gens).as_set() == set(mu.values)
        out.holds("band-cover-union-spectrum", d, ok, 0.0 if ok else 1.0)

        rec = reconstruct_from_global(T)
        dev = _rel(float(np.max(np.abs(rec.symbol - T.symbol))), T.order_unit_norm())
        out.check("global-measure-reconstruction", d, dev, tol.exact)

        out.guarded("spectral-measure-invariants", d, AssertionError,
                    lambda: mu.validate(tol=tol.exact * max(1.0, T.order_unit_norm())))
    for mu in instances.get("spectral_measure", []):
        verdict = is_spectral(mu, tol=tol.exact)
        idem_ok = all(verdict.idempotent)
        out.holds("spectral-measure-product-law", op_digest(mu),
                  bool(verdict) and idem_ok, verdict.max_violation,
                  "" if idem_ok else "an atom value is not idempotent")
    rationals = [random_rational_symbols(rng, min(T.lattice.dim, 6))
                 for T in instances.get("central", [])]
    for symbols in rationals:
        T = central_from_rational(symbols)
        d = op_digest(T)
        admissible = enumerate_unital_spectral_measures(symbols)
        mu = build_mu_T(T)
        unique = len(admissible) == 1
        if unique:
            unique = admissible[0] == tuple(mu.labels.tolist())
        out.holds("enumeration-uniqueness-of-spectral-measure", d,
                  unique, 0.0 if unique else float(len(admissible)))


def suite_calculus(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for T in instances.get("central", []):
        d = op_digest(T)
        mu = build_mu_T(T)
        vals = np.array(mu.values)
        # per value, a real and an imaginary part: the complex view pairs them
        fa, fb = rng.uniform(-1, 1, (2, len(vals), 2)).view(complex)[..., 0]
        ra, rb = rho_T(T, fa, mu), rho_T(T, fb, mu)
        # Python's product and abs, which numpy's differ from in the last bit
        fab = [a * b for a, b in zip(fa.tolist(), fb.tolist())]
        dev = float(np.max(np.abs(rho_T(T, fab, mu).symbol - (ra * rb).symbol)))
        ok = dev <= tol.exact
        dev2 = float(np.max(np.abs(rho_T(T, fa.conj(), mu).symbol - ra.conj().symbol)))
        ok &= dev2 <= tol.exact
        unit = rho_T(T, np.ones(len(vals)), mu)
        ident = rho_T(T, vals, mu)
        ok &= bool(np.all(unit.symbol == 1.0)) and bool(np.all(ident.symbol == T.symbol))
        dev3 = float(np.max(np.abs(rho_T(T, [abs(v) for v in mu.values], mu).symbol
                                   - ident.modulus().symbol)))
        ok &= dev3 <= tol.exact
        out.holds("star-homomorphism-laws", d, ok, max(dev, dev2, dev3))

        ok = set(build_mu_T(ra).values) == set(fa.tolist())
        out.holds("spectral-mapping", d, ok, 0.0 if ok else 1.0)

        # kernel formula against a null-space oracle on the dense matrix
        fker = np.arange(len(vals)) % 2
        op = rho_T(T, fker, mu)
        proj = mu.measure_of(fker == 0)
        dense = np.diag(op.symbol)
        sv = np.linalg.svd(dense, compute_uv=False) if T.lattice.dim else np.array([])
        null_dim = int(np.sum(sv <= tol.oracle * max(1.0, float(sv.max(initial=0.0)))))
        rank_proj = int(np.sum(np.abs(proj.symbol) > 0.5))
        ok = null_dim == rank_proj
        dev = float(np.max(np.abs((op * proj).symbol))) if T.lattice.dim else 0.0
        ok &= dev <= tol.exact
        out.holds("kernel-formula-matches-null-space-oracle", d, ok, dev)

        # dominated convergence with an explicit witness
        fs = [vals + 1.0 / (n + 1) for n in range(12)]
        bound = max(map(abs, mu.values)) + 1.0
        rep = dominated_convergence_calculus(T, fs, vals, bound,
                                             z=ComplexElement(
                                                 T.lattice,
                                                 rng.standard_normal(T.lattice.dim)
                                                 + 1j * rng.standard_normal(T.lattice.dim)),
                                             tail=lambda n: 1.0 / (n + 1))
        out.holds("dominated-convergence-witness", d, rep)


def suite_eigen(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for T in instances.get("central", []):
        d = op_digest(T)
        exp = eigen_expansion(T)
        total = np.zeros(T.lattice.dim, dtype=complex)
        ident = np.zeros(T.lattice.dim, dtype=complex)
        for lam, p in exp.pairs:
            total += lam * p.symbol
            ident += p.symbol
        dev = max(float(np.max(np.abs(total - T.symbol))),
                  float(np.max(np.abs(ident - 1.0))))
        out.check("expansion-reconstruction", d, dev,
                  tol.exact * max(1.0, T.order_unit_norm()))

        z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                           + 1j * rng.standard_normal(T.lattice.dim))
        comps = exp.components(z)
        ok = True
        back = np.zeros(T.lattice.dim, dtype=complex)
        for (lam, p), zi in zip(exp.pairs, comps):
            resid = T.apply(zi).values - lam * zi.values
            ok &= float(np.max(np.abs(resid))) <= tol.exact * max(1.0, T.order_unit_norm())
            back += zi.values
            # component uniqueness: applying each projection to any claimed
            # decomposition returns exactly its component
            ok &= bool(np.array_equal(p.apply(z).values, zi.values))
        ok &= float(np.max(np.abs(back - z.values))) <= tol.exact
        out.holds("eigenvector-components-and-uniqueness", d, ok)

        # each residual within its a-priori rounding bound, which is finite
        spec = [lam for lam, _ in exp.pairs]
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(eval_polynomial(exp.minimal_polynomial, T.symbol))
            bound = annihilation_bound(spec, T.symbol)
        ok = (np.all(np.isfinite(bound)) and np.all(resid <= bound)
              and len(exp.minimal_polynomial) == len(spec) + 1)
        out.holds("minimal-polynomial-annihilation", d, ok, float(np.max(resid)))
    for op in instances.get("sequence", []):
        d = op_digest(op)
        if op.tail is None:
            continue
        out.guarded("sequence-partial-sum-tail-domination", d, ValueError,
                    lambda: expansion_tail_report(op, (10, 100, 1000)),
                    lambda records: (all(r.dominated for r in records),
                                     max(0.0, max(r.sampled_tail_sup - r.certified_bound
                                                  for r in records))))
        # a nonzero polynomial of degree <= 8 has at most 8 roots, so more
        # than 8 distinct (finite) prefix values defeat every monic one
        values, _ = first_occurrence(op.prefix(DEFAULT_SAMPLE))
        distinct = int(np.count_nonzero(np.isfinite(values)))
        if distinct > 8:
            out.holds("infinite-spectrum-defeats-monic-annihilators", d, True,
                      witness=f"{distinct} distinct prefix values")


def suite_commutant(out: Records, instances, tol: Tolerances, rng: np.random.Generator) -> None:
    for T in instances.get("central", []):
        d = op_digest(T)
        inside = commutant_block_operator(rng, T)
        rep = commutant_check(T, inside, rng=rng, tol=tol.exact)
        out.holds("five-conditions-agree-inside", d, rep.all_equivalent() and rep.with_operator)
        mism = np.argwhere(T.symbol[:, None] != T.symbol[None, :])
        if len(mism):
            i, j = mism[rng.integers(0, len(mism))]
            broken = np.array(inside.entries)
            broken[i, j] += 1.0
            repb = commutant_check(T, RegularOperator(T.lattice, broken),
                                   rng=rng, tol=tol.exact)
            out.holds("five-conditions-agree-outside", d,
                      repb.all_equivalent() and not repb.with_operator)


#: Canonical sequence operators and whether each is compact, built once so
#: that every ``verify`` call reuses their memoised prefixes.
CANONICAL = ((reciprocal(), True), (constant(1.0), False), (shifted_reciprocal(1.0), False))


def suite_compactness(out: Records, instances, tol: Tolerances,
                      rng: np.random.Generator) -> None:
    for op, expected in CANONICAL:
        verdict = compactness_check(op)
        out.holds("canonical-classification", op_digest(op),
                  bool(verdict) == expected, 0.0, verdict.reason)
    for op in instances.get("sequence", []):
        out.guarded("certificate-validates-on-prefix", op_digest(op), CertificateError,
                    lambda: validate_certificate(op))


SUITES: dict[str, Callable] = {
    "cstar": suite_cstar,
    "norms": suite_norms,
    "fpr": suite_fpr,
    "polar": suite_polar,
    "localize": suite_localize,
    "integral": suite_integral,
    "riesz": suite_riesz,
    "spectral": suite_spectral,
    "calculus": suite_calculus,
    "eigen": suite_eigen,
    "commutant": suite_commutant,
    "compactness": suite_compactness,
}


def run_suites(names, instances, tol: Optional[Tolerances] = None,
               seed: int = 0) -> list[SuiteReport]:
    tol = tol or Tolerances()
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        rng = np.random.default_rng(seed)
        records = Records(name)
        start = time.perf_counter()
        SUITES[name](records, instances, tol, rng)
        reports.append(SuiteReport(name, records, time.perf_counter() - start))
    return reports
