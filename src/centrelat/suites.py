"""Theorem-verification suites over generated or user-supplied instances.

Each suite runs a family of checks against a batch of instances and returns
one record per check, carrying the capability tag, an instance digest, the
verdict, and the largest observed deviation.  Suites are pure functions of
their inputs and a seeded generator, so reports are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import io as cio
from .generate import (
    commutant_block_operator,
    commuting_fpr_triple,
    random_central,
    random_measure,
    random_rational_symbols,
    random_regular,
    central_from_rational,
)
from .lattice import ComplexElement, modulus
from .measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    MeasurableFunction,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
)
from .operators import (
    CentralOperator,
    RegularOperator,
    fpr_check,
    is_central,
    norms,
    operator_modulus,
    polar,
    localize,
)
from .lattice import PrincipalIdeal, ideal_norm
from .sequence import (
    SequenceCentralOperator,
    compactness_check,
    constant,
    expansion_tail_report,
    monic_candidates,
    annihilation_residuals,
    reciprocal,
    sequence_spectrum,
    shifted_reciprocal,
    validate_certificate,
)
from .spectral import (
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    enumerate_unital_spectral_measures,
    eval_polynomial,
    gelfand,
    global_spectral_measure,
    reconstruct_from_global,
    rho_T,
    spectrum,
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
    if isinstance(op, SequenceCentralOperator):
        return digest(cio.sequence_to_json(op))
    return digest(repr(op))


@dataclass
class Record:
    suite: str
    check: str
    instance: str
    ok: bool
    max_deviation: float = 0.0
    witness: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"suite": self.suite, "check": self.check, "instance": self.instance,
                "ok": self.ok, "max_deviation": self.max_deviation, "witness": self.witness}


@dataclass
class SuiteReport:
    suite: str
    records: list[Record] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict[str, Any]:
        return {"suite": self.suite, "pass": self.passed, "seconds": self.seconds,
                "n_checks": len(self.records),
                "n_failed": sum(not r.ok for r in self.records)}


@dataclass
class Tolerances:
    exact: float = 1e-12
    oracle: float = 1e-9


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _rel(dev: float, scale: float) -> float:
    return dev / max(1.0, scale)


def suite_cstar(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    """C*-identity, Gelfand transform laws, modulus laws, four equalities."""
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        n2 = (T * T.conj()).order_unit_norm()
        dev = _rel(abs(n2 - T.order_unit_norm() ** 2), T.order_unit_norm() ** 2)
        out.append(Record("cstar", "cstar-identity", d, dev <= tol.exact, dev))

        hat = gelfand(T)
        dev = abs(hat.sup_norm() - T.order_unit_norm())
        out.append(Record("cstar", "gelfand-isometry", d, dev <= tol.exact, dev))
        dev = float(np.max(np.abs(gelfand(T.conj()).values - np.conj(hat.values))))
        out.append(Record("cstar", "gelfand-star", d, dev <= tol.exact, dev))

        S = random_central(rng, lattice=T.lattice)
        dev = _rel(float(np.max(np.abs(gelfand(S * T).values - gelfand(S).values * hat.values))),
                   S.order_unit_norm() * T.order_unit_norm())
        out.append(Record("cstar", "gelfand-multiplicative", d, dev <= tol.exact, dev))

        # modulus multiplicativity, exact on symbols
        dev = _rel(float(np.max(np.abs((S * T).modulus().symbol
                                       - S.modulus().symbol * T.modulus().symbol))),
                   S.order_unit_norm() * T.order_unit_norm())
        out.append(Record("cstar", "modulus-multiplicative", d, dev <= tol.exact, dev))
        dev = _rel(float(np.max(np.abs((T * T.conj()).modulus().symbol
                                       - T.modulus().symbol ** 2))),
                   T.order_unit_norm() ** 2)
        out.append(Record("cstar", "modulus-of-selfproduct", d, dev <= tol.exact, dev))

        # four equalities: |Tz| = |T||z|, invariant under conjugations
        z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                           + 1j * rng.standard_normal(T.lattice.dim))
        ref = modulus(T.apply(z))
        worst = 0.0
        for Top in (T, T.conj(), T.modulus()):
            for zop in (z, z.conj(), ComplexElement(T.lattice, modulus(z).astype(complex))):
                worst = max(worst, float(np.max(np.abs(modulus(Top.apply(zop)) - ref))))
        worst = _rel(worst, T.order_unit_norm())
        out.append(Record("cstar", "modulus-action-four-equalities", d,
                          worst <= tol.exact, worst))
    return out


def suite_norms(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    """Norm coincidence for central operators; modulus bounds for dense ones."""
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        trip = norms(T, samples=1000, rng=rng)
        basis = np.zeros(T.lattice.dim)
        basis[trip.attained_at] = 1.0
        e = ComplexElement(T.lattice, basis.astype(complex))
        attained = T.apply(e).norm() / e.norm()
        dev = abs(attained - trip.order_unit)
        out.append(Record("norms", "operator-norm-attained-at-basis-vector", d,
                          dev <= tol.exact * max(1.0, trip.order_unit), dev))
        excess = max(0.0, trip.max_sampled_ratio - trip.order_unit)
        out.append(Record("norms", "sampled-norm-never-exceeds-order-unit", d,
                          excess <= tol.exact * max(1.0, trip.order_unit), excess))
    for X in instances.get("regular", []):
        d = op_digest(X)
        n = X.lattice.dim
        z = ComplexElement(X.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = modulus(X.apply(z))
        rhs = np.abs(X.entries) @ modulus(z)
        dev = _rel(float(np.max(lhs - rhs)), float(np.max(rhs)))
        out.append(Record("norms", "dense-modulus-inequality", d, dev <= tol.exact, dev))
    return out


def suite_fpr(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    triples = instances.get("fpr")
    if triples is None:
        triples = [commuting_fpr_triple(rng, T.lattice.dim)
                   for T in instances.get("central", [])]
    for (S, T, X) in triples:
        d = digest([op_digest(S), op_digest(T), op_digest(X)])
        v = fpr_check(S, T, X, tol=tol.exact)
        ok = v.forward and v.conjugate and v.transfer_ok
        out.append(Record("fpr", "conjugate-commutation-transfer", d, ok,
                          v.max_conjugate_deviation))
        # fault injection: perturb one admissible entry off the pattern
        n = X.lattice.dim
        bad = np.array(X.entries)
        mism = [(i, j) for i in range(n) for j in range(n) if S.symbol[i] != T.symbol[j]]
        if mism:
            i, j = mism[rng.integers(0, len(mism))]
            bad[i, j] += 0.5
            vb = fpr_check(S, T, RegularOperator(X.lattice, bad), tol=tol.exact)
            out.append(Record("fpr", "fault-injection-detected", d,
                              (not vb.forward) and vb.first_violation is not None,
                              vb.max_forward_deviation))
    return out


def suite_polar(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
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
        out.append(Record("polar", "factorisation-with-positive-and-unimodular", d, ok,
                          max(dev, udev)))
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
                out.append(Record("polar", "multiplicative-on-invertibles", d,
                                  dev <= tol.exact, dev))
            prev_invertible = T
    return out


def suite_localize(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        n = T.lattice.dim
        u = rng.uniform(0.1, 2.0, size=n)
        if n >= 2 and rng.uniform() < 0.5:
            u[rng.integers(0, n)] = 0.0
        ideal = PrincipalIdeal(u)
        loc = localize(T, ideal)
        dev = abs(loc.ideal_norm_of_Tu - float(np.max(np.abs(loc.symbol))))
        out.append(Record("localize", "restriction-isometry", d,
                          dev <= tol.exact * max(1.0, loc.ideal_norm_of_Tu), dev))
        full = PrincipalIdeal(rng.uniform(0.1, 2.0, size=n))
        tu = T.apply(ComplexElement(T.lattice, full.generator.astype(complex)))
        dev = abs(ideal_norm(tu, full) - T.order_unit_norm())
        out.append(Record("localize", "full-support-norm-equality", d,
                          dev <= tol.exact * max(1.0, T.order_unit_norm()), dev))
    return out


def _random_measurable_f(rng, space, complex_valued=True):
    per_atom = rng.uniform(-1.0, 1.0, size=space.n_atoms)
    per_atom_im = rng.uniform(-1.0, 1.0, size=space.n_atoms) if complex_valued else 0 * per_atom
    table = {}
    for k, atom in enumerate(space.atoms):
        for p in atom:
            table[p] = complex(per_atom[k], per_atom_im[k])
    return MeasurableFunction(space, table)


def suite_integral(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for mu in instances.get("measure", []):
        d = op_digest(mu)
        space = mu.space
        # decomposition independence: sum r_i chi_{D_i} vs the table integral
        m = int(rng.integers(2, 5))
        total = np.zeros(len(space.points), dtype=complex)
        direct = np.zeros(mu.dim, dtype=complex)
        idx = {p: i for i, p in enumerate(space.points)}
        for _ in range(m):
            ks = rng.uniform(size=space.n_atoms) < 0.5
            subset = {p for k, a in enumerate(space.atoms) if ks[k] for p in a}
            r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for p in subset:
                total[idx[p]] += r
            if subset:
                direct += r * np.asarray(mu.measure_of(subset), dtype=complex)
        f = MeasurableFunction(space, {p: total[idx[p]] for p in space.points})
        via_table = integrate(f, mu).values
        dev = float(np.max(np.abs(via_table - direct)))
        out.append(Record("integral", "decomposition-independence", d, dev <= tol.exact, dev))

        f = _random_measurable_f(rng, space)
        absf = MeasurableFunction(space, {p: abs(f(p)) for p in space.points})
        lhs = modulus(integrate(f, mu))
        rhs = integrate(absf, mu).re
        dev = float(np.max(lhs - rhs))
        out.append(Record("integral", "triangle-inequality", d, dev <= tol.exact, dev))

        # image measure change of variables, collapsing 6 -> 3 points
        target = FiniteMeasurableSpace(tuple(range(3)))
        mapping = {p: int(rng.integers(0, 3)) for p in space.points}
        img = image_measure(mu, mapping, target)
        g = _random_measurable_f(rng, target)
        comp = MeasurableFunction(space, {p: g(mapping[p]) for p in space.points})
        dev = float(np.max(np.abs(integrate(g, img).values - integrate(comp, mu).values)))
        out.append(Record("integral", "image-measure-change-of-variables", d,
                          dev <= tol.exact, dev))

        # additivity on a random disjoint pair
        ks = rng.uniform(size=space.n_atoms) < 0.5
        d1 = {p for k, a in enumerate(space.atoms) if ks[k] for p in a}
        d2 = {p for k, a in enumerate(space.atoms) if not ks[k] for p in a}
        dev = float(np.max(np.abs(np.asarray(mu.measure_of(d1 | d2))
                                  - np.asarray(mu.measure_of(d1))
                                  - np.asarray(mu.measure_of(d2)))))
        out.append(Record("integral", "finite-additivity", d, dev <= tol.exact, dev))
    return out


def suite_riesz(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for mu in instances.get("measure", []):
        d = op_digest(mu)
        space = mu.space
        atom_values = [np.asarray(v, dtype=float) for v in mu.values]
        atom_matrix = np.array(atom_values)
        idx = {p: i for i, p in enumerate(space.points)}
        first = np.array([idx[atom[0]] for atom in space.atoms])

        def pi(arr):
            return arr[first] @ atom_matrix

        try:
            recovered = riesz_represent(pi, space, mu.lattice, rng=rng, tol=tol.exact)
            dev = max(float(np.max(np.abs(np.asarray(recovered.values[k]) - atom_values[k])))
                      for k in range(space.n_atoms))
            ok = dev <= tol.exact
        except AssertionError:
            dev, ok = float("inf"), False
        out.append(Record("riesz", "representing-measure-recovery", d, ok, dev))

        # multiplicative pi: coordinates evaluate f at assigned points
        assign_idx = np.array([int(rng.integers(0, len(space.points))) for _ in range(mu.dim)])

        def pi_hom(arr):
            return arr[assign_idx]

        try:
            nu = riesz_represent(pi_hom, space, None, rng=rng, tol=tol.exact)
            verdict = is_spectral(nu, tol=tol.exact)
            out.append(Record("riesz", "homomorphism-yields-spectral-measure", d,
                              bool(verdict), verdict.max_violation))
        except AssertionError:
            out.append(Record("riesz", "homomorphism-yields-spectral-measure", d,
                              False, float("inf")))
    return out


def suite_spectral(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        try:
            spec = spectrum(T)  # includes the dense-eigenvalue cross-check
            out.append(Record("spectral", "symbol-spectrum-matches-dense-eigenvalues",
                              d, True, 0.0))
        except AssertionError:
            out.append(Record("spectral", "symbol-spectrum-matches-dense-eigenvalues",
                              d, False, float("inf")))
            continue
        shape = spectrum_shape_report(T)
        out.append(Record("spectral", "spectral-radius-and-shape-equivalences", d,
                          shape.all_ok(), 0.0))

        n = T.lattice.dim
        gens = []
        covered = np.zeros(n, dtype=bool)
        while not covered.all():
            mask = rng.uniform(size=n) < 0.6
            if not mask.any():
                continue
            covered |= mask
            gens.append(mask.astype(float))
        u = union_spectrum(T, gens)
        ok = u.as_set() == spec.as_set()
        out.append(Record("spectral", "band-cover-union-spectrum", d, ok, 0.0 if ok else 1.0))

        rec = reconstruct_from_global(T)
        dev = _rel(float(np.max(np.abs(rec.symbol - T.symbol))), T.order_unit_norm())
        out.append(Record("spectral", "global-measure-reconstruction", d,
                          dev <= tol.exact, dev))

        mu = build_mu_T(T)
        try:
            mu.validate(tol=tol.exact * max(1.0, T.order_unit_norm()))
            out.append(Record("spectral", "spectral-measure-invariants", d, True, 0.0))
        except AssertionError:
            out.append(Record("spectral", "spectral-measure-invariants", d, False,
                              float("inf")))
    for mu in instances.get("spectral_measure", []):
        d = op_digest(mu)
        verdict = is_spectral(mu, tol=tol.exact)
        idem_ok = all(verdict.idempotent)
        out.append(Record("spectral", "spectral-measure-product-law", d,
                          bool(verdict) and idem_ok, verdict.max_violation,
                          "" if idem_ok else "an atom value is not idempotent"))
    rationals = instances.get("rational")
    if rationals is None:
        rationals = [random_rational_symbols(rng, min(T.lattice.dim, 6))
                     for T in instances.get("central", [])]
    for symbols in rationals:
        T = central_from_rational(symbols)
        d = op_digest(T)
        admissible = enumerate_unital_spectral_measures(symbols)
        mu = build_mu_T(T)
        unique = len(admissible) == 1
        if unique:
            assign = admissible[0]
            expected = tuple(mu.values.index(complex(s.to_complex())) for s in symbols)
            unique = assign == expected
        out.append(Record("spectral", "enumeration-uniqueness-of-spectral-measure", d,
                          unique, 0.0 if unique else float(len(admissible))))
    return out


def suite_calculus(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        mu = build_mu_T(T)
        vals = mu.values
        fa = {v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in vals}
        fb = {v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in vals}
        ra, rb = rho_T(T, fa, mu), rho_T(T, fb, mu)
        dev = float(np.max(np.abs(rho_T(T, {v: fa[v] * fb[v] for v in vals}, mu).symbol
                                  - (ra * rb).symbol)))
        ok = dev <= tol.exact
        dev2 = float(np.max(np.abs(rho_T(T, {v: fa[v].conjugate() for v in vals}, mu).symbol
                                   - ra.conj().symbol)))
        ok &= dev2 <= tol.exact
        unit = rho_T(T, {v: 1.0 for v in vals}, mu)
        ident = rho_T(T, {v: v for v in vals}, mu)
        ok &= bool(np.all(unit.symbol == 1.0)) and bool(np.all(ident.symbol == T.symbol))
        dev3 = float(np.max(np.abs(rho_T(T, {v: abs(v) for v in vals}, mu).symbol
                                   - ident.modulus().symbol)))
        ok &= dev3 <= tol.exact
        out.append(Record("calculus", "star-homomorphism-laws", d, ok,
                          max(dev, dev2, dev3)))

        g = rho_T(T, fa, mu)
        mapped = {fa[v] for v in vals}
        ok = spectrum(g, cross_check=False).as_set() == mapped
        out.append(Record("calculus", "spectral-mapping", d, ok, 0.0 if ok else 1.0))

        # kernel formula against a null-space oracle on the dense matrix
        fker = {v: (0.0 if k % 2 == 0 else 1.0) for k, v in enumerate(vals)}
        op = rho_T(T, fker, mu)
        proj = mu.measure_of([v for v in vals if fker[v] == 0.0])
        dense = np.diag(op.symbol)
        sv = np.linalg.svd(dense, compute_uv=False) if T.lattice.dim else np.array([])
        null_dim = int(np.sum(sv <= tol.oracle * max(1.0, float(sv.max(initial=0.0)))))
        rank_proj = int(np.sum(np.abs(proj.symbol) > 0.5))
        ok = null_dim == rank_proj
        dev = float(np.max(np.abs((op * proj).symbol))) if T.lattice.dim else 0.0
        ok &= dev <= tol.exact
        out.append(Record("calculus", "kernel-formula-matches-null-space-oracle", d,
                          ok, dev))

        # dominated convergence with an explicit witness
        fs = [{v: v + 1.0 / (n + 1) for v in vals} for n in range(12)]
        flim = {v: v for v in vals}
        bound = max(abs(v) for v in vals) + 1.0
        rep = dominated_convergence_calculus(T, fs, flim, bound,
                                             z=ComplexElement(
                                                 T.lattice,
                                                 rng.standard_normal(T.lattice.dim)
                                                 + 1j * rng.standard_normal(T.lattice.dim)),
                                             tail=lambda n: 1.0 / (n + 1))
        out.append(Record("calculus", "dominated-convergence-witness", d, bool(rep), 0.0))
    return out


def suite_eigen(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
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
        out.append(Record("eigen", "expansion-reconstruction", d,
                          dev <= tol.exact * max(1.0, T.order_unit_norm()), dev))

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
        out.append(Record("eigen", "eigenvector-components-and-uniqueness", d, ok, 0.0))

        spec = [lam for lam, _ in exp.pairs]
        resid = float(np.max(np.abs(eval_polynomial(exp.minimal_polynomial, T.symbol))))
        scale = max(1.0, max(abs(v) for v in spec)) ** max(1, len(spec))
        ok = resid <= 1e-10 * scale and len(exp.minimal_polynomial) == len(spec) + 1
        out.append(Record("eigen", "minimal-polynomial-annihilation", d, ok, resid))
    for op in instances.get("sequence", []):
        d = op_digest(op)
        if op.tail is None:
            continue
        try:
            records = expansion_tail_report(op, (10, 100, 1000))
            ok = all(r.dominated for r in records)
            dev = max(r.sampled_tail_sup - r.certified_bound for r in records)
            out.append(Record("eigen", "sequence-partial-sum-tail-domination", d, ok,
                              max(0.0, dev)))
        except Exception:
            out.append(Record("eigen", "sequence-partial-sum-tail-domination", d,
                              False, float("inf")))
        spec = sequence_spectrum(op, validate=False)
        if len(spec.attained) > 8:
            worst_ok = True
            for coeffs in monic_candidates(op, 8):
                if annihilation_residuals(op, coeffs) <= 1e-10:
                    worst_ok = False
                    break
            out.append(Record("eigen", "infinite-spectrum-defeats-monic-annihilators",
                              d, worst_ok, 0.0))
    return out


def suite_commutant(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    for T in instances.get("central", []):
        d = op_digest(T)
        inside = commutant_block_operator(rng, T)
        rep = commutant_check(T, inside, rng=rng, tol=tol.exact)
        ok = rep.all_equivalent() and rep.with_operator
        out.append(Record("commutant", "five-conditions-agree-inside", d, ok, 0.0))
        if len(set(map(complex, T.symbol))) >= 2:
            n = T.lattice.dim
            mism = [(i, j) for i in range(n) for j in range(n)
                    if T.symbol[i] != T.symbol[j]]
            i, j = mism[rng.integers(0, len(mism))]
            broken = np.array(inside.entries)
            broken[i, j] += 1.0
            repb = commutant_check(T, RegularOperator(T.lattice, broken),
                                   rng=rng, tol=tol.exact)
            ok = repb.all_equivalent() and not repb.with_operator
            out.append(Record("commutant", "five-conditions-agree-outside", d, ok, 0.0))
    return out


def suite_compactness(instances, tol: Tolerances, rng: np.random.Generator) -> list[Record]:
    out = []
    canonical = [(reciprocal(), True), (constant(1.0), False), (shifted_reciprocal(1.0), False)]
    for op, expected in canonical:
        d = op_digest(op)
        verdict = compactness_check(op)
        out.append(Record("compactness", "canonical-classification", d,
                          bool(verdict) == expected, 0.0, verdict.reason))
    for op in instances.get("sequence", []):
        d = op_digest(op)
        try:
            validate_certificate(op)
            out.append(Record("compactness", "certificate-validates-on-prefix", d,
                              True, 0.0))
        except Exception as exc:
            out.append(Record("compactness", "certificate-validates-on-prefix", d,
                              False, float("inf"), str(exc)))
    return out


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
        start = time.perf_counter()
        records = SUITES[name](instances, tol, rng)
        reports.append(SuiteReport(name, records, time.perf_counter() - start))
    return reports
