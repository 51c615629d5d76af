"""Acceptance gate: the eleven desk-scale verification criteria.

Each test prints one pass/fail line.  Tolerances: 1e-12 for checks that are
algebraically exact on the data (relative to the instance scale where the
data itself spans orders of magnitude), 1e-9 for oracle-backed checks,
1e-10 for polynomial annihilation.
"""

import math
import time

import numpy as np
import pytest

from centrelat.generate import (
    central_from_rational,
    commutant_block_operator,
    commuting_fpr_triple,
    random_central,
    random_lattice,
    random_rational_symbols,
    random_regular,
)
from centrelat.lattice import (
    ComplexElement,
    CoordinateLattice,
    MaxNorm,
    WeightedPNorm,
    check_witness,
)
from centrelat.measures import (
    FiniteMeasurableSpace,
    LatticeValuedMeasure,
    image_measure,
    integrate,
    is_spectral,
    riesz_represent,
)
from centrelat.operators import CentralOperator, RegularOperator, fpr_check
from centrelat.sequence import (
    compactness_check,
    constant,
    expansion_tail_report,
    reciprocal,
    shifted_reciprocal,
)
from centrelat.spectral import (
    build_mu_T,
    commutant_check,
    dominated_convergence_calculus,
    eigen_expansion,
    enumerate_unital_spectral_measures,
    eval_polynomial,
    gelfand,
    kernel_projection,
    rho_T,
    spectrum,
)

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-9


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def rel(dev, scale):
    return dev / max(1.0, scale)


def batch_norm(lattice, Z):
    """Lattice norms of the rows of a complex matrix, vectorized."""
    A = np.abs(Z)
    spec = lattice.norm_spec
    if isinstance(spec, MaxNorm):
        return A.max(axis=1)
    w = np.asarray(spec.weights, dtype=float)
    if math.isinf(spec.p):
        return (w[None, :] * A).max(axis=1)
    return (A ** spec.p @ w) ** (1.0 / spec.p)


def window_residuals(values, distinct, max_degree):
    """Sup over the values of |p| for the monic p whose roots are d
    consecutive distinct values, d <= max_degree, from the first 12 starts:
    the best annihilators on those windows."""
    for d in range(1, max_degree + 1):
        for start in range(min(len(distinct) - d, 12)):
            roots = np.array(distinct[start:start + d])
            yield float(np.max(np.abs(np.prod(values[:, None] - roots[None, :], axis=1))))


def corpus(seed=1000, count=1000, max_dim=32):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        lat = random_lattice(rng, int(rng.integers(1, max_dim + 1)))
        ops.append(random_central(rng, lattice=lat))
    return rng, ops


# ---------------------------------------------------------------------------

def test_criterion_1_cstar_structure():
    start = time.perf_counter()
    rng, ops = corpus()
    worst = 0.0
    for T in ops:
        n = T.order_unit_norm()
        worst = max(worst, rel(abs((T * T.conj()).order_unit_norm() - n * n), n * n))
        hat = gelfand(T)
        worst = max(worst, rel(abs(float(np.max(np.abs(hat))) - n), n))
        worst = max(worst, rel(float(np.max(np.abs(gelfand(T.conj()) - np.conj(hat)))), n))
        S = CentralOperator(T.lattice, rng.standard_normal(T.lattice.dim)
                            + 1j * rng.standard_normal(T.lattice.dim))
        dev = float(np.max(np.abs(gelfand(S * T) - gelfand(S) * hat)))
        worst = max(worst, rel(dev, float(np.max(np.abs(hat * gelfand(S))))))
    elapsed = time.perf_counter() - start
    report(1, "C*-structure and Gelfand laws on 10^3 operators, dims 1..32",
           worst <= TOL_EXACT and elapsed < 10.0,
           f"max rel deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_norm_coincidence():
    rng, ops = corpus(seed=2000)
    worst_excess = 0.0
    attained_ok = True
    for T in ops:
        n = T.lattice.dim
        value = T.order_unit_norm()
        # attainment at a basis vector
        i = int(np.argmax(np.abs(T.symbol)))
        e = np.zeros(n, dtype=complex)
        e[i] = 1.0
        ratio = batch_norm(T.lattice, (T.symbol * e)[None, :])[0] / \
            batch_norm(T.lattice, e[None, :])[0]
        if rel(abs(ratio - value), value) > TOL_EXACT:
            attained_ok = False
        # 10^3 random vectors never exceed the order unit norm
        Z = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
        nz = batch_norm(T.lattice, Z)
        ntz = batch_norm(T.lattice, Z * T.symbol[None, :])
        keep = nz > 0
        excess = np.max(ntz[keep] / nz[keep]) - value if keep.any() else 0.0
        worst_excess = max(worst_excess, rel(excess, value))
    report(2, "norm coincidence: basis attainment and 10^3 samples per instance",
           attained_ok and worst_excess <= TOL_EXACT,
           f"max rel excess {worst_excess:.2e}")


def test_criterion_3_modulus_laws():
    rng = np.random.default_rng(3000)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        lat = CoordinateLattice(n)
        S = random_central(rng, lattice=lat)
        T = random_central(rng, lattice=lat)
        scale = S.order_unit_norm() * T.order_unit_norm()
        dev = float(np.max(np.abs((S * T).modulus().symbol
                                  - S.modulus().symbol * T.modulus().symbol)))
        worst = max(worst, rel(dev, scale))
        z = ComplexElement(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        dev = float(np.max(np.abs(T.apply(z).modulus()
                                  - T.modulus().symbol.real * z.modulus())))
        worst = max(worst, rel(dev, T.order_unit_norm() * float(np.max(z.modulus()))))
    dense_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        X = random_regular(rng, lattice=CoordinateLattice(n))
        z = ComplexElement(X.lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = X.apply(z).modulus()
        rhs = np.abs(X.entries) @ z.modulus()
        if np.any(lhs > rhs + TOL_EXACT * np.maximum(1.0, rhs)):
            dense_ok = False
    report(3, "modulus multiplicativity and |Tz| <= |T||z| on 10^3 instances",
           worst <= TOL_EXACT and dense_ok, f"max rel deviation {worst:.2e}")


def test_criterion_4_fpr_transfer():
    rng = np.random.default_rng(4000)
    transfers = 0
    for _ in range(1000):
        S, T, X = commuting_fpr_triple(rng, int(rng.integers(2, 9)))
        v = fpr_check(S, T, X)
        if v.forward and v.conjugate and v.max_conjugate_deviation <= TOL_EXACT * max(
                1.0, S.order_unit_norm() * float(np.max(np.abs(X.entries))) + 1.0):
            transfers += 1
    detected = 0
    injected = 0
    for _ in range(2000):
        if injected >= 1000:
            break
        S, T, X = commuting_fpr_triple(rng, int(rng.integers(2, 9)))
        diff = np.abs(S.symbol[:, None] - T.symbol[None, :]) > 1e-9
        if not diff.any():
            continue
        injected += 1
        bad = X.entries.copy()
        i, j = np.argwhere(diff)[int(rng.integers(0, int(diff.sum())))]
        bad[i, j] += 1.0 + 1j
        if not fpr_check(S, T, RegularOperator(X.lattice, bad)).forward:
            detected += 1
    report(4, "conjugate commutation transfer on 10^3 triples; faults detected",
           transfers == 1000 and injected == 1000 and detected == injected,
           f"{transfers}/1000 transfers, {detected}/{injected} faults detected")


def test_criterion_5_order_integral_engine():
    rng = np.random.default_rng(5000)
    worst = 0.0
    for _ in range(100):
        npts, dim = 6, 4
        space = FiniteMeasurableSpace(tuple(range(npts)))
        mu = LatticeValuedMeasure(space, tuple(rng.uniform(0, 2, size=dim)
                                               for _ in range(npts)))
        # singleton atoms: a function is one value per point
        f = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in space.points])
        base = integrate(f, mu).values
        # decomposition independence: recompute over a random coarsening
        perm = list(rng.permutation(npts))
        cut = int(rng.integers(1, npts))
        atoms = (tuple(perm[:cut]), tuple(perm[cut:]))
        # make f constant on the coarse atoms so both decompositions apply
        coarse = FiniteMeasurableSpace(tuple(range(npts)), atoms)
        g_coarse = f[[atoms[0][0], atoms[1][0]]]
        g_fine = g_coarse[coarse.atom_of]
        vals = tuple(sum(np.asarray(mu.values[p]) for p in atom) for atom in atoms)
        mu_coarse = LatticeValuedMeasure(coarse, vals)
        dev = float(np.max(np.abs(integrate(g_fine, mu).values
                                  - integrate(g_coarse, mu_coarse).values)))
        worst = max(worst, dev)
        # triangle inequality
        slack = np.abs(base) - integrate(np.abs(f), mu).values.real
        worst = max(worst, float(np.max(slack)))
        # image measure change of variables
        target = FiniteMeasurableSpace((0, 1, 2))
        lands = np.array([int(rng.integers(0, 3)) for _ in space.points])
        out = image_measure(mu, lands, target)
        h = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in target.points])
        a = integrate(h, out).values
        b = integrate(h[lands], mu).values
        worst = max(worst, float(np.max(np.abs(a - b))))
        # Riesz recovery: the functional integrates against mu by construction
        nu = riesz_represent(lambda arr: integrate(arr, mu).values.real, space, rng=rng)
        for v, w in zip(nu.values, mu.values):
            worst = max(worst, float(np.max(np.abs(np.asarray(v) - np.asarray(w)))))
    # homomorphic functional yields a spectral measure
    space = FiniteMeasurableSpace(tuple(range(5)))
    assign = np.random.default_rng(5).integers(0, 5, size=3)
    nu = riesz_represent(lambda arr: np.asarray(arr)[assign], space)
    spectral_ok = bool(is_spectral(nu))
    report(5, "order-integral engine on 10^2 measure/function pairs",
           worst <= TOL_EXACT and spectral_ok, f"max deviation {worst:.2e}")


def test_criterion_6_mu_t_uniqueness():
    start = time.perf_counter()
    rng = np.random.default_rng(6000)
    recon_ok = True
    unique = 0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        symbols = random_rational_symbols(rng, dim)
        T = central_from_rational(symbols)
        mu = build_mu_T(T)
        mu.validate()
        if np.max(np.abs(mu.reconstruct().symbol - T.symbol)) > 0.0:
            recon_ok = False
        if len(enumerate_unital_spectral_measures(symbols)) == 1:
            unique += 1
    elapsed = time.perf_counter() - start
    report(6, "spectral measure reconstruction and enumeration uniqueness, dims <= 6",
           recon_ok and unique == 100 and elapsed < 60.0,
           f"{unique}/100 unique, {elapsed:.2f}s")


def test_criterion_7_functional_calculus():
    rng = np.random.default_rng(7000)
    mapping_ok = True
    kernel_ok = True
    for _ in range(100):
        T = random_central(rng, dim=int(rng.integers(2, 9)), repeats=True)
        spec = spectrum(T, cross_check=False).attained
        table = {v: complex(rng.standard_normal(), rng.standard_normal()) for v in spec}
        if rng.integers(0, 2):
            table[spec[0]] = 0.0  # force a nontrivial kernel sometimes
        R = rho_T(T, table)
        if set(spectrum(R, cross_check=False).attained) != set(table.values()):
            mapping_ok = False
        K = kernel_projection(T, table)
        # null-space oracle on the dense matrix
        s = np.linalg.svd(np.diag(R.symbol), compute_uv=False)
        null_dim = int(np.sum(s < 1e-10 * max(1.0, float(s[0]) if s.size else 1.0)))
        if null_dim != int(np.sum(K.symbol.real)):
            kernel_ok = False
        if not np.array_equal((R.symbol == 0).astype(float), K.symbol.real):
            kernel_ok = False
    witnesses_ok = True
    for _ in range(100):
        T = random_central(rng, dim=int(rng.integers(1, 9)))
        spec = spectrum(T, cross_check=False).attained
        f = {v: v for v in spec}
        fs = [{v: v + 1.0 / n for v in spec} for n in range(1, 30)]
        rep = dominated_convergence_calculus(T, fs, f, bound=T.order_unit_norm() + 1.0,
                                             tail=lambda n: 1.0 / (n + 1))
        if not rep:
            witnesses_ok = False
    report(7, "spectral mapping, kernel formula, dominated-convergence witnesses",
           mapping_ok and kernel_ok and witnesses_ok)


def test_criterion_8_eigen_expansion():
    rng = np.random.default_rng(8000)
    atomic_ok = True
    for _ in range(100):
        T = random_central(rng, dim=int(rng.integers(1, 9)), repeats=True)
        exp = eigen_expansion(T)
        total = sum(lam * p.symbol for lam, p in exp.pairs)
        psum = sum(p.symbol for _, p in exp.pairs)
        if not (np.array_equal(total, T.symbol)
                and np.array_equal(psum, np.ones(T.lattice.dim))):
            atomic_ok = False
        # component uniqueness by projection application
        z = ComplexElement(T.lattice, rng.standard_normal(T.lattice.dim)
                           + 1j * rng.standard_normal(T.lattice.dim))
        comps = exp.components(z)
        reassembled = sum(c.values for c in comps)
        if not np.array_equal(reassembled, z.values):
            atomic_ok = False
        for (_, p), comp in zip(exp.pairs, comps):
            if not np.array_equal(p.apply(z).values, comp.values):
                atomic_ok = False
    records = expansion_tail_report(reciprocal(), checkpoints=[10, 100, 1000])
    tails_ok = all(r.dominated for r in records)
    report(8, "eigen expansion exact; reciprocal tails dominated at N in {10,100,1000}",
           atomic_ok and tails_ok,
           "certified bounds " + ", ".join(f"{r.certified_bound:.4g}" for r in records))


def test_criterion_9_annihilating_polynomials():
    rng = np.random.default_rng(9000)
    finite_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        # unit-disc symbols keep the polynomial evaluation well conditioned,
        # matching the absolute 1e-10 budget
        r = np.sqrt(rng.uniform(0, 1, size=n))
        T = CentralOperator(CoordinateLattice(n),
                            r * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        exp = eigen_expansion(T)
        degree = len(exp.minimal_polynomial) - 1
        if degree != len(set(map(complex, T.symbol))):
            finite_ok = False
        if np.max(np.abs(eval_polynomial(exp.minimal_polynomial, T.symbol))) > 1e-10:
            finite_ok = False
    values = reciprocal().prefix(2000)
    distinct = list(dict.fromkeys(values.tolist()))
    # a nonzero polynomial of degree <= 8 has at most 8 roots; the window
    # products are an independent numerical witness of the same fact
    residual = min(window_residuals(values, distinct, max_degree=8))
    infinite_ok = len(distinct) > 8 and residual > 1e-10
    report(9, "minimal polynomial degree = |spectrum| and annihilates; "
              "infinite spectrum defeats degree <= 8",
           finite_ok and infinite_ok,
           f"{len(distinct)} distinct values, smallest window residual {residual:.3g}")


def test_criterion_10_compactness_trio():
    verdicts = [compactness_check(reciprocal()).compact,
                compactness_check(constant(1.0)).compact,
                compactness_check(shifted_reciprocal(1.0)).compact]
    report(10, "compactness: 1/i compact; constant 1 and 1 + 1/i not",
           verdicts == [True, False, False], f"verdicts {verdicts}")


def test_criterion_11_commutant_equivalences():
    rng = np.random.default_rng(11000)
    discrepancies = 0
    for k in range(100):
        T = random_central(rng, dim=int(rng.integers(2, 7)), repeats=True)
        if k % 2 == 0:
            Xi = commutant_block_operator(rng, T)
        else:
            Xi = random_regular(rng, lattice=T.lattice)
        rep = commutant_check(T, Xi, rng=rng)
        if not rep.all_equivalent():
            discrepancies += 1
    report(11, "five commutation conditions pairwise equivalent on 10^2 instances",
           discrepancies == 0, f"{discrepancies} discrepancies")
