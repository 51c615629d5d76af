"""What the verify checks can see: a ratchet on their power.

Each fault in ``FAULTS`` changes one operation of the library by a relative
1e-9, or drops it, and ``verify --seed 7`` runs in process on the first 20
instances of the reference corpus (``gen --seed 7 --dim 2..16 --count 100``)
under it.  The checks that the fault flips from pass to fail must be exactly
those that the table names.  Every check that ``verify`` emits is flipped by
some fault, or is listed in ``NO_FAULT_YET`` with the reason why none of the
faults reaches it, so a check that no fault can flip does not go unnoticed,
and one that a fault comes to flip leaves that list.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from centrelat import spectral
from centrelat.cli import main
from centrelat.measures import LatticeValuedMeasure
from centrelat.operators import CentralOperator
from centrelat.spectral import OperatorSpectralMeasure

R = 1 + 1e-9
_norm, _conj, _mul = (CentralOperator.order_unit_norm, CentralOperator.conj,
                      CentralOperator.__mul__)
_reconstruct, _first_occurrence = OperatorSpectralMeasure.reconstruct, spectral.first_occurrence
_global = spectral.global_spectral_measure
_measure_of = LatticeValuedMeasure.measure_of


def _scaled(op):
    return CentralOperator(op.lattice, op.symbol * R)


def _first_value_moved(symbol):
    values, labels = _first_occurrence(symbol)
    return (values[0] * R, *values[1:]), labels


def _global_value_moved(lattice):
    mu = _global(lattice)
    values = np.array(mu.values)
    values[0, 0] *= R
    return LatticeValuedMeasure(mu.space, values, mu.lattice)


#: Per fault, the attribute it replaces, its replacement and the checks it flips.
FAULTS = {
    "order-unit-norm-scaled": (
        CentralOperator, "order_unit_norm", lambda self: _norm(self) * R,
        {"cstar-identity", "full-support-norm-equality",
         "operator-norm-attained-at-basis-vector", "spectral-radius-and-shape-equivalences"}),
    "conj-returns-the-operator": (
        CentralOperator, "conj", lambda self: self,
        {"star-homomorphism-laws"}),
    "conj-scaled": (
        CentralOperator, "conj", lambda self: _scaled(_conj(self)),
        {"cstar-identity", "modulus-action-four-equalities", "modulus-of-selfproduct",
         "star-homomorphism-laws"}),
    "product-scaled": (
        CentralOperator, "__mul__", lambda self, other: _scaled(_mul(self, other)),
        {"cstar-identity", "factorisation-with-positive-and-unimodular",
         "modulus-multiplicative", "modulus-of-selfproduct", "multiplicative-on-invertibles",
         "star-homomorphism-laws"}),
    "spectral-reconstruction-scaled": (
        OperatorSpectralMeasure, "reconstruct", lambda self: _scaled(_reconstruct(self)),
        {"spectral-measure-invariants"}),
    "first-spectrum-value-scaled": (
        spectral, "first_occurrence", _first_value_moved,
        {"eigenvector-components-and-uniqueness", "minimal-polynomial-annihilation",
         "spectral-mapping", "spectral-measure-invariants",
         "spectral-radius-and-shape-equivalences", "star-homomorphism-laws",
         "symbol-spectrum-matches-block-eigenvalues"}),
    "global-measure-value-scaled": (
        spectral, "global_spectral_measure", _global_value_moved,
        {"global-measure-reconstruction"}),
    "measure-of-scaled": (
        LatticeValuedMeasure, "measure_of", lambda self, atoms: _measure_of(self, atoms) * R,
        {"decomposition-independence", "finite-additivity"}),
}

#: The checks that no fault in FAULTS flips, and why none reaches them.
NO_FAULT_YET = {
    "conjugate-commutation-transfer": "fpr_check multiplies the symbols and X directly",
    "fault-injection-detected": "fpr_check multiplies the symbols and X directly",
    "image-measure-change-of-variables": "image_measure and integrate read the atom rows, "
                                         "not measure_of",
    "triangle-inequality": "integrate reads the atom rows, not measure_of",
    "homomorphism-yields-spectral-measure": "the riesz suite reads measures, not operators",
    "representing-measure-recovery": "the riesz suite reads measures, not operators",
    "spectral-measure-product-law": "it reads a spectral measure instance, not an operator",
    "restriction-isometry": "localize and ideal_norm read the symbol directly",
    "dominated-convergence-witness": "f, the f_n and the limit all come from the same "
                                     "mu_T values, so a moved value moves every side",
    "kernel-formula-matches-null-space-oracle": "a 0/1 table times its own bands is exact "
                                                "at any scale",
    "five-conditions-agree-inside": "the commutant conditions read the symbol and the "
                                    "labels, and a moved norm only rescales condition 3",
    "five-conditions-agree-outside": "the commutant conditions read the symbol and the "
                                     "labels, and a moved norm only rescales condition 3",
    "sampled-norm-never-exceeds-order-unit": "a larger norm only widens its margin",
}


def _verdicts(path):
    """Per check name that verify emits, whether any of its records fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", str(path), "--seed", "7"])
    failed = {}
    for record in map(json.loads, out.getvalue().splitlines()):
        if "check" in record:
            failed[record["check"]] = failed.get(record["check"], False) or not record["ok"]
    return failed


@pytest.fixture(scope="module")
def flips(tmp_path_factory):
    """The names verify emits, and per fault the checks it flips."""
    path = tmp_path_factory.mktemp("power") / "corpus.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                     "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({"instances": doc["instances"][:20]}))
    clean = _verdicts(path)
    assert not any(clean.values()), "a check fails without a fault"
    flipped = {}
    for name, (owner, attr, replacement, _) in FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, replacement)
            flipped[name] = {check for check, failed in _verdicts(path).items() if failed}
    return set(clean), flipped


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_fault_flips_exactly_its_checks(fault, flips):
    _, flipped = flips
    expected = FAULTS[fault][3]
    assert flipped[fault] == expected, (f"newly flipped: {flipped[fault] - expected}; "
                                        f"no longer flipped: {expected - flipped[fault]}")


def test_every_check_is_flipped_by_a_fault_or_says_why_not(flips):
    emitted, flipped = flips
    reached = set().union(*flipped.values())
    assert emitted - reached - set(NO_FAULT_YET) == set(), "checks no fault flips"
    assert set(NO_FAULT_YET) & reached == set(), "stale NO_FAULT_YET entries: a fault flips them"
    assert set(NO_FAULT_YET) - emitted == set(), "stale NO_FAULT_YET entries: verify emits none"
