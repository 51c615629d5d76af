"""The verifier at the edges of what ``io`` admits: a failure ratchet.

Each transform of the reference corpus (``gen --seed 7 --dim 2..16 --count
100``) runs through ``verify --seed 7`` in process.  It must end with exit 0
or 1, raise nothing and print every suite's records and summaries.  The
checks that fail on it must be exactly those that ``EXPECTED`` names: a
check that starts failing is a regression, and one that stops failing is a
stale entry, to be removed from the table.  So the table only shrinks, as
the verdicts come to hold at more scales.
"""

import json
import math

import pytest

from centrelat.cli import main
from centrelat.suites import SUITES


def _scaled(k):
    def transform(instances):
        for central in (instance["central"] for instance in instances):
            central["symbol"] = [[re * 2.0 ** k, im * 2.0 ** k] for re, im in central["symbol"]]
    return transform


def _one_entry(re, im):
    def transform(instances):
        instances[0]["central"]["symbol"][0] = [re, im]
    return transform


def _signed_zeros(instances):
    # entry 0 zero with parts of both signs, entry 1 with a real part -0.0
    for central in (instance["central"] for instance in instances):
        central["symbol"][0] = [0.0, -0.0]
        central["symbol"][1][0] = -0.0


def _one_ulp_apart(instances):
    # entry 1 the next float above entry 0 in its real part
    for central in (instance["central"] for instance in instances):
        re, im = central["symbol"][0]
        central["symbol"][1] = [math.nextafter(re, math.inf), im]


#: Per transform, the whole-corpus change and the names of the checks that fail on it.
#: Each row takes about 0.6 s.
EXPECTED = {
    # a product S T near 2**-1040 keeps some 34 bits, so the unit factor of
    # its polar decomposition is not the product of S's and T's within
    # TOL_EXACT; five-conditions-agree-outside fails as in the next rows
    "scaled-2**-1040": (_scaled(-1040), {"multiplicative-on-invertibles",
                                          "five-conditions-agree-outside"}),
    # with |s| far below TOL_EXACT = 1e-12, the entry added off the block
    # pattern keeps S X - X S within the absolute tolerance, so condition 1
    # still holds outside the commutant
    "scaled-2**-100": (_scaled(-100), {"five-conditions-agree-outside"}),
    "scaled-2**-35": (_scaled(-35), {"five-conditions-agree-outside"}),
    # |f_n - f| and the star-homomorphism laws round by about u |s|, which
    # exceeds the absolute TOL_EXACT on more instances as |s| grows
    "scaled-2**6": (_scaled(6), {"dominated-convergence-witness"}),
    "scaled-2**10": (_scaled(10), {"dominated-convergence-witness", "star-homomorphism-laws"}),
    "scaled-2**30": (_scaled(30), {"dominated-convergence-witness", "star-homomorphism-laws"}),
    "scaled-2**50": (_scaled(50), {"dominated-convergence-witness", "star-homomorphism-laws"}),
    "scaled-2**60": (_scaled(60), {"dominated-convergence-witness", "star-homomorphism-laws"}),
    # the weighted p-norms' sums overflow there and are evaluated scaled;
    # the annihilation residuals overflow
    "scaled-2**400": (_scaled(400), {"star-homomorphism-laws",
                                     "minimal-polynomial-annihilation"}),
    "one-subnormal-entry": (_one_entry(1e-310, 0.0), set()),
    # |s| keeps some 28 bits, so s / |s| misses modulus 1 by about 2e-10:
    # polar divides the entry scaled by 2**600 instead
    "one-subnormal-entry-of-unequal-parts": (_one_entry(-2e-320, 1e-315), set()),
    "signed-zeros": (_signed_zeros, set()),
    # S X - X S at an entry off the block pattern between the two bands is
    # one ulp of s times X's entry, within the absolute TOL_EXACT, so
    # condition 1 holds outside the commutant, as in the 2**-35 row
    "one-ulp-apart": (_one_ulp_apart, {"five-conditions-agree-outside"}),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "corpus.json"
    assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_edge_transform_fails_only_the_expected_checks(name, corpus, tmp_path, capsys):
    transform, failing = EXPECTED[name]
    doc = json.loads(json.dumps(corpus))
    transform(doc["instances"])
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", str(path), "--seed", "7"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code in (0, 1)
    # every suite's records, then its summary, then the run's summary
    summary = lines[-1]
    assert summary["suites"] == list(SUITES)
    suite_lines = [line for line in lines if "n_checks" in line]
    assert [line["suite"] for line in suite_lines] == list(SUITES)
    records = [line for line in lines if "check" in line]
    assert len(lines) == len(records) + len(SUITES) + 1
    for line in suite_lines:
        assert line["n_checks"] == sum(r["suite"] == line["suite"] for r in records)
    failed = {r["check"] for r in records if not r["ok"]}
    assert failed == failing, f"newly failing: {failed - failing}; stale: {failing - failed}"
    assert code == (1 if failing else 0)
