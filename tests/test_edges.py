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

import pytest

from centrelat.cli import main
from centrelat.suites import SUITES


def _scaled(k):
    def transform(instances):
        for central in (instance["central"] for instance in instances):
            central["symbol"] = [[re * 2.0 ** k, im * 2.0 ** k] for re, im in central["symbol"]]
    return transform


def _one_subnormal_entry(instances):
    instances[0]["central"]["symbol"][0] = [1e-310, 0.0]


#: Per transform, the whole-corpus change and the names of the checks that fail on it.
EXPECTED = {
    # with |s| near 2**53, |f_n - f| and the star-homomorphism laws round by
    # about u |s|, far beyond the absolute TOL_EXACT
    "scaled-2**50": (_scaled(50), {"dominated-convergence-witness", "star-homomorphism-laws"}),
    "one-subnormal-entry": (_one_subnormal_entry, set()),
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
