"""Golden digests of the `verify` report on two fixed inputs, and of the
`calc` output on the first operators of one of them, and of the riesz
suite at verify seeds 0-7 on a small corpus.

The atomic corpus is ``centrelat gen --seed 7 --dim 2..16 --count 100``,
verified with ``--seed 7``.  The sequence bundle holds one operator of each
builtin rule, two of them geometric.  Each test runs ``centrelat`` in
process and hashes the output lines with their ``seconds`` field removed, so
any change to a record or a summary line, other than its timing, changes the
digest.  A change that alters the output on purpose records the new digest
here and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from centrelat import io as cio
from centrelat import suites
from centrelat.cli import main
from centrelat.sequence import constant, geometric, reciprocal, shifted_reciprocal

# the spectral suite's symbol-spectrum record carries the block-eigenvalue
# oracle's deviation, which is LAPACK geev output.  Both verify digests were
# recorded when each object's checks first drew from a generator of its own.
# The atomic digest changed again when five checks that repeated another
# comparison were deleted (gelfand-isometry, gelfand-star,
# gelfand-multiplicative, expansion-reconstruction and
# band-cover-union-spectrum): the other records kept their bits, and only
# the cstar, spectral and eigen summaries' n_checks changed.  It changed once
# more when enumeration-uniqueness-of-spectral-measure, which could not fail
# on a coordinate lattice, was deleted: the other records kept their bits,
# and only the spectral summary's n_checks changed
VERIFY_SEED7_SHA256 = "4765525a744c1ffe0b83b56f1d421d4dc9eddfdec8def0be781d22214f39f3b6"
VERIFY_SEQUENCE_SHA256 = "79e59df744f337906edab463b1f91d06bffcc71b52c1e3aac5c6aec3c43ceac0"
# calc mu_t, eigen and freudenthal on the atomic corpus's first 10 operators;
# mu_t and eigen print the spectrum values and each coordinate's label
CALC_SEED7_SHA256 = "1e649459282b9b23e85a2316fcf207cf068a798ed947868917b4191363305d8f"
CALC_REQUESTS = ("mu_t", "eigen", "freudenthal")
# verify --suite riesz --seed s on gen --seed 7 --dim 2..16 --count 20.  Every
# riesz check passes with deviation 0 on this corpus, so the lines are the
# same at each seed; the states of the measures' own generators afterwards, in
# instance order (the sha256 of their JSON), record how many draws
# riesz_represent consumed on each measure at each seed
RIESZ_VERIFY_SHA256 = "aa717bfe9f57e3aadf039f3812c1309daa368c37628e506c7b1b2815e485cd18"
RIESZ_STATE_SHA256 = (
    "6b6638de4ae1abc4a0f6a13f902c2aa2db9f2b3e3d661f0e21d4c74ee1f3d017",
    "890ed87a7aba1cb1f77b5d1eac065abee16bcd48f6c42516b4208475e4db09bb",
    "5607c677f55a69a3102bde1cbb84bc16ca89650edb64e3a43c68080e3814fd8b",
    "427059519d55e2098266603e3fcd033a0b3193e5454e01a5284d347fdbc076e8",
    "0bfafb141f34e861df2f225d4ba2ea82e866e982a1e06293891f9d0389fa5850",
    "c5537bb2f1c0c56a07addbbaed9e9df7ef6d484e5ed93e82339251eea4bb9e7f",
    "786ee8478a0944e229c36ad81619cb7911f3ef1b6de0a24b9f7db1e97bfb7e8a",
    "2f78e6f49e2e8f47be062c9bbcf0f4f1e33d52b941551cbc446f258cb8bf9f74",
)


def report_digest(text):
    lines = [json.dumps({k: v for k, v in json.loads(line).items() if k != "seconds"},
                        sort_keys=True)
             for line in text.splitlines() if line.strip()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_verify_report_digest_on_reference_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["verify", "--seed", "7", str(corpus)]) == 0
    assert report_digest(capsys.readouterr().out) == VERIFY_SEED7_SHA256


def test_calc_digest_on_reference_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "100",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    for i, instance in enumerate(json.loads(corpus.read_text())["instances"][:10]):
        operator = tmp_path / f"central{i}.json"
        operator.write_text(json.dumps(instance["central"]))
        for request in CALC_REQUESTS:
            assert main(["calc", request, str(operator)]) == 0
    assert report_digest(capsys.readouterr().out) == CALC_SEED7_SHA256


def test_verify_report_digest_on_sequence_bundle(tmp_path, capsys):
    ops = (reciprocal(), shifted_reciprocal(0.7), geometric(0.3), geometric(0.9),
           constant(1 + 1j))
    bundle = tmp_path / "sequences.json"
    bundle.write_text(json.dumps({"instances": [
        {"kind": "sequence", "sequence": cio.sequence_to_json(op)} for op in ops]}))
    assert main(["verify", str(bundle)]) == 0
    assert report_digest(capsys.readouterr().out) == VERIFY_SEQUENCE_SHA256


@pytest.mark.parametrize("seed", range(len(RIESZ_STATE_SHA256)))
def test_riesz_suite_digest_and_draws_at_verify_seeds(seed, tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.json"
    assert main(["gen", "--seed", "7", "--dim", "2..16", "--count", "20",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    made = []
    default_rng = np.random.default_rng

    def recording_rng(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(suites.np.random, "default_rng", recording_rng)
    assert main(["verify", "--suite", "riesz", "--seed", str(seed), str(corpus)]) == 0
    assert report_digest(capsys.readouterr().out) == RIESZ_VERIFY_SHA256
    assert len(made) == 20    # one generator per measure
    states = json.dumps([rng.bit_generator.state for rng in made], sort_keys=True)
    assert hashlib.sha256(states.encode()).hexdigest() == RIESZ_STATE_SHA256[seed]
