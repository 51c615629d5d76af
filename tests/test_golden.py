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
# oracle's deviation, which is LAPACK geev output
VERIFY_SEED7_SHA256 = "1b391746e1c232ce4a4582cd833bad45006610854f762788e3335a46f9fdb370"
VERIFY_SEQUENCE_SHA256 = "ab074016d8e6801cf318f03478fd9bf085d5446eed8bc786cca05b04e644e3ba"
# calc mu_t, eigen and freudenthal on the atomic corpus's first 10 operators
CALC_SEED7_SHA256 = "ec41cdc787a693707e9c201ed7d002ac8002c8b2e2811288448561493c7e4155"
CALC_REQUESTS = ("mu_t", "eigen", "freudenthal")
# verify --suite riesz --seed s on gen --seed 7 --dim 2..16 --count 20.  Every
# riesz check passes with deviation 0 on this corpus, so the lines are the
# same at each seed; the suite generator's state afterwards (the sha256 of its
# JSON) records how many draws riesz_represent consumed at each seed
RIESZ_VERIFY_SHA256 = "aa717bfe9f57e3aadf039f3812c1309daa368c37628e506c7b1b2815e485cd18"
RIESZ_STATE_SHA256 = (
    "e8a4e8769547ae9ea4833265eca545b5eb385f11cb0da4f073b7eb99784b22bc",
    "5edde8d25d5c77d1fa101222eaef27bf0082eab54f0e30d1e117903fab3f023d",
    "791c942a209ce16a72f31f0896ca89fdb67477a6024f8989a69bbbc5e52a47f9",
    "717bde4241a65780393fa49ffaa3484f0e80e019acca079bac755075322a10de",
    "94a4cecec48ce2716631548b1b68c7060c1fcce3f63218e2ff1fa181a8636340",
    "84503cf4a1327625d6d8c71437aa5d233da02d2e44db1fd85aa76fd3e88f8783",
    "70aad23dc89a8534e087b6d7b8b1a0a3d40b7b6538cd03ed58e957345dcd0f2c",
    "b135a38529a761d0dabe13bed7dc817aa9de318aea765f2753eedc3014b95411",
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
    [rng] = made
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    assert hashlib.sha256(state.encode()).hexdigest() == RIESZ_STATE_SHA256[seed]
