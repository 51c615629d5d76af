"""Golden digest of the `verify` report on the reference corpus.

The corpus is ``centrelat gen --seed 7 --dim 2..16 --count 100``.  The test
runs ``centrelat verify --seed 7`` on it in process and hashes the output
lines with their ``seconds`` field removed, so any change to a record or a
summary line, other than its timing, changes the digest.  A change that
alters the report on purpose records the new digest here and says why.
"""

import hashlib
import json

from centrelat.cli import main

VERIFY_SEED7_SHA256 = "9735facbf51452a87637724fc39b9799bffa4c2b126efcb02e4b473a48d1bcb3"


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
