"""Golden digests of the `verify` report on two fixed inputs.

The atomic corpus is ``centrelat gen --seed 7 --dim 2..16 --count 100``,
verified with ``--seed 7``.  The sequence bundle holds one operator of each
builtin rule, two of them geometric.  Each test runs ``centrelat verify`` in
process and hashes the output lines with their ``seconds`` field removed, so
any change to a record or a summary line, other than its timing, changes the
digest.  A change that alters the report on purpose records the new digest
here and says why.
"""

import hashlib
import json

from centrelat import io as cio
from centrelat.cli import main
from centrelat.sequence import constant, geometric, reciprocal, shifted_reciprocal

VERIFY_SEED7_SHA256 = "9735facbf51452a87637724fc39b9799bffa4c2b126efcb02e4b473a48d1bcb3"
VERIFY_SEQUENCE_SHA256 = "ab074016d8e6801cf318f03478fd9bf085d5446eed8bc786cca05b04e644e3ba"


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


def test_verify_report_digest_on_sequence_bundle(tmp_path, capsys):
    ops = (reciprocal(), shifted_reciprocal(0.7), geometric(0.3), geometric(0.9),
           constant(1 + 1j))
    bundle = tmp_path / "sequences.json"
    bundle.write_text(json.dumps({"instances": [
        {"kind": "sequence", "sequence": cio.sequence_to_json(op)} for op in ops]}))
    assert main(["verify", str(bundle)]) == 0
    assert report_digest(capsys.readouterr().out) == VERIFY_SEQUENCE_SHA256
