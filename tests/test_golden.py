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
# and only the spectral summary's n_checks changed.  Every corpus-derived
# digest here was re-recorded once when gen stopped writing the dense
# regular kind: its draws no longer come between each central operator and
# its measures, so every object after the first central operator is a new
# draw.  The same change deleted the records of the regular kind's modulus
# check and made triangle-inequality record its violation max(0, lhs - rhs),
# 0.0 on every record here, in place of its negative slack.  It changed once
# more when norms came to draw the moduli |z| of its samples, one Rayleigh
# draw per coordinate, in place of two normals: 32 of the 3,113 lines, all
# sampled-norm-never-exceeds-order-unit deviations, changed, and no verdict
VERIFY_SEED7_SHA256 = "2eac4a29ddaa98441d2232b04e0a4ab4f0fd930f0da181fef71f670079e5d537"
VERIFY_SEQUENCE_SHA256 = "79e59df744f337906edab463b1f91d06bffcc71b52c1e3aac5c6aec3c43ceac0"
# calc mu_t, eigen and freudenthal on the atomic corpus's first 10 operators;
# mu_t and eigen print the spectrum values and each coordinate's label.
# Re-recorded when gen stopped writing the regular kind: operators 1-9 are
# new draws, and operator 0 is the one it was
CALC_SEED7_SHA256 = "8f2aaca0275e1d900312d1378bee6d713af4c47b2e08248965010bb40030e02d"
CALC_REQUESTS = ("mu_t", "eigen", "freudenthal")
# verify --suite riesz --seed s on gen --seed 7 --dim 2..16 --count 20.  Every
# riesz check passes with deviation 0 on this corpus, so the lines are the
# same at each seed; the states of the measures' own generators afterwards, in
# instance order (the sha256 of their JSON), record how many draws
# riesz_represent consumed on each measure at each seed.  Its measures are
# new draws since gen stopped writing the regular kind, so its instance
# digests, and with them these lines and states, were re-recorded then
RIESZ_VERIFY_SHA256 = "0541528595475d18fa7a9933e54eb6ae6615b92d1101289bf99147afbb617446"
RIESZ_STATE_SHA256 = (
    "682d0d3615f6961723b6b797fc74d83a524f6dc87fde1da1430a3eecc110f487",
    "7e7a666aa704c86e2d00d9a0b1fcd734e52ceabc77ba20a8d6999aa608461300",
    "717f6035afe876ddb2db92c71ae6337a5447624f6c7753b85441db3c33c780d2",
    "40a4a57af0db7345ee25d4b2f0d98546b6e0e872aa38699460f556fd0e5f7e01",
    "aefdc6991b11f81e8e399f9fb9d8e3ed08369de51a993d64f8ebfeda2c8462c0",
    "6b850aef5fac68ff95500502373746ad231d5742e758b06a9ac92697e45c30fd",
    "b404694a5a8f2b570167c7d5d7878f4004d8d39588aa8b0feaab9a56d8bbea39",
    "c7f12a129370cb3fc0717b38e27301defabe3236a695a6582bd29656cd31f4d3",
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
