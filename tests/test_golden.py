"""Golden outputs: the written-down determinism contract.

Each CLI config below runs a full session and writes ``transcript.csv``
and ``stats.json``.  Their SHA-256 digests (``stats.json`` re-serialized
without ``wall_clock`` and ``config.out``) are fixed here, so any change to
a draw, to its order, or to the physics that turns draws into outcomes
shows up as a digest mismatch.  Together the configs cover every channel
element, the extra-MUB measurement, both Eve strategies, and the B2 chain's
compensation and detuning phases.  The digests were produced by the
per-photon engine that preceded the columnar one.
"""

import hashlib
import json

import pytest

from oamqkd.cli import main

GOLDEN = {
    "criterion_8": (
        ["--d", "4", "--photons", "20000", "--seed", "23", "--channel", "rotation:0.4",
         "--channel", "loss:0.05", "--eve", "random"],
        "3152e195bec9afbb0f96324221c13ec260ba6090a543c24b3e8b3231d68d4c1c",
        "de537c5edc6ecb4a4572fb494581863f509c54bc1cdd50c3544972c4e4cf3c66",
    ),
    "oam2_phase_elements": (
        ["--oam", "2", "--photons", "4000", "--seed", "5", "--channel", "time_rotation:321",
         "--channel", "freq_shift:9.5", "--channel", "random_rotation", "--channel", "gouy:0.5"],
        "a3cc28f448adbe2e70c6ac02dd04e09179a306042e595d66e6f2741573b36ae9",
        "2b5e95dc2a58fcd0059af97251b198cc21e3da7c7b648a1a2b24fc78040c3e90",
    ),
    "d2_three_mubs_eve": (
        ["--d", "2", "--mubs", "3", "--eve", "random", "--photons", "4000", "--seed", "7"],
        "79438afc0264677a37c434026487b59e415c9baa5a61acf7f707c74fc0e7629a",
        "3b8498b80bf212e90edc297cfcfafa44e967c25b0804d399f21cd4221dfb854f",
    ),
    "d8_random_rotation_key": (
        ["--d", "8", "--channel", "random_rotation", "--photons", "3000", "--seed", "3"],
        "2100b9efc79b97681468c05eea89e3db5d63d0f2478785c0c9db9ebcf2042f4f",
        "29ad016c54fba7760882ed70b9d2aa57441a53349a0941629537b9d0a8e64ff1",
    ),
    "d8_gouy_compensated_loss_eve": (
        ["--d", "8", "--channel", "gouy:2.0", "--compensate-gouy", "--propagation-z", "2.0",
         "--detuning-epsilon", "0.01", "--channel", "loss:0.2", "--eve", "fixed:1",
         "--photons", "4000", "--seed", "11"],
        "82aa8c17d9f82d94dc4472a0acaaf75032d5cabe0f76d90110de87c52c00b478",
        "7fae2b8cff9d17b2460c2c87b83e81cd1f8f118cc9d08639e25c229d6ccc8e4d",
    ),
}


def output_digests(args, out):
    """(transcript digest, stats digest) of one CLI run writing into ``out``."""
    assert main([*args, "--transcript", "--out", str(out)]) == 0
    transcript = hashlib.sha256((out / "transcript.csv").read_bytes()).hexdigest()
    doc = json.loads((out / "stats.json").read_text())
    del doc["wall_clock"], doc["config"]["out"]
    stats = hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()
    return transcript, stats


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, name):
    args, transcript, stats = GOLDEN[name]
    assert output_digests(args, tmp_path / name) == (transcript, stats)
