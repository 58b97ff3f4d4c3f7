import json
import re
from dataclasses import fields

import numpy as np
import pytest

from oamqkd.channel import Eve, Gouy, Loss, Rotation
from oamqkd import cli
from oamqkd.cli import RunConfig, main, parse_config, run
from oamqkd.exceptions import ConfigInvalid
from oamqkd.modes import ModeFamily, ModeLabel, default_geometry, eval_mode, reference_grid


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def load_stats(out_dir):
    return json.loads((out_dir / "stats.json").read_text())


# ------------------------------------------------------------------- parsing


def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = parse_config(["--config", write_config(tmp_path, {"d": 4, "photons": 1000, "seed": 7})])
    assert (cfg.d, cfg.photons, cfg.seed) == (4, 1000, 7)
    assert cfg.mubs == 2
    assert cfg.oam == 0
    assert cfg.channel == []
    assert cfg.test_fraction == 0.1
    assert cfg.threshold == 0.11
    assert cfg.eve is None
    assert cfg.transcript is False


def test_flags_override_file(tmp_path):
    path = write_config(tmp_path, {"d": 4, "photons": 1000, "seed": 7})
    cfg = parse_config(["--config", path, "--photons", "50", "--seed", "9"])
    assert cfg.photons == 50
    assert cfg.seed == 9
    assert cfg.d == 4


def test_flags_only():
    cfg = parse_config(["--d", "8", "--photons", "123", "--seed", "3", "--mubs", "2"])
    assert (cfg.d, cfg.photons, cfg.seed) == (8, 123, 3)


def test_non_power_of_two_dimension_rejected(tmp_path):
    with pytest.raises(ConfigInvalid, match="power of 2"):
        parse_config(["--config", write_config(tmp_path, {"d": 3})])


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigInvalid, match="unknown config fields: bogus"):
        parse_config(["--config", write_config(tmp_path, {"bogus": 1})])


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 4,,}')
    with pytest.raises(ConfigInvalid, match=r":1:"):
        parse_config(["--config", str(path)])


def test_missing_file_is_parse_error():
    with pytest.raises(ConfigInvalid, match="cannot read"):
        parse_config(["--config", "/nonexistent/path.json"])


def test_invariant_violations_named(tmp_path):
    with pytest.raises(ConfigInvalid, match="test_fraction"):
        parse_config(["--config", write_config(tmp_path, {"test_fraction": 0.0})])
    with pytest.raises(ConfigInvalid, match="mubs"):
        parse_config(["--d", "4", "--mubs", "6"])
    with pytest.raises(ConfigInvalid, match="photons"):
        parse_config(["--photons", "0"])
    with pytest.raises(ConfigInvalid, match="emission_rate"):
        parse_config(["--emission-rate", "nan"])
    with pytest.raises(ConfigInvalid, match="wavenumber"):
        parse_config(["--wavenumber", "inf"])
    with pytest.raises(ConfigInvalid, match="emission_rate"):
        parse_config(["--config", write_config(tmp_path, {"emission_rate": True})])


def test_every_field_is_documented_and_has_a_flag(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--help"])
    help_text = capsys.readouterr().out
    for name in [f.name for f in fields(RunConfig)]:
        assert re.search(rf"^    {name} ", cli.__doc__, re.M), f"{name} missing from the key table"
        flag = "--dump-mode" if name == "dump_modes" else "--" + name.replace("_", "-")
        assert re.search(rf"{flag}\b", help_text), f"{flag} missing from --help"


def test_channel_element_parsing():
    cfg = parse_config(
        ["--channel", "rotation:0.7", "--channel", "gouy:2.0", "--channel", "loss:0.25"]
    )
    session = cfg.to_session_config()
    rot, gouy, loss = session.channel.elements
    assert rot == Rotation(0.7)
    assert isinstance(gouy, Gouy) and gouy.z == 2.0
    assert isinstance(loss, Loss) and loss.probability == 0.25


def test_eve_flag_appends_element():
    session = parse_config(["--d", "4", "--eve", "fixed:1"]).to_session_config()
    assert isinstance(session.channel.elements[-1], Eve)
    assert session.channel.elements[-1].strategy.fixed_basis == 1
    session = parse_config(["--d", "4", "--eve", "random"]).to_session_config()
    assert session.channel.elements[-1].strategy.fixed_basis is None


def test_bad_channel_element_rejected():
    with pytest.raises(ConfigInvalid, match="unknown channel element"):
        parse_config(["--channel", "teleporter:1"])
    with pytest.raises(ConfigInvalid, match="bad channel element"):
        parse_config(["--channel", "rotation:abc"])
    with pytest.raises(ConfigInvalid, match="eve"):
        parse_config(["--eve", "sometimes"])


def test_serialize_parse_round_trip(tmp_path):
    cfg = parse_config(
        ["--d", "8", "--photons", "77", "--seed", "5", "--channel", "rotation:0.5",
         "--eve", "random", "--dump-mode", "LG,2,2", "--z", "1.5"]
    )
    again = parse_config(["--config", write_config(tmp_path, cfg.serialize())])
    assert again.serialize() == cfg.serialize()


def test_dump_mode_flag_parsing():
    cfg = parse_config(["--dump-mode", "LG,2,2", "--z", "0.5", "--dump-mode", "HG,1,0"])
    assert cfg.dump_modes[0] == (ModeLabel(ModeFamily.LG, 2, 2), 0.5)
    assert cfg.dump_modes[1] == (ModeLabel(ModeFamily.HG, 1, 0), 0.0)


# ------------------------------------------------------------------- running


def test_run_noiseless_session(tmp_path):
    out = tmp_path / "run"
    code = main(["--d", "4", "--photons", "3000", "--seed", "11", "--out", str(out)])
    assert code == 0
    stats = load_stats(out)
    assert stats["schema_version"] == 1
    assert stats["results"]["qber_estimate"] == 0.0
    assert stats["results"]["aborted"] is False
    assert stats["results"]["sent"] == 3000
    assert stats["results"]["key_bits"] == pytest.approx(
        (stats["results"]["sifted"] - stats["results"]["sacrificed"]) * 2.0
    )


def test_run_deterministic_modulo_wall_clock(tmp_path):
    args = ["--d", "4", "--photons", "2000", "--seed", "21", "--transcript",
            "--channel", "loss:0.1", "--eve", "random", "--out", str(tmp_path / "a")]
    main(args)
    stats_first = load_stats(tmp_path / "a")
    transcript_first = (tmp_path / "a" / "transcript.csv").read_bytes()
    main(args)  # identical config, overwriting the outputs
    stats_second = load_stats(tmp_path / "a")
    transcript_second = (tmp_path / "a" / "transcript.csv").read_bytes()
    del stats_first["wall_clock"], stats_second["wall_clock"]
    assert json.dumps(stats_first, sort_keys=True) == json.dumps(stats_second, sort_keys=True)
    assert transcript_first == transcript_second


def test_aborted_session_still_exits_zero(tmp_path):
    out = tmp_path / "eve"
    code = main(["--d", "4", "--photons", "4000", "--seed", "2", "--eve", "random",
                 "--out", str(out)])
    assert code == 0
    stats = load_stats(out)
    assert stats["results"]["aborted"] is True
    assert stats["results"]["key_bits"] == 0.0


def test_config_error_exit_code(capsys):
    assert main(["--d", "3"]) == 2
    assert "power of 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--d", "3"],
        ["--mubs", "6"],
        ["--d", "4", "--mubs", "3"],
        ["--eve", "fixed:7"],
        ["--emission-rate", "nan"],
        ["--wavenumber", "-1"],
        ["--dump-samples", "1"],
        ["--config", {"emission_rate": True}],
        ["--config", {"out": None}],
        ["--config", {"channel": "loss:0.1"}],
        ["--config", {"photons": 1, "dump_modes": [["LG", 1.5, True, 0]]}],
        ["--config", {"photons": 1, "dump_modes": [["LG", 1, True, 0]]}],
        ["--dump-mode", "LG,1,1", "--z", "0.5", "--z", "0.7"],
        ["--z", "0.5"],
        ["--d", "4", "--photons", "6", "--oam", "1", "--channel", "time_rotation:1.0",
         "--emission-rate", "1e-310", "--transcript"],
        ["--photons", "1", "--dump-samples", "4", "--dump-mode", "LG,1,1", "--z", "0.1234567",
         "--dump-mode", "LG,1,1", "--z", "0.1234568"],
    ],
)
def test_bad_config_writes_nothing(tmp_path, capsys, args):
    if args[0] == "--config":
        args = ["--config", write_config(tmp_path, args[1])]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_run_validates_before_creating_output_dir(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigInvalid, match="prime"):
        run(RunConfig(d=4, mubs=3, out=str(out)))
    assert not out.exists()


def test_transcript_contents(tmp_path):
    out = tmp_path / "t"
    main(["--d", "2", "--photons", "50", "--seed", "1", "--transcript", "--out", str(out)])
    lines = (out / "transcript.csv").read_text().splitlines()
    assert lines[0] == "round_id,t,alice_basis,alice_symbol,delivered,bob_basis,bob_outcome,sifted,sacrificed"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "1"


def test_mode_dump_matches_eval_mode(tmp_path):
    out = tmp_path / "dump"
    code = main(["--photons", "1", "--dump-mode", "LG,2,2", "--z", "0", "--dump-samples", "16",
                 "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out / "mode_LG_2_2_z0.csv", delimiter=",", skiprows=1)
    geom = default_geometry()
    grid = reference_grid(geom, 0.0, samples_per_axis=16)
    label = ModeLabel(ModeFamily.LG, 2, 2)
    expected = eval_mode(label, geom, rows[:, 0], rows[:, 1], 0.0)
    np.testing.assert_allclose(rows[:, 2], expected.real, atol=1e-12)
    np.testing.assert_allclose(rows[:, 3], expected.imag, atol=1e-12)
    assert len(rows) == 16 * 16
    xs = sorted(set(rows[:, 0]))
    np.testing.assert_allclose(xs, grid.axis(), rtol=1e-10)


def test_run_summary_line(tmp_path, capsys):
    main(["--d", "2", "--photons", "100", "--seed", "4", "--out", str(tmp_path / "s")])
    line = capsys.readouterr().out.strip()
    assert line.startswith("sifted=")
    assert "qber=" in line and "aborted=" in line and "key_bits=" in line


def test_config_file_with_channel_and_dump(tmp_path):
    data = {
        "d": 4,
        "photons": 500,
        "seed": 3,
        "channel": ["rotation:0.3", "loss:0.05"],
        "dump_modes": [["HG", 1, 1, 0.5]],
        "out": str(tmp_path / "o"),
        "transcript": True,
    }
    code = main(["--config", write_config(tmp_path, data)])
    assert code == 0
    assert (tmp_path / "o" / "transcript.csv").exists()
    assert (tmp_path / "o" / "mode_HG_1_1_z0.5.csv").exists()
