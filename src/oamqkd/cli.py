"""Command-line experiment runner.

Reads a flat JSON config and/or flags (flags win), runs one session with a
fixed seed, and writes machine-readable outputs: ``stats.json`` always, a
``transcript.csv`` round log on request, and ``mode_*.csv`` grid dumps of
any requested mode profile.  All randomness flows from the single config
seed; the only non-reproducible output is the explicitly labeled
``wall_clock`` field of the stats document.

Config keys (all optional, one-to-one with the flags):

    d                 4       logical dimension (2, 4, 8, ...)
    photons           1000    rounds per session (at most 2^53)
    seed              0       master PRNG seed (non-negative int)
    mubs              2       number of bases used by Alice and Bob (more
                              than 2 only at d = 2: the devices need d = 2^s,
                              extra bases need prime d)
    oam               0       common OAM offset l of the encoding
    channel           []      element specs, applied in order (see below)
    eve               null    "random" or "fixed:IDX"; appended after channel
    test_fraction     0.1     sifted fraction sacrificed for error estimation
    threshold         0.11    abort when the QBER estimate exceeds this
    emission_rate     1e6     photons per second (sets emission timestamps)
    compensate_gouy   false   enable the receiver's Gouy phase shifters
    propagation_z     0.0     link distance the compensator is set for
    detuning_epsilon  0.0     per-path phase gradient in the B2 chain
    wavenumber        2*pi/1.55e-6   beam wavenumber k
    rayleigh_range    1.0     beam Rayleigh range z_R
    out               "."     output directory
    transcript        false   also write transcript.csv
    dump_modes        []      entries [family, n, m, z] for mode_*.csv dumps
    dump_samples      128     samples per axis for mode dumps

Each key is a flag spelled with dashes (--test-fraction 0.2); true/false
keys also take --no-KEY.  --channel repeats, and repeated flags replace the
file's channel list.  Each dump_modes entry is a --dump-mode FAMILY,N,M flag
whose plane z is set by the --z flag of the same position (default 0); a
--z flag without a --dump-mode flag at its position is a config error, and
so are two entries whose file names mode_FAMILY_N_M_zZ.csv (Z with 6
significant digits) coincide.

Channel element grammar (used in config lists and repeated --channel flags):

    rotation:PHI | random_rotation | time_rotation:OMEGA | gouy:Z |
    loss:P | freq_shift:OMEGA | eve:random | eve:fixed:IDX
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (
    ChannelSpec,
    Eve,
    EveStrategy,
    FrequencyShift,
    Gouy,
    Loss,
    RandomRotation,
    Rotation,
    TimeVaryingRotation,
)
from .devices import DeviceConfig
from .exceptions import ConfigInvalid, require_finite
from .modes import BeamGeometry, ModeFamily, ModeLabel, mode_field, reference_grid
from .protocol import RoundRecord, SessionConfig, SessionStats, Transcript, run_session
from .states import build_mub_family

__all__ = ["RunConfig", "parse_config", "run", "main"]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Fully-resolved run description: session parameters plus outputs.

    The fields are the config keys of the module docstring; the flags, the
    accepted file keys, and ``serialize()`` are all derived from them.
    """

    d: int = 4
    photons: int = 1000
    seed: int = 0
    mubs: int = 2
    oam: int = 0
    channel: list[str] = field(default_factory=list)
    eve: str | None = None
    test_fraction: float = 0.1
    threshold: float = 0.11
    emission_rate: float = 1e6
    compensate_gouy: bool = False
    propagation_z: float = 0.0
    detuning_epsilon: float = 0.0
    wavenumber: float = 2.0 * math.pi / 1.55e-6
    rayleigh_range: float = 1.0
    out: str = "."
    transcript: bool = False
    dump_modes: list[tuple[ModeLabel, float]] = field(default_factory=list)
    dump_samples: int = 128

    def geometry(self) -> BeamGeometry:
        return BeamGeometry(wavenumber=self.wavenumber, rayleigh_range=self.rayleigh_range)

    def channel_specs(self) -> list[str]:
        """Channel element descriptors with the --eve shortcut appended."""
        specs = list(self.channel)
        if self.eve is not None:
            specs.append(f"eve:{self.eve}")
        return specs

    def serialize(self) -> dict:
        """Canonical JSON-compatible form; parse(serialize(.)) round-trips."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            channel=self.channel_specs(),
            eve=None,
            dump_modes=[
                [label.family.value, label.n, label.m, z] for label, z in self.dump_modes
            ],
        )
        return data

    def to_session_config(self) -> SessionConfig:
        """The session this run executes; building it validates the config.

        Raises ConfigInvalid naming the first violated invariant.  Only
        the mode dumps are checked here: every other field is the session's.
        """
        if self.dump_samples < 2:
            raise ConfigInvalid(f"dump_samples must be >= 2, got {self.dump_samples}")
        names = [_dump_name(label, z) for label, z in self.dump_modes]
        for name in names:
            if names.count(name) > 1:
                raise ConfigInvalid(f"two dump_modes entries write the same file {name}")
        device = DeviceConfig(
            d=self.d,
            geom=self.geometry(),
            compensate_gouy=self.compensate_gouy,
            propagation_z=self.propagation_z,
            detuning_epsilon=self.detuning_epsilon,
        )
        elements = [_build_element(spec, self) for spec in self.channel_specs()]
        return SessionConfig(
            d=self.d,
            photons=self.photons,
            seed=self.seed,
            num_mubs=self.mubs,
            oam_sector=self.oam,
            channel=ChannelSpec(tuple(elements)),
            test_fraction=self.test_fraction,
            qber_abort_threshold=self.threshold,
            emission_rate=self.emission_rate,
            device=device,
        )


# field name -> annotated type, which drives coercion and the flag set
_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _number(value) -> float:
    """A float; booleans are rejected rather than read as 0 or 1.

    Finiteness and ranges are checked by the dataclasses the value feeds.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _build_element(spec: str, cfg: RunConfig):
    """Instantiate one channel element from its descriptor string."""
    name, _, arg = spec.partition(":")
    try:
        if name == "rotation":
            return Rotation(angle=_number(arg))
        if name == "random_rotation":
            return RandomRotation()
        if name == "time_rotation":
            return TimeVaryingRotation(omega=_number(arg))
        if name == "gouy":
            return Gouy(z=_number(arg), geom=cfg.geometry())
        if name == "loss":
            return Loss(probability=_number(arg))
        if name == "freq_shift":
            return FrequencyShift(omega=_number(arg))
        if name == "eve":
            mub = build_mub_family(cfg.d, cfg.mubs)
            if arg == "random":
                return Eve(EveStrategy(mub=mub))
            mode, _, idx = arg.partition(":")
            if mode == "fixed":
                return Eve(EveStrategy(mub=mub, fixed_basis=int(idx)))
            raise ValueError(f"eve mode must be 'random' or 'fixed:IDX', got {arg!r}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalid(f"bad channel element {spec!r}: {exc}") from exc
    raise ConfigInvalid(
        f"unknown channel element {name!r} in {spec!r}; expected one of "
        "rotation, random_rotation, time_rotation, gouy, loss, freq_shift, eve"
    )


def _mode_index(value) -> int:
    """A mode index from an int or its decimal text (as --dump-mode gives it).

    Booleans and fractional numbers are rejected rather than truncated.
    """
    if isinstance(value, bool) or (not isinstance(value, str) and int(value) != value):
        raise ValueError(f"mode index must be an integer, got {value!r}")
    return int(value)


def _parse_dump_entry(entry, z=None) -> tuple[ModeLabel, float]:
    """One dump_modes entry; ``z``, when given, replaces the entry's plane."""
    if isinstance(entry, str):
        parts = entry.split(",")
        if len(parts) == 3:
            parts.append("0.0")
    else:
        parts = list(entry)
    if len(parts) != 4:
        raise ConfigInvalid(f"dump_modes entry {entry!r} must be [family, n, m, z]")
    family_name, n, m, entry_z = parts
    try:
        family = ModeFamily(str(family_name).upper())
        label = ModeLabel(family, _mode_index(n), _mode_index(m))
        plane = _number(entry_z if z is None else z)
        require_finite("dump plane z", plane)
        return label, plane
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"dump_modes entry {entry!r}: {exc}") from exc


def _coerce(key: str, value):
    """Coerce a raw file or flag value to the type of its RunConfig field."""
    kind = _FIELD_TYPES[key]
    try:
        if key == "eve":
            if value is None or isinstance(value, str):
                return value
            raise ValueError(f"expected a string or null, got {value!r}")
        if key in ("channel", "dump_modes"):
            if not isinstance(value, list):
                raise ValueError(f"expected a list, got {value!r}")
            if key == "channel":
                if not all(isinstance(v, str) for v in value):
                    raise ValueError(f"expected a list of strings, got {value!r}")
            return list(value)
        if kind is bool:
            if isinstance(value, bool):
                return value
            raise ValueError(f"expected true/false, got {value!r}")
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError(f"expected an integer, got {value!r}")
            return int(value)
        if kind is float:
            return _number(value)
        if isinstance(value, str):
            return value
        raise ValueError(f"expected a string, got {value!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"config field {key!r}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: top level must be a JSON object")
    unknown = sorted(set(data) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigInvalid(f"{path}: unknown config fields: {', '.join(unknown)}")
    return data


def _build_arg_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field; --help prints the module docstring."""
    parser = argparse.ArgumentParser(
        prog="oamqkd",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    for key, kind in _FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if key == "dump_modes":
            parser.add_argument("--dump-mode", action="append", dest=key, metavar="FAMILY,N,M")
            parser.add_argument("--z", action="append", type=float, dest="dump_z", metavar="Z")
        elif key == "channel":
            parser.add_argument(flag, action="append", metavar="SPEC")
        elif kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, type=kind if kind in (int, float) else str)
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags and optional config file into a validated RunConfig.

    Validation is the construction of the session config, so every failure,
    parsing included, raises ConfigInvalid.
    """
    args = _build_arg_parser().parse_args(argv)

    file_values = _load_config_file(args.config) if args.config else {}
    # file values are checked even where a flag replaces them
    values = {key: _coerce(key, value) for key, value in file_values.items()}
    for key in _FIELD_TYPES:
        flag_value = getattr(args, key)
        if flag_value is not None and key != "dump_modes":
            values[key] = _coerce(key, flag_value)

    dump_modes = [_parse_dump_entry(e) for e in values.pop("dump_modes", [])]
    dump_flags, zs = args.dump_modes or [], args.dump_z or []
    if len(zs) > len(dump_flags):
        raise ConfigInvalid(
            f"{len(zs)} --z flags for {len(dump_flags)} --dump-mode flags; "
            "each --z sets the plane of the --dump-mode at its position"
        )
    if dump_flags:
        dump_modes = [
            _parse_dump_entry(spec, zs[idx] if idx < len(zs) else None)
            for idx, spec in enumerate(dump_flags)
        ]

    cfg = RunConfig(**values, dump_modes=dump_modes)
    cfg.to_session_config()
    return cfg


def _stats_payload(cfg: RunConfig, stats: SessionStats) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.serialize(),
        "results": {
            "sent": stats.sent,
            "delivered": stats.delivered,
            "sifted": stats.sifted_count,
            "sacrificed": stats.sacrificed_count,
            "qber_estimate": stats.qber_estimate,
            "low_statistics": stats.low_statistics,
            "aborted": stats.aborted,
            "key_bits": stats.key_bits,
            "key_symbols": stats.key_symbols,
            "eve_mutual_information_estimate": stats.eve_mutual_information_estimate,
        },
        "wall_clock": {
            "elapsed_seconds": stats.elapsed_seconds,
            "rounds_per_second": stats.rounds_per_second,
        },
    }


def _write_transcript(path: Path, transcript: Transcript) -> None:
    """One CSV row per round; an undelivered round has an empty outcome."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(RoundRecord)])
        writer.writerows(
            zip(
                range(len(transcript)),
                transcript.t.tolist(),  # floats print as repr()
                transcript.alice_basis.tolist(),
                transcript.alice_symbol.tolist(),
                transcript.delivered.astype(np.int8).tolist(),
                transcript.bob_basis.tolist(),
                ["" if o < 0 else o for o in transcript.bob_outcome.tolist()],
                transcript.sifted.astype(np.int8).tolist(),
                transcript.sacrificed.astype(np.int8).tolist(),
            )
        )


def _dump_name(label: ModeLabel, z: float) -> str:
    return f"mode_{label.family.value}_{label.n}_{label.m}_z{z:g}.csv"


def _write_mode_dump(path: Path, label: ModeLabel, z: float, cfg: RunConfig) -> None:
    geom = cfg.geometry()
    grid = reference_grid(geom, z, samples_per_axis=cfg.dump_samples)
    field_vals = mode_field(label, geom, grid, z)
    xx, yy = grid.mesh()
    rows = np.column_stack(
        [xx.ravel(), yy.ravel(), field_vals.real.ravel(), field_vals.imag.ravel()]
    )
    header = "x,y,re,im"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def run(cfg: RunConfig) -> int:
    """Execute a run: session, stats.json, optional transcript and dumps.

    Returns the process exit status: 0 for a completed session (aborted
    sessions included), 1 for IO failures.  An invalid config raises
    ConfigInvalid before anything is written.
    """
    session_cfg = cfg.to_session_config()
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return 1

    stats, transcript = run_session(session_cfg)

    try:
        stats_path = out_dir / "stats.json"
        stats_path.write_text(json.dumps(_stats_payload(cfg, stats), indent=2, sort_keys=True) + "\n")
        if cfg.transcript:
            _write_transcript(out_dir / "transcript.csv", transcript)
        for label, z in cfg.dump_modes:
            _write_mode_dump(out_dir / _dump_name(label, z), label, z, cfg)
    except OSError as exc:
        print(f"failed writing outputs under {out_dir}: {exc}", file=sys.stderr)
        return 1

    print(
        f"sifted={stats.sifted_count} qber={stats.qber_estimate:.4f} "
        f"aborted={stats.aborted} key_bits={stats.key_bits:.1f} -> {stats_path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
