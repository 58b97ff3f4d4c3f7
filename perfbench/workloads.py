"""The four benchmark workloads: inputs from a seed, one measured operation,
and the correctness check of its output.

Every workload offers the same four steps to the worker:

* ``setup(seed, tracer)`` builds the configuration and does the first-call
  lazy work (MUB family, flight states, caches) so that it is timed as
  set-up, not as measured work;
* ``task(i, traced)`` returns a callable ``go(tick)`` that performs
  operation ``i``; only the call itself is timed.  ``go`` calls ``tick()``
  between the steps of a long operation, where the worker runs the
  workload's ``reference`` kernel (``reference.py``) outside the timing;
* ``inspect(result)`` returns ``(failures, facts)``: the list of failed
  checks (empty when the output is correct) and counts the traced run
  reports, read only from ``SessionStats`` and the CLI's output files;
* ``cleanup(result)`` removes what the operation wrote;

plus ``rounds`` (photons per operation, 0 for the modes workload), ``rss_of``
(whose ``ru_maxrss`` is the peak: the worker itself or its children),
``headline(op_s)``, the workload's own name for the median operation time,
and what a traced operation's spans must look like: ``trace_roots``, the
count of each root span (a span with no parent), and ``min_root_share``, the
least share of the operation's wall time those root spans must cover.

Operation ``i`` of a run with seed ``s`` uses the session seed
``op_seed(s, i + 1)``; index 0 is reserved for the set-up warm-up.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import oamqkd
from oamqkd import modes, protocol
from reference import array_ops, small_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WARMUP_PHOTONS = 200
CHILD_TIMEOUT_S = 150.0
NSIGMA = 5.0  # width of the binomial-rate checks of the engine workloads
SPOT_TOLERANCE = 1e-12  # |overlap - Gram entry| allowed by the modes workload


def op_seed(seed: int, i: int) -> int:
    """Session seed of operation ``i``: distinct per operation, fixed per seed."""
    return seed * 1_000_000 + i


def _within(value: float, expected: float, count: int) -> bool:
    """Binomial-rate check; a rate of exactly 0 or 1 must be met exactly."""
    sigma = math.sqrt(expected * (1.0 - expected) / count)
    return abs(value - expected) <= NSIGMA * sigma


@dataclass
class EngineWorkload:
    """One ``run_session`` call on a fixed configuration per operation."""

    name: str
    d: int
    photons: int
    channel: Callable[[int], tuple]
    expected_qber: float
    expected_delivered: float
    aborts: bool

    rss_of = "self"
    reference = staticmethod(small_ops)
    # the operation is one run_session call and little else
    trace_roots = {"protocol.run_session": 1}
    min_root_share = 0.99

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.spec = oamqkd.ChannelSpec(self.channel(self.d))
        protocol.run_session(self._config(0, WARMUP_PHOTONS))

    def _config(self, i: int, photons: int):
        return oamqkd.SessionConfig(
            d=self.d, photons=photons, seed=op_seed(self.seed, i), channel=self.spec
        )

    @property
    def rounds(self) -> int:
        return self.photons

    def headline(self, op_s: float) -> dict:
        return {"rounds_per_s": {"value": self.photons / op_s, "unit": "rounds/s"}}

    def task(self, i: int, traced: bool):
        cfg = self._config(i + 1, self.photons)
        return lambda tick: protocol.run_session(cfg)

    def inspect(self, result) -> tuple[list[str], dict]:
        stats = result[0]
        failures = []
        if stats.sacrificed_count < 1 or not _within(
            stats.qber_estimate, self.expected_qber, stats.sacrificed_count
        ):
            failures.append(
                f"qber_estimate {stats.qber_estimate!r} over {stats.sacrificed_count} "
                f"sacrificed rounds, expected {self.expected_qber!r}"
            )
        if not _within(stats.delivered / stats.sent, self.expected_delivered, stats.sent):
            failures.append(
                f"delivered {stats.delivered}/{stats.sent}, expected rate {self.expected_delivered!r}"
            )
        if stats.aborted != self.aborts:
            failures.append(f"aborted={stats.aborted}, expected {self.aborts}")
        key_bits = 0.0 if self.aborts else (
            (stats.sifted_count - stats.sacrificed_count) * math.log2(self.d)
        )
        if stats.key_bits != key_bits:
            failures.append(f"key_bits {stats.key_bits!r}, expected {key_bits!r}")
        return failures, {"sent": stats.sent, "delivered": stats.delivered}

    def cleanup(self, result) -> None:
        pass


@dataclass
class CliResult:
    returncode: int
    stderr: str
    out: Path
    spans_path: Path | None
    spawned_at: float


@dataclass
class CliWorkload:
    """One fresh ``oamqkd`` CLI process per operation (``python3 -m oamqkd.cli``)."""

    name: str
    photons: int
    args: tuple[str, ...]
    exit_code: int = 0

    rss_of = "children"
    reference = staticmethod(small_ops)
    # tracecli.py wraps cli.main in a span; the interpreter start-up and
    # imports before it are a fixed cost, so its share depends on the size
    trace_roots = {"cli.main": 1}
    min_root_share = 0.0

    def setup(self, seed: int, tracer) -> None:
        from oamqkd import cli

        self.seed = seed
        self.out_root = OUT_DIR / f"{self.name}-{seed}-{time.time_ns()}"
        cfg = cli.parse_config(self._argv(0, self.photons))
        protocol.run_session(replace(cfg.to_session_config(), photons=WARMUP_PHOTONS))

    def _argv(self, i: int, photons: int) -> list[str]:
        return [
            *self.args,
            "--photons", str(photons),
            "--seed", str(op_seed(self.seed, i)),
            "--out", str(self.out_root / f"op{i}"),
        ]

    @property
    def rounds(self) -> int:
        return self.photons

    def headline(self, op_s: float) -> dict:
        return {"cli_wall_s": {"value": op_s, "unit": "s"}}

    def task(self, i: int, traced: bool):
        argv = self._argv(i + 1, self.photons)
        out = self.out_root / f"op{i + 1}"
        spans_path = self.out_root / f"op{i + 1}.spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "oamqkd.cli", *argv]

        def go(tick) -> CliResult:
            spawned_at = time.time()
            proc = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            return CliResult(proc.returncode, proc.stderr, out, spans_path, spawned_at)

        return go

    def inspect(self, result: CliResult) -> tuple[list[str], dict]:
        failures = []
        if result.returncode != self.exit_code:
            failures.append(
                f"exit code {result.returncode}, expected {self.exit_code}: {result.stderr.strip()}"
            )
        try:
            stats = json.loads((result.out / "stats.json").read_text())["results"]
            with (result.out / "transcript.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            facts = {
                "sent": stats["sent"],
                "delivered": stats["delivered"],
                "output_bytes": sum(p.stat().st_size for p in result.out.iterdir()),
            }
            sifted = sum(row["sifted"] == "1" for row in rows)
            sacrificed = sum(row["sacrificed"] == "1" for row in rows)
            if len(rows) != self.photons:
                failures.append(f"transcript has {len(rows)} rows, expected {self.photons}")
            if (sifted, sacrificed) != (stats["sifted"], stats["sacrificed"]):
                failures.append(
                    f"transcript sifted/sacrificed {sifted}/{sacrificed} != "
                    f"stats.json {stats['sifted']}/{stats['sacrificed']}"
                )
            if result.spans_path is not None:
                trace = json.loads(result.spans_path.read_text())
                facts["spans"] = [tuple(s) for s in trace["spans"]]
                facts["nbytes"] = trace["nbytes"]
                facts["main_started_at"] = trace["main_started_at"]
                facts["spawned_at"] = result.spawned_at
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"unreadable CLI output: {exc!r}")
            facts = {}
        return failures, facts

    def cleanup(self, result: CliResult) -> None:
        shutil.rmtree(result.out, ignore_errors=True)
        if result.spans_path is not None:
            result.spans_path.unlink(missing_ok=True)
        try:
            self.out_root.rmdir()
        except OSError:
            pass  # other operations' outputs are still there


@dataclass
class ModesWorkload:
    """Criterion 2: HG and LG Gram matrices at z = 0 and z = z_R, plus an
    ``overlap`` spot check per matrix at a pair of modes drawn from the seed."""

    name: str
    max_order: int = 6
    samples: int = 512
    tolerance: float = 1e-4

    rss_of = "self"
    reference = staticmethod(array_ops)
    rounds = 0
    # mode_field, the Gram product and overlap are called from the workload;
    # stacking the fields and comparing with the identity lie outside them
    min_root_share = 0.8

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.geom = modes.default_geometry()
        self.labels = [
            [modes.ModeLabel(family, n, m) for n in range(self.max_order + 1)
             for m in range(self.max_order + 1 - n)]
            for family in (modes.ModeFamily.HG, modes.ModeFamily.LG)
        ]
        self.planes = [
            (z, modes.reference_grid(self.geom, z, samples_per_axis=self.samples))
            for z in (0.0, self.geom.rayleigh_range)
        ]
        small = modes.reference_grid(self.geom, 0.0, samples_per_axis=8)
        for labels in self.labels:
            modes.mode_field(labels[-1], self.geom, small, 0.0)

    @property
    def trace_roots(self) -> dict[str, int]:
        gram_count = len(self.labels) * len(self.planes)
        return {
            "modes.mode_field": sum(map(len, self.labels)) * len(self.planes),
            "modes.gram_matmul": gram_count,
            "modes.overlap": gram_count,
        }

    def headline(self, op_s: float) -> dict:
        return {"gram_s": {"value": op_s, "unit": "s"}}

    def task(self, i: int, traced: bool):
        rng = np.random.default_rng((self.seed, i + 1))
        pairs = [
            sorted(rng.choice(len(labels), size=2, replace=False).tolist())
            for labels in self.labels
            for _ in self.planes
        ]
        geom, span = self.geom, self.tracer.span

        def go(tick) -> tuple[float, float]:
            # a step per mode field, per Gram matrix and per spot check
            worst = spot = 0.0
            k = 0
            for labels in self.labels:
                for z, grid in self.planes:
                    fields = []
                    for label in labels:
                        fields.append(modes.mode_field(label, geom, grid, z).ravel())
                        tick()
                    fields = np.stack(fields)
                    with span("modes.gram_matmul"):
                        gram = (fields.conj() @ fields.T) * grid.cell_area
                    worst = max(worst, float(np.max(np.abs(gram - np.eye(len(labels))))))
                    del fields
                    tick()
                    a, b = pairs[k]
                    k += 1
                    value = modes.overlap(labels[a], labels[b], geom, z, grid)
                    spot = max(spot, abs(value - gram[a, b]))
                    tick()
            return worst, spot

        return go

    def inspect(self, result: tuple[float, float]) -> tuple[list[str], dict]:
        worst, spot = result
        failures = []
        if not worst < self.tolerance:
            failures.append(f"worst orthonormality deviation {worst:.3g} >= {self.tolerance:g}")
        if not spot < SPOT_TOLERANCE:
            failures.append(f"overlap differs from the Gram entry by {spot:.3g}")
        return failures, {}

    def cleanup(self, result) -> None:
        pass


def _loss_eve(d: int) -> tuple:
    return (oamqkd.Loss(0.3), oamqkd.Eve(oamqkd.EveStrategy(oamqkd.build_mub_family(d, 2))))


# name -> factory taking ``tiny``, which shrinks the work for the self-test
# and keeps every check meaningful.  Why each workload exists is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "engine_d8_rotation": lambda tiny: EngineWorkload(
        name="engine_d8_rotation",
        d=8,
        photons=1_000 if tiny else 2_000,
        channel=lambda d: (oamqkd.RandomRotation(),),
        expected_qber=0.0,
        expected_delivered=1.0,
        aborts=False,
    ),
    "engine_d64_loss_eve": lambda tiny: EngineWorkload(
        name="engine_d64_loss_eve",
        d=64,
        photons=1_000 if tiny else 2_000,
        channel=_loss_eve,
        expected_qber=(64 - 1) / (2 * 64),
        expected_delivered=0.7,
        aborts=True,
    ),
    "cli_d4_transcript": lambda tiny: CliWorkload(
        name="cli_d4_transcript",
        photons=500 if tiny else 10_000,
        args=(
            "--d", "4", "--channel", "rotation:0.4", "--channel", "loss:0.05",
            "--eve", "random", "--transcript",
        ),
    ),
    "modes_gram": lambda tiny: ModesWorkload(
        name="modes_gram", max_order=2 if tiny else 6, samples=128 if tiny else 512
    ),
}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](tiny)
