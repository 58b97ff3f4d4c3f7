"""Benchmark worker: set one workload up, then time its operations.

Started by ``run.py`` as a fresh process with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the BLAS/OpenMP thread variables set to 1.  Prints
one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up time runs from before ``import oamqkd`` (the worker imports nothing
else heavy before it) to the end of the workload's ``setup``.  With
``--trace 1`` untraced and traced operations alternate, so the traced
per-layer numbers and the overhead of tracing come from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from spans import Tracer, summarize, write_spans

FAILURE_MESSAGES_KEPT = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-layer metric -> unit.  Counts are per operation (one session, one CLI
# process, one Gram evaluation), averaged over the traced operations.
LAYER_UNITS = {
    "protocol.self_us_per_round": "us",
    "protocol.sift_qber_s": "s",
    "protocol.rss_bytes_per_round": "bytes",
    "trace.run_session_us_per_round": "us",
    "channel.apply_channel_calls": "count",
    "channel.apply_channel_us_per_call": "us",
    "channel.busy_s": "s",
    "channel.self_us_per_round": "us",
    "channel.eve_attack_calls": "count",
    "channel.absorbed_frac": "ratio",
    "devices.measure_b1_calls": "count",
    "devices.measure_b1_us_per_call": "us",
    "devices.measure_b2_calls": "count",
    "devices.measure_b2_us_per_call": "us",
    "devices.modal_convert_calls": "count",
    "devices.busy_s": "s",
    "devices.self_us_per_round": "us",
    "devices.prepare_s": "s",
    "states.build_mub_family_s": "s",
    "states.born_measure_calls": "count",
    "states.born_measure_us_per_call": "us",
    "states.sample_index_calls": "count",
    "states.self_us_per_round": "us",
    "cli.startup_s": "s",
    "cli.parse_config_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "modes.mode_field_calls": "count",
    "modes.mode_field_s": "s",
    "modes.overlap_s": "s",
    "modes.gram_matmul_s": "s",
    "modes.field_bytes_computed": "bytes",
    "trace.root_share": "ratio",
    "trace.overhead_frac": "ratio",
}


def _maxrss_mb(who: str) -> float:
    target = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(target).ru_maxrss / 1024.0  # KiB on Linux


def trace_failures(wl, spans: list, wall_s: float) -> tuple[list[str], float]:
    """Check that a traced operation's spans cover that operation and no more.

    The root spans must be exactly ``wl.trace_roots`` (a span left open, or
    one recorded outside the operation, changes them) and together cover
    between ``wl.min_root_share`` and all of the operation's wall time.
    Returns the failed checks and the covered share.
    """
    roots = [(name, end - start) for name, start, end, parent in spans if parent < 0]
    counts = Counter(name for name, _ in roots)
    share = sum(duration for _, duration in roots) / wall_s
    failures = []
    if counts != Counter(wl.trace_roots):
        failures.append(f"root spans {dict(counts)}, expected {wl.trace_roots}")
    if not wl.min_root_share <= share <= 1.0:
        failures.append(
            f"root spans cover {share:.3f} of the operation, expected {wl.min_root_share} to 1"
        )
    return failures, share


def layer_metrics(summary: dict, rounds: int, facts: dict) -> dict:
    """Per-layer numbers of one traced operation from its span summary."""
    calls, inclusive = summary["calls"], summary["inclusive"]
    layer_self, layer_busy = summary["layer_self"], summary["layer_busy"]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return inclusive.get(name, 0.0)

    def us_per_call(name):
        return t(name) / n(name) * 1e6 if n(name) else 0.0

    def us_per_round(seconds):
        return seconds / rounds * 1e6 if rounds else 0.0

    sent = facts.get("sent", 0)
    startup = 0.0
    if "main_started_at" in facts:
        startup = facts["main_started_at"] - facts["spawned_at"]
    return {
        "protocol.self_us_per_round": us_per_round(layer_self.get("protocol", 0.0)),
        "protocol.sift_qber_s": t("protocol.sift") + t("protocol.estimate_qber"),
        "trace.run_session_us_per_round": us_per_round(t("protocol.run_session")),
        "channel.apply_channel_calls": n("channel.apply_channel"),
        "channel.apply_channel_us_per_call": us_per_call("channel.apply_channel"),
        "channel.busy_s": layer_busy.get("channel", 0.0),
        "channel.self_us_per_round": us_per_round(layer_self.get("channel", 0.0)),
        "channel.eve_attack_calls": n("channel.eve_attack"),
        "channel.absorbed_frac": 1.0 - facts["delivered"] / sent if sent else 0.0,
        "devices.measure_b1_calls": n("devices.measure_b1"),
        "devices.measure_b1_us_per_call": us_per_call("devices.measure_b1"),
        "devices.measure_b2_calls": n("devices.measure_b2"),
        "devices.measure_b2_us_per_call": us_per_call("devices.measure_b2"),
        "devices.modal_convert_calls": n("devices.modal_convert"),
        "devices.busy_s": layer_busy.get("devices", 0.0),
        "devices.self_us_per_round": us_per_round(layer_self.get("devices", 0.0)),
        "devices.prepare_s": t("devices.prepare_b1") + t("devices.prepare_b2"),
        "states.build_mub_family_s": t("states.build_mub_family"),
        "states.born_measure_calls": n("states.born_measure"),
        "states.born_measure_us_per_call": us_per_call("states.born_measure"),
        "states.sample_index_calls": n("states.sample_index"),
        "states.self_us_per_round": us_per_round(layer_self.get("states", 0.0)),
        "cli.startup_s": startup,
        "cli.parse_config_s": t("cli.parse_config"),
        "cli.output_s": t("cli.run") - t("protocol.run_session") if n("cli.run") else 0.0,
        "cli.output_bytes": facts.get("output_bytes", 0),
        "modes.mode_field_calls": n("modes.mode_field"),
        "modes.mode_field_s": t("modes.mode_field"),
        "modes.overlap_s": t("modes.overlap"),
        "modes.gram_matmul_s": t("modes.gram_matmul"),
        "modes.field_bytes_computed": summary["nbytes"].get("modes.mode_field", 0),
    }


def cost_ref(op_s: list[float], ref_s: list[float]) -> float:
    """Operation cost in reference units: total wall time over total mean
    reference time of the same operations (``reference.py``)."""
    return sum(op_s) / sum(ref_s)


def measure(wl, tracer, seconds: float, trace: bool, min_ops: int = 2) -> dict:
    """Run operations for ``seconds`` (at least ``min_ops``) and check each.

    With ``trace`` odd-numbered operations run with the tracer installed.
    Each operation's wall time and the mean time of the workload's
    reference kernel, run between its steps, are taken by a ``Clock``.
    """
    from reference import Clock
    from workloads import OUT_DIR

    times: dict[bool, list[float]] = {False: [], True: []}
    refs: dict[bool, list[float]] = {False: [], True: []}
    clock = Clock(wl.reference)
    wl.reference()  # first-call work of the kernel stays out of the first operation
    rows: list[dict] = []
    messages: list[str] = []
    attempted = failed = 0
    rss_before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_bytes_per_round = 0.0
    last_spans: list = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        if traced:
            tracer.install()
        task = wl.task(i, traced)
        clock.start()
        result = task(clock.tick)
        clock.stop()
        wall_s = clock.wall_s
        tracer.uninstall()
        spans, nbytes = tracer.take()
        failures, facts = wl.inspect(result)
        if i == 0 and wl.rss_of == "self" and wl.rounds:
            grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before_kib
            rss_bytes_per_round = grown_kib * 1024.0 / wl.rounds
        if traced:
            spans = facts.get("spans", spans)
            summary = summarize(spans)
            summary["nbytes"] = facts.get("nbytes", nbytes)
            root_failures, root_share = trace_failures(wl, spans, wall_s)
            failures.extend(root_failures)
            rows.append(layer_metrics(summary, wl.rounds, facts) | {"trace.root_share": root_share})
            last_spans = spans
        wl.cleanup(result)
        del result  # so the next operation's peak RSS does not include this one's output
        times[traced].append(wall_s)
        refs[traced].append(clock.ref_s)
        attempted += 1
        if failures:
            failed += 1
            messages.extend(f"op {i}: {m}" for m in failures)
        i += 1

    report = {
        "op_s": times[False],
        "ref_s": refs[False],
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:FAILURE_MESSAGES_KEPT],
        "peak_rss_mb": _maxrss_mb(wl.rss_of),
        "headline": wl.headline(statistics.median(times[False])),
    }
    if trace:
        layers = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
        layers["protocol.rss_bytes_per_round"] = rss_bytes_per_round
        layers["trace.overhead_frac"] = cost_ref(times[True], refs[True]) / cost_ref(
            times[False], refs[False]
        ) - 1.0
        report["layers"] = {name: [layers[name], unit] for name, unit in LAYER_UNITS.items()}
        report["traced_op_s"] = times[True]
        report["traced_ref_s"] = refs[True]
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{wl.name}.spans.csv"
        write_spans(spans_file, last_spans)
        report["spans_file"] = str(spans_file.relative_to(OUT_DIR.parent))
    return report


def run_context(seed: int) -> dict:
    """Machine, library and thread settings next to the numbers."""
    import numpy as np

    from workloads import ROOT

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, tiny=args.tiny)
    tracer = Tracer()
    wl.setup(args.seed, tracer)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    report = measure(wl, tracer, args.seconds, bool(args.trace))
    report["setup_s"] = setup_s
    report["context"] = run_context(args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
