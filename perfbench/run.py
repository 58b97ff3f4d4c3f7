"""oamqkd benchmark: run one workload with one seed and print one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the directory above this file; the package is used from its
``src`` directory, so nothing needs installing.  All work runs in fresh
worker processes (``worker.py``) with BLAS/OpenMP limited to one thread.

With ``--trace 0`` the result's metrics are the end-to-end ones:

* ``op_cost_ref``: cost of one measured operation, after set-up, in units
  of a fixed reference kernel run around each of its steps
  (``reference.py``): the run's total operation wall time over the total of
  each operation's mean reference time.  An operation is a ``run_session``
  call (engine workloads), one fresh-process CLI run
  (``cli_d4_transcript``), or the criterion-2 Gram evaluation
  (``modes_gram``).  The host's speed drifts too much for the plain wall
  time to repeat; the quotient cancels the drift;
* ``setup_s``: median over ``SETUP_PROBES + 1`` fresh processes of the time
  to import ``oamqkd``, build and validate the configuration and do the
  first-call lazy work;
* ``peak_rss_mb``: ``ru_maxrss`` of the process that did the measured work
  (the worker itself, or its CLI children).

With ``--trace 1`` they are the per-layer metrics listed in
``worker.LAYER_UNITS``, from operations run with the layer tracer installed.

The last line of standard output is the result; the line before it holds
the run context, the median wall time of an operation (``op_wall_s``), the
workload's own headline metric (``rounds_per_s``, ``cli_wall_s`` or
``gram_s``), ``failed_frac`` and the raw samples.
Operations whose output fails its check are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS, cost_ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
# A run may take this long plus twice --seconds (the set-up probes, the last
# operation's overrun and the CLI workload's children fit in the margin);
# past it the worker is killed and no result is printed.
DEADLINE_MARGIN_S = 120.0


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run worker.py to completion in its own session; return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child
            proc.communicate()
            raise WorkerFailed("worker ran past the run's deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="oamqkd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every workload (for selftest.py)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oamqkd" / "__init__.py").is_file():
        print(f"perfbench: no src/oamqkd package under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    deadline = time.monotonic() + DEADLINE_MARGIN_S + 2 * args.seconds
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    try:
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_s.append(run_worker([*common, "--setup-only"], env, deadline)["setup_s"])
        report = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except (WorkerFailed, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_s.append(report["setup_s"])

    failed_frac = report["failed"] / report["attempted"]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in report["layers"].items()
        }
    else:
        metrics = {
            "op_cost_ref": {"value": cost_ref(report["op_s"], report["ref_s"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    for message in report["failures"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "context": report["context"],
        "named_metrics": {
            "op_wall_s": {"value": statistics.median(report["op_s"]), "unit": "s"},
            **report["headline"],
            "failed_frac": {"value": failed_frac, "unit": "ratio"},
        },
        "samples": {
            key: report[key]
            for key in ("op_s", "ref_s", "traced_op_s", "traced_ref_s")
            if key in report
        }
        | {"setup_s": setup_s},
        "spans_file": report.get("spans_file"),
    }))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
