"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size (``run.py --tiny``), untraced and
   traced, and checks the result line: exactly the keys ``correct``,
   ``attempted``, ``failed`` and ``metrics``, no failed operation, and
   every metric that ``BENCHMARK.json`` names for that mode, with its unit
   (end-to-end values must be positive).
2. Runs every workload in this process with one deliberately wrong
   expected value and checks that each operation is counted as failed;
   runs each traced with a root-span share no trace can reach and checks
   that the traced operation is counted as failed; and checks that a span
   recorded outside an engine operation fails the trace check.
3. Runs ``run.py`` from a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits nonzero without a result.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from run import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> the expected value to break, and the wrong value to expect
BROKEN = {
    "engine_d8_rotation": {"expected_qber": 0.5},
    "engine_d64_loss_eve": {"expected_delivered": 0.5},
    "cli_d4_transcript": {"exit_code": 1},
    "modes_gram": {"tolerance": 0.0},
}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def check_result_line(workload: str, trace: int, line: str, declared: dict) -> None:
    where = f"{workload} --trace {trace}"
    result = json.loads(line)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(result.get("correct") is True, f"{where}: correct is {result.get('correct')!r}")
    attempted, failed = result.get("attempted"), result.get("failed")
    expect(isinstance(attempted, int) and attempted >= 1, f"{where}: attempted {attempted!r}")
    expect(failed == 0, f"{where}: failed {failed!r}")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared), f"{where}: metrics {sorted(set(metrics) ^ set(declared))} differ")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        expect(entry.get("unit") == unit, f"{where}: {name} unit {entry.get('unit')!r} != {unit!r}")
        expect(isinstance(value, (int, float)), f"{where}: {name} value {value!r}")
        if trace == 0:
            expect(isinstance(value, (int, float)) and value > 0, f"{where}: {name} = {value!r}")


def tiny_runs(bench: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600,
            )
            expect(proc.returncode == 0, f"{workload} --trace {trace}: exit {proc.returncode} {proc.stderr}")
            if proc.returncode == 0:
                check_result_line(workload, trace, proc.stdout.strip().splitlines()[-1], declared[trace])
            print(f"ran {workload} --trace {trace}", flush=True)


def broken_expectations() -> None:
    os.environ.update(child_env())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer
    from worker import measure, trace_failures

    for name, wrong in BROKEN.items():
        wl = replace(workloads.make(name, tiny=True), **wrong)
        tracer = Tracer()
        wl.setup(5, tracer)
        report = measure(wl, tracer, seconds=0.0, trace=False, min_ops=2)
        expect(
            report["attempted"] == 2 and report["failed"] == 2,
            f"{name} with {wrong}: {report['failed']} of {report['attempted']} operations failed",
        )
        print(f"broken {name}: {report['failed']}/{report['attempted']} failed", flush=True)

        wl = workloads.make(name, tiny=True)
        wl.min_root_share = 1.01  # root spans never outlast their operation
        tracer = Tracer()
        wl.setup(5, tracer)
        # operations alternate untraced and traced, so only the second fails
        report = measure(wl, tracer, seconds=0.0, trace=True, min_ops=2)
        expect(
            report["attempted"] == 2 and report["failed"] == 1,
            f"{name} traced with min_root_share 1.01: "
            f"{report['failed']} of {report['attempted']} operations failed",
        )
        print(f"broken trace {name}: {report['failed']}/{report['attempted']} failed", flush=True)

    leaked = [("protocol.run_session", 0.0, 1.0, -1), ("protocol.sift", 1.0, 1.001, -1)]
    failures, _ = trace_failures(workloads.make("engine_d8_rotation", tiny=True), leaked, 1.001)
    expect(len(failures) == 1, f"a span outside run_session gave {failures}")


def bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "engine_d8_rotation", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py without src/ exited 0")
    expect('"metrics"' not in proc.stdout, "run.py without src/ printed a result")
    print(f"bare directory: exit {proc.returncode}", flush=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny_runs(bench)
    broken_expectations()
    bare_directory()
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
