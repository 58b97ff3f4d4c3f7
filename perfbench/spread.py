"""Run-to-run spread of the benchmark: one run per seed, quartiles per metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per seed and workload with the ``run_seconds`` of
``BENCHMARK.json`` and prints, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median, next to a third of the metric's bound.
``--out`` also writes the summary and every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark run-to-run spread")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            context, line = proc.stdout.strip().splitlines()[-2:]
            result = json.loads(line)
            result["samples"] = json.loads(context)["samples"]
            runs.append(result)
            print(workload, seed, result["attempted"], result["failed"],
                  {k: round(v["value"], 6) for k, v in result["metrics"].items()
                   if k in bounds}, flush=True)
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {
                "unit": first["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
            if name in bounds:
                limit = bounds[name] / 3
                print(f"  {name:<14} median {median:.6g} {first['unit']}  "
                      f"IQR/median {rows[name]['iqr_share']:.4f}  (bound/3 {limit:.4f})")
        summary[workload] = {
            "runs": len(runs),
            "samples": [r["samples"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
