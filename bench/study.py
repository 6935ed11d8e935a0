"""Repeat the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/study.py --runs 10 [--workload orbits ...]

For each workload, runs `run.py` once per seed (1..runs) for the run length
that BENCHMARK.json fixes, and prints, per metric, the median, the first and
third quartiles (statistics.quantiles, n=4) and the quartile spread as a
share of the median, next to the bound in BENCHMARK.json.  Also prints the
failed share of the runs, which must be the same in every run.  The bounds
in BENCHMARK.json were set from this output.
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or workloads.WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {correct}, failed/attempted {' '.join(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {name:16s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6}"
                  f"  {first['unit']}")


if __name__ == "__main__":
    main()
