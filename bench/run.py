"""orbitlab benchmark: run one workload for a fixed time and check every report.

    python3 bench/run.py --workload injections --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The run first times SETUP_SAMPLES set-ups
(import orbitlab, write the input files), each in a fresh interpreter, then
makes whole rounds of the workload's reports, each round in a fresh
single-threaded interpreter, until the next round would end past `--seconds`
(at least one round).  Every report is checked against the independent
oracles in `oracles.py` and against the digest of its output in the run's
first round.  With `--trace 1` the rounds come in pairs, an untraced
reference round and then a traced one, at least TRACED_MIN_PAIRS of them:
the traced rounds give the per-layer metrics, and the pairs the tracing
overhead.  Times are scaled to a reference speed as rounds.py describes; the
measured times are printed alongside.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics untraced, per-layer metrics traced).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
TRACED_MIN_PAIRS = 2  # so that per-layer counts are compared between two traced rounds
TIME_LIMIT_S = 170  # a run must end within 180 s


def run_child(workload, seed, mode, timeout):
    # -S: no site-packages .pth file preloads modules that the set-up should pay for
    cmd = [sys.executable, "-S", str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def digest(result):
    return hashlib.sha256(f"{result['code']}\n{result['stdout']}".encode()).hexdigest()


def check_rounds(workload, rounds):
    """(attempted, failed, unexpected failure messages) over all rounds.

    A report fails when its exit code or checked content is wrong or its
    digest differs from the run's first round.  The failure is expected only
    when the report has a known fault, fails in exactly that fault's way and
    keeps its first-round digest; any other failure is unexpected."""
    attempted = failed = 0
    unexpected = []
    first = [digest(r) for r in rounds[0]["reports"]]
    for n, rnd in enumerate(rounds):
        for report, result, reference in zip(workload.reports, rnd["reports"], first):
            attempted += 1
            error = report.check(result["code"], result["stdout"])
            same = digest(result) == reference
            if error is None and not same:
                error = "output differs from the run's first round" + (
                    " (traced vs untraced)" if rnd.get("layers") is not None else ""
                )
            if error is None:
                continue
            failed += 1
            if report.fault is not None and same and report.fault.matches(result["code"], result["stderr"]):
                if n == 0:
                    print(f"known fault  {report.name}: {report.fault.why}")
                continue
            unexpected.append(f"round {n} {report.name}: {error} {result['stderr'][-300:]}")
    return attempted, failed, unexpected


def end_to_end(rounds, setups):
    def per_round(key):
        return [sum(r[key] for r in rnd["reports"]) for rnd in rounds]

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(per_round("wall_s")), "s"),
        "cpu_s": (statistics.median(per_round("cpu_s")), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(rounds, problems):
    traced = rounds[1::2]  # rounds alternate: untraced reference, traced
    for name in traced[0]["untraced"]:
        print(f"not traced: {name} is gone; its metrics read 0")
    for rnd in traced:
        # spans nest on one stack, so this holds by construction; it guards the span arithmetic
        wall = sum(r["raw_wall_s"] for r in rnd["reports"])
        if rnd["raw_self_sum_s"] > wall:
            problems.append(f"span self times sum to {rnd['raw_self_sum_s']} s > traced wall {wall} s")
    out = {}
    for name, spec in spans.PER_LAYER.items():
        values = [rnd["layers"][name] for rnd in traced]
        if spec[0] == "self":
            out[name] = (statistics.median(values), "s")
            continue
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        out[name] = (values[0], "ratio" if spec[0] == "ratio" else "count")
    walls = [sum(r["wall_s"] for r in rnd["reports"]) for rnd in rounds]
    out["trace.overhead_s"] = (statistics.median(t - u for u, t in zip(walls[0::2], walls[1::2])), "s")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "orbitlab" / "cli.py").is_file():
        print(f"no orbitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    try:
        setups = [
            run_child(args.workload, args.seed, "setup", TIME_LIMIT_S)["setup_s"] for _ in range(SETUP_SAMPLES)
        ]
        modes = ("reference", "traced") if args.trace else ("plain",)
        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                remaining = TIME_LIMIT_S - (time.perf_counter() - begin)
                rounds.append(run_child(args.workload, args.seed, mode, remaining))
            duration = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if args.trace and len(rounds) < 2 * TRACED_MIN_PAIRS:
                continue
            if elapsed + duration > args.seconds or (time.perf_counter() - begin) + duration > TIME_LIMIT_S:
                break
    finally:
        shutil.rmtree(ROOT / workloads.INPUT_DIR / args.workload, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / workloads.INPUT_DIR).rmdir()

    attempted, failed, problems = check_rounds(workload, rounds)
    setups += [rnd["setup_s"] for rnd in rounds]
    metrics = per_layer(rounds, problems) if args.trace else end_to_end(rounds, setups)
    for problem in problems:
        print(f"FAIL  {problem}")
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"reports {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    raw = [sum(r["raw_wall_s"] for r in rnd["reports"]) for rnd in rounds]
    print(f"  measured wall per round (s): {' '.join(f'{w:.3f}' for w in raw)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
