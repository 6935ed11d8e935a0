"""The timed part of a child (see child.py): calibration, reports, peak RSS, spans.

Makes every report of the workload as one in-process call to
`orbitlab.cli.main(argv)` with stdout and stderr captured, and prints one
JSON object with the captured outputs, per-report wall and CPU times, the
peak resident set and, when traced, the per-layer metrics.  Output checking
happens in run.py, outside this process.

Times are reported both as measured and scaled to a reference speed.  The
speed of a shared host drifts by a third or more within minutes, so in a
`plain` round a fixed pure-Python calibration unit (`loop_unit`) is timed
every SAMPLE_PERIOD_S of wall time, from a timer signal.  Samples are then
uniform in time, so the mean of reference / unit time over the round,
times the measured time (less the samples' own time), estimates the seconds
the round would take on a host that runs the unit in 1 ms.  A single sample
is noisy (about 15%), so the whole round's samples make one factor.  The
rounds of a traced run, `reference` and `traced` alike, sample between
reports instead, so that no sample falls inside a span and the two kinds
are scaled the same way.  The set-up is scaled by `import_unit` samples
taken after it (2 ms reference).
"""

import contextlib
import gc
import io
import json
import resource
import signal
import time
import traceback

SAMPLE_PERIOD_S = 0.1
SETUP_SAMPLES = 10  # calibration samples after the set-up
BETWEEN_SAMPLES = 3  # calibration samples before each report of a traced run's rounds


def loop_unit():
    """Fixed tuple, dict and call work, the mix orbitlab's loops are made of."""
    seen = {}
    x = (1, 2, 3, 4, 5, 6, 7)
    for i in range(1500):
        x = tuple(x[v - 1] for v in (2, 3, 1, 5, 4, 7, 6))
        seen[x, i & 63] = i
    return len(seen)


_MODULE_BODY = compile(
    """
from dataclasses import dataclass, field
from enum import Enum
class Kind(Enum):
    A = "a"
    B = "b"
@dataclass(frozen=True)
class Point:
    a: int
    b: tuple
    c: str = ""
    d: list = field(default=None, compare=False)
    def first(self):
        return self.a
@dataclass
class Pair:
    x: int
    y: int
TABLE = {i: (i, str(i)) for i in range(200)}
""",
    "<calibration>",
    "exec",
    dont_inherit=True,
)


def import_unit():
    """Class, dataclass and enum creation: the work of importing a module.
    Import work slows less than `loop_unit` when the host is busy, so the
    set-up is scaled by this unit instead."""
    for _ in range(2):
        exec(_MODULE_BODY, {"__name__": "calibration"})


class Speed:
    """Calibration samples of one unit, and the wall and CPU time they took."""

    def __init__(self, unit, reference_s):
        self.unit = unit
        self.reference_s = reference_s  # the unit's time on the reference host
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_signal_args):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            self.unit()
            self.samples.append(time.perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def factor(self):
        """Mean reference-to-measured speed ratio over the samples."""
        return sum(self.reference_s / s for s in self.samples) / len(self.samples)


def run_report(cli, argv, speed):
    """Make one report; its times exclude calibration samples taken during it."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    spent_wall0, spent_cpu0 = speed.spent_wall, speed.spent_cpu
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI would exit 1 with this traceback
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - wall0 - (speed.spent_wall - spent_wall0)
    cpu = time.process_time() - cpu0 - (speed.spent_cpu - spent_cpu0)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "raw_wall_s": wall, "raw_cpu_s": cpu}


def main(cli, args, workload, setup):
    setup_speed = Speed(import_unit, 0.002)
    setup_speed.unit()  # warm-up, not counted
    for _ in range(SETUP_SAMPLES):
        setup_speed.sample()
    result = {"raw_setup_s": setup, "setup_s": setup * setup_speed.factor()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    speed = Speed(loop_unit, 0.001)
    speed.unit()  # warm-up, not counted
    speed.sample()
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    elif args.mode == "plain":
        signal.signal(signal.SIGALRM, speed.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    reports = []
    for i, report in enumerate(workload.reports):
        if args.mode != "plain":
            # a sample inside a span would count as layer time: sample between reports
            if tracer is not None:
                tracer.report = i
            for _ in range(BETWEEN_SAMPLES):
                speed.sample()
        reports.append(run_report(cli, report.argv, speed))
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    factor = speed.factor()
    for r in reports:
        r["wall_s"], r["cpu_s"] = r["raw_wall_s"] * factor, r["raw_cpu_s"] * factor
    result["reports"] = reports
    result["factor"] = factor
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"], result["raw_self_sum_s"] = tracer.metrics(factor)
        result["untraced"] = tracer.missing
    print(json.dumps(result))
    return 0
