"""Budget-normalised benchmark of bbsolve: cost-function calls per second.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bbsolve checkout; it measures the package under
``src/``. The workloads are defined in ``workloads.py`` and explained, with
the layer metrics each should move, in ``LAYERS.md``.

A run first times the set-up in separate processes (``--setup-probe``), then
sets up itself and calls ``bench.run_suite`` on one rep of the workload
after another until ``--seconds`` have passed. Every record is checked and
every rep's determinism digest is printed. With ``--trace 0`` it reports the
end-to-end metrics. With ``--trace 1`` it runs reps untraced for a quarter
of ``--seconds``, then traces reps from rep 0 again and reports the
per-layer metrics, writing the spans to ``perfbench/out/``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
CAL_EVERY_S = 0.1  # calibration interval inside untraced reps
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("train-knapsack", "train-tsp", "baselines", "train-sequential")
END_TO_END_UNITS = {
    "cost_calls_per_s": "1/s",
    "update_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_bbsolve():
    """Import bbsolve from this checkout's src/, and nowhere else."""
    if not (SRC / "bbsolve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bbsolve package under {SRC}; run from a bbsolve checkout")
    sys.path.insert(0, str(SRC))
    import bbsolve

    if Path(bbsolve.__file__).resolve().parent != SRC / "bbsolve":
        raise SystemExit(f"perfbench: imported bbsolve from {bbsolve.__file__}, not {SRC}")


def setup_probe(args):
    """Set up as a run does and report how long import and warm-up took."""
    start = time.perf_counter()
    import_bbsolve()
    imported = time.perf_counter()
    import workloads

    workloads.warm_up(workloads.rep_suites(args.workload, args.seed, 0))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - imported}), flush=True)


def time_setups(args):
    """Median set-up of fresh processes, from spawn to warmed up, in reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls, imports, warmups = [], [], []
    clock = RefClock()
    for _ in range(SETUP_PROBES):
        mark = clock.mark()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
        split = json.loads(line)
        scale = clock.scale(mark)
        walls.append(scale * (ready - start))
        imports.append(scale * split["import_s"])
        warmups.append(scale * split["warmup_s"])
    print("setup probes " + json.dumps(walls))
    return statistics.median(walls), statistics.median(imports), statistics.median(warmups)


class Rep(NamedTuple):
    calls: int  # budget-counted cost calls
    wall: float  # seconds
    scale: float  # reference seconds per wall second

    @property
    def ref_s(self):
        return self.scale * self.wall


class Runner:
    """Runs reps of one workload and checks every result."""

    def __init__(self, workload, seed, clock):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.steps = None  # a StepClock whose steps are put in reference seconds
        self.attempted = 0
        self.failed = []
        self.digests = {}
        self.records = []

    def rep(self, rep, label):
        from bbsolve import bench

        suites = self.w.rep_suites(self.workload, self.seed, rep)
        mark = self.clock.mark()
        start = self.clock.now()
        results = [bench.run_suite(suite) for suite in suites]
        wall = self.clock.now() - start
        scale = self.clock.scale(mark)
        if self.steps:
            self.steps.end_rep(scale)
        checked, failed = self.w.failures(results)
        self.attempted += checked
        self.failed.extend(failed)
        digest = self.w.digest(results)
        if self.digests.setdefault(rep, digest) != digest:
            self.failed.append(f"rep {rep}: {label} digest {digest} differs from {self.digests[rep]}")
        self.records.extend(r for result in results for r in result.records)
        print(f"digest {self.workload} seed={self.seed} rep={rep} {label} sha256={digest} "
              f"records={[(r.c_alg, r.calls) for result in results for r in result.records]}")
        return Rep(sum(r.calls for result in results for r in result.records), wall, scale)

    def reps_for(self, seconds, label, before_rep=None):
        """Reps 0, 1, ... until ``seconds`` have passed."""
        out, start = [], time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            if before_rep is not None:
                before_rep(len(out))
            out.append(self.rep(len(out), label))
        return out


def measure(runner, seconds):
    """End-to-end metrics of the untraced reps."""
    from tracing import Patches, percentile
    from layers import StepClock

    steps = runner.steps = StepClock(runner.clock)
    with Patches() as patches:
        steps.install(patches)
        reps = runner.reps_for(seconds, "untraced")
    steps_ms = [1e3 * s for s in steps.steps]
    optimal = [r.optimal_found for r in runner.records]
    info = {
        "reps": len(reps),
        "steps": len(steps_ms),
        "pct_optimal": 100.0 * sum(optimal) / len(optimal),
        "failed_frac": len(runner.failed) / runner.attempted,
        "calibrations": len(runner.clock.cals),
        "calibration_ms_p50": 1e3 * statistics.median(runner.clock.cals),
    }
    # p90 has ten samples beyond it only from 100 steps on
    if len(steps_ms) >= 100:
        info["update_ms_p90"] = percentile(steps_ms, 90)
    print("info " + json.dumps(info, sort_keys=True))
    return {
        "cost_calls_per_s": statistics.median(rep.calls / rep.ref_s for rep in reps),
        "update_ms_p50": percentile(steps_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(runner, seconds, args):
    """Per-layer metrics of the traced reps."""
    import layers
    from tracing import Patches, Tracer

    # the same reps untraced first: the overhead baseline, and their digests
    # must not change under tracing
    untraced = runner.reps_for(seconds / 4, "untraced")
    tracer = Tracer()
    with Patches() as patches:
        ledgers = layers.install(tracer, patches)
        reps = runner.reps_for(seconds, "traced", before_rep=lambda rep: setattr(tracer, "run_id", rep))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    scale = sum(rep.ref_s for rep in reps) / sum(rep.wall for rep in reps)
    metrics = layers.metrics(tracer, ledgers, len(reps), scale)
    common = min(len(untraced), len(reps))
    metrics["trace.overhead_frac"] = (
        statistics.median(rep.ref_s for rep in reps[:common])
        / statistics.median(rep.ref_s for rep in untraced[:common]) - 1.0
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_bbsolve()  # fail before the probes if there is nothing to measure
    # One CPU for this process and its probes, so each calibration runs on
    # the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, import_s, warmup_s = time_setups(args)
    import workloads
    from layers import PER_LAYER_UNITS

    tiles = workloads.warm_up(workloads.rep_suites(args.workload, args.seed, 0))
    print("environment " + json.dumps(workloads.environment(tiles), sort_keys=True))
    runner = Runner(args.workload, args.seed, RefClock(None if args.trace else CAL_EVERY_S))
    if args.trace:
        values = trace(runner, args.seconds, args)
        values["setup.import_s"] = import_s
        values["setup.warmup_s"] = warmup_s
        units = PER_LAYER_UNITS
    else:
        values = measure(runner, args.seconds)
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS
    for message in runner.failed:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
