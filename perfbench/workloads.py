"""The four workloads, their warm-up, and the checks run on every result.

One repetition ("rep") of a workload is a fixed set of
:class:`bbsolve.bench.ExperimentSuite` objects whose ``seed_base`` is
``seed * 1000 + rep``, so a seed pins every instance and trajectory of every
rep. Sizes were chosen so a rep takes under a second on a 2-core Xeon with
the numpy path (``train-sequential``: about 1.6 s, one update). A run of ten
or more seconds then takes the median over many reps, and the calibrations
at the two ends of a rep see the machine as the rep did.
"""

import hashlib
import json
import os
import platform

import numpy as np
import scipy

from bbsolve import _accel, bench, engine, fock
from bbsolve.bench import AlgoSpec, ExperimentSuite
from bbsolve.engine import BbsConfig
from bbsolve.interferometer import input_pattern
from bbsolve.sampling import resolve_backend

MAX_REPS = 1000  # seed_base = seed * MAX_REPS + rep stays unique per (seed, rep)

# S = 50 and loops (1, 3, 9) are the paper configuration at m = 10; only the
# number of updates N is cut, which also sets the baselines' matched budget.
_PAPER_M10 = dict(samples=50, loop_lengths=(1, 3, 9))
_BBS = (AlgoSpec("bbs"),)
_BASELINES = (AlgoSpec("sa"), AlgoSpec("hc"))


def _train_knapsack(seed_base):
    return (
        ExperimentSuite(
            problem="knapsack", sizes=(10,), instances_per_size=1, algorithms=_BBS,
            bbs=BbsConfig(updates=4, **_PAPER_M10), seed_base=seed_base,
        ),
    )


def _train_tsp(seed_base):
    return (
        ExperimentSuite(
            problem="tsp", sizes=(10,), instances_per_size=1, algorithms=_BBS,
            bbs=BbsConfig(updates=2, **_PAPER_M10), seed_base=seed_base,
        ),
    )


def _baselines(seed_base):
    # N = 2 gives the matched budget 2 * 50 * 55 = 5,500 calls per run.
    return tuple(
        ExperimentSuite(
            problem=problem, sizes=(10,), instances_per_size=1, algorithms=_BASELINES,
            bbs=BbsConfig(updates=2, **_PAPER_M10), seed_base=seed_base,
        )
        for problem in ("knapsack", "deconfliction", "tsp")
    )


def _train_sequential(seed_base):
    # m = 17 is the smallest size whose Fock dimension, C(25, 9) = 2,042,975,
    # exceeds DEFAULT_MAX_DIM, so the auto backend picks the sequential sampler.
    return (
        ExperimentSuite(
            problem="knapsack", sizes=(17,), instances_per_size=1, algorithms=_BBS,
            bbs=BbsConfig(updates=1, samples=1), seed_base=seed_base,
        ),
    )


WORKLOADS = {
    "train-knapsack": _train_knapsack,
    "train-tsp": _train_tsp,
    "baselines": _baselines,
    "train-sequential": _train_sequential,
}


def rep_suites(workload, seed, rep):
    if not 0 <= rep < MAX_REPS:
        raise ValueError(f"rep {rep} outside 0..{MAX_REPS - 1}")
    return WORKLOADS[workload](seed * MAX_REPS + rep)


def warm_up(suites):
    """Generate the instances and fill the Fock basis and coupler-table caches.

    Returns one description per tile of every trained suite: the backend it
    resolves to and its Fock dimension.
    """
    tiles = []
    for suite in suites:
        for size in suite.sizes:
            for index in range(suite.instances_per_size):
                bench.generate_instance(suite, size, index)
            if not any(spec.base == "bbs" for spec in suite.algorithms):
                continue
            for layout in engine.make_plan(size, suite.bbs).layouts:
                m = layout.modes
                n = int(input_pattern(m).sum())
                backend = resolve_backend(suite.bbs.sampler_backend, m, n, suite.bbs.max_dim)
                if backend == "statevector":
                    basis = fock.get_basis(m, n)
                    for a, b in layout.couplers:
                        fock.get_coupler_table(basis, a - 1, b - 1)
                tiles.append(
                    {
                        "problem": suite.problem, "size": size, "modes": m, "photons": n,
                        "couplers": layout.coupler_count, "backend": backend,
                        "fock_dim": fock.fock_dim(m, n),
                    }
                )
    return tiles


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(tiles):
    return {
        "numba": bool(_accel.NUMBA_ENABLED),
        "tiles": tiles,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# Knapsack is the only maximisation problem; the others minimise.
_MAXIMISED = {"knapsack"}


def record_failure(record, budget):
    """Why one InstanceRecord fails the benchmark's checks, or None.

    ``run_suite`` folds an error into delta = 1.0, so errors are counted here.
    """
    if record.error is not None:
        return f"error: {record.error}"
    if record.calls != budget:
        return f"used {record.calls} calls, budget is {budget}"
    if record.kind in _MAXIMISED:
        better = record.c_alg > record.c_opt
    else:
        better = record.c_alg < record.c_opt
    if better and not bench.is_optimal(record.kind, record.c_alg, record.c_opt):
        return f"cost {record.c_alg!r} beats the brute-force optimum {record.c_opt!r}"
    return None


def failures(results):
    """(records checked, list of failure messages) over suite results."""
    checked, failed = 0, []
    for result in results:
        for record in result.records:
            checked += 1
            why = record_failure(record, result.budgets[record.size])
            if why is not None:
                failed.append(f"{record.instance_id} [{record.algorithm}] {why}")
    return checked, failed


def digest(results):
    """sha256 over each summary payload and every record's (c_alg, calls)."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(bench.summary_payload(result), sort_keys=True).encode())
        h.update(json.dumps([(r.c_alg, r.calls) for r in result.records]).encode())
    return h.hexdigest()
