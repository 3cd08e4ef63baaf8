"""Experiment orchestration: instance batches, budget-matched comparisons,
ablations, overlap analysis, and report emission.

Every algorithm in a suite sees the identical instances and the identical
call budget (the training run's bound for that size). Instances, runs, and
aggregation are all seeded deterministically from the suite's seed base, so
a suite's emitted summary is byte-identical across repeats; parallel
execution only changes scheduling, never output bytes.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import stats as _scipy_stats

from .baselines import AnnealSchedule, hill_climb, simulated_anneal
from .engine import BbsConfig, budget_bound, make_plan, run_bbs
from .problems import (
    brute_force,
    gen_deconfliction,
    gen_knapsack,
    gen_tsp,
    make_handle,
    tsp_bit_length,
)

TSP_OPTIMAL_RTOL = 1e-9
PROBLEM_KINDS = ("knapsack", "deconfliction", "tsp")


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry: a solver plus (for the trained solver) an
    ablation mode that zeroes the corresponding learning rates."""

    base: str  # "bbs" | "sa" | "hc"
    ablation: str = "full"  # "full" | "no_theta" | "no_all"
    name: Optional[str] = None

    def __post_init__(self):
        if self.base not in ("bbs", "sa", "hc"):
            raise ValueError(f"unknown algorithm {self.base!r}")
        if self.ablation not in ("full", "no_theta", "no_all"):
            raise ValueError(f"unknown ablation mode {self.ablation!r}")
        if self.base != "bbs" and self.ablation != "full":
            raise ValueError("ablation modes apply to the trained solver only")
        if self.name is None:
            label = self.base if self.ablation == "full" else f"bbs_{self.ablation}"
            object.__setattr__(self, "name", label)


@dataclass(frozen=True)
class ExperimentSuite:
    problem: str
    sizes: tuple[int, ...]
    instances_per_size: int = 100
    algorithms: tuple[AlgoSpec, ...] = (AlgoSpec("bbs"), AlgoSpec("sa"), AlgoSpec("hc"))
    bbs: BbsConfig = field(default_factory=BbsConfig)
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    seed_base: int = 0
    maneuvers: int = 2  # deconfliction K
    conflict_rate: float = 0.3  # deconfliction Bernoulli bias
    capacity_ratio: float = 0.5  # knapsack W as a fraction of total weight
    keep_traces: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.problem!r}")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate algorithm names {names}")


@dataclass(frozen=True)
class InstanceRecord:
    instance_id: str
    kind: str
    size: int
    index: int
    algorithm: str
    c_alg: Optional[float]
    c_opt: float
    c_max: float
    delta: float
    optimal_found: bool
    calls: int
    seed: int
    error: Optional[str] = None


@dataclass(frozen=True)
class MetricsRow:
    kind: str
    size: int
    algorithm: str
    instances: int
    percent_optimal: float
    avg_percent_error: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "algorithm": self.algorithm,
            "instances": self.instances,
            "percent_optimal": self.percent_optimal,
            "avg_percent_error": self.avg_percent_error,
        }


@dataclass
class SuiteResult:
    suite: ExperimentSuite
    records: list
    rows: list
    combined: dict  # (kind, size) -> combined percent optimal
    budgets: dict  # size -> call budget
    traces: dict = field(default_factory=dict)


def relative_error(kind: str, c_alg: float, c_opt: float, c_max: Optional[float] = None) -> float:
    """Distance from optimal: |(C_opt - C_alg) / C_opt|, except for
    deconfliction where costs span zero and the error is normalized by the
    solution-space range |(C_alg - C_opt) / (C_max - C_opt)|."""
    if kind == "deconfliction":
        if c_max is None:
            raise ValueError("deconfliction error needs the global maximum")
        span = c_max - c_opt
        if span == 0:
            if c_alg == c_opt:
                return 0.0
            raise ValueError("degenerate instance: C_max equals C_opt")
        return abs((c_alg - c_opt) / span)
    if c_opt == 0:
        if c_alg == c_opt:
            return 0.0
        raise ValueError("degenerate instance: C_opt is zero")
    return abs((c_opt - c_alg) / c_opt)


def is_optimal(kind: str, c_alg: float, c_opt: float) -> bool:
    if kind == "tsp":
        return abs(c_alg - c_opt) <= TSP_OPTIMAL_RTOL * max(1.0, abs(c_opt))
    return c_alg == c_opt


def tsp_points_for_size(m: int) -> int:
    for n in range(3, 41):
        if tsp_bit_length(n) == m:
            return n
    valid = sorted({tsp_bit_length(n) for n in range(3, 16)})
    raise ValueError(f"no point count yields {m} tour bits; nearby sizes: {valid}")


def generate_instance(suite: ExperimentSuite, size: int, index: int):
    rng = np.random.default_rng([suite.seed_base, size, index])
    if suite.problem == "knapsack":
        return gen_knapsack(size, rng, capacity_ratio=suite.capacity_ratio)
    if suite.problem == "deconfliction":
        if size % suite.maneuvers:
            raise ValueError(f"size {size} not divisible by K={suite.maneuvers}")
        return gen_deconfliction(size // suite.maneuvers, suite.maneuvers, suite.conflict_rate, rng)
    return gen_tsp(tsp_points_for_size(size), rng)


def suite_budget(suite: ExperimentSuite, size: int) -> int:
    plan = make_plan(size, suite.bbs)
    return budget_bound(size, updates=suite.bbs.updates, samples=suite.bbs.samples, tile_plan=plan)


def _bbs_config_for(spec: AlgoSpec, base: BbsConfig, seed: int) -> BbsConfig:
    cfg = replace(base, seed=seed)
    if spec.ablation == "no_theta":
        cfg = replace(cfg, lr_theta=0.0)
    elif spec.ablation == "no_all":
        cfg = replace(cfg, lr_theta=0.0, lr_alpha=0.0)
    return cfg


def _run_instance(suite: ExperimentSuite, size: int, index: int):
    instance = generate_instance(suite, size, index)
    handle = make_handle(instance)
    oracle = brute_force(handle)
    budget = suite_budget(suite, size)
    instance_id = f"{suite.problem}_{size}_{index}"
    records, traces = [], {}
    for pos, spec in enumerate(suite.algorithms):
        seed_material = [suite.seed_base, size, index, pos + 1]
        seed = int(np.random.SeedSequence(seed_material).generate_state(1)[0])
        c_alg = calls = None
        error = None
        try:
            if spec.base == "bbs":
                cfg = _bbs_config_for(spec, suite.bbs, seed)
                res = run_bbs(handle, cfg, np.random.default_rng(seed_material))
                if suite.keep_traces:
                    traces[f"{instance_id}_{spec.name}"] = res.trace
            elif spec.base == "sa":
                res = simulated_anneal(
                    handle, budget, np.random.default_rng(seed_material),
                    schedule=suite.schedule, seed=seed,
                )
            else:
                res = hill_climb(
                    handle, budget, np.random.default_rng(seed_material), seed=seed
                )
            c_alg, calls = res.best_cost, res.calls
        except Exception as exc:  # record, never abort the suite
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            delta = relative_error(suite.problem, c_alg, oracle.optimum, oracle.maximum)
            optimal = is_optimal(suite.problem, c_alg, oracle.optimum)
        else:
            delta, optimal, calls = 1.0, False, 0
        records.append(
            InstanceRecord(
                instance_id=instance_id,
                kind=suite.problem,
                size=size,
                index=index,
                algorithm=spec.name,
                c_alg=c_alg,
                c_opt=oracle.optimum,
                c_max=oracle.maximum,
                delta=float(delta),
                optimal_found=bool(optimal),
                calls=int(calls),
                seed=seed,
                error=error,
            )
        )
    return records, traces


def run_suite(suite: ExperimentSuite, jobs: int = 1) -> SuiteResult:
    """Run every (instance, algorithm) pair and aggregate metric rows.

    The aggregation is a deterministic fold over (size, index), so the
    result does not depend on ``jobs``.
    """
    tasks = [(size, idx) for size in suite.sizes for idx in range(suite.instances_per_size)]
    outcome = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                (size, idx): pool.submit(_run_instance, suite, size, idx)
                for size, idx in tasks
            }
            for key, future in futures.items():
                outcome[key] = future.result()
    else:
        for size, idx in tasks:
            outcome[(size, idx)] = _run_instance(suite, size, idx)
    records, traces = [], {}
    for size, idx in tasks:
        recs, trs = outcome[(size, idx)]
        records.extend(recs)
        traces.update(trs)
    rows = aggregate_rows(records, [a.name for a in suite.algorithms])
    combined = combined_percent_optimal(records)
    budgets = {size: suite_budget(suite, size) for size in suite.sizes}
    return SuiteResult(
        suite=suite, records=records, rows=rows, combined=combined,
        budgets=budgets, traces=traces,
    )


def aggregate_rows(records, algorithm_order) -> list:
    keys = []
    for rec in records:
        key = (rec.kind, rec.size)
        if key not in keys:
            keys.append(key)
    rows = []
    for kind, size in keys:
        for name in algorithm_order:
            subset = [
                r for r in records
                if r.kind == kind and r.size == size and r.algorithm == name
            ]
            if not subset:
                continue
            rows.append(
                MetricsRow(
                    kind=kind,
                    size=size,
                    algorithm=name,
                    instances=len(subset),
                    percent_optimal=100.0 * np.mean([r.optimal_found for r in subset]),
                    avg_percent_error=100.0 * float(np.mean([r.delta for r in subset])),
                )
            )
    return rows


def combined_percent_optimal(records) -> dict:
    """Per (kind, size): percentage of instances solved by at least one
    algorithm. Only defined when two or more algorithms ran."""
    combined = {}
    groups = {}
    for rec in records:
        groups.setdefault((rec.kind, rec.size), {}).setdefault(rec.index, []).append(rec)
    for key, by_index in groups.items():
        if max(len(v) for v in by_index.values()) < 2:
            continue
        solved = [any(r.optimal_found for r in recs) for recs in by_index.values()]
        combined[key] = 100.0 * float(np.mean(solved))
    return combined


def one_sided_paired_pvalue(better, worse) -> float:
    """P-value for mean(better) < mean(worse), paired by instance."""
    better = np.asarray(better, dtype=float)
    worse = np.asarray(worse, dtype=float)
    if better.shape != worse.shape or better.size < 2:
        raise ValueError("need two equal-length sample vectors")
    if np.allclose(better, worse):
        return 1.0
    result = _scipy_stats.ttest_rel(better, worse, alternative="less")
    p = float(result.pvalue)
    return 1.0 if np.isnan(p) else p


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_CSV_HEADER = [
    "instance_id", "kind", "size", "algorithm", "C_alg", "C_opt",
    "delta", "optimal_found", "calls", "seed",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_payload(result: SuiteResult) -> dict:
    suite = result.suite
    return {
        "meta": {
            "problem": suite.problem,
            "sizes": list(suite.sizes),
            "instances_per_size": suite.instances_per_size,
            "algorithms": [a.name for a in suite.algorithms],
            "seed_base": suite.seed_base,
            "updates": suite.bbs.updates,
            "samples": suite.bbs.samples,
            "generator": {
                "maneuvers": suite.maneuvers,
                "conflict_rate": suite.conflict_rate,
                "capacity_ratio": suite.capacity_ratio,
            },
            "budgets": {str(k): v for k, v in sorted(result.budgets.items())},
            "desk_scale": True,  # sizes are reduced relative to the reference evaluation
            "tsp_optimal_rtol": TSP_OPTIMAL_RTOL,
        },
        "rows": [row.to_json_dict() for row in result.rows],
        "combined_percent_optimal": {
            f"{kind}_{size}": pct for (kind, size), pct in sorted(result.combined.items())
        },
    }


def emit_report(result: SuiteResult, out_dir) -> dict:
    """Write results.csv, summary.json, and per-run trace CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in result.records:
            writer.writerow(
                [
                    r.instance_id, r.kind, r.size, r.algorithm, _fmt(r.c_alg),
                    _fmt(r.c_opt), _fmt(r.delta), _fmt(r.optimal_found),
                    r.calls, r.seed,
                ]
            )
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary_payload(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = {"results": results_path, "summary": summary_path}
    if result.traces:
        trace_dir = out / "traces"
        trace_dir.mkdir(exist_ok=True)
        for key in sorted(result.traces):
            path = trace_dir / f"{key}.csv"
            result.traces[key].write_csv(path)
        written["traces"] = trace_dir
    return written


def format_summary_table(result: SuiteResult) -> str:
    """Plain-text table: % optimal and average % error per algorithm/size."""
    names = [a.name for a in result.suite.algorithms]
    headers = ["size"]
    for name in names:
        headers += [f"{name} %opt", f"{name} avg%err"]
    show_combined = len(names) >= 2
    if show_combined:
        headers.append("combined %opt")
    lines = [f"problem: {result.suite.problem}", "  ".join(f"{h:>14}" for h in headers)]
    by_key = {(r.kind, r.size, r.algorithm): r for r in result.rows}
    for size in result.suite.sizes:
        cells = [f"{size:>14}"]
        for name in names:
            row = by_key.get((result.suite.problem, size, name))
            if row is None:
                cells += [f"{'-':>14}", f"{'-':>14}"]
            else:
                cells += [
                    f"{row.percent_optimal:>14.1f}",
                    f"{row.avg_percent_error:>14.2f}",
                ]
        if show_combined:
            pct = result.combined.get((result.suite.problem, size))
            cells.append(f"{pct:>14.1f}" if pct is not None else f"{'-':>14}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
