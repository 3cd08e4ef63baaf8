"""Command-line front end.

Subcommands: ``gen`` (instance files), ``solve`` (one run on one instance),
``bench`` (budget-matched suite), ``ablate`` (bench with ablation modes),
``trace`` (re-emit plot data from a trace CSV). A JSON config file can seed
any bench run; command-line flags override file values. ``BBS_SEED`` sets
the default seed. ``--dry-run`` prints the call budget and Fock dimensions
without sampling anything.
"""

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import AnnealSchedule, hill_climb, simulated_anneal
from .bench import (
    AlgoSpec,
    ExperimentSuite,
    _bbs_config_for,
    emit_report,
    format_summary_table,
    generate_instance,
    run_suite,
    suite_budget,
)
from .engine import BbsConfig, budget_bound, make_plan, run_bbs
from .fock import fock_dim
from .interferometer import input_pattern
from .problems import load_instance, make_handle, save_instance

# Each config-file key, mapped to the argparse attribute of the flag that
# overrides it. The file check and the resolvers read these same maps, so a
# new setting is declared once.
_RUN_KEYS = {  # BbsConfig and AnnealSchedule fields; solve and bench
    "updates": "updates",
    "samples": "samples",
    "lr_theta": "lr_theta",
    "lr_alpha": "lr_alpha",
    "shift": "shift",
    "loops": "loops",
    "tile_size": "tile_size",
    "sampler_backend": "backend",
    "t_max": "t_max",
    "t_min": "t_min",
}
_GENERATOR_KEYS = {  # ExperimentSuite's instance-generator fields
    "maneuvers": "maneuvers",
    "conflict_rate": "conflict_rate",
    "capacity_ratio": "capacity_ratio",
}
_SUITE_KEYS = {
    "problem": "problem",
    "sizes": "sizes",
    "instances_per_size": "instances",
    "seed": "seed",
    "algorithms": "algs",
    "out": "out",
    "jobs": "jobs",
    "traces": "traces",
}
_BENCH_CONFIG_KEYS = {*_RUN_KEYS, *_GENERATOR_KEYS, *_SUITE_KEYS}

HARDWARE_PRESET = {
    "loops": [1],
    "tile_size": 8,
    "updates": 50,
    "samples": 20,
}


def _default_seed() -> int:
    return int(os.environ.get("BBS_SEED", "0"))


def _parse_int_list(value) -> tuple[int, ...]:
    """A comma string such as ``"1,3,9"``, or a config file's list of ints."""
    if not isinstance(value, (list, tuple)):
        return tuple(int(v) for v in str(value).split(",") if v != "")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(value)


def _load_config_file(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise SystemExit(f"config {path}: expected a JSON object")
    unknown = set(payload) - _BENCH_CONFIG_KEYS
    if unknown:
        raise SystemExit(f"config {path}: unknown keys {sorted(unknown)}")
    return payload


def _pick(args, keys: dict, sources=()) -> dict:
    """The settings that are set. Each key of ``keys`` takes the value of
    its flag (the ``args`` attribute it maps to), else the value of the
    first of ``sources`` (the config file, then the preset) that holds the
    key. A key set nowhere is left out, so the dataclass it feeds keeps its
    own default."""
    picked = {}
    for key, attr in keys.items():
        flag = getattr(args, attr)
        value = flag if flag is not None else next((s[key] for s in sources if key in s), None)
        if value is not None:
            picked[key] = value
    return picked


def _typed(cls, picked: dict) -> dict:
    """``picked`` cast to the types of ``cls``'s defaults: a config file may
    hold ``"3"`` or ``1`` where a count or a float is meant."""
    return {key: type(getattr(cls, key))(value) for key, value in picked.items()}


def _run_settings(args, sources=()) -> tuple[BbsConfig, AnnealSchedule]:
    """The trainer and annealer settings of a solve or bench run."""
    picked = _pick(args, _RUN_KEYS, sources)
    loops = picked.pop("loops", None)
    temperatures = {key: picked.pop(key) for key in ("t_max", "t_min") if key in picked}
    bbs = BbsConfig(**_typed(BbsConfig, picked))
    if loops:
        bbs = replace(bbs, loop_lengths=_parse_int_list(loops))
    return bbs, AnnealSchedule(**_typed(AnnealSchedule, temperatures))


def _warn_untiled(tile_size: int, sizes) -> None:
    for m in sizes:
        if tile_size > m:
            warnings.warn(f"tile_size {tile_size} > problem size {m}; running untiled")


def _fock_dims(plan) -> list[int]:
    return [fock_dim(l.modes, int(input_pattern(l.modes).sum())) for l in plan.layouts]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    suite = ExperimentSuite(
        problem=args.kind,
        sizes=(args.size,),
        seed_base=args.seed,
        maneuvers=args.maneuvers,
        conflict_rate=args.conflict_rate,
        capacity_ratio=args.capacity_ratio,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        try:
            inst = generate_instance(suite, args.size, index)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = out / f"{args.kind}_{args.size}_{index}.json"
        save_instance(inst, path)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    try:
        instance = load_instance(args.instance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2
    handle = make_handle(instance)
    m = handle.size
    base, schedule = _run_settings(args)
    _warn_untiled(base.tile_size, [m])
    cfg = _bbs_config_for(AlgoSpec("bbs", ablation=args.ablate or "full"), base, args.seed)
    plan = make_plan(m, cfg)
    bound = budget_bound(m, updates=cfg.updates, samples=cfg.samples, tile_plan=plan)
    if args.dry_run:
        print(f"budget_bound: {bound}")
        print(f"tile sizes: {[s for _, s in plan.blocks]}")
        print(f"fock dimensions: {_fock_dims(plan)}")
        return 0
    budget = args.budget if args.budget else bound
    rng = np.random.default_rng(args.seed)
    if args.alg == "bbs":
        result = run_bbs(handle, cfg, rng)
        if args.trace:
            result.trace.write_csv(args.trace)
    elif args.alg == "sa":
        result = simulated_anneal(handle, budget, rng, schedule=schedule, seed=args.seed)
    else:
        result = hill_climb(handle, budget, rng, seed=args.seed)
    payload = result.to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# bench / ablate
# ---------------------------------------------------------------------------


def _suite_from_args(args, ablation: bool) -> tuple[ExperimentSuite, dict]:
    file_cfg = _load_config_file(args.config) if args.config else {}
    sources = (file_cfg, HARDWARE_PRESET if args.hardware_emulation else {})
    bbs, schedule = _run_settings(args, sources)
    picked = _pick(args, _SUITE_KEYS, sources)
    fields = _typed(ExperimentSuite, _pick(args, _GENERATOR_KEYS, sources))
    if ablation:
        modes = ("full", "no_theta", "no_all")
        fields["algorithms"] = tuple(AlgoSpec("bbs", ablation=mode) for mode in modes)
    elif "algorithms" in picked:
        fields["algorithms"] = tuple(AlgoSpec(name) for name in picked["algorithms"])
    sizes = _parse_int_list(picked.get("sizes", "6,10"))
    _warn_untiled(bbs.tile_size, sizes)
    suite = ExperimentSuite(
        problem=str(picked.get("problem", "knapsack")),
        sizes=sizes,
        instances_per_size=int(picked.get("instances_per_size", 10)),
        bbs=bbs,
        schedule=schedule,
        seed_base=int(picked.get("seed", _default_seed())),
        keep_traces=bool(picked.get("traces", ExperimentSuite.keep_traces)),
        **fields,
    )
    extras = {"out": picked.get("out", "bench_out"), "jobs": int(picked.get("jobs", 1))}
    return suite, extras


def _split_algs(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def cmd_bench(args, ablation: bool = False) -> int:
    try:
        suite, extras = _suite_from_args(args, ablation)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        for size in suite.sizes:
            plan = make_plan(size, suite.bbs)
            print(
                f"size {size}: budget_bound={suite_budget(suite, size)} "
                f"tiles={[s for _, s in plan.blocks]} fock_dims={_fock_dims(plan)}"
            )
        return 0
    result = run_suite(suite, jobs=extras["jobs"])
    written = emit_report(result, extras["out"])
    print(format_summary_table(result))
    failures = [r for r in result.records if r.error is not None]
    for rec in failures:
        print(f"FAILED {rec.instance_id} [{rec.algorithm}]: {rec.error}", file=sys.stderr)
    print(f"report: {written['summary']}")
    return 0


# ---------------------------------------------------------------------------
# trace re-emission
# ---------------------------------------------------------------------------


def cmd_trace(args) -> int:
    import csv as _csv

    path = Path(args.trace_csv)
    if not path.exists():
        print(f"error: no such trace {path}", file=sys.stderr)
        return 2
    with open(path) as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = {
        "loss.csv": [1, 2],  # loss, best_cost
        "bitflip_probs.csv": [i for i, h in enumerate(header) if h.startswith("p_")],
        "angles.csv": [i for i, h in enumerate(header) if h.startswith("theta_")],
    }
    for name, cols in columns.items():
        with open(out / name, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["step"] + [header[i] for i in cols])
            writer.writerows([row[0]] + [row[i] for i in cols] for row in rows)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_bbs_flags(parser):
    parser.add_argument("--updates", "-N", type=int, default=None)
    parser.add_argument("--samples", "-S", type=int, default=None)
    parser.add_argument("--lr-theta", type=float, default=None)
    parser.add_argument("--lr-alpha", type=float, default=None)
    parser.add_argument("--shift", type=float, default=None)
    parser.add_argument("--loops", type=_parse_int_list, default=None,
                        help="comma list, e.g. 1,3,9")
    parser.add_argument("--tile-size", type=int, default=None)
    parser.add_argument("--backend", choices=["auto", "statevector", "sequential"], default=None)
    parser.add_argument("--t-max", type=float, default=None)
    parser.add_argument("--t-min", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbs", description="photonic-sampler binary optimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate random instance files")
    p_gen.add_argument("kind", choices=["knapsack", "deconfliction", "tsp"])
    p_gen.add_argument("size", type=int)
    p_gen.add_argument("count", type=int)
    p_gen.add_argument("--seed", type=int, default=_default_seed())
    p_gen.add_argument("--out", default="instances")
    p_gen.add_argument("--capacity-ratio", type=float, default=ExperimentSuite.capacity_ratio)
    p_gen.add_argument("--maneuvers", type=int, default=ExperimentSuite.maneuvers)
    p_gen.add_argument("--conflict-rate", type=float, default=ExperimentSuite.conflict_rate)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one solver on one instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--alg", choices=["bbs", "sa", "hc"], default="bbs")
    p_solve.add_argument("--ablate", choices=["no_theta", "no_all"], default=None)
    p_solve.add_argument("--budget", type=int, default=None,
                         help="override the matched call budget (sa/hc)")
    p_solve.add_argument("--trace", default=None, help="write the training trace CSV here")
    p_solve.add_argument("--out", default=None, help="write the result JSON here")
    p_solve.add_argument("--dry-run", action="store_true")
    _add_bbs_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve, seed=_default_seed())

    for name, ablation in (("bench", False), ("ablate", True)):
        p = sub.add_parser(
            name,
            help="run a budget-matched suite" if not ablation
            else "bench with full / no_theta / no_all training modes",
        )
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--problem", choices=["knapsack", "deconfliction", "tsp"], default=None)
        p.add_argument("--sizes", type=str, default=None)
        p.add_argument("--instances", type=int, default=None)
        if not ablation:
            p.add_argument("--algs", type=_split_algs, default=None, help="comma list: bbs,sa,hc")
        else:
            p.set_defaults(algs=None)
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--traces", action="store_true", default=None)
        p.add_argument("--hardware-emulation", action="store_true")
        p.add_argument("--maneuvers", type=int, default=None)
        p.add_argument("--conflict-rate", type=float, default=None)
        p.add_argument("--capacity-ratio", type=float, default=None)
        p.add_argument("--dry-run", action="store_true")
        _add_bbs_flags(p)
        p.set_defaults(func=lambda a, abl=ablation: cmd_bench(a, ablation=abl))

    p_trace = sub.add_parser("trace", help="re-emit plot data from a trace CSV")
    p_trace.add_argument("trace_csv")
    p_trace.add_argument("--out", default="trace_out")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
