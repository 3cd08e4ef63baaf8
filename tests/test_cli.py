import json
import re

import numpy as np
import pytest

from dataclasses import replace

from bbsolve import cli
from bbsolve.baselines import AnnealSchedule
from bbsolve.bench import ExperimentSuite, generate_instance
from bbsolve.cli import main
from bbsolve.engine import BbsConfig
from bbsolve.problems import load_instance, save_instance


def run_cli(args):
    return main(args)


class TestGen:
    def test_knapsack_files(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert run_cli(["gen", "knapsack", "10", "5", "--seed", "7", "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert [f.name for f in files] == [f"knapsack_10_{i}.json" for i in range(5)]
        first = load_instance(files[0])
        # reproducible: regenerating yields identical files
        out2 = tmp_path / "inst2"
        run_cli(["gen", "knapsack", "10", "5", "--seed", "7", "--out", str(out2)])
        assert (out2 / "knapsack_10_0.json").read_bytes() == files[0].read_bytes()
        assert first.size == 10

    def test_tsp_size_maps_to_point_count(self, tmp_path):
        out = tmp_path / "t"
        assert run_cli(["gen", "tsp", "10", "1", "--out", str(out)]) == 0
        inst = load_instance(out / "tsp_10_0.json")
        assert inst.n_points == 7
        assert inst.size == 10

    def test_tsp_invalid_size_rejected(self, tmp_path, capsys):
        assert run_cli(["gen", "tsp", "12", "1", "--out", str(tmp_path)]) == 2
        assert "tour bits" in capsys.readouterr().err

    def test_deconfliction_size(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["gen", "deconfliction", "10", "2", "--maneuvers", "2", "--out", str(out)]) == 0
        inst = load_instance(out / "deconfliction_10_0.json")
        assert inst.n_aircraft == 5
        assert inst.size == 10

    def test_deconfliction_indivisible_size(self, tmp_path, capsys):
        assert (
            run_cli(["gen", "deconfliction", "7", "1", "--maneuvers", "2", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize(
        "kind, size, shown",
        [("deconfliction", "7", "size 7 not divisible by K=2"), ("tsp", "8", "8 tour bits")],
    )
    def test_invalid_size_writes_nothing(self, tmp_path, capsys, kind, size, shown):
        out = tmp_path / "inst"
        assert run_cli(["gen", kind, size, "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err
        assert not out.exists()


class TestSolve:
    @pytest.fixture
    def instance_path(self, tmp_path):
        out = tmp_path / "i"
        run_cli(["gen", "knapsack", "8", "1", "--seed", "3", "--out", str(out)])
        return out / "knapsack_8_0.json"

    def test_bbs_solve_json(self, instance_path, capsys, tmp_path):
        result_path = tmp_path / "res.json"
        code = run_cli(
            [
                "solve", str(instance_path), "--alg", "bbs", "--updates", "5",
                "--samples", "4", "--loops", "1", "--seed", "1",
                "--out", str(result_path),
            ]
        )
        assert code == 0
        payload = json.loads(result_path.read_text())
        assert payload["calls"] <= payload["budget_bound"]
        assert len(payload["best_bits"]) == 8
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == payload

    def test_trace_written(self, instance_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        run_cli(
            [
                "solve", str(instance_path), "--alg", "bbs", "--updates", "4",
                "--samples", "3", "--loops", "1", "--trace", str(trace_path),
            ]
        )
        rows = trace_path.read_text().strip().splitlines()
        assert len(rows) == 5

    def test_ablate_no_all_matches_budget(self, instance_path, capsys):
        code = run_cli(
            [
                "solve", str(instance_path), "--alg", "bbs", "--ablate", "no_all",
                "--updates", "4", "--samples", "3", "--loops", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["calls"] == payload["budget_bound"]

    def test_baseline_budget_matched(self, instance_path, capsys):
        code = run_cli(
            [
                "solve", str(instance_path), "--alg", "hc", "--updates", "4",
                "--samples", "3", "--loops", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # matched to the training budget for the same configuration
        assert payload["calls"] == 4 * 3 * (2 * 7 + 2 * 8 + 1)

    def test_dry_run(self, instance_path, capsys):
        code = run_cli(
            [
                "solve", str(instance_path), "--dry-run", "--updates", "4",
                "--samples", "3", "--loops", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget_bound: 372" in out
        assert "fock dimensions" in out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["solve", str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--tile-size", "1"], "tile_size"),
            (["-N", "0"], "updates"),
            (["--shift", "4"], "shift"),
            (["--loops", "9"], "no loop"),  # the instance has 8 bits
            (["--alg", "sa", "--budget", "0"], "budget"),
            (["--alg", "sa", "--budget", "-5"], "budget"),
        ],
    )
    def test_invalid_setting_is_an_error(self, instance_path, capsys, flags, shown):
        assert run_cli(["solve", str(instance_path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and shown in captured.err
        assert captured.out == ""

    def test_solve_other_kinds(self, tmp_path, capsys):
        for kind, size, extra in [
            ("tsp", 10, []),
            ("deconfliction", 6, ["--maneuvers", "2"]),
        ]:
            out = tmp_path / kind
            run_cli(["gen", kind, str(size), "1", "--out", str(out)] + extra)
            capsys.readouterr()  # drop the gen file listing
            code = run_cli(
                [
                    "solve", str(out / f"{kind}_{size}_0.json"), "--alg", "sa",
                    "--updates", "3", "--samples", "2", "--loops", "1",
                ]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["best_bits"]) == size

    def test_seed_env_default(self, instance_path, capsys, monkeypatch):
        monkeypatch.setenv("BBS_SEED", "55")
        run_cli(
            ["solve", str(instance_path), "--alg", "sa", "--updates", "2", "--samples", "2"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 55


class TestBench:
    def test_small_bench(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli(
            [
                "bench", "--problem", "knapsack", "--sizes", "6", "--instances", "2",
                "--updates", "4", "--samples", "3", "--loops", "1",
                "--algs", "bbs,sa,hc", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "combined %opt" in text
        summary = json.loads((out / "summary.json").read_text())
        assert {r["algorithm"] for r in summary["rows"]} == {"bbs", "sa", "hc"}
        assert (out / "results.csv").exists()

    def test_bench_dry_run(self, capsys):
        code = run_cli(
            [
                "bench", "--problem", "knapsack", "--sizes", "6,10", "--dry-run",
                "--updates", "4", "--samples", "3", "--loops", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "size 6: budget_bound=" in out
        assert "size 10: budget_bound=" in out

    @pytest.mark.parametrize("command", ["bench", "ablate"])
    def test_loop_too_long_is_an_error(self, tmp_path, capsys, command):
        out = tmp_path / "rep"
        assert run_cli([command, "--loops", "7", "--sizes", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: no loop from (7,)")
        assert not out.exists()

    def test_hardware_emulation_preset(self, capsys):
        code = run_cli(
            ["bench", "--problem", "knapsack", "--sizes", "12", "--dry-run",
             "--hardware-emulation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # single loop of length 1, tile size 8: budget 50*20*(2*10+2*12+1)
        assert f"budget_bound={50 * 20 * (2 * 10 + 24 + 1)}" in out
        assert "tiles=[8, 4]" in out

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "knapsack",
                    "sizes": "6",
                    "instances_per_size": 1,
                    "updates": 3,
                    "samples": 2,
                    "loops": [1],
                    "algorithms": ["sa"],
                    "seed": 9,
                }
            )
        )
        out = tmp_path / "rep"
        code = run_cli(["bench", "--config", str(cfg), "--out", str(out), "--instances", "2"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["instances_per_size"] == 2  # flag overrides file
        assert summary["meta"]["seed_base"] == 9

    @pytest.mark.parametrize(
        "sizes, loops", [([6, 10], [1, 3]), ("6,10", "1,3")], ids=["lists", "comma-strings"]
    )
    def test_config_file_int_lists(self, tmp_path, capsys, sizes, loops):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"sizes": sizes, "loops": loops, "updates": 4, "samples": 3}))
        assert run_cli(["bench", "--config", str(cfg), "--dry-run"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == ["size 6", "size 10"]
        # loops of length 1 and 3 on 6 modes hold 5 + 3 couplers
        assert f"budget_bound={4 * 3 * (2 * 8 + 2 * 6 + 1)}" in out[0]

    @pytest.mark.parametrize(
        "key, value", [("sizes", [6.5]), ("sizes", [True]), ("sizes", ["6"]), ("loops", [1.9])]
    )
    def test_config_file_rejects_non_int_lists(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(["bench", "--config", str(cfg), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expected a list of integers")

    @pytest.mark.parametrize(
        "key, value",
        [("updates", 2.5), ("samples", True), ("tile_size", 8.5), ("lr_theta", False),
         ("maneuvers", 2.2)],
    )
    def test_config_file_rejects_values_the_cast_would_change(self, tmp_path, key, value):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=f"setting '{key}'"):
            run_cli(["bench", "--config", str(cfg), "--dry-run"])

    @pytest.mark.parametrize(
        "key, value, shown",
        [("updates", "abc", "int, got 'abc'"), ("updates", [1], "int, got [1]"),
         ("lr_theta", "fast", "float, got 'fast'"), ("samples", float("inf"), "int, got inf")],
        ids=["string", "list", "float-string", "infinity"],
    )
    def test_config_file_rejects_values_the_cast_cannot_read(self, tmp_path, key, value, shown):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=f"^setting '{key}': expected {re.escape(shown)}$"):
            run_cli(["bench", "--config", str(cfg), "--dry-run"])

    def test_config_file_casts_exact_values(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"sizes": [6], "loops": [1], "updates": "4", "samples": 3.0,
                                   "lr_theta": 1, "t_max": 100}))
        assert run_cli(["bench", "--config", str(cfg), "--dry-run"]) == 0
        # one loop of length 1 on 6 modes holds 5 couplers
        assert f"budget_bound={4 * 3 * (2 * 5 + 2 * 6 + 1)}" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"problemm": "knapsack"}))
        with pytest.raises(SystemExit):
            run_cli(["bench", "--config", str(cfg), "--dry-run"])

    def test_tile_clamp_warning(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="running untiled"):
            run_cli(
                [
                    "bench", "--problem", "knapsack", "--sizes", "6", "--dry-run",
                    "--tile-size", "9", "--updates", "2", "--samples", "2",
                    "--loops", "1",
                ]
            )

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "problem, sizes, shown",
        [("deconfliction", "6,7", "size 7 not divisible by K=2"), ("tsp", "5,8", "8 tour bits")],
    )
    def test_size_the_problem_cannot_have_is_an_error(
        self, tmp_path, capsys, problem, sizes, shown, dry_run
    ):
        out = tmp_path / "rep"
        args = ["bench", "--problem", problem, "--sizes", sizes, "--out", str(out)]
        assert run_cli(args + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and shown in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("command", ["bench", "ablate"])
    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--problem", "deconfliction", "--conflict-rate", "2"], "conflict rate"),
            (["--capacity-ratio", "-1"], "capacity ratio"),
            (["--instances", "-1"], "instances >= 0"),
        ],
    )
    def test_suite_setting_out_of_range_is_an_error(
        self, tmp_path, capsys, command, flags, shown, dry_run
    ):
        out = tmp_path / "rep"
        args = [command, "--sizes", "4", "--out", str(out)] + flags
        assert run_cli(args + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and shown in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("command", ["bench", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_an_error(self, tmp_path, capsys, command, jobs, dry_run):
        out = tmp_path / "rep"
        args = [command, "--sizes", "6", "--jobs", jobs, "--out", str(out)]
        assert run_cli(args + ["--dry-run"] * dry_run) == 2
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_jobs_below_one_in_a_config_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        assert run_cli(["bench", "--config", str(cfg), "--dry-run"]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        args = [
            "bench", "--problem", "knapsack", "--sizes", "6", "--instances", "2",
            "--updates", "3", "--samples", "2", "--loops", "1", "--algs", "sa,hc",
            "--seed", "8",
        ]
        run_cli(args + ["--out", str(tmp_path / "j1"), "--jobs", "1"])
        run_cli(args + ["--out", str(tmp_path / "j2"), "--jobs", "2"])
        assert (tmp_path / "j1" / "summary.json").read_bytes() == (
            tmp_path / "j2" / "summary.json"
        ).read_bytes()
        assert (tmp_path / "j1" / "results.csv").read_bytes() == (
            tmp_path / "j2" / "results.csv"
        ).read_bytes()

    def test_ablate_alias(self, tmp_path, capsys):
        out = tmp_path / "abl"
        code = run_cli(
            [
                "ablate", "--problem", "knapsack", "--sizes", "6", "--instances", "1",
                "--updates", "3", "--samples", "2", "--loops", "1", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {r["algorithm"] for r in summary["rows"]} == {
            "bbs", "bbs_no_theta", "bbs_no_all",
        }


class TestTraceCommand:
    def test_reemit(self, tmp_path, capsys):
        inst_dir = tmp_path / "i"
        run_cli(["gen", "knapsack", "6", "1", "--out", str(inst_dir)])
        trace_path = tmp_path / "trace.csv"
        run_cli(
            [
                "solve", str(inst_dir / "knapsack_6_0.json"), "--updates", "3",
                "--samples", "2", "--loops", "1", "--trace", str(trace_path),
            ]
        )
        out = tmp_path / "plot"
        assert run_cli(["trace", str(trace_path), "--out", str(out)]) == 0
        assert (out / "loss.csv").read_text().startswith("step,loss,best_cost")
        probs = (out / "bitflip_probs.csv").read_text().splitlines()
        assert probs[0] == "step,p_1,p_2,p_3,p_4,p_5,p_6"
        assert len(probs) == 4
        assert (out / "angles.csv").exists()

    def test_missing_trace(self, tmp_path):
        assert run_cli(["trace", str(tmp_path / "nope.csv")]) == 2


class TestMixedSizeTiling:
    def test_tile_size_kept_for_sizes_it_fits(self, capsys):
        # a size below the tile size runs untiled without untiling the others
        with pytest.warns(UserWarning, match="problem size 6; running untiled"):
            code = run_cli(
                ["bench", "--sizes", "6,10", "--tile-size", "8", "--dry-run", "--loops", "1"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "size 6: budget_bound=230000 tiles=[6] " in out
        assert "size 10: budget_bound=370000 tiles=[8, 2] " in out


class _Captured(Exception):
    pass


def _spy(monkeypatch, name, seen):
    """Replace ``cli.<name>`` by a stub that records its arguments and stops the command."""

    def stub(*args, **kwargs):
        seen.update(args=args, kwargs=kwargs)
        raise _Captured

    monkeypatch.setattr(cli, name, stub)


class TestSettingsDeclaredOnce:
    """With no flags, every run setting is the default its dataclass declares."""

    @pytest.mark.parametrize("command", ["bench", "ablate"])
    def test_each_config_key_is_a_flag_dest(self, command):
        # a key's flag value is read as the args attribute of the same name
        args = cli.build_parser().parse_args([command])
        assert cli._BENCH_CONFIG_KEYS <= set(vars(args))

    @pytest.fixture
    def instance_path(self, tmp_path):
        run_cli(["gen", "knapsack", "8", "1", "--out", str(tmp_path)])
        return str(tmp_path / "knapsack_8_0.json")

    def test_solve_hands_run_bbs_the_default_config(self, instance_path, monkeypatch):
        monkeypatch.setenv("BBS_SEED", "17")
        seen = {}
        _spy(monkeypatch, "run_bbs", seen)
        with pytest.raises(_Captured):
            run_cli(["solve", instance_path])
        assert seen["args"][1] == replace(BbsConfig(), seed=17)

    @pytest.mark.parametrize(
        "ablate, zeroed", [("no_theta", ("lr_theta",)), ("no_all", ("lr_theta", "lr_alpha"))]
    )
    def test_solve_ablation_zeroes_learning_rates(
        self, instance_path, monkeypatch, ablate, zeroed
    ):
        seen = {}
        _spy(monkeypatch, "run_bbs", seen)
        with pytest.raises(_Captured):
            run_cli(["solve", instance_path, "--ablate", ablate, "--seed", "4"])
        expected = replace(BbsConfig(), seed=4, **{name: 0.0 for name in zeroed})
        assert seen["args"][1] == expected

    def test_solve_sa_gets_the_default_schedule(self, instance_path, monkeypatch):
        seen = {}
        _spy(monkeypatch, "simulated_anneal", seen)
        with pytest.raises(_Captured):
            run_cli(["solve", instance_path, "--alg", "sa"])
        assert seen["kwargs"]["schedule"] == AnnealSchedule()

    def test_bench_builds_the_default_suite(self, monkeypatch):
        monkeypatch.delenv("BBS_SEED", raising=False)
        seen = {}
        _spy(monkeypatch, "run_suite", seen)
        with pytest.raises(_Captured):
            run_cli(["bench"])
        suite = seen["args"][0]
        assert suite.bbs == BbsConfig()
        assert suite.schedule == AnnealSchedule()
        assert suite == ExperimentSuite(
            problem="knapsack", sizes=(6, 10), instances_per_size=10
        )

    @pytest.mark.parametrize("kind, size", [("knapsack", 9), ("deconfliction", 10), ("tsp", 10)])
    def test_gen_writes_the_suite_generator_instances(self, tmp_path, kind, size):
        assert run_cli(["gen", kind, str(size), "3", "--seed", "6", "--out", str(tmp_path)]) == 0
        suite = ExperimentSuite(problem=kind, sizes=(size,), seed_base=6)
        for index in range(3):
            expected = tmp_path / f"expected_{index}.json"
            save_instance(generate_instance(suite, size, index), expected)
            written = tmp_path / f"{kind}_{size}_{index}.json"
            assert written.read_bytes() == expected.read_bytes()
