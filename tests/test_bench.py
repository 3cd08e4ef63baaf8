import json

import numpy as np
import pytest

from bbsolve.baselines import AnnealSchedule
from bbsolve.bench import (
    AlgoSpec,
    ExperimentSuite,
    InstanceRecord,
    combined_percent_optimal,
    emit_report,
    format_summary_table,
    one_sided_paired_pvalue,
    relative_error,
    run_suite,
    suite_budget,
    summary_payload,
    tsp_points_for_size,
)
from bbsolve.engine import BbsConfig


def small_suite(**overrides):
    kwargs = dict(
        problem="knapsack",
        sizes=(6,),
        instances_per_size=4,
        algorithms=(AlgoSpec("bbs"), AlgoSpec("sa"), AlgoSpec("hc")),
        bbs=BbsConfig(updates=5, samples=4, loop_lengths=(1,), seed=0),
        schedule=AnnealSchedule(),
        seed_base=17,
    )
    kwargs.update(overrides)
    return ExperimentSuite(**kwargs)


def _rec(instance_id, algorithm, optimal, index=None, kind="knapsack", size=6):
    idx = index if index is not None else int(instance_id.split("_")[-1])
    return InstanceRecord(
        instance_id=instance_id,
        kind=kind,
        size=size,
        index=idx,
        algorithm=algorithm,
        c_alg=1.0,
        c_opt=1.0,
        c_max=1.0,
        delta=0.0 if optimal else 0.5,
        optimal_found=optimal,
        calls=10,
        seed=0,
    )


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error("knapsack", 100.0, 100.0) == 0.0
        assert relative_error("tsp", 2.5, 2.5) == 0.0
        assert relative_error("deconfliction", -2.0, -2.0, 5.0) == 0.0

    def test_knapsack_six_percent(self):
        assert relative_error("knapsack", 94.0, 100.0) == pytest.approx(0.06)

    def test_deconfliction_worst_case(self):
        assert relative_error("deconfliction", 5.0, -2.0, 5.0) == pytest.approx(1.0)

    def test_degenerate_flags(self):
        assert relative_error("knapsack", 0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            relative_error("knapsack", 1.0, 0.0)
        with pytest.raises(ValueError):
            relative_error("deconfliction", 1.0, 0.0, 0.0)


class TestOverlap:
    @staticmethod
    def combined(a, b, key=("knapsack", 6)):
        return combined_percent_optimal(a + b)[key]

    def test_union(self):
        a = [_rec("knapsack_6_0", "a", True), _rec("knapsack_6_1", "a", False)]
        b = [_rec("knapsack_6_0", "b", False), _rec("knapsack_6_1", "b", True)]
        assert self.combined(a, b) == 100.0

    def test_subset(self):
        a = [_rec("knapsack_6_0", "a", False), _rec("knapsack_6_1", "a", True)]
        b = [_rec("knapsack_6_0", "b", True), _rec("knapsack_6_1", "b", True)]
        assert self.combined(a, b) == 100.0
        assert self.combined(a, a) == 50.0

    def test_two_solvers_with_small_overlap(self):
        # 2% and 27% individually, disjoint hits -> combined 29%
        a = [_rec(f"tsp_29_{i}", "a", i < 2, kind="tsp", size=29) for i in range(100)]
        b = [_rec(f"tsp_29_{i}", "b", 2 <= i < 29, kind="tsp", size=29) for i in range(100)]
        assert self.combined(a, b, ("tsp", 29)) == pytest.approx(29.0)

    def test_combined_at_least_max_individual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            hits_a = rng.random(30) < 0.4
            hits_b = rng.random(30) < 0.4
            a = [_rec(f"knapsack_6_{i}", "a", bool(h)) for i, h in enumerate(hits_a)]
            b = [_rec(f"knapsack_6_{i}", "b", bool(h)) for i, h in enumerate(hits_b)]
            combined = self.combined(a, b)
            assert combined >= 100.0 * max(hits_a.mean(), hits_b.mean())


class TestPairedPvalue:
    def test_clear_separation(self):
        rng = np.random.default_rng(0)
        worse = rng.random(30) + 0.5
        better = worse - 0.4 + 0.05 * rng.standard_normal(30)
        assert one_sided_paired_pvalue(better, worse) < 0.05

    def test_identical_is_inconclusive(self):
        x = np.ones(10)
        assert one_sided_paired_pvalue(x, x) == 1.0


class TestRunSuite:
    def test_rows_and_budget_fairness(self):
        suite = small_suite()
        result = run_suite(suite)
        assert len(result.rows) == 3
        budget = suite_budget(suite, 6)
        for rec in result.records:
            assert rec.error is None
            assert rec.calls == budget  # identical consumed budget for all
        for row in result.rows:
            assert row.instances == 4
            assert 0.0 <= row.percent_optimal <= 100.0
            assert row.avg_percent_error >= 0.0

    def test_records_share_oracle(self):
        result = run_suite(small_suite())
        by_instance = {}
        for rec in result.records:
            by_instance.setdefault(rec.instance_id, set()).add((rec.c_opt, rec.c_max))
        for values in by_instance.values():
            assert len(values) == 1

    def test_combined_column_present(self):
        result = run_suite(small_suite())
        assert ("knapsack", 6) in result.combined
        individual = [r.percent_optimal for r in result.rows]
        assert result.combined[("knapsack", 6)] >= max(individual)

    def test_parallel_jobs_identical_output(self):
        suite = small_suite(instances_per_size=3)
        seq = run_suite(suite, jobs=1)
        par = run_suite(suite, jobs=2)
        assert seq.records == par.records
        assert summary_payload(seq) == summary_payload(par)

    def test_failed_instance_recorded_not_raised(self):
        # a TSP suite size with no valid point count fails per instance
        suite = small_suite(problem="tsp", sizes=(10,), instances_per_size=2)
        result = run_suite(suite)
        assert all(rec.error is None for rec in result.records)
        bad = ExperimentSuite(
            problem="deconfliction",
            sizes=(7,),  # not divisible by K = 2 -> generation fails
            instances_per_size=1,
            algorithms=(AlgoSpec("sa"),),
            bbs=BbsConfig(updates=2, samples=2, loop_lengths=(1,)),
            seed_base=3,
        )
        with pytest.raises(ValueError):
            run_suite(bad)

    def test_algorithm_failure_recorded_with_worst_delta(self):
        # a statevector bound too small for the basis fails the run itself;
        # the suite must record the failure and keep going
        suite = small_suite(
            sizes=(8,),
            instances_per_size=2,
            algorithms=(AlgoSpec("bbs"), AlgoSpec("hc")),
            bbs=BbsConfig(
                updates=2, samples=2, loop_lengths=(1,),
                sampler_backend="statevector", max_dim=10,
            ),
        )
        result = run_suite(suite)
        failed = [r for r in result.records if r.algorithm == "bbs"]
        fine = [r for r in result.records if r.algorithm == "hc"]
        assert all("FockDimensionError" in r.error for r in failed)
        assert all(r.delta == 1.0 and not r.optimal_found for r in failed)
        assert all(r.error is None for r in fine)

    def test_ablation_specs(self):
        suite = small_suite(
            algorithms=(
                AlgoSpec("bbs"),
                AlgoSpec("bbs", ablation="no_theta"),
                AlgoSpec("bbs", ablation="no_all"),
            ),
            instances_per_size=2,
        )
        result = run_suite(suite)
        names = {r.algorithm for r in result.records}
        assert names == {"bbs", "bbs_no_theta", "bbs_no_all"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AlgoSpec("sa", ablation="no_all")
        with pytest.raises(ValueError):
            ExperimentSuite(problem="maxcut", sizes=(6,))
        with pytest.raises(ValueError):
            ExperimentSuite(
                problem="knapsack",
                sizes=(6,),
                algorithms=(AlgoSpec("bbs"), AlgoSpec("bbs")),
            )


def test_theta_training_improves_tight_knapsack():
    """Circuit training produces a real, statistically confirmed improvement
    where the landscape punishes blind search: with capacity at 15% of the
    total weight, most strings are infeasible and the trained runs beat the
    flips-only ablation decisively (robust across seeds and backends)."""
    suite = ExperimentSuite(
        problem="knapsack",
        sizes=(12,),
        instances_per_size=30,
        algorithms=(AlgoSpec("bbs"), AlgoSpec("bbs", ablation="no_theta")),
        bbs=BbsConfig(updates=16, samples=1, loop_lengths=(1,)),
        capacity_ratio=0.15,
        seed_base=101,
    )
    result = run_suite(suite)
    deltas = {}
    for name in ("bbs", "bbs_no_theta"):
        recs = sorted(
            (r for r in result.records if r.algorithm == name), key=lambda r: r.index
        )
        deltas[name] = np.array([r.delta for r in recs])
    gap = deltas["bbs_no_theta"].mean() - deltas["bbs"].mean()
    p = one_sided_paired_pvalue(deltas["bbs"], deltas["bbs_no_theta"])
    assert gap > 0
    assert p < 0.05


class TestTspSizes:
    def test_valid_sizes(self):
        assert tsp_points_for_size(5) == 5
        assert tsp_points_for_size(10) == 7
        assert tsp_points_for_size(13) == 8
        assert tsp_points_for_size(19) == 10
        assert tsp_points_for_size(29) == 13

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            tsp_points_for_size(12)


class TestEmitReport:
    def test_empty_suite_files(self, tmp_path):
        suite = small_suite(instances_per_size=0)
        result = run_suite(suite)
        written = emit_report(result, tmp_path)
        lines = written["results"].read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("instance_id,")
        payload = json.loads(written["summary"].read_text())
        assert payload["rows"] == []

    def test_summary_roundtrip(self, tmp_path):
        result = run_suite(small_suite(instances_per_size=2))
        written = emit_report(result, tmp_path)
        parsed = json.loads(written["summary"].read_text())
        assert parsed == summary_payload(result)
        assert parsed["meta"]["desk_scale"] is True

    def test_traces_written_with_run_length(self, tmp_path):
        suite = small_suite(
            instances_per_size=1, keep_traces=True, algorithms=(AlgoSpec("bbs"),)
        )
        result = run_suite(suite)
        written = emit_report(result, tmp_path)
        trace_files = sorted(written["traces"].glob("*.csv"))
        assert len(trace_files) == 1
        rows = trace_files[0].read_text().strip().splitlines()
        assert len(rows) == 1 + suite.bbs.updates

    def test_byte_identical_reruns(self, tmp_path):
        suite = small_suite(instances_per_size=2)
        a = emit_report(run_suite(suite), tmp_path / "a")
        b = emit_report(run_suite(suite), tmp_path / "b")
        assert a["summary"].read_bytes() == b["summary"].read_bytes()
        assert a["results"].read_bytes() == b["results"].read_bytes()

    def test_table_format(self):
        result = run_suite(small_suite(instances_per_size=2))
        table = format_summary_table(result)
        assert "combined %opt" in table
        assert "problem: knapsack" in table
