import numpy as np
import pytest

from bbsolve._accel import NUMBA_ENABLED
from bbsolve.baselines import (
    AnnealSchedule,
    hill_climb,
    simulated_anneal,
    _hc_python,
    _sa_python,
)
from bbsolve.problems import (
    CostFunctionHandle,
    brute_force,
    gen_knapsack,
    knapsack_handle,
)


def onemax_handle(m):
    # minimize -sum(x): optimum is the all-ones string
    return CostFunctionHandle(
        size=m, sense="minimize", eval=lambda b: -float(np.sum(b)), kind="onemax"
    )


class TestHillClimb:
    def test_onemax_reaches_optimum(self):
        res = hill_climb(onemax_handle(5), 200, np.random.default_rng(0))
        assert res.best_bits == (1, 1, 1, 1, 1)
        assert res.best_cost == -5.0

    def test_hard_stop_at_budget(self):
        for budget in (1, 3, 17, 100):
            res = hill_climb(onemax_handle(6), budget, np.random.default_rng(1))
            assert res.calls == budget

    def test_best_not_worse_than_any_restart_start(self):
        restarts = []
        res = hill_climb(
            onemax_handle(7), 300, np.random.default_rng(2), record_restarts=restarts
        )
        starts = [cost for tag, _, cost in restarts if tag == "start"]
        assert starts and all(res.best_cost <= c for c in starts)

    def test_abandoned_strings_are_local_optima(self):
        handle = onemax_handle(6)
        restarts = []
        hill_climb(handle, 400, np.random.default_rng(3), record_restarts=restarts)
        local_opts = [(bits, cost) for tag, bits, cost in restarts if tag == "local_opt"]
        assert local_opts
        for bits, cost in local_opts:
            for i in range(6):
                neighbor = bits.copy()
                neighbor[i] ^= 1
                assert handle.eval(neighbor) >= cost

    def test_deterministic(self):
        handle = knapsack_handle(gen_knapsack(8, np.random.default_rng(4)))
        a = hill_climb(handle, 500, np.random.default_rng(5))
        b = hill_climb(handle, 500, np.random.default_rng(5))
        assert a == b

    @pytest.mark.skipif(not NUMBA_ENABLED, reason="kernel path disabled")
    def test_kernel_matches_python_path(self):
        handle = knapsack_handle(gen_knapsack(9, np.random.default_rng(6)))
        fast = hill_climb(handle, 700, np.random.default_rng(7))
        pool = np.random.default_rng(7).random(2 * 700 + 9)
        eval_fn = lambda bits: -float(handle.eval(bits))
        bits, cost, calls = _hc_python(eval_fn, 9, 700, pool)
        assert fast.best_bits == tuple(bits)
        assert fast.best_cost == -cost
        assert fast.calls == calls

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            hill_climb(onemax_handle(3), 0, np.random.default_rng(0))


class TestSimulatedAnneal:
    def test_onemax_reaches_optimum(self):
        res = simulated_anneal(onemax_handle(10), 5000, np.random.default_rng(0))
        assert res.best_bits == (1,) * 10
        assert res.best_cost == -10.0

    def test_consumes_exact_budget(self):
        for budget in (1, 2, 50):
            res = simulated_anneal(onemax_handle(4), budget, np.random.default_rng(1))
            assert res.calls == budget

    def test_greedy_in_cold_limit(self):
        # with T ~ 0 only improving moves are ever accepted
        stats = {}
        handle = onemax_handle(8)
        simulated_anneal(
            handle,
            2000,
            np.random.default_rng(2),
            schedule=AnnealSchedule(t_max=1e-9, t_min=1e-12),
            stats=stats,
        )
        assert stats.get("uphill_accepted", 0) == 0

    def test_uphill_moves_happen_when_hot(self):
        stats = {}
        simulated_anneal(
            onemax_handle(8),
            2000,
            np.random.default_rng(3),
            schedule=AnnealSchedule(t_max=25000.0, t_min=2.5),
            stats=stats,
        )
        assert stats.get("uphill_accepted", 0) > 0

    def test_deterministic(self):
        handle = knapsack_handle(gen_knapsack(8, np.random.default_rng(5)))
        a = simulated_anneal(handle, 800, np.random.default_rng(6))
        b = simulated_anneal(handle, 800, np.random.default_rng(6))
        assert a == b

    @pytest.mark.skipif(not NUMBA_ENABLED, reason="kernel path disabled")
    def test_kernel_matches_python_path(self):
        handle = knapsack_handle(gen_knapsack(9, np.random.default_rng(7)))
        fast = simulated_anneal(handle, 900, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        init_u = rng.random(9)
        flip_idx = rng.integers(0, 9, size=899)
        accept_u = rng.random(899)
        eval_fn = lambda bits: -float(handle.eval(bits))
        bits, cost, calls = _sa_python(
            eval_fn, 9, 900, init_u, flip_idx, accept_u, 25000.0, 2.5
        )
        assert fast.best_bits == tuple(bits)
        assert fast.best_cost == -cost
        assert fast.calls == calls

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_max=1.0, t_min=2.0)


@pytest.mark.skipif(
    not NUMBA_ENABLED,
    reason="full-budget statistics: the python path walks the identical "
    "trajectory (see kernel-parity tests) but takes about 25 min at R=550k "
    "(8 s per knapsack, 35 s per deconfliction, 30 s per TSP instance)",
)
class TestSizeTenParity:
    """Both searches solve essentially every size-10 instance at the matched
    budget of 550,000 calls, for every problem class."""

    @pytest.mark.parametrize("kind", ["knapsack", "deconfliction", "tsp"])
    def test_nineteen_of_twenty(self, kind):
        from bbsolve.problems import gen_deconfliction, gen_tsp, make_handle

        budget = 550_000
        hits_sa = hits_hc = 0
        for i in range(20):
            rng = np.random.default_rng([1, i])
            if kind == "knapsack":
                inst = gen_knapsack(10, rng)
            elif kind == "deconfliction":
                inst = gen_deconfliction(5, 2, 0.3, rng)
            else:
                inst = gen_tsp(7, rng)
            handle = make_handle(inst)
            opt = brute_force(handle).optimum
            sa = simulated_anneal(handle, budget, np.random.default_rng([2, i]))
            hc = hill_climb(handle, budget, np.random.default_rng([3, i]))
            tol = 1e-9 * max(1.0, abs(opt)) if kind == "tsp" else 0.0
            hits_sa += abs(sa.best_cost - opt) <= tol
            hits_hc += abs(hc.best_cost - opt) <= tol
        assert hits_sa >= 19
        assert hits_hc >= 19


def test_result_json_shape():
    res = simulated_anneal(onemax_handle(3), 10, np.random.default_rng(0), seed=42)
    payload = res.to_json_dict()
    assert set(payload) == {
        "best_bits",
        "best_cost",
        "calls",
        "unique_evals",
        "budget_bound",
        "seed",
    }
    assert payload["unique_evals"] is None
    assert payload["seed"] == 42
    assert payload["budget_bound"] == 10
