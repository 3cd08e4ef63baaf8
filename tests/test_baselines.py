import numpy as np
import pytest

from bbsolve import baselines, problems
from bbsolve.baselines import AnnealSchedule, hill_climb, simulated_anneal
from bbsolve.problems import (
    CostFunctionHandle,
    brute_force,
    gen_deconfliction,
    gen_knapsack,
    gen_tsp,
    knapsack_handle,
    make_handle,
)

from oracles import anneal_bits, hill_climb_bits


def onemax_handle(m):
    # minimize -sum(x): optimum is the all-ones string
    return CostFunctionHandle(
        size=m, sense="minimize", eval=lambda b: -float(np.sum(b)), kind="onemax"
    )


def bits_of(s, m):
    return np.array([(s >> k) & 1 for k in range(m - 1, -1, -1)], dtype=np.uint8)


@pytest.fixture
def cost_log(monkeypatch):
    """Every cost a search reads, as (bits, cost) in read order. The loop
    runs as Python so it can read through the log."""
    log = []
    search = baselines._search

    class Logged:
        def __init__(self, costs, m):
            self.costs, self.m = costs, m

        def __getitem__(self, s):
            cost = self.costs[s]
            log.append((bits_of(s, self.m), cost))
            return cost

    def logged_search(kernel, handle, *draws):
        loop, costs, draws = search(kernel, handle, *draws)
        return getattr(loop, "py_func", loop), Logged(costs, handle.size), draws

    monkeypatch.setattr(baselines, "_search", logged_search)
    return log


def replay_hill_climb(log, m):
    """Cut a minimizing hill climb's call log into restarts.

    Returns (start cost, abandoned (bits, cost) or None) per restart: a
    string is abandoned once m distinct single-bit moves from it have all
    failed to improve. Fails if a move is not one untried bit flip.
    """
    restarts = []
    i = 0
    while i < len(log):
        bits, cost = log[i]
        start = cost
        i += 1
        rejected = set()
        while i < len(log) and len(rejected) < m:
            cand, c = log[i]
            i += 1
            (flipped,) = np.flatnonzero(cand != bits)
            assert flipped not in rejected
            if c < cost:
                bits, cost, rejected = cand, c, set()
            else:
                rejected.add(int(flipped))
        restarts.append((start, (bits, cost) if len(rejected) == m else None))
    return restarts


def replay_uphill(log):
    """Uphill moves accepted in a minimizing anneal's call log, bar the last
    move: a move was accepted iff the next candidate is one flip from it."""
    cost = log[0][1]
    uphill = 0
    for (cand, c), (nxt, _) in zip(log[1:], log[2:]):
        if np.count_nonzero(nxt != cand) == 1:
            uphill += c > cost
            cost = c
    return uphill


class TestHillClimb:
    def test_onemax_reaches_optimum(self):
        res = hill_climb(onemax_handle(5), 200, np.random.default_rng(0))
        assert res.best_bits == (1, 1, 1, 1, 1)
        assert res.best_cost == -5.0

    def test_hard_stop_at_budget(self):
        for budget in (1, 3, 17, 100):
            res = hill_climb(onemax_handle(6), budget, np.random.default_rng(1))
            assert res.calls == budget

    def test_best_not_worse_than_any_restart_start(self, cost_log):
        res = hill_climb(onemax_handle(7), 300, np.random.default_rng(2))
        starts = [start for start, _ in replay_hill_climb(cost_log, 7)]
        assert len(cost_log) == res.calls
        assert len(starts) == res.counters["restarts"] > 1
        assert all(res.best_cost <= c for c in starts)

    def test_abandoned_strings_are_local_optima(self, cost_log):
        base = make_handle(gen_deconfliction(4, 2, 0.4, np.random.default_rng(3)))
        res = hill_climb(base, 400, np.random.default_rng(3))
        restarts = replay_hill_climb(cost_log, 8)
        local_opts = [opt for _, opt in restarts if opt is not None]
        assert len(restarts) == res.counters["restarts"]
        assert len(local_opts) == res.counters["local_optima"] > 1
        for bits, cost in local_opts:
            for i in range(8):
                neighbor = bits.copy()
                neighbor[i] ^= 1
                assert base.eval(neighbor) >= cost

    def test_deterministic(self):
        handle = knapsack_handle(gen_knapsack(8, np.random.default_rng(4)))
        a = hill_climb(handle, 500, np.random.default_rng(5))
        b = hill_climb(handle, 500, np.random.default_rng(5))
        assert a == b

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

    def test_greedy_in_cold_limit(self, cost_log):
        # with T ~ 0 only improving moves are ever accepted
        res = simulated_anneal(
            onemax_handle(8),
            2000,
            np.random.default_rng(2),
            schedule=AnnealSchedule(t_max=1e-9, t_min=1e-12),
        )
        assert res.counters["uphill_accepted"] == replay_uphill(cost_log) == 0

    def test_uphill_moves_happen_when_hot(self, cost_log):
        # deconfliction has flat moves, which do not count as uphill
        res = simulated_anneal(
            make_handle(gen_deconfliction(4, 2, 0.4, np.random.default_rng(3))),
            2000,
            np.random.default_rng(3),
            schedule=AnnealSchedule(t_max=25000.0, t_min=2.5),
        )
        uphill = replay_uphill(cost_log)
        assert uphill > 0
        assert uphill <= res.counters["uphill_accepted"] <= uphill + 1

    def test_deterministic(self):
        handle = knapsack_handle(gen_knapsack(8, np.random.default_rng(5)))
        a = simulated_anneal(handle, 800, np.random.default_rng(6))
        b = simulated_anneal(handle, 800, np.random.default_rng(6))
        assert a == b

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_max=1.0, t_min=2.0)


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


SEARCHES = {"hc": hill_climb, "sa": simulated_anneal}

PROBLEMS = {
    "knapsack10": lambda: gen_knapsack(10, np.random.default_rng(41)),
    "deconfliction10": lambda: gen_deconfliction(5, 2, 0.3, np.random.default_rng(42)),
    "tsp8": lambda: gen_tsp(8, np.random.default_rng(46)),
    "tsp13": lambda: gen_tsp(13, np.random.default_rng(54)),
    "tsp21": lambda: gen_tsp(21, np.random.default_rng(40)),
    "tsp22": lambda: gen_tsp(22, np.random.default_rng(46)),  # 66 bits, past int64
}

# (best_bits, best_cost, calls) at budget 3,000, hill climbing seeded 51 and
# annealing 52, recorded from the plain-Python searches on handle.eval. They
# pin the cost table too: summing TSP legs left to right instead of in
# tsp_cost's order changes every TSP entry.
PINNED = {
    ("knapsack10", "hc"): ("1111001100", 432.0, 3000),
    ("knapsack10", "sa"): ("1101001101", 434.0, 3000),
    ("deconfliction10", "hc"): ("0010101000", 8.0, 3000),
    ("deconfliction10", "sa"): ("1010001001", 8.0, 3000),
    ("tsp8", "hc"): ("0010010100000", 2.135277584579286, 3000),
    ("tsp8", "sa"): ("1100001010000", 2.135277584579286, 3000),
    ("tsp13", "hc"): ("01110000000111110111111000111", 4.133534290892191, 3000),
    ("tsp13", "sa"): ("11110101101101111111100001010", 4.534745741638375, 3000),
    ("tsp21", "hc"): ("11111100101000000100111110000100111000101001011101000000111101", 6.081904847051877, 3000),
    ("tsp21", "sa"): ("01011101110001101010001110110000000100011101000111010000000001", 6.8722045016165465, 3000),
    ("tsp22", "hc"): ("000101110001011111000101011001000010111001100101011110000100100101", 7.092070134834093, 3000),
    ("tsp22", "sa"): ("101000011111111010110011011111010110001100000111011000001111110101", 7.339067201321588, 3000),
}


@pytest.mark.parametrize("problem, search", sorted(PINNED))
def test_pinned_results(problem, search):
    bits, cost, calls = PINNED[problem, search]
    seed = 51 if search == "hc" else 52
    res = SEARCHES[search](
        make_handle(PROBLEMS[problem]()), 3000, np.random.default_rng(seed)
    )
    assert "".join(map(str, res.best_bits)) == bits
    assert repr(res.best_cost) == repr(cost)
    assert res.calls == calls


REFERENCES = {"hc": hill_climb_bits, "sa": anneal_bits}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("problem", [p for p in PROBLEMS if p != "tsp22"])
def test_packed_cost_matches_handle_eval(problem, search, monkeypatch):
    """The same search on the packed integer state, reading the cost table
    or, above the table limit, a decode into handle.eval, walks the same
    trajectory as a search on a bit array calling handle.eval. Up to the
    limit the eval path, forced by setting the limit to 0, does too."""

    def results(handle, run):
        return [run(handle, b, np.random.default_rng(b)) for b in (1, 2, 17, 700)]

    def fields(res):
        return (res.best_bits, res.best_cost, res.calls, *res.counters.values())

    tabled = make_handle(PROBLEMS[problem]())
    assert (tabled.cost_table is None) == (tabled.size > problems.TABLE_LIMIT)
    packed = results(tabled, SEARCHES[search])
    assert [fields(r) for r in packed] == results(tabled, REFERENCES[search])
    monkeypatch.setattr(problems, "TABLE_LIMIT", 0)
    evaluated = make_handle(PROBLEMS[problem]())
    assert evaluated.cost_table is None
    assert results(evaluated, SEARCHES[search]) == packed


@pytest.mark.parametrize("problem", ["tsp13", "tsp21", "tsp22"])
def test_costs_above_table_limit_are_exact(problem, cost_log):
    """Above the table limit a search reads handle.eval of the string its
    integer state encodes; from 22 points that integer passes 2^63."""
    handle = make_handle(PROBLEMS[problem]())
    assert handle.cost_table is None
    res = hill_climb(handle, 300, np.random.default_rng(7))
    assert len(cost_log) == res.calls == 300
    for bits, cost in cost_log:
        assert cost == handle.eval(bits)
    assert res.best_cost == min(cost for _, cost in cost_log)
    assert res.best_cost == handle.eval(np.array(res.best_bits))
    if handle.size > 63:
        assert any(bits[: handle.size - 63].any() for bits, _ in cost_log)
