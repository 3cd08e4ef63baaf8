"""Budget-matched classical comparators.

Both searches count one call per candidate evaluation with no cache,
mirroring how the training ledger counts, and stop at exactly the call
budget R. Randomness is pre-drawn from the caller's Generator into flat
arrays consumed in a fixed order.

Each search is one loop, ``_hc_kernel`` or ``_sa_kernel``, that minimises
``handle.sign * cost`` over an integer state s, the ``problems.string_index``
of its string (bit b is ``(s >> (m - 1 - b)) & 1``): a move is an xor, and a
cost is a read ``costs[s]``. Up to ``problems.TABLE_LIMIT`` bits, ``costs``
is the handle's ``cost_table``, the table brute force reads too: with numba
the loop runs compiled on it, without numba it runs as Python on lists,
which Python reads about twice as fast as arrays. Above the limit the loop's Python
source reads a view that decodes s and calls ``handle.eval``; Python ints
keep strings past 64 bits exact.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._accel import maybe_njit
from .problems import CostFunctionHandle, string_bits


@dataclass(frozen=True)
class AnnealSchedule:
    """Exponential temperature decay; defaults match the common library ones."""

    t_max: float = 25_000.0
    t_min: float = 2.5

    def __post_init__(self):
        if not self.t_max > self.t_min > 0:
            raise ValueError("need t_max > t_min > 0")


@dataclass(frozen=True)
class BaselineResult:
    best_bits: tuple[int, ...]
    best_cost: float  # native sense
    calls: int
    seed: Optional[int] = None
    budget: Optional[int] = None
    # search diagnostics, not part of the JSON record: hill climbing counts
    # "restarts" and "local_optima", annealing "uphill_accepted"
    counters: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "best_bits": list(self.best_bits),
            "best_cost": self.best_cost,
            "calls": self.calls,
            "unique_evals": None,  # baselines do not memoize
            "budget_bound": self.budget,
            "seed": self.seed,
        }


class _Evaluated:
    """``costs[s]`` is ``handle.eval`` of string s: the costs a search reads
    above the table limit."""

    def __init__(self, handle: CostFunctionHandle):
        self._eval = handle.eval
        self._m = handle.size

    def __getitem__(self, s):
        return float(self._eval(np.array(string_bits(s, self._m), dtype=np.uint8)))


def _search(kernel, handle: CostFunctionHandle, *draws):
    """Loop, costs and draws for ``handle``: the compiled kernel on the cost
    table and the draw arrays, else the kernel's Python source on lists, or
    on ``handle.eval`` above the table limit."""
    table = handle.cost_table
    if table is not None and hasattr(kernel, "py_func"):
        return kernel, table, draws
    costs = _Evaluated(handle) if table is None else table.tolist()
    return getattr(kernel, "py_func", kernel), costs, [d.tolist() for d in draws]


# ---------------------------------------------------------------------------
# hill climbing with restarts (first-improvement, hard stop at R)
# ---------------------------------------------------------------------------

# Pool consumption: m uniforms per restart string, then one uniform per
# candidate evaluation to pick an untried bit. Each restart costs >= m + 1
# evaluations, so 2R + m draws can never run out.


@maybe_njit
def _hc_kernel(costs, sign, m, budget, pool):
    """Returns (best cost, best string, calls, restarts, strings abandoned
    as local optima)."""
    cursor = 0
    best_cost = np.inf
    best = 0
    calls = 0
    restarts = 0
    local_optima = 0
    untried = list(range(m))
    while calls < budget:
        s = 0
        for b in range(m):
            s = (s << 1) | (1 if pool[cursor + b] < 0.5 else 0)
        cursor += m
        current = sign * costs[s]
        calls += 1
        restarts += 1
        size = m
        for b in range(m):
            untried[b] = b
        while size > 0 and calls < budget:
            pick = int(pool[cursor] * size)
            cursor += 1
            if pick >= size:
                pick = size - 1
            bit = untried[pick]
            moved = s ^ (1 << (m - 1 - bit))
            candidate = sign * costs[moved]
            calls += 1
            if candidate < current:
                s = moved
                current = candidate
                size = m
                for b in range(m):
                    untried[b] = b
            else:
                untried[pick] = untried[size - 1]
                untried[size - 1] = bit
                size -= 1
        if size == 0:
            local_optima += 1
        if current < best_cost:
            best_cost = current
            best = s
    return best_cost, best, calls, restarts, local_optima


def hill_climb(
    handle: CostFunctionHandle,
    budget: int,
    rng: np.random.Generator,
    seed: Optional[int] = None,
) -> BaselineResult:
    """First-improvement hill climbing with random restarts.

    Tries untried bits in random order, accepts the first improving flip
    and resets the untried set, restarts from a fresh random string at a
    local optimum, and hard-stops at exactly ``budget`` evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m = handle.size
    loop, costs, (pool,) = _search(_hc_kernel, handle, rng.random(2 * budget + m))
    best_cost, best, calls, restarts, local_optima = loop(costs, handle.sign, m, budget, pool)
    return BaselineResult(
        best_bits=string_bits(best, m),
        best_cost=handle.sign * float(best_cost),
        calls=int(calls),
        seed=seed,
        budget=budget,
        counters={"restarts": int(restarts), "local_optima": int(local_optima)},
    )


# ---------------------------------------------------------------------------
# simulated annealing (single-bit-flip moves, exponential schedule)
# ---------------------------------------------------------------------------


@maybe_njit
def _sa_kernel(costs, sign, m, budget, init_u, flip_idx, accept_u, t_max, t_min):
    """Returns (best cost, best string, uphill moves accepted)."""
    s = 0
    for b in range(m):
        s = (s << 1) | (1 if init_u[b] < 0.5 else 0)
    current = sign * costs[s]
    best_cost = current
    best = s
    uphill = 0
    moves = budget - 1
    if moves > 0:
        log_ratio = math.log(t_min / t_max)
        for k in range(moves):
            frac = k / (moves - 1) if moves > 1 else 1.0
            temp = t_max * math.exp(log_ratio * frac)
            moved = s ^ (1 << (m - 1 - flip_idx[k]))
            candidate = sign * costs[moved]
            delta = candidate - current
            if delta <= 0.0 or accept_u[k] < math.exp(-delta / temp):
                if delta > 0.0:
                    uphill += 1
                s = moved
                current = candidate
                if current < best_cost:
                    best_cost = current
                    best = s
    return best_cost, best, uphill


def simulated_anneal(
    handle: CostFunctionHandle,
    budget: int,
    rng: np.random.Generator,
    schedule: Optional[AnnealSchedule] = None,
    seed: Optional[int] = None,
) -> BaselineResult:
    """Metropolis single-bit-flip annealing that consumes exactly R calls.

    One evaluation for the uniform random initial state, then R - 1 moves
    with temperature decaying exponentially from t_max to t_min. The best
    state ever accepted is returned (improving moves are always accepted,
    so this equals the best candidate ever evaluated).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    schedule = schedule or AnnealSchedule()
    m = handle.size
    init_u = rng.random(m)
    flip_idx = rng.integers(0, m, size=max(budget - 1, 0))
    accept_u = rng.random(max(budget - 1, 0))
    loop, costs, draws = _search(_sa_kernel, handle, init_u, flip_idx, accept_u)
    best_cost, best, uphill = loop(
        costs, handle.sign, m, budget, *draws, schedule.t_max, schedule.t_min
    )
    return BaselineResult(
        best_bits=string_bits(best, m),
        best_cost=handle.sign * float(best_cost),
        calls=budget,
        seed=seed,
        budget=budget,
        counters={"uphill_accepted": int(uphill)},
    )
