"""Budget-matched classical comparators.

Both searches count one call per candidate evaluation with no cache,
mirroring how the training ledger counts, and stop at exactly the call
budget R. Randomness is pre-drawn from the caller's Generator into flat
arrays consumed in a fixed order.

Each search is one loop, ``_hc_kernel`` or ``_sa_kernel``, whose first
argument is the cost function, called as ``cost(args, bits)``. A handle
with a packed form passes ``_cost_kernels.eval_packed`` and its ``pack``,
so with numba the whole search runs compiled. A handle without one (a
custom handle, or TSP from 22 points) passes a wrapper around
``handle.eval`` to the loop's uncompiled source. Without numba both run
the same Python source.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._accel import maybe_njit
from . import _cost_kernels as ck
from .problems import SENSE_MAX, CostFunctionHandle


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


def _eval_handle(eval_fn, bits):
    return float(eval_fn(bits))


def _search(kernel, handle: CostFunctionHandle):
    """Loop, cost and cost arguments for ``handle``: the kernel on the packed
    cost, or the kernel's Python source on ``handle.eval``."""
    if handle.pack is None:
        return getattr(kernel, "py_func", kernel), _eval_handle, handle.eval
    return kernel, ck.eval_packed, handle.pack


# ---------------------------------------------------------------------------
# hill climbing with restarts (first-improvement, hard stop at R)
# ---------------------------------------------------------------------------

# Pool consumption: m uniforms per restart string, then one uniform per
# candidate evaluation to pick an untried bit. Each restart costs >= m + 1
# evaluations, so 2R + m draws can never run out.


@maybe_njit(cache=True)
def _hc_kernel(cost, args, sign, m, budget, pool, out_bits, counts):
    """counts[0] += restarts, counts[1] += strings abandoned as local optima."""
    cursor = 0
    best_cost = np.inf
    calls = 0
    bits = np.zeros(m, dtype=np.uint8)
    untried = np.empty(m, dtype=np.int64)
    while calls < budget:
        for b in range(m):
            bits[b] = 1 if pool[cursor + b] < 0.5 else 0
        cursor += m
        current = sign * cost(args, bits)
        calls += 1
        counts[0] += 1
        size = m
        untried[:] = np.arange(m)
        while size > 0 and calls < budget:
            pick = int(pool[cursor] * size)
            cursor += 1
            if pick >= size:
                pick = size - 1
            bit = untried[pick]
            bits[bit] ^= 1
            candidate = sign * cost(args, bits)
            calls += 1
            if candidate < current:
                current = candidate
                size = m
                untried[:] = np.arange(m)
            else:
                bits[bit] ^= 1
                untried[pick] = untried[size - 1]
                untried[size - 1] = bit
                size -= 1
        if size == 0:
            counts[1] += 1
        if current < best_cost:
            best_cost = current
            out_bits[:] = bits
    return best_cost, calls


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
    pool = rng.random(2 * budget + m)
    sign = -1.0 if handle.sense == SENSE_MAX else 1.0
    loop, cost, args = _search(_hc_kernel, handle)
    best_bits = np.zeros(m, dtype=np.uint8)
    counts = np.zeros(2, dtype=np.int64)
    best_cost, calls = loop(cost, args, sign, m, budget, pool, best_bits, counts)
    return BaselineResult(
        best_bits=tuple(int(b) for b in best_bits),
        best_cost=sign * float(best_cost),
        calls=int(calls),
        seed=seed,
        budget=budget,
        counters={"restarts": int(counts[0]), "local_optima": int(counts[1])},
    )


# ---------------------------------------------------------------------------
# simulated annealing (single-bit-flip moves, exponential schedule)
# ---------------------------------------------------------------------------


@maybe_njit(cache=True)
def _sa_kernel(cost, args, sign, m, budget, init_u, flip_idx, accept_u, t_max, t_min,
               out_bits, counts):
    """counts[0] += uphill moves accepted."""
    bits = np.zeros(m, dtype=np.uint8)
    for b in range(m):
        bits[b] = 1 if init_u[b] < 0.5 else 0
    current = sign * cost(args, bits)
    best_cost = current
    out_bits[:] = bits
    moves = budget - 1
    if moves > 0:
        log_ratio = math.log(t_min / t_max)
        for k in range(moves):
            frac = k / (moves - 1) if moves > 1 else 1.0
            temp = t_max * math.exp(log_ratio * frac)
            bit = flip_idx[k]
            bits[bit] ^= 1
            candidate = sign * cost(args, bits)
            delta = candidate - current
            if delta <= 0.0 or accept_u[k] < math.exp(-delta / temp):
                if delta > 0.0:
                    counts[0] += 1
                current = candidate
                if current < best_cost:
                    best_cost = current
                    out_bits[:] = bits
            else:
                bits[bit] ^= 1
    return best_cost, budget


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
    sign = -1.0 if handle.sense == SENSE_MAX else 1.0
    loop, cost, args = _search(_sa_kernel, handle)
    best_bits = np.zeros(m, dtype=np.uint8)
    counts = np.zeros(1, dtype=np.int64)
    best_cost, calls = loop(
        cost, args, sign, m, budget, init_u, flip_idx, accept_u,
        schedule.t_max, schedule.t_min, best_bits, counts,
    )
    return BaselineResult(
        best_bits=tuple(int(b) for b in best_bits),
        best_cost=sign * float(best_cost),
        calls=int(calls),
        seed=seed,
        budget=budget,
        counters={"uphill_accepted": int(counts[0])},
    )
