"""Binary-cost problem instances: knapsack, tactical deconfliction, TSP.

Every instance exposes a :class:`CostFunctionHandle` with a pure
``eval(bits) -> float`` plus a vectorized ``eval_batch``. Up to
:data:`TABLE_LIMIT` bits a handle also tabulates its costs over all 2^m
strings, once, on first use (``cost_table``); brute force, the SA/HC
search loops and a training ledger whose budget covers all 2^m strings read
that one table. Instances serialize to JSON and round-trip losslessly.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from typing import Callable, Optional

import numpy as np

from . import _cost_kernels as ck

SENSE_MIN = "minimize"
SENSE_MAX = "maximize"

BRUTE_FORCE_LIMIT = 24
# Largest m whose 2^m costs are kept as a table. Measured without numba on a
# 2-core Xeon: at m = 20 the table is 8 MB and takes 0.4-1.7 s to build, and
# the Python list an uncompiled search reads adds about 50 MB of peak memory;
# at m = 22 that list adds about 200 MB and the table takes up to 8 s.
TABLE_LIMIT = 20
_ENUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class CostFunctionHandle:
    """Uniform view of a size-m cost function C: {0,1}^m -> R."""

    size: int
    sense: str
    eval: Callable[[np.ndarray], float]
    kind: str
    metadata: dict = field(default_factory=dict)
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def batch(self, bits_mat: np.ndarray) -> np.ndarray:
        if self.eval_batch is not None:
            return self.eval_batch(bits_mat)
        return np.array([float(self.eval(row)) for row in bits_mat])

    @cached_property
    def cost_table(self) -> Optional[np.ndarray]:
        """Read-only costs of all 2^m strings, string i at index i with bit 1
        as its most significant bit; ``None`` above :data:`TABLE_LIMIT`."""
        if self.size > TABLE_LIMIT:
            return None
        table = np.concatenate([costs for _, costs in _cost_chunks(self)])
        table.flags.writeable = False
        return table


# ---------------------------------------------------------------------------
# knapsack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights must have equal length")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if any(v < 1 for v in self.values) or any(w < 1 for w in self.weights):
            raise ValueError("values and weights must be positive integers")

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def total_value(self) -> int:
        return sum(self.values)


def knapsack_cost(instance: KnapsackInstance, bits) -> float:
    """Item value if the load fits, else value - V - 1 (always negative)."""
    bits = np.asarray(bits)
    value = int(bits @ np.asarray(instance.values))
    weight = int(bits @ np.asarray(instance.weights))
    if weight <= instance.capacity:
        return float(value)
    return float(value - instance.total_value - 1)


def gen_knapsack(
    n: int,
    rng: np.random.Generator,
    value_range=(1, 100),
    weight_range=(1, 100),
    capacity_ratio: float = 0.5,
) -> KnapsackInstance:
    """Uniform integer values/weights; W = max(min weight, ratio * total)."""
    if n < 1:
        raise ValueError("need at least one item")
    values = rng.integers(value_range[0], value_range[1] + 1, size=n)
    weights = rng.integers(weight_range[0], weight_range[1] + 1, size=n)
    capacity = max(int(weights.min()), int(round(capacity_ratio * float(weights.sum()))))
    return KnapsackInstance(
        values=tuple(int(v) for v in values),
        weights=tuple(int(w) for w in weights),
        capacity=capacity,
    )


def knapsack_handle(instance: KnapsackInstance, metadata=None) -> CostFunctionHandle:
    values = np.asarray(instance.values, dtype=np.int64)
    weights = np.asarray(instance.weights, dtype=np.int64)
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MAX,
        eval=lambda bits: knapsack_cost(instance, bits),
        kind="knapsack",
        metadata=metadata or {},
        eval_batch=lambda bm: ck.knapsack_batch(values, weights, instance.capacity, bm),
    )


# ---------------------------------------------------------------------------
# tactical deconfliction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeconflictionInstance:
    n_aircraft: int
    n_maneuvers: int
    conflicts: tuple  # nested (N, K, N, K) of 0/1

    def __post_init__(self):
        cm = self.conflict_tensor()
        n, k = self.n_aircraft, self.n_maneuvers
        if cm.shape != (n, k, n, k):
            raise ValueError(f"conflict tensor has shape {cm.shape}")
        if not np.array_equal(cm, cm.transpose(2, 3, 0, 1)):
            raise ValueError("conflict tensor must be symmetric")
        for i in range(n):
            if cm[i, :, i, :].any():
                raise ValueError("self-conflicts must be zero")

    @property
    def size(self) -> int:
        return self.n_aircraft * self.n_maneuvers

    def conflict_tensor(self) -> np.ndarray:
        return np.asarray(self.conflicts, dtype=np.int64)

    def conflict_matrix(self) -> np.ndarray:
        """(N*K, N*K) view; bit (i, j) lives at index i*K + j."""
        return self.conflict_tensor().reshape(self.size, self.size)


def deconfliction_cost(instance: DeconflictionInstance, bits) -> float:
    """(NK+1) * one-maneuver violation + (N+1) * ordered conflict count - stays."""
    bits = np.asarray(bits, dtype=np.int64)
    n, k = instance.n_aircraft, instance.n_maneuvers
    h1 = int((bits.reshape(n, k).sum(axis=1) != 1).any())
    cm2 = instance.conflict_matrix()
    h2 = int(bits @ cm2 @ bits)
    h3 = int(bits[::k].sum())
    return float((n * k + 1) * h1 + (n + 1) * h2 - h3)


def gen_deconfliction(
    n_aircraft: int, n_maneuvers: int, q: float, rng: np.random.Generator
) -> DeconflictionInstance:
    """Bernoulli(q) conflicts on the upper aircraft triangle, mirrored."""
    if n_aircraft < 1 or n_maneuvers < 2:
        raise ValueError("need N >= 1 aircraft and K >= 2 maneuvers")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be a probability")
    n, k = n_aircraft, n_maneuvers
    draws = rng.random((n, k, n, k))
    cm = np.zeros((n, k, n, k), dtype=np.int64)
    for i in range(n):
        for i2 in range(i + 1, n):
            block = (draws[i, :, i2, :] < q).astype(np.int64)
            cm[i, :, i2, :] = block
            cm[i2, :, i, :] = block.T
    return DeconflictionInstance(n_aircraft=n, n_maneuvers=k, conflicts=_nested(cm))


def _nested(cm: np.ndarray):
    return tuple(
        tuple(tuple(tuple(int(v) for v in row) for row in plane) for plane in block)
        for block in cm
    )


def deconfliction_handle(instance: DeconflictionInstance, metadata=None) -> CostFunctionHandle:
    cm2 = instance.conflict_matrix()

    def batch(bits_mat):
        return ck.deconfliction_batch(instance.n_aircraft, instance.n_maneuvers, cm2, bits_mat)

    # a scalar read is one batch row: deconfliction_cost rebuilds cm2 from
    # the nested tuples on every call, 80 of its 104 us at m = 20
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MIN,
        eval=lambda bits: float(batch(np.asarray(bits)[None, :])[0]),
        kind="deconfliction",
        metadata=metadata or {},
        eval_batch=batch,
    )


# ---------------------------------------------------------------------------
# travelling salesperson
# ---------------------------------------------------------------------------


def tsp_bit_length(n_points: int) -> int:
    """ceil(log2((n-1)!)) computed exactly in integers."""
    if n_points < 3:
        raise ValueError("need at least 3 points")
    return (factorial(n_points - 1) - 1).bit_length()


@dataclass(frozen=True)
class TspInstance:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("need at least 3 points")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def size(self) -> int:
        return tsp_bit_length(self.n_points)


def decode_permutation(bits, n_points: int) -> np.ndarray:
    """Big-endian bits -> integer mod (n-1)! -> Lehmer-decoded visit order.

    Returns a permutation of point indices 1..n-1 (point 0 is the fixed
    start/end of the tour). Surjective onto S_{n-1} by construction.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m = tsp_bit_length(n_points)
    if bits.shape != (m,):
        raise ValueError(f"expected {m} bits for n={n_points}, got {bits.shape}")
    k = 0
    for b in bits:
        k = (k << 1) | int(b)
    k %= factorial(n_points - 1)
    unused = list(range(1, n_points))
    perm = []
    for i in range(n_points - 1):
        f = factorial(n_points - 2 - i)
        d, k = divmod(k, f)
        perm.append(unused.pop(d))
    return np.array(perm, dtype=np.int64)


def tsp_cost(instance: TspInstance, bits) -> float:
    """Euclidean length of the closed tour encoded by ``bits``."""
    order = decode_permutation(bits, instance.n_points)
    pts = np.asarray(instance.points)
    tour = np.concatenate(([0], order, [0]))
    legs = np.diff(pts[tour], axis=0)
    return float(np.sqrt((legs**2).sum(axis=1)).sum())


def gen_tsp(n_points: int, rng: np.random.Generator) -> TspInstance:
    """Points uniform on the continuous unit square."""
    pts = rng.random((n_points, 2))
    return TspInstance(points=tuple((float(x), float(y)) for x, y in pts))


def tsp_handle(instance: TspInstance, metadata=None) -> CostFunctionHandle:
    points = np.asarray(instance.points, dtype=np.float64)
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MIN,
        eval=lambda bits: tsp_cost(instance, bits),
        kind="tsp",
        metadata=metadata or {},
        eval_batch=lambda bm: ck.tsp_batch(points, bm),
    )


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceResult:
    optimum: float
    argopt: tuple[int, ...]
    maximum: float  # global max of C, needed for the deconfliction error metric


def _cost_chunks(handle: CostFunctionHandle):
    """(first index, costs) of every string in big-endian order, _ENUM_CHUNK
    strings at a time."""
    m = handle.size  # at most BRUTE_FORCE_LIMIT, so every index fits 32 bits
    for start in range(0, 1 << m, _ENUM_CHUNK):
        ints = np.arange(start, min(start + _ENUM_CHUNK, 1 << m), dtype=">u4")
        bits = np.unpackbits(ints.view(np.uint8).reshape(-1, 4), axis=1)
        yield start, handle.batch(bits[:, 32 - m :])


def brute_force(handle: CostFunctionHandle, limit: int = BRUTE_FORCE_LIMIT) -> BruteForceResult:
    """Exhaustive scan of {0,1}^m, over the cost table up to TABLE_LIMIT and
    chunk by chunk above it; ties break to the lexicographically smallest
    string (bit 1 most significant)."""
    m = handle.size
    if m > limit:
        raise ValueError(f"brute force limited to m <= {limit}, got {m}")
    table = handle.cost_table
    chunks = _cost_chunks(handle) if table is None else [(0, table)]
    best_val = None
    best_key = None
    global_max = -np.inf
    maximize = handle.sense == SENSE_MAX
    for start, costs in chunks:
        global_max = max(global_max, float(costs.max()))
        idx = int(np.argmax(costs)) if maximize else int(np.argmin(costs))
        val = float(costs[idx])
        better = best_val is None or (val > best_val if maximize else val < best_val)
        if better:
            best_val = val
            best_key = start + idx
    bits = tuple(int(best_key >> s) & 1 for s in range(m - 1, -1, -1))
    return BruteForceResult(optimum=best_val, argopt=bits, maximum=global_max)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def make_handle(instance, metadata=None) -> CostFunctionHandle:
    if isinstance(instance, KnapsackInstance):
        return knapsack_handle(instance, metadata)
    if isinstance(instance, DeconflictionInstance):
        return deconfliction_handle(instance, metadata)
    if isinstance(instance, TspInstance):
        return tsp_handle(instance, metadata)
    raise TypeError(f"unknown instance type {type(instance)!r}")


def instance_to_json(instance) -> dict:
    if isinstance(instance, KnapsackInstance):
        return {
            "values": list(instance.values),
            "weights": list(instance.weights),
            "capacity": instance.capacity,
        }
    if isinstance(instance, DeconflictionInstance):
        cm = instance.conflict_tensor()
        ones = []
        for i in range(instance.n_aircraft):
            for i2 in range(i + 1, instance.n_aircraft):
                for j in range(instance.n_maneuvers):
                    for j2 in range(instance.n_maneuvers):
                        if cm[i, j, i2, j2]:
                            ones.append([i + 1, j + 1, i2 + 1, j2 + 1])
        return {"N": instance.n_aircraft, "K": instance.n_maneuvers, "conflicts": ones}
    if isinstance(instance, TspInstance):
        return {"points": [list(p) for p in instance.points]}
    raise TypeError(f"unknown instance type {type(instance)!r}")


def instance_from_json(payload: dict):
    keys = set(payload)
    if keys == {"values", "weights", "capacity"}:
        return KnapsackInstance(
            values=tuple(int(v) for v in payload["values"]),
            weights=tuple(int(w) for w in payload["weights"]),
            capacity=int(payload["capacity"]),
        )
    if keys == {"N", "K", "conflicts"}:
        n, k = int(payload["N"]), int(payload["K"])
        cm = np.zeros((n, k, n, k), dtype=np.int64)
        for entry in payload["conflicts"]:
            i, j, i2, j2 = (int(v) - 1 for v in entry)
            if i == i2:
                raise ValueError(f"self-conflict entry {entry}")
            cm[i, j, i2, j2] = 1
            cm[i2, j2, i, j] = 1
        return DeconflictionInstance(n_aircraft=n, n_maneuvers=k, conflicts=_nested(cm))
    if keys == {"points"}:
        return TspInstance(points=tuple((float(x), float(y)) for x, y in payload["points"]))
    raise ValueError(f"unrecognized instance schema with keys {sorted(keys)}")


def save_instance(instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, sort_keys=True)
        fh.write("\n")


def load_instance(path):
    with open(path) as fh:
        return instance_from_json(json.load(fh))
