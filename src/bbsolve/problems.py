"""Binary-cost problem instances: knapsack, tactical deconfliction, TSP.

Every instance exposes a :class:`CostFunctionHandle` with a pure
``eval(bits) -> float`` plus a vectorized ``eval_batch``. Up to
:data:`TABLE_LIMIT` bits a handle also tabulates its costs over all 2^m
strings, once, on first use (``cost_table``); brute force, the SA/HC
search loops and a training ledger whose budget covers all 2^m strings read
that one table. Instances serialize to JSON and round-trip losslessly.

String order and cost sense are decided here only: :func:`string_index`
and :func:`string_bits` map bits to a table index and back (bit 1 most
significant), and ``CostFunctionHandle.sign`` turns a cost into minimisation
sense.
"""

import json
from dataclasses import dataclass
from functools import cached_property, partial
from math import factorial
from typing import Callable, Optional

import numpy as np

SENSE_MIN = "minimize"
SENSE_MAX = "maximize"

BRUTE_FORCE_LIMIT = 24
# Largest m whose 2^m costs are kept as a table. Measured without numba on a
# 2-core Xeon: at m = 20 the table is 8 MB and takes 0.06 s (knapsack) to
# 0.9 s (deconfliction) to build, peaking at 8.9 and 9.1 MB of numpy memory
# since the chunks are written into the table in place; the Python list an
# uncompiled search reads adds about 50 MB of peak memory; at m = 22 that
# list adds about 200 MB and the table takes up to 8 s.
TABLE_LIMIT = 20
_ENUM_CHUNK = 1 << 12


def string_index(bits):
    """Index of the string in the last axis of ``bits``, bit 1 most
    significant: int64 up to 62 bits, exact Python ints beyond."""
    bits = np.asarray(bits)
    m = bits.shape[-1]
    if m > 62:
        return bits.astype(object) @ np.array([1 << s for s in range(m - 1, -1, -1)], dtype=object)
    return bits @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))


def string_bits(index, m: int) -> tuple[int, ...]:
    """The m bits of string ``index``, bit 1 most significant."""
    return tuple((int(index) >> s) & 1 for s in range(m - 1, -1, -1))


@dataclass(frozen=True)
class CostFunctionHandle:
    """Uniform view of a size-m cost function C: {0,1}^m -> R."""

    size: int
    sense: str
    eval: Callable[[np.ndarray], float]
    kind: str
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def sign(self) -> float:
        """-1.0 if the cost is maximised, +1.0 if it is minimised: ``sign *
        cost`` is the cost in minimisation sense."""
        return -1.0 if self.sense == SENSE_MAX else 1.0

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
        table = np.empty(1 << self.size)
        for start, costs in _cost_chunks(self):
            table[start : start + len(costs)] = costs
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


def gen_knapsack(n: int, rng: np.random.Generator, capacity_ratio: float = 0.5) -> KnapsackInstance:
    """Values and weights uniform on 1..100; W = max(min weight, ratio * total)."""
    if n < 1:
        raise ValueError("need at least one item")
    values = rng.integers(1, 101, size=n)
    weights = rng.integers(1, 101, size=n)
    capacity = max(int(weights.min()), int(round(capacity_ratio * float(weights.sum()))))
    return KnapsackInstance(
        values=tuple(int(v) for v in values),
        weights=tuple(int(w) for w in weights),
        capacity=capacity,
    )


# Each *_batch costs a (rows, m) bit matrix at once; every row equals the
# handle's scalar eval of that row exactly, whatever else is in the batch.
def knapsack_batch(values, weights, capacity, bits_mat):
    v, w = (bits_mat.astype(np.int64) @ np.stack((values, weights), axis=1)).T
    return np.where(w <= capacity, v, v - int(values.sum()) - 1).astype(np.float64)


def knapsack_handle(instance: KnapsackInstance) -> CostFunctionHandle:
    values = np.asarray(instance.values, dtype=np.int64)
    weights = np.asarray(instance.weights, dtype=np.int64)
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MAX,
        eval=lambda bits: knapsack_cost(instance, bits),
        kind="knapsack",
        eval_batch=partial(knapsack_batch, values, weights, instance.capacity),
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


def deconfliction_batch(n_air, k_man, cm2, bits_mat):
    b = bits_mat.astype(np.int64)
    per_aircraft = b.reshape(b.shape[0], n_air, k_man).sum(axis=2)
    h1 = (per_aircraft != 1).any(axis=1).astype(np.int64)
    h2 = np.einsum("ri,ij,rj->r", b, cm2, b)
    h3 = b[:, ::k_man].sum(axis=1)
    return ((n_air * k_man + 1) * h1 + (n_air + 1) * h2 - h3).astype(np.float64)


def deconfliction_handle(instance: DeconflictionInstance) -> CostFunctionHandle:
    cm2 = instance.conflict_matrix()
    batch = partial(deconfliction_batch, instance.n_aircraft, instance.n_maneuvers, cm2)
    # a scalar read is one batch row: deconfliction_cost rebuilds cm2 from
    # the nested tuples on every call, 80 of its 104 us at m = 20
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MIN,
        eval=lambda bits: float(batch(np.asarray(bits)[None, :])[0]),
        kind="deconfliction",
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
    k = int(string_index(bits)) % factorial(n_points - 1)
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


def tsp_batch(points, bits_mat):
    """Row-wise :func:`tsp_cost`: the same Lehmer decode and the same float
    operations in the same order, so every length is bit-identical."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    rows = len(bits_mat)
    k = string_index(bits_mat) % factorial(n - 1)
    unused = np.tile(np.arange(1, n, dtype=np.int64), (rows, 1))
    tour = np.zeros((rows, n + 1), dtype=np.int64)
    for i in range(n - 1):
        f = factorial(n - 2 - i)
        d = k // f
        k = k - d * f
        d = d.astype(np.int64)
        tour[:, i + 1] = unused[np.arange(rows), d]
        keep = np.arange(n - 1 - i) != d[:, None]
        unused = unused[keep].reshape(rows, n - 2 - i)
    legs = np.diff(pts[tour], axis=1)
    return np.sqrt((legs**2).sum(axis=2)).sum(axis=1)


def tsp_handle(instance: TspInstance) -> CostFunctionHandle:
    points = np.asarray(instance.points, dtype=np.float64)
    return CostFunctionHandle(
        size=instance.size,
        sense=SENSE_MIN,
        eval=lambda bits: tsp_cost(instance, bits),
        kind="tsp",
        eval_batch=partial(tsp_batch, points),
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


def brute_force(handle: CostFunctionHandle) -> BruteForceResult:
    """Exhaustive scan of {0,1}^m, over the cost table up to TABLE_LIMIT and
    chunk by chunk above it; ties break to the lexicographically smallest
    string (bit 1 most significant)."""
    m = handle.size
    if m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to m <= {BRUTE_FORCE_LIMIT}, got {m}")
    table = handle.cost_table
    chunks = _cost_chunks(handle) if table is None else [(0, table)]
    sign = handle.sign
    best = np.argmax if sign < 0 else np.argmin
    best_val = best_key = None
    global_max = -np.inf
    for start, costs in chunks:
        global_max = max(global_max, float(costs.max()))
        idx = int(best(costs))
        val = float(costs[idx])
        if best_val is None or sign * val < sign * best_val:
            best_val, best_key = val, start + idx
    return BruteForceResult(optimum=best_val, argopt=string_bits(best_key, m), maximum=global_max)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def make_handle(instance) -> CostFunctionHandle:
    if isinstance(instance, KnapsackInstance):
        return knapsack_handle(instance)
    if isinstance(instance, DeconflictionInstance):
        return deconfliction_handle(instance)
    if isinstance(instance, TspInstance):
        return tsp_handle(instance)
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
