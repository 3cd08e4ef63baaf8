"""Cost kernels: packed single-candidate costs and row-vectorized batches.

For the baselines' search loops, each problem kind is packed into flat
integer/float parameter arrays so a compiled loop can evaluate candidates
without Python callbacks; ``eval_one`` returns exactly what the handle's
``eval`` returns. Layouts:

* knapsack:       ints = [n, W, v_1..v_n, w_1..w_n]
* deconfliction:  ints = [N, K, CM flattened row-major (m*m)]
* tsp:            ints = [n_points, m, 0!, 1!, .., (n-2)!], floats = xy pairs;
                  only packed while (n-1)! < 2^63, so the index fits int64

The ``*_batch`` functions cost a (rows, m) bit matrix at once with numpy and
back every handle's ``eval_batch``.
"""

from math import factorial

import numpy as np

from ._accel import maybe_njit

KIND_KNAPSACK = 0
KIND_DECONFLICTION = 1
KIND_TSP = 2


@maybe_njit(cache=True)
def _numpy_sum(a):
    """``np.sum`` of a 1-D float64 array of under 128 entries, in numpy's
    order: left to right below 8 entries, else eight running partial sums
    combined pairwise, then the remainder left to right."""
    n = a.shape[0]
    if n < 8:
        total = 0.0
        for i in range(n):
            total += a[i]
        return total
    r = a[:8].copy()
    i = 8
    while i + 8 <= n:
        for j in range(8):
            r[j] += a[i + j]
        i += 8
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(i, n):
        total += a[j]
    return total


@maybe_njit(cache=True)
def eval_one(kind, ints, floats, bits):
    if kind == KIND_KNAPSACK:
        n = ints[0]
        cap = ints[1]
        value = 0
        weight = 0
        total = 0
        for i in range(n):
            total += ints[2 + i]
            if bits[i]:
                value += ints[2 + i]
                weight += ints[2 + n + i]
        if weight <= cap:
            return float(value)
        return float(value - total - 1)
    if kind == KIND_DECONFLICTION:
        n_air = ints[0]
        k_man = ints[1]
        m = n_air * k_man
        h1 = 0
        for i in range(n_air):
            chosen = 0
            for j in range(k_man):
                chosen += bits[i * k_man + j]
            if chosen != 1:
                h1 = 1
                break
        h2 = 0
        for a in range(m):
            if bits[a]:
                row = 2 + a * m
                for b in range(m):
                    if bits[b]:
                        h2 += ints[row + b]
        h3 = 0
        for i in range(n_air):
            h3 += bits[i * k_man]
        return float((m + 1) * h1 + (n_air + 1) * h2 - h3)
    # tsp: big-endian bits -> Lehmer index -> tour length
    n_pts = ints[0]
    m = ints[1]
    k = 0
    for i in range(m):
        k = (k << 1) | int(bits[i])  # a uint8 bit would keep k uint8
    n_perm = n_pts - 1
    k %= ints[2 + n_perm - 1] * n_perm  # (n-2)! * (n-1) == (n-1)!
    unused = np.empty(n_perm, dtype=np.int64)
    for i in range(n_perm):
        unused[i] = i + 1
    size = n_perm
    prev_x = floats[0]
    prev_y = floats[1]
    legs = np.empty(n_pts, dtype=np.float64)
    for i in range(n_perm):
        f = ints[2 + n_perm - 1 - i]
        d = k // f
        k -= d * f
        pick = unused[d]
        for u in range(d, size - 1):
            unused[u] = unused[u + 1]
        size -= 1
        x = floats[2 * pick]
        y = floats[2 * pick + 1]
        dx = x - prev_x
        dy = y - prev_y
        legs[i] = np.sqrt(dx * dx + dy * dy)
        prev_x = x
        prev_y = y
    dx = floats[0] - prev_x
    dy = floats[1] - prev_y
    legs[n_perm] = np.sqrt(dx * dx + dy * dy)
    return _numpy_sum(legs)


@maybe_njit(cache=True)
def eval_packed(pack, bits):
    """``eval_one`` on a handle's ``pack`` tuple, the cost the compiled
    search loops call."""
    return eval_one(pack[0], pack[1], pack[2], bits)


def knapsack_batch(values, weights, capacity, bits_mat):
    v = bits_mat.astype(np.int64) @ values
    w = bits_mat.astype(np.int64) @ weights
    total = int(values.sum())
    return np.where(w <= capacity, v, v - total - 1).astype(np.float64)


def deconfliction_batch(n_air, k_man, cm2, bits_mat):
    b = bits_mat.astype(np.int64)
    per_aircraft = b.reshape(b.shape[0], n_air, k_man).sum(axis=2)
    h1 = (per_aircraft != 1).any(axis=1).astype(np.int64)
    h2 = np.einsum("ri,ij,rj->r", b, cm2, b)
    h3 = b[:, ::k_man].sum(axis=1)
    m = n_air * k_man
    return ((m + 1) * h1 + (n_air + 1) * h2 - h3).astype(np.float64)


def tsp_batch(points, bits_mat):
    """Row-wise ``problems.tsp_cost``: the same Lehmer decode and the same
    float operations in the same order, so every length is bit-identical.

    The index is an exact integer: int64 up to 62 bits, Python ints beyond.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    b = np.asarray(bits_mat)
    rows, m = b.shape
    dtype = object if m > 62 else np.int64
    weights = np.array([1 << s for s in range(m - 1, -1, -1)], dtype=dtype)
    k = (b.astype(dtype) @ weights) % factorial(n - 1)
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
