"""Row-vectorized cost batches.

The ``*_batch`` functions cost a (rows, m) bit matrix at once with numpy and
back every handle's ``eval_batch``, and through it the handle's cost table
(``CostFunctionHandle.cost_table``), which brute force and the SA/HC search
loops read. Each returns exactly what the handle's scalar ``eval`` returns.
"""

from math import factorial

import numpy as np


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
