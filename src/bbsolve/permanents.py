"""Matrix permanents and permanent-based outcome probabilities.

These are the route to output statistics that does not touch the Fock-space
evolution code: the probability of measuring occupation s after sending
occupation t through mode unitary U is |Perm(U[s-rows, t-cols])|^2 scaled by
the occupation factorials. Used as an independent check on the evolved
state and on the sequential sampler, which gets its minors from a subset
table of its own (``sampling._placement_minors``).
"""

from math import factorial

import numpy as np

_PERM_LIMIT = 18


def _perm_vectorized(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > _PERM_LIMIT:
        raise ValueError(f"permanent limited to n <= {_PERM_LIMIT}")
    k = np.arange(1, 1 << n, dtype=np.int64)
    bits = (k[:, None] >> np.arange(n)) & 1
    sums = bits @ a.T.astype(np.complex128)
    prods = np.prod(sums, axis=1)
    signs = 1 - 2 * (bits.sum(axis=1) & 1)
    total = np.sum(signs * prods)
    return complex(total if n % 2 == 0 else -total)


def permanent(mat) -> complex:
    """Permanent of a square matrix of size n <= 18 (Ryser, O(n 2^n))."""
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return _perm_vectorized(a)


def pattern_probability(u: np.ndarray, input_pattern, output_pattern) -> float:
    """P(output | input) through mode unitary ``u`` via a permanent."""
    inp = np.asarray(input_pattern, dtype=np.int64)
    out = np.asarray(output_pattern, dtype=np.int64)
    rows = np.repeat(np.arange(u.shape[0]), out)
    cols = np.repeat(np.arange(u.shape[0]), inp)
    if rows.size != cols.size:
        raise ValueError("photon number mismatch between input and output")
    sub = u[np.ix_(rows, cols)]
    norm = 1.0
    for c in inp:
        norm *= factorial(int(c))
    for c in out:
        norm *= factorial(int(c))
    return float(abs(permanent(sub)) ** 2 / norm)


def exact_distribution(u: np.ndarray, input_pattern) -> dict[tuple[int, ...], float]:
    """Full outcome distribution computed outcome-by-outcome from permanents."""
    from .fock import get_basis  # local import to avoid a cycle

    inp = np.asarray(input_pattern, dtype=np.int64)
    basis = get_basis(u.shape[0], int(inp.sum()))
    dist = {}
    for row in basis.patterns:
        p = pattern_probability(u, inp, row)
        if p > 0.0:
            dist[tuple(int(v) for v in row)] = p
    return dist
