"""Threshold sampling backends.

Two interchangeable backends draw occupation samples from a circuit:

* statevector: evolve the full Fock state once, then draw i.i.d. outcomes
  from the exact output distribution by CDF inversion. Exact, but memory
  scales with the Fock dimension.
* sequential: per-sample conditional sampling in the style of Clifford &
  Clifford, placing one photon at a time with weights given by permanental
  minors of the mode unitary. No state vector is ever built, so it works
  for mode counts far beyond the statevector bound.

Both consume randomness only through the caller's numpy Generator, so a
seed pins the full sample sequence.
"""

import numpy as np

from ._accel import maybe_njit
from .fock import DEFAULT_MAX_DIM, FockStateVector, fock_dim, validate_pattern
from .interferometer import CircuitLayout, circuit_unitary


def threshold_pattern(occupation) -> np.ndarray:
    """Collapse photon counts to click bits (count > 0 -> 1)."""
    return (np.asarray(occupation) > 0).astype(np.uint8)


def sample_occupations_statevector(
    state: FockStateVector, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` occupation patterns from the exact distribution."""
    draws = draw_from_cdf(np.cumsum(state.probabilities()), rng, count)
    return state.basis.patterns[draws].astype(np.int64)


def draw_from_cdf(cdf: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` basis indices by inverting a cumulative distribution.

    When rounding leaves ``cdf[-1]`` below 1, a uniform in [cdf[-1], 1) is
    mapped to the last state with positive probability, never past it to a
    trailing zero-probability state.
    """
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(draws, np.searchsorted(cdf, cdf[-1], side="left"))


@maybe_njit(cache=True)
def _perm_real(mat, k):
    # Ryser with gray-code updates on a k x k real matrix.
    if k == 0:
        return 1.0
    total = 0.0
    row_sum = np.zeros(k)
    sgn = 1.0
    for s in range(1, 1 << k):
        j = 0
        ss = s
        while not ss & 1:
            ss >>= 1
            j += 1
        if (s ^ (s >> 1)) >> j & 1:
            for i in range(k):
                row_sum[i] += mat[i, j]
        else:
            for i in range(k):
                row_sum[i] -= mat[i, j]
        sgn = -sgn
        prod = 1.0
        for i in range(k):
            prod *= row_sum[i]
        total += sgn * prod
    if k & 1:
        return -total
    return total


@maybe_njit(cache=True)
def _sequential_kernel(u, cols, col_orders, step_u, out_occ):
    n_samples, n = col_orders.shape
    m = u.shape[0]
    a = np.empty((m, n))
    rows = np.empty(n, dtype=np.int64)
    minor = np.empty((n, n))
    g = np.empty(n)
    w = np.empty(m)
    for s in range(n_samples):
        for k in range(n):
            col = cols[col_orders[s, k]]
            for r in range(m):
                a[r, k] = u[r, col]
        for k in range(1, n + 1):
            if k == 1:
                for r in range(m):
                    w[r] = a[r, 0] * a[r, 0]
            else:
                # g[j] = Perm of A[chosen rows, first k cols minus col j]
                for j in range(k):
                    cc = 0
                    for c in range(k):
                        if c == j:
                            continue
                        for rr in range(k - 1):
                            minor[rr, cc] = a[rows[rr], c]
                        cc += 1
                    g[j] = _perm_real(minor[: k - 1, : k - 1], k - 1)
                for r in range(m):
                    amp = 0.0
                    for j in range(k):
                        amp += a[r, j] * g[j]
                    w[r] = amp * amp
            total = 0.0
            for r in range(m):
                total += w[r]
            pick = m - 1
            if total > 0.0:
                target = step_u[s, k - 1] * total
                acc = 0.0
                for r in range(m):
                    acc += w[r]
                    if acc >= target:
                        pick = r
                        break
            else:
                pick = int(step_u[s, k - 1] * m)
                if pick >= m:
                    pick = m - 1
            rows[k - 1] = pick
            out_occ[s, pick] += 1


def sample_occupations_sequential(
    u: np.ndarray,
    input_pattern,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Per-sample conditional sampler on the mode unitary ``u``."""
    inp = validate_pattern(input_pattern, u.shape[0])
    cols = np.repeat(np.arange(u.shape[0], dtype=np.int64), inp)
    n = cols.size
    occ = np.zeros((count, u.shape[0]), dtype=np.int64)
    if n == 0:
        return occ
    orders = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (count, 1)), axis=1)
    step_u = rng.random((count, n))
    _sequential_kernel(np.ascontiguousarray(u, dtype=np.float64), cols, orders, step_u, occ)
    return occ


def sample_threshold(
    source,
    rng: np.random.Generator,
    count: int,
    input_pattern=None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> np.ndarray:
    """Draw ``count`` threshold bit strings (shape (count, m)).

    ``source`` is either an evolved :class:`FockStateVector` (statevector
    backend) or a mode unitary paired with ``input_pattern`` (sequential
    backend).
    """
    if isinstance(source, FockStateVector):
        occ = sample_occupations_statevector(source, rng, count)
    else:
        if input_pattern is None:
            raise ValueError("sequential backend needs the input pattern")
        occ = sample_occupations_sequential(np.asarray(source), input_pattern, rng, count)
    return (occ > 0).astype(np.uint8)


def resolve_backend(backend: str, m: int, n: int, max_dim: int = DEFAULT_MAX_DIM) -> str:
    """Pick a concrete backend name for an m-mode, n-photon circuit."""
    if backend == "auto":
        return "statevector" if fock_dim(m, n) <= max_dim else "sequential"
    if backend not in ("statevector", "sequential"):
        raise ValueError(f"unknown sampler backend {backend!r}")
    return backend
