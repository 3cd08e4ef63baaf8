"""Threshold sampling backends.

Two interchangeable backends draw occupation samples from a circuit:

* statevector: evolve the full Fock state once, then draw i.i.d. outcomes
  from the exact output distribution by CDF inversion. Exact, but memory
  scales with the Fock dimension.
* sequential: per-sample conditional sampling after Clifford & Clifford,
  placing one photon at a time with weights given by permanental minors of
  the mode unitary. All minors of a placement come from one table of
  subset column sums, so placing the k-th photon costs O(k 2^k). No state
  vector is ever built, so it works for mode counts far beyond the
  statevector bound.

Both consume randomness only through the caller's numpy Generator, so a
seed pins the full sample sequence. The sequential sampler splits drawing
from placing: :func:`draw_placements` draws each sample's photon order and
placement uniforms, and :func:`sample_occupations_sequential` places the
photons of rows drawn earlier, from a stack of unitaries if need be. The
training engine thus draws every circuit of an update in order and places
all their photons in one pass (Clifford & Clifford's batched subset table
across circuits as well as across samples).
"""

import numpy as np

from .fock import DEFAULT_MAX_DIM, fock_dim, validate_pattern


def draw_from_cdf(cdf: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` basis indices by inverting a cumulative distribution.

    When rounding leaves ``cdf[-1]`` below 1, a uniform in [cdf[-1], 1) is
    mapped to the last state with positive probability, never past it to a
    trailing zero-probability state.
    """
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(draws, np.searchsorted(cdf, cdf[-1], side="left"))


# samples placed together keep their subset tables to about this many
# floats (4 MB); from 15 photons a sample's table alone is larger
_TABLE_FLOATS = 1 << 19


def _placement_minors(sums, signs, k):
    """Permanents of the k minors that weigh the k-th photon's placement.

    Returns ``g`` with ``g[..., j]`` = Perm(a[rows, :k] without column j),
    where ``rows`` are the k - 1 rows placed so far. ``sums[..., S, :]``
    holds the column sums of ``a`` over one subset S of ``rows``, and
    ``signs[S]`` is (-1)^(k - 1 - |S|). The row-subset Ryser formula then
    gives every minor at once from leave-one-out products over the first k
    columns.
    """
    head = sums[..., :k]
    left = np.ones_like(head)
    right = np.ones_like(head)
    left[..., 1:] = np.cumprod(head[..., :-1], axis=-1)
    right[..., :-1] = np.cumprod(head[..., :0:-1], axis=-1)[..., ::-1]
    return signs @ (left * right)


def _place_photons(a, step_u):
    """Output rows of each sample's photons, in placement order.

    ``a[s]`` holds sample s's input columns of the unitary in placement
    order, and ``step_u[s, k - 1]`` is the uniform that places its k-th
    photon. That photon lands on row r with weight
    Perm(a[s][rows + [r], :k])^2, which expands along row r into the k
    minors of :func:`_placement_minors`; the draw takes the first row whose
    cumulative weight reaches u times the total, or row floor(u * m) when
    every weight is zero. Placing a row doubles the subset table: every
    subset, then every subset with the new row added (Clifford & Clifford,
    arXiv:1706.01260).
    """
    count, m, n = a.shape
    rows = np.empty((count, n), dtype=np.int64)
    each = np.arange(count)
    sums = np.zeros((count, 1, n))
    signs = np.ones(1)
    for k in range(1, n + 1):
        if k > 1:
            placed = a[each, rows[:, k - 2]]
            sums = np.concatenate((sums, sums + placed[:, None]), axis=1)
            signs = np.concatenate((-signs, signs))
        amps = a[..., :k] @ _placement_minors(sums, signs, k)[..., None]
        cum = np.cumsum(amps[..., 0] ** 2, axis=1)
        total = cum[:, -1]
        rows[:, k - 1] = np.argmax(cum >= (step_u[:, k - 1] * total)[:, None], axis=1)
        positive = total > 0.0
        if not positive.all():
            empty = ~positive
            rows[empty, k - 1] = np.minimum((step_u[empty, k - 1] * m).astype(np.int64), m - 1)
    return rows


def draw_placements(rng: np.random.Generator, count: int, n: int):
    """The photon orders and placement uniforms of ``count`` samples of ``n``
    photons, drawn as :func:`sample_occupations_sequential` draws them."""
    orders = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (count, 1)), axis=1)
    return orders, rng.random((count, n))


def sample_occupations_sequential(u: np.ndarray, input_pattern, draws, count: int) -> np.ndarray:
    """Per-sample conditional sampler on the mode unitary ``u``.

    ``draws`` is a Generator, or the ``(orders, uniforms)`` of all ``count``
    samples that :func:`draw_placements` drew from one earlier. ``u`` may be
    a stack of C unitaries that share the ``count`` rows evenly, in stack
    order: rows of different circuits then share each placement pass.
    """
    u = np.asarray(u, dtype=np.float64)
    stack = u.reshape(-1, *u.shape[-2:])
    if count % len(stack):
        raise ValueError(f"{count} rows do not split evenly over {len(stack)} unitaries")
    m = u.shape[-1]
    inp = validate_pattern(input_pattern, m)
    cols = np.repeat(np.arange(m, dtype=np.int64), inp)
    n = cols.size
    occ = np.zeros((count, m), dtype=np.int64)
    if n == 0:
        return occ
    orders, step_u = draws if isinstance(draws, tuple) else draw_placements(draws, count, n)
    circuit = np.arange(count) // (count // len(stack))
    chunk = max(1, _TABLE_FLOATS // (n << n))
    for lo in range(0, count, chunk):
        part = slice(lo, lo + chunk)
        a = stack[circuit[part, None], :, cols[orders[part]]].transpose(0, 2, 1)
        rows = _place_photons(np.ascontiguousarray(a), step_u[part])
        np.add.at(occ, (np.arange(lo, lo + len(rows))[:, None], rows), 1)
    return occ


def resolve_backend(backend: str, m: int, n: int, max_dim: int = DEFAULT_MAX_DIM) -> str:
    """Pick a concrete backend name for an m-mode, n-photon circuit."""
    if backend == "auto":
        return "statevector" if fock_dim(m, n) <= max_dim else "sequential"
    if backend not in ("statevector", "sequential"):
        raise ValueError(f"unknown sampler backend {backend!r}")
    return backend
