"""Kernels for applying two-mode beamsplitters to Fock-space state vectors.

A beamsplitter on modes (i, j) only mixes basis states that share the same
occupation outside the pair and the same pair total t = n_i + n_j. Basis
indices are therefore precomputed into groups of t + 1 siblings; applying a
coupler is a batch of tiny (t+1) x (t+1) matrix-vector products.

All circuit unitaries are real rotations, so amplitudes stay real float64.
"""

import numpy as np

from ._accel import maybe_njit


@maybe_njit(cache=True)
def _fill_blocks(ct, st, n, choose, sqfact, out):
    """Fill out[t, kp, k] with pair-space beamsplitter matrix elements.

    out[t, kp, k] is the amplitude for |k, t-k> -> |kp, t-kp> under the mode
    rotation a_i -> ct*a_i + st*a_j, a_j -> -st*a_i + ct*a_j.
    """
    ctp = np.empty(n + 1)
    stp = np.empty(n + 1)
    ctp[0] = 1.0
    stp[0] = 1.0
    for q in range(1, n + 1):
        ctp[q] = ctp[q - 1] * ct
        stp[q] = stp[q - 1] * st
    for t in range(n + 1):
        for k in range(t + 1):
            l = t - k
            for kp in range(t + 1):
                lp = t - kp
                qlo = kp - k if kp > k else 0
                qhi = l if l < kp else kp
                acc = 0.0
                for q in range(qlo, qhi + 1):
                    p = kp - q
                    term = (
                        choose[k, p]
                        * choose[l, q]
                        * ctp[p + l - q]
                        * stp[k - p + q]
                    )
                    if q & 1:
                        term = -term
                    acc += term
                out[t, kp, k] = acc * sqfact[kp] * sqfact[lp] / (sqfact[k] * sqfact[l])


class CouplerTable:
    """Precomputed sibling-index groups for one coupler on one Fock basis."""

    __slots__ = ("n", "views")

    def __init__(self, basis, i: int, j: int):
        pats = basis.patterns
        ci = pats[:, i].astype(np.int64)
        cj = pats[:, j].astype(np.int64)
        views = []
        for t in range(1, basis.n + 1):
            leaders = np.nonzero((cj == 0) & (ci == t))[0]
            if leaders.size == 0:
                continue
            width = t + 1
            work = pats[leaders].astype(np.int64)
            members = np.empty((leaders.size, width), dtype=np.int64)
            for kp in range(width):
                work[:, i] = kp
                work[:, j] = t - kp
                members[:, kp] = basis.rank_rows(work)
            views.append((t, members))
        self.n = basis.n
        self.views = views  # [(t, member index matrix)], one per pair total t


def make_blocks(theta: float, n: int, choose, sqfact) -> np.ndarray:
    blocks = np.zeros((n + 1, n + 1, n + 1))
    _fill_blocks(np.cos(theta), np.sin(theta), n, choose, sqfact, blocks)
    return blocks


def apply_coupler(amps: np.ndarray, table: CouplerTable, theta: float, choose, sqfact):
    """In-place beamsplitter application on a real state vector."""
    blocks = make_blocks(theta, table.n, choose, sqfact)
    for t, members in table.views:
        b = blocks[t, : t + 1, : t + 1]
        amps[members] = amps[members] @ b.T
