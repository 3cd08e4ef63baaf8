"""Kernels for applying two-mode beamsplitters to Fock-space state vectors.

A beamsplitter on modes (i, j) only mixes basis states that share the same
occupation outside the pair and the same pair total t = n_i + n_j. Basis
indices are therefore precomputed into groups of t + 1 siblings; applying a
coupler is a batch of tiny (t+1) x (t+1) matrix products.

A coupler's blocks, one (t+1) x (t+1) matrix per pair total t, have entries
that are homogeneous polynomials of degree t in (cos theta, sin theta). Their
coefficients depend only on the photon number, so they are tabulated once
(:func:`block_coefficients`) and the blocks of any number of thetas come
from one contraction (:func:`make_blocks`).

All circuit unitaries are real rotations, so amplitudes stay real float64.
"""

from math import comb, factorial, sqrt

import numpy as np


def block_coefficients(n: int) -> np.ndarray:
    """Coefficient tensor ``coef[t, kp, k, e]`` of the beamsplitter blocks.

    The block entry for |k, t-k> -> |kp, t-kp> under the mode rotation
    a_i -> c*a_i + s*a_j, a_j -> -s*a_i + c*a_j is
    ``sum_e coef[t, kp, k, e] * c**e * s**(t - e)``.
    """
    coef = np.zeros((n + 1, n + 1, n + 1, n + 1))
    for t in range(n + 1):
        for k in range(t + 1):
            l = t - k
            for kp in range(t + 1):
                lp = t - kp
                # int / int is correctly rounded, so norm is within an ulp
                norm = sqrt(factorial(kp) * factorial(lp) / (factorial(k) * factorial(l)))
                for q in range(max(kp - k, 0), min(l, kp) + 1):
                    p = kp - q
                    term = comb(k, p) * comb(l, q) * norm
                    coef[t, kp, k, p + l - q] = -term if q & 1 else term
    return coef


def make_blocks(thetas, coef: np.ndarray) -> np.ndarray:
    """Blocks ``out[x, t, kp, k]`` of every theta in ``thetas`` at once."""
    thetas = np.asarray(thetas, dtype=float)
    n = coef.shape[0] - 1
    powers = np.arange(n + 1)
    cpow = np.cos(thetas)[:, None] ** powers
    spow = np.sin(thetas)[:, None] ** powers
    # terms[x, t, e] = c**e * s**(t - e); entries with e > t meet zero coefficients
    sin_exp = np.maximum(powers[:, None] - powers[None, :], 0)
    terms = cpow[:, None, :] * spow[:, sin_exp]
    return np.einsum("tpke,xte->xtpk", coef, terms)


class CouplerTable:
    """Precomputed sibling-index groups for one coupler on one Fock basis."""

    __slots__ = ("views",)

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
            members = np.empty((width, leaders.size), dtype=np.int64)
            for kp in range(width):
                work[:, i] = kp
                work[:, j] = t - kp
                members[kp] = basis.rank_rows(work)
            views.append((t, members))
        # [(t, member indices)], one per pair total t; members[kp, g] is the
        # basis index of |kp, t - kp> in sibling group g
        self.views = views


def apply_coupler(amps: np.ndarray, table: CouplerTable, blocks: np.ndarray):
    """In-place beamsplitter application on real states.

    ``amps`` is one state of shape (dim,) or k states as the rows of a
    (k, dim) matrix; ``blocks`` is one coupler's block set from
    :func:`make_blocks`.
    """
    for t, members in table.views:
        amps[..., members] = blocks[t, : t + 1, : t + 1] @ amps[..., members]


def apply_circuit(amps: np.ndarray, tables, blocks: np.ndarray):
    """Push ``amps`` through every coupler in order, in place.

    ``blocks[c]`` is the block set of the coupler ``tables[c]`` indexes.
    """
    for table, block in zip(tables, blocks):
        apply_coupler(amps, table, block)
