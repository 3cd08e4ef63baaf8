"""Fixed-photon-number Fock basis, state vectors, and exact evolution.

Basis order
-----------
Occupation patterns (c_1, ..., c_m) with sum n are ranked in descending
lexicographic order: rank 0 is (n, 0, ..., 0) and the last pattern is
(0, ..., 0, n). The rank of a pattern has the closed form

    rank(c) = sum_j C(m - 1 - j + W_j, W_j),   W_j = rem_j - c_j - 1 >= 0,

where rem_j is the number of photons left at mode j (0-based). This order
is part of the serialization format and must not change.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from ._accel import maybe_njit
from ._evolve_kernels import CouplerTable, apply_circuit, block_coefficients, make_blocks
from .interferometer import CircuitLayout

DEFAULT_MAX_DIM = 1_000_000


class FockDimensionError(ValueError):
    """Fock dimension exceeds the configured statevector bound.

    Callers should fall back to the sequential (per-sample) backend, which
    does not materialize the state vector.
    """


def fock_dim(m: int, n: int) -> int:
    """Number of occupation patterns of n photons in m modes."""
    return comb(m + n - 1, n)


@maybe_njit
def _fill_patterns(out, m, n):
    c = np.zeros(m, dtype=np.int64)
    c[0] = n
    out[0] = c
    for r in range(1, out.shape[0]):
        j = m - 2
        while c[j] == 0:
            j -= 1
        tail = 1
        for u in range(j + 1, m):
            tail += c[u]
            c[u] = 0
        c[j] -= 1
        c[j + 1] = tail
        out[r] = c


class FockBasis:
    """Enumerated occupation basis for n photons in m modes."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.dim = fock_dim(m, n)
        size = m + n + 1
        choose = np.zeros((size, size), dtype=np.int64)
        choose[:, 0] = 1
        for a in range(1, size):
            for b in range(1, a + 1):
                choose[a, b] = choose[a - 1, b - 1] + choose[a - 1, b]
        self.choose = choose
        patterns = np.empty((self.dim, m), dtype=np.int8)
        if n == 0:
            patterns[:] = 0
        else:
            _fill_patterns(patterns, m, n)
        self.patterns = patterns
        self.thresholded = (patterns > 0).astype(np.uint8)

    @cached_property
    def block_coef(self) -> np.ndarray:
        """Beamsplitter block coefficients for n photons, built on first use."""
        return block_coefficients(self.n)

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized rank of each occupation row (shape (B, m))."""
        rows = np.asarray(rows, dtype=np.int64)
        rem = self.n - np.cumsum(rows, axis=1) + rows
        w = rem - rows - 1
        a = (self.m - 1) - np.arange(self.m, dtype=np.int64)
        valid = w >= 0
        wc = np.where(valid, w, 0)
        contrib = self.choose[a + wc, wc]
        return np.where(valid, contrib, 0).sum(axis=1)

    def rank(self, pattern) -> int:
        return int(self.rank_rows(np.asarray(pattern, dtype=np.int64)[None, :])[0])


_BASIS_CACHE: dict[tuple[int, int], FockBasis] = {}
_TABLE_CACHE: dict[tuple[int, int, int, int], CouplerTable] = {}


def get_basis(m: int, n: int) -> FockBasis:
    key = (m, n)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = FockBasis(m, n)
    return _BASIS_CACHE[key]


def get_coupler_table(basis: FockBasis, i: int, j: int) -> CouplerTable:
    key = (basis.m, basis.n, i, j)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = CouplerTable(basis, i, j)
    return _TABLE_CACHE[key]


@dataclass
class FockStateVector:
    """Real amplitudes over the occupation basis (circuits are orthogonal)."""

    mode_count: int
    photon_number: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = fock_dim(self.mode_count, self.photon_number)
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({dim},)"
            )
        norm = float(np.sum(self.amplitudes**2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def basis(self) -> FockBasis:
        return get_basis(self.mode_count, self.photon_number)

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2


def validate_pattern(pattern, m: int) -> np.ndarray:
    pat = np.asarray(pattern, dtype=np.int64)
    if pat.shape != (m,) or (pat < 0).any():
        raise ValueError(f"invalid occupation pattern {pattern} for m={m}")
    return pat


def evolve(
    input_pattern,
    layout: CircuitLayout,
    thetas,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FockStateVector:
    """Evolve a Fock input through the circuit, coupler by coupler.

    Raises :class:`FockDimensionError` when the basis would exceed
    ``max_dim`` entries; use the sequential sampler backend in that case.
    """
    m = layout.modes
    pat = validate_pattern(input_pattern, m)
    n = int(pat.sum())
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (layout.coupler_count,):
        raise ValueError(
            f"expected {layout.coupler_count} thetas, got {thetas.shape}"
        )
    dim = fock_dim(m, n)
    if dim > max_dim:
        raise FockDimensionError(
            f"Fock dimension {dim} exceeds bound {max_dim} for m={m}, n={n}; "
            f"use the sequential sampler backend"
        )
    basis = get_basis(m, n)
    amps = np.zeros(dim)
    amps[basis.rank(pat)] = 1.0
    tables = [get_coupler_table(basis, a - 1, b - 1) for a, b in layout.couplers]
    apply_circuit(amps, tables, make_blocks(thetas, basis.block_coef))
    return FockStateVector(m, n, amps)


def output_distribution(state: FockStateVector) -> dict[tuple[int, ...], float]:
    """Exact outcome probabilities, keyed by occupation pattern."""
    probs = state.probabilities()
    basis = state.basis
    out = {}
    for idx in np.nonzero(probs)[0]:
        out[tuple(int(v) for v in basis.patterns[idx])] = float(probs[idx])
    return out
