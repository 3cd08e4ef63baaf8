"""Time-bin interferometer layouts and mode-space unitaries.

A circuit on ``m`` modes is described by a list of delay-loop lengths. A
loop of length ``l`` couples mode ``i`` with mode ``i + l`` for every
``i = 1 .. m - l`` (1-based), giving one programmable beamsplitter per
coupler. Loops act in the order listed, couplers within a loop in ascending
first-mode order, which matches the arrival order of sequential time bins.

Beamsplitters are real 2x2 rotations ``[[cos t, -sin t], [sin t, cos t]]``;
no phase shifters are modelled, so every circuit unitary is real orthogonal.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_LOOP_LENGTHS = (1, 3, 9)


@dataclass(frozen=True)
class CircuitLayout:
    """Ordered coupler list induced by delay loops over ``modes`` modes."""

    modes: int
    loop_lengths: tuple[int, ...]
    couplers: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if self.modes < 2:
            raise ValueError(f"need at least 2 modes, got {self.modes}")
        if not self.loop_lengths:
            raise ValueError("loop length list must not be empty")
        for l in self.loop_lengths:
            if not 1 <= l < self.modes:
                raise ValueError(
                    f"loop length {l} invalid for {self.modes} modes "
                    f"(need 1 <= l < m)"
                )
        pairs = []
        for l in self.loop_lengths:
            for i in range(1, self.modes - l + 1):
                pairs.append((i, i + l))
        object.__setattr__(self, "couplers", tuple(pairs))

    @property
    def coupler_count(self) -> int:
        return len(self.couplers)


def default_loop_lengths(m: int) -> tuple[int, ...]:
    """Power-law loops (1, 3, 9), dropping any loop that does not fit."""
    loops = tuple(l for l in DEFAULT_LOOP_LENGTHS if l < m)
    if not loops:
        raise ValueError(f"no default loop fits m={m}")
    return loops


def build_layout(m: int, loop_lengths) -> CircuitLayout:
    """Build a :class:`CircuitLayout`; rejects ``l >= m`` and empty lists."""
    return CircuitLayout(modes=m, loop_lengths=tuple(int(l) for l in loop_lengths))


def coupler_unitary(theta: float) -> np.ndarray:
    """2x2 rotation ``[[cos, -sin], [sin, cos]]`` of one beamsplitter."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(u: np.ndarray, i: int, j: int, theta) -> None:
    """Left-multiply ``u``, or each matrix of a stack, by the rotation of modes i, j."""
    c, s = np.cos(theta), np.sin(theta)
    rows_i = u[..., i, :].copy()
    rows_j = u[..., j, :].copy()
    u[..., i, :] = c * rows_i - s * rows_j
    u[..., j, :] = s * rows_i + c * rows_j


def circuit_unitary(layout: CircuitLayout, thetas) -> np.ndarray:
    """Mode-space unitary of the full circuit.

    The first coupler in layout order acts first, i.e. the product is
    ``B_last @ ... @ B_first``. Output is real orthogonal.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (layout.coupler_count,):
        raise ValueError(
            f"expected {layout.coupler_count} thetas, got {thetas.shape}"
        )
    u = np.eye(layout.modes)
    for (a, b), theta in zip(layout.couplers, thetas):
        rotate(u, a - 1, b - 1, theta)
    return u


def input_pattern(m: int) -> np.ndarray:
    """Single photons in odd-indexed modes 1, 3, 5, ... (ceil(m/2) photons)."""
    pat = np.zeros(m, dtype=np.int64)
    pat[0::2] = 1
    return pat
