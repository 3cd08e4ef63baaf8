"""Training engine: sampled forward passes, shift-rule and bit-flip
gradients, SGD updates, tiling, budget accounting, and best tracking.

The engine always minimizes. Maximization problems are negated inside the
:class:`EvalLedger` (the loss trace is in this internal minimization sense);
reported results are in the problem's native sense.

Randomness flows through a single ``numpy.random.Generator`` in a fixed
order, so one seed pins an entire run. An update draws, circuit by circuit
(the forward pass, then each coupler's +shift and -shift circuits), every
tile's samples and then the circuit's flip uniforms; a statevector tile
draws S uniforms and inverts its CDF, a sequential tile draws its photon
orders and placement uniforms. Then come the uniforms of both bit-flip
passes of every bit, in one draw. Only then are a sequential tile's photons
placed, for all its circuits in one pass, and every candidate of the update
costed in one ledger batch. Placing and costing draw nothing, and the
ledger keeps the first strict optimum in call order, so the result is the
one a loop of separate passes, each costed on its own, would give.

An update is computed only as a whole, by ``_RunState.update``; there is no
single-step API for one forward pass or one gradient.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fock import (
    DEFAULT_MAX_DIM,
    FockDimensionError,
    fock_dim,
    get_basis,
    get_coupler_table,
)
from . import _evolve_kernels
from ._evolve_kernels import apply_coupler
from .interferometer import (
    CircuitLayout,
    build_layout,
    circuit_unitary,  # not called here; perfbench/layers.py patches engine.circuit_unitary
    default_loop_lengths,
    input_pattern,
    shifted_unitaries,
)
from .problems import SENSE_MAX, CostFunctionHandle
from .sampling import draw_from_cdf, draw_placements, resolve_backend, sample_occupations_sequential


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def sigmoid_deriv(x):
    s = sigmoid(x)
    return s * (1.0 - s)


def shift_rule_value(e_up: float, e_down: float, phi: float, scale: float = 1.0) -> float:
    """Shift-rule gradient estimate from two expectations.

    This is the rule exactly as used for training: scale * (up - down) /
    sin(phi). With scale = 1 it equals twice the analytic derivative in the
    small-phi limit; the constant is absorbed by the learning rate.
    """
    return scale * (e_up - e_down) / math.sin(phi)


def bitflip_grad_value(alpha: float, e_up: float, e_down: float) -> float:
    """Exact-gradient identity for one bit-flip parameter: f'(a)(E1 - E0)."""
    return float(sigmoid_deriv(alpha)) * (e_up - e_down)


@dataclass(frozen=True)
class BbsConfig:
    """Run hyperparameters. Defaults follow the reference evaluation setup."""

    updates: int = 200
    samples: int = 50
    lr_theta: float = 0.01
    lr_alpha: float = 0.05
    shift: float = math.pi / 2
    loop_lengths: Optional[tuple[int, ...]] = None  # None -> (1, 3, 9) trimmed
    tile_size: int = 0  # 0 -> no tiling
    seed: int = 0
    sampler_backend: str = "auto"
    gradient_scale: float = 1.0
    crn: bool = False  # shared auxiliary flips in bit-flip gradients
    max_dim: int = DEFAULT_MAX_DIM

    def __post_init__(self):
        if self.updates < 1 or self.samples < 1:
            raise ValueError("need updates >= 1 and samples >= 1")
        if not 0.0 < self.shift < math.pi:
            raise ValueError("shift must lie in (0, pi)")
        if self.tile_size != 0 and self.tile_size < 2:
            raise ValueError("tile_size must be 0 or >= 2")
        if self.sampler_backend not in ("auto", "statevector", "sequential"):
            raise ValueError(f"unknown sampler backend {self.sampler_backend!r}")


@dataclass
class BbsParams:
    """Trainable state: one theta per coupler, one alpha per bit."""

    thetas: np.ndarray
    alphas: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        return sigmoid(self.alphas)

    def copy(self) -> "BbsParams":
        return BbsParams(self.thetas.copy(), self.alphas.copy())


@dataclass(frozen=True)
class TilePlan:
    """Contiguous partition of bits into per-tile circuits."""

    size: int
    blocks: tuple[tuple[int, int], ...]  # (start, length)
    layouts: tuple[CircuitLayout, ...]

    @property
    def theta_counts(self) -> tuple[int, ...]:
        return tuple(l.coupler_count for l in self.layouts)

    @property
    def total_thetas(self) -> int:
        return sum(self.theta_counts)

    def theta_slices(self) -> list[slice]:
        out, off = [], 0
        for count in self.theta_counts:
            out.append(slice(off, off + count))
            off += count
        return out


def make_tiles(m: int, tile_size: int, loop_lengths) -> TilePlan:
    """Split m bits into contiguous blocks of at most ``tile_size``.

    A trailing singleton is rebalanced away (the previous block donates a
    mode, or absorbs the leftover when it cannot). Loops that do not fit a
    block are dropped for that block with a warning.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    loops = tuple(loop_lengths)
    if tile_size == 0 or tile_size >= m:
        sizes = [m]
    else:
        sizes = [tile_size] * (m // tile_size)
        rest = m % tile_size
        if rest == 1:
            if sizes[-1] > 2:
                sizes[-1] -= 1
                sizes.append(2)
            else:
                sizes[-1] += 1
                warnings.warn(
                    f"trailing singleton absorbed; one block has size "
                    f"{sizes[-1]} > tile_size={tile_size}"
                )
        elif rest:
            sizes.append(rest)
    blocks, layouts, start = [], [], 0
    for size in sizes:
        fitting = tuple(l for l in loops if l < size)
        if len(fitting) < len(loops):
            warnings.warn(
                f"dropping loops {[l for l in loops if l >= size]} for a "
                f"size-{size} tile"
            )
        if not fitting:
            raise ValueError(f"no loop from {loops} fits a size-{size} tile")
        blocks.append((start, size))
        layouts.append(build_layout(size, fitting))
        start += size
    return TilePlan(size=m, blocks=tuple(blocks), layouts=tuple(layouts))


def budget_bound(
    m: int,
    loop_lengths=None,
    updates: int = BbsConfig.updates,
    samples: int = BbsConfig.samples,
    tile_plan: Optional[TilePlan] = None,
) -> int:
    """Upper bound on cost-function calls: N * S * (2T + 2m + 1).

    T counts beamsplitters, summed over the layouts of ``tile_plan``. Without
    a plan the bound uses the untiled plan, whose T is the sum of m - l over
    the loops l < m.
    """
    if tile_plan is None:
        loops = loop_lengths if loop_lengths is not None else default_loop_lengths(m)
        tile_plan = make_tiles(m, 0, loops)
    return updates * samples * (2 * tile_plan.total_thetas + 2 * tile_plan.size + 1)


class EvalLedger:
    """Cost-call counter with unique-candidate and global best tracking.

    Every candidate evaluation request counts against the budget, repeats
    included, so budget comparisons to the baselines stay conservative.
    ``seen`` holds the key of every distinct candidate evaluated.

    When the budget covers every string (``budget >= 2**m``), costs are read
    from the handle's ``cost_table``: tabulating all 2^m strings once costs
    no more rows than such a run's candidates would, and repeats then cost
    a lookup. A shorter run at large m would pay mostly for rows it never
    reads. Otherwise, or above ``problems.TABLE_LIMIT``, every batch goes
    to ``handle.batch``. Both give the same costs.
    """

    def __init__(self, handle: CostFunctionHandle, budget: Optional[int] = None):
        self.handle = handle
        self.budget = budget
        self.sign = -1.0 if handle.sense == SENSE_MAX else 1.0
        self.seen: set[bytes] = set()
        self.call_count = 0
        self.best_native: Optional[float] = None
        self.best_bits: Optional[tuple[int, ...]] = None
        # a candidate's key is its bit string packed into bytes
        self._key_dtype = np.dtype((np.void, (handle.size + 7) // 8))
        covers_all = budget is not None and budget >= 1 << handle.size
        self._table = handle.cost_table if covers_all else None
        if self._table is not None:  # bit 1 is the most significant bit of an index
            self._place = 1 << np.arange(handle.size - 1, -1, -1, dtype=np.int64)

    @property
    def unique_count(self) -> int:
        return len(self.seen)

    @property
    def best_internal(self) -> float:
        return self.sign * self.best_native

    def evaluate_batch(self, bits_mat: np.ndarray) -> np.ndarray:
        """Evaluate candidates, returning costs in minimization sense."""
        bits_mat = np.asarray(bits_mat, dtype=np.uint8)
        keys = np.packbits(bits_mat, axis=1).view(self._key_dtype).ravel().tolist()
        if self._table is None:
            costs = np.asarray(self.handle.batch(bits_mat), dtype=float)
        else:
            costs = np.asarray(self._table[bits_mat @ self._place], dtype=float)
        if not np.isfinite(costs).all():
            raise ValueError("cost function returned a non-finite value")
        self.call_count += len(keys)
        if self.budget is not None and self.call_count > self.budget:
            raise RuntimeError(
                f"budget exceeded: {self.call_count} > {self.budget}"
            )
        self.seen.update(keys)
        idx = int(np.argmax(costs)) if self.sign < 0 else int(np.argmin(costs))
        cand = float(costs[idx])
        if self.best_native is None or self.sign * cand < self.sign * self.best_native:
            self.best_native = cand
            self.best_bits = tuple(int(b) for b in bits_mat[idx])
        return self.sign * costs

    def evaluate(self, bits) -> float:
        return float(self.evaluate_batch(np.asarray(bits, dtype=np.uint8)[None, :])[0])


def init_params(plan: TilePlan, rng: np.random.Generator) -> BbsParams:
    """Thetas uniform on (0, 2pi); alphas zero so every flip prob is 1/2."""
    thetas = rng.uniform(0.0, 2.0 * math.pi, plan.total_thetas)
    alphas = np.zeros(plan.size)
    return BbsParams(thetas=thetas, alphas=alphas)


def apply_bitflips(bits, probs, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with its probability."""
    bits = np.asarray(bits, dtype=np.uint8)
    probs = np.asarray(probs, dtype=float)
    if bits.shape[-1] != probs.shape[0]:
        raise ValueError("bit/probability length mismatch")
    return _flip_bits(bits, probs, rng)[0]


def _flip_bits(raw, probs, rng, uniforms=None):
    """Flip each bit where its uniform falls below its probability in
    ``probs``, which broadcasts against ``raw``. Uniforms are drawn unless
    given. Returns (flipped bits, uniforms used).
    """
    if uniforms is None:
        uniforms = rng.random(raw.shape)
    return raw ^ (uniforms < probs).astype(np.uint8), uniforms


def _bitflip_passes(raw, probs, rng, crn):
    """Rows, uniforms and flip probabilities of two bit-flip passes per bit
    i, each on all of ``raw``: bit i flipped with probability 1, then with
    probability 0, every other bit with its ``probs``. Uniforms lie in
    [0, 1), so the forced bit never depends on them. Both passes of a bit
    share their uniforms under ``crn``; otherwise each pass draws its own.
    All come from one draw, in pass order.
    """
    count, m = raw.shape
    uniforms = rng.random((m, 1 if crn else 2, count, m))
    uniforms = np.broadcast_to(uniforms, (m, 2, count, m)).reshape(2 * m, count, m)
    forced = np.tile(probs, (m, 2, 1))
    bits = np.arange(m)
    forced[bits, 0, bits] = 1.0
    forced[bits, 1, bits] = 0.0
    return np.broadcast_to(raw, (2 * m, count, m)), uniforms, forced.reshape(2 * m, 1, m)


def _pass_means(ledger, candidates) -> list:
    """Cost every pass's candidates, ``candidates[p]`` being pass p's rows,
    in one ledger batch; returns one mean cost per pass."""
    costs = ledger.evaluate_batch(candidates.reshape(-1, candidates.shape[-1]))
    return costs.reshape(len(candidates), -1).mean(axis=1).tolist()


# a shared coupler takes at most this many floats of states (4 MB) per
# application, but at least one row: this bounds the copies it makes
_CHUNK_FLOATS = 1 << 19


def evolve_states(states: np.ndarray, tables, blocks: np.ndarray):
    """Evolve a base state and all its shift-rule states in place.

    ``states`` has 2T + 1 rows, row 0 holding the input state. ``blocks``
    holds every coupler's block set at theta_c, then at theta_c + s, then
    at theta_c - s. Row 0 becomes the circuit output, and row 2c + 1
    (2c + 2) the output with coupler c at theta_c + s (theta_c - s) and
    every other coupler unshifted. Each coupler is applied once to every
    row that needs it. Small states take it in one application, so the
    whole pass is 3T applications; large ones a few rows at a time, which
    bounds the copies an application makes.
    """
    count = len(tables)
    chunk = max(1, _CHUNK_FLOATS // states.shape[1])
    for c, table in enumerate(tables):
        up, down = 2 * c + 1, 2 * c + 2
        states[up] = states[0]
        states[down] = states[0]
        apply_coupler(states[up], table, blocks[count + c])
        apply_coupler(states[down], table, blocks[2 * count + c])
        for lo in range(0, up, chunk):
            apply_coupler(states[lo : min(lo + chunk, up)], table, blocks[c])


def _shift_row(local_c: int, up: bool) -> int:
    """Row of coupler ``local_c``'s +shift (``up``) or -shift circuit in a tile's stack."""
    return 2 * local_c + (1 if up else 2)


class _TileRuntime:
    """Per-tile circuit state: every shift-rule CDF, or every shift-rule
    unitary, of the current thetas, row 0 holding the unshifted circuit."""

    def __init__(self, layout: CircuitLayout, backend: str, max_dim: int, shift: float):
        self.layout = layout
        self.m = layout.modes
        self.input = input_pattern(self.m)
        self.n = int(self.input.sum())
        self.shift = shift
        self.backend = resolve_backend(backend, self.m, self.n, max_dim)
        if self.backend == "statevector":
            dim = fock_dim(self.m, self.n)
            if dim > max_dim:
                raise FockDimensionError(
                    f"Fock dimension {dim} exceeds bound {max_dim} for "
                    f"m={self.m}, n={self.n}; use the sequential sampler backend"
                )
            self.basis = get_basis(self.m, self.n)
            self.tables = [
                get_coupler_table(self.basis, a - 1, b - 1) for a, b in layout.couplers
            ]
            self.input_index = self.basis.rank(self.input)
            # row 0: base CDF; rows 2c+1, 2c+2: coupler c shifted by +s, -s
            self.cdfs = np.zeros((2 * layout.coupler_count + 1, dim))

    def set_thetas(self, thetas: np.ndarray):
        t, s = np.asarray(thetas, dtype=float), self.shift
        if self.backend == "statevector":
            blocks = _evolve_kernels.make_blocks(
                np.concatenate((t, t + s, t - s)), self.basis.block_coef
            )
            states = self.cdfs
            # evolve_states overwrites every other row from row 0
            states[0] = 0.0
            states[0, self.input_index] = 1.0
            evolve_states(states, self.tables, blocks)
            np.square(states, out=states)
            np.cumsum(states, axis=1, out=states)
        else:
            self.unitaries = shifted_unitaries(self.layout, t, s)

    def shifted_cdf(self, local_c: int, up: bool) -> np.ndarray:
        return self.cdfs[_shift_row(local_c, up)]

    def _draw_from_cdf(self, cdf: np.ndarray, rng, count: int) -> np.ndarray:
        return self.basis.thresholded[draw_from_cdf(cdf, rng, count)]

    def draw(self, shift, rng, count: int):
        """Draw ``count`` samples of one circuit: the unshifted one when
        ``shift`` is None, else coupler ``local_c`` at theta + s (``up``) or
        theta - s for ``shift = (local_c, up)``. A statevector tile returns
        the samples; a sequential tile the photon orders and placement
        uniforms that :meth:`place` turns into samples."""
        if self.backend == "statevector":
            cdf = self.cdfs[0] if shift is None else self.shifted_cdf(*shift)
            return self._draw_from_cdf(cdf, rng, count)
        return draw_placements(rng, count, self.n)

    def place(self, shifts, draws, count: int) -> np.ndarray:
        """(circuits, count, m) samples of the circuits ``shifts`` from the
        :meth:`draw` of each; a sequential tile places all their photons in
        one pass."""
        if self.backend == "statevector":
            return np.stack(draws)
        rows = [0 if shift is None else _shift_row(*shift) for shift in shifts]
        orders, step_u = (np.concatenate(part) for part in zip(*draws))
        occ = sample_occupations_sequential(
            self.unitaries[rows], self.input, (orders, step_u), len(rows) * count
        )
        return (occ > 0).astype(np.uint8).reshape(len(rows), count, self.m)


class _RunState:
    """One configured run: tiles, parameters, ledger, and gradient machinery."""

    def __init__(
        self,
        plan: TilePlan,
        params: BbsParams,
        ledger: EvalLedger,
        rng: np.random.Generator,
        config: BbsConfig,
    ):
        if plan.size != ledger.handle.size:
            raise ValueError("plan size does not match problem size")
        if params.thetas.shape != (plan.total_thetas,):
            raise ValueError("theta vector does not match the tile plan")
        self.plan = plan
        self.params = params
        self.ledger = ledger
        self.rng = rng
        self.config = config
        self.tiles = [
            _TileRuntime(l, config.sampler_backend, config.max_dim, config.shift)
            for l in plan.layouts
        ]
        self.slices = plan.theta_slices()
        # an update's circuit 0 is unshifted, and circuit _shift_row(c, up)
        # has coupler c at theta_c + shift (up) or theta_c - shift; shifts[t]
        # names each circuit's shift in tile t, by the tile's local index
        couplers = [
            (t, c) for t, layout in enumerate(plan.layouts) for c in range(layout.coupler_count)
        ]
        self.shifts = [[None] * (2 * len(couplers) + 1) for _ in self.tiles]
        for c, (t, local_c) in enumerate(couplers):
            for up in (True, False):
                self.shifts[t][_shift_row(c, up)] = (local_c, up)
        self.refresh()

    def refresh(self):
        """Push current thetas into every tile (once per update step)."""
        for tile, sl in zip(self.tiles, self.slices):
            tile.set_thetas(self.params.thetas[sl])

    def _flip(self, raw: np.ndarray, uniforms: np.ndarray, probs: np.ndarray):
        return _flip_bits(raw, probs, self.rng, uniforms)

    def update(self):
        """One update: the forward pass, both shift-rule passes of every
        coupler, and both bit-flip passes of every bit on the forward
        samples, from one draw, one placement per tile, one flip and one
        ledger batch. Returns (loss, theta gradients, alpha gradients)."""
        count, m, rng, probs = self.config.samples, self.plan.size, self.rng, self.params.probs
        couplers = self.plan.total_thetas
        circuits = 2 * couplers + 1
        draws = [[] for _ in self.tiles]
        uniforms = []
        for k in range(circuits):
            for t, tile in enumerate(self.tiles):
                draws[t].append(tile.draw(self.shifts[t][k], rng, count))
            uniforms.append(rng.random((count, m)))
        sampled = np.concatenate(
            [tile.place(self.shifts[t], draws[t], count) for t, tile in enumerate(self.tiles)],
            axis=-1,
        )
        passes = [
            (sampled, np.stack(uniforms), np.broadcast_to(probs, (circuits, 1, m))),
            _bitflip_passes(sampled[0], probs, rng, self.config.crn),
        ]
        candidates, _ = self._flip(*(np.concatenate(part) for part in zip(*passes)))
        means = _pass_means(self.ledger, candidates)
        pairs = np.reshape(means[1:], (-1, 2))
        shift, scale = self.config.shift, self.config.gradient_scale
        theta_grads = [shift_rule_value(up, down, shift, scale) for up, down in pairs[:couplers]]
        alpha_grads = [
            bitflip_grad_value(alpha, up, down)
            for alpha, (up, down) in zip(self.params.alphas, pairs[couplers:])
        ]
        return means[0], np.array(theta_grads), np.array(alpha_grads)


def sgd_update(
    params: BbsParams,
    theta_grads: np.ndarray,
    alpha_grads: np.ndarray,
    lr_theta: float,
    lr_alpha: float,
) -> BbsParams:
    """Synchronous plain-SGD step on all parameters."""
    theta_grads = np.asarray(theta_grads, dtype=float)
    alpha_grads = np.asarray(alpha_grads, dtype=float)
    if theta_grads.shape != params.thetas.shape or alpha_grads.shape != params.alphas.shape:
        raise ValueError("gradient vector lengths do not match parameters")
    if not (np.isfinite(theta_grads).all() and np.isfinite(alpha_grads).all()):
        raise ValueError("non-finite gradient")
    return BbsParams(
        thetas=params.thetas - lr_theta * theta_grads,
        alphas=params.alphas - lr_alpha * alpha_grads,
    )


@dataclass
class TrainingTrace:
    """Per-update history: loss, running best (minimization sense), params."""

    steps: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    best_costs: list = field(default_factory=list)
    prob_snapshots: list = field(default_factory=list)
    theta_snapshots: list = field(default_factory=list)

    def append(self, step, loss, best, probs, thetas):
        self.steps.append(int(step))
        self.losses.append(float(loss))
        self.best_costs.append(float(best))
        self.prob_snapshots.append(np.asarray(probs, dtype=float).copy())
        self.theta_snapshots.append(np.asarray(thetas, dtype=float).copy())

    def __len__(self):
        return len(self.steps)

    def write_csv(self, path):
        m = len(self.prob_snapshots[0]) if self.prob_snapshots else 0
        t = len(self.theta_snapshots[0]) if self.theta_snapshots else 0
        header = (
            ["step", "loss", "best_cost"]
            + [f"p_{i + 1}" for i in range(m)]
            + [f"theta_{i + 1}" for i in range(t)]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.steps)):
                writer.writerow(
                    [self.steps[i], repr(self.losses[i]), repr(self.best_costs[i])]
                    + [repr(v) for v in self.prob_snapshots[i]]
                    + [repr(v) for v in self.theta_snapshots[i]]
                )


@dataclass
class BbsResult:
    best_bits: tuple[int, ...]
    best_cost: float  # native sense
    trace: TrainingTrace
    calls: int
    unique_evals: int
    budget: int
    seed: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "best_bits": list(self.best_bits),
            "best_cost": self.best_cost,
            "calls": self.calls,
            "unique_evals": self.unique_evals,
            "budget_bound": self.budget,
            "seed": self.seed,
        }


def make_plan(m: int, config: BbsConfig) -> TilePlan:
    loops = config.loop_lengths if config.loop_lengths is not None else default_loop_lengths(m)
    return make_tiles(m, config.tile_size, loops)


def run_bbs(
    problem: CostFunctionHandle,
    config: BbsConfig,
    rng: Optional[np.random.Generator] = None,
) -> BbsResult:
    """Full training run; the returned best includes gradient-pass candidates."""
    plan = make_plan(problem.size, config)
    budget = budget_bound(
        problem.size, updates=config.updates, samples=config.samples, tile_plan=plan
    )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = init_params(plan, rng)
    ledger = EvalLedger(problem, budget)
    state = _RunState(plan, params, ledger, rng, config)
    trace = TrainingTrace()
    for step in range(1, config.updates + 1):
        if step > 1:  # _RunState set up the tiles for the first update
            state.refresh()
        loss, theta_grads, alpha_grads = state.update()
        new_params = sgd_update(
            state.params, theta_grads, alpha_grads, config.lr_theta, config.lr_alpha
        )
        trace.append(step, loss, ledger.best_internal, state.params.probs, state.params.thetas)
        state.params = new_params
    assert ledger.call_count <= budget
    return BbsResult(
        best_bits=ledger.best_bits,
        best_cost=ledger.best_native,
        trace=trace,
        calls=ledger.call_count,
        unique_evals=ledger.unique_count,
        budget=budget,
        seed=config.seed,
    )
