import math

import numpy as np
import pytest
from scipy import stats

from bbsolve import engine, problems
from bbsolve.engine import (
    BbsConfig,
    BbsParams,
    EvalLedger,
    _RunState,
    _TileRuntime,
    apply_bitflips,
    budget_bound,
    init_params,
    make_plan,
    make_tiles,
    run_bbs,
    sgd_update,
    sigmoid,
)
from bbsolve.fock import DEFAULT_MAX_DIM, evolve, fock_dim, output_distribution
from bbsolve.interferometer import build_layout, circuit_unitary, input_pattern
from bbsolve.problems import (
    CostFunctionHandle,
    brute_force,
    deconfliction_handle,
    gen_deconfliction,
    gen_knapsack,
    gen_tsp,
    knapsack_handle,
    tsp_handle,
)

from oracles import candidate_distribution, per_pass_run, threshold_distribution


def constant_handle(m, value=7.0):
    return CostFunctionHandle(
        size=m, sense="minimize", eval=lambda bits: value, kind="constant"
    )


def onesum_handle(m):
    return CostFunctionHandle(
        size=m,
        sense="minimize",
        eval=lambda bits: float(np.sum(bits)),
        kind="onesum",
        eval_batch=lambda mat: mat.sum(axis=1).astype(float),
    )


def one_update(plan, params, handle, seed, **config):
    """Run one update of a fresh run state; ``config`` sets BbsConfig fields.
    Returns (loss, theta gradients, alpha gradients) and the ledger."""
    ledger = EvalLedger(handle)
    rng = np.random.default_rng(seed)
    state = _RunState(plan, params, ledger, rng, BbsConfig(**config))
    return state.update(), ledger


class TestBudgetBound:
    def test_reference_configuration(self):
        assert budget_bound(30, (1, 3, 9), updates=200, samples=50) == 2_150_000

    def test_size_ten(self):
        assert budget_bound(10, (1, 3, 9), updates=200, samples=50) == 550_000

    def test_hardware_single_loop(self):
        assert budget_bound(8, (1,), updates=50, samples=20) == 31_000

    def test_tiled_plan(self):
        plan = make_tiles(16, 8, (1,))
        # two tiles of 8 modes, 7 couplers each
        assert budget_bound(16, updates=10, samples=5, tile_plan=plan) == 10 * 5 * (
            2 * 14 + 32 + 1
        )

    def test_dropped_loops_match_the_run(self):
        # a 5-mode run keeps loops 1 and 3 and drops 9
        handle = knapsack_handle(gen_knapsack(5, np.random.default_rng(0)))
        with pytest.warns(UserWarning, match="dropping loops"):
            result = run_bbs(handle, BbsConfig(updates=2, samples=10, loop_lengths=(1, 3, 9)))
            assert budget_bound(5, (1, 3, 9), updates=2, samples=10) == result.calls == 460
            assert budget_bound(3, (1, 3, 9), updates=1, samples=1) == 2 * 2 + 6 + 1


class TestMakeTiles:
    def test_even_split(self):
        plan = make_tiles(16, 8, (1, 3))
        assert plan.blocks == ((0, 8), (8, 8))

    def test_remainder(self):
        plan = make_tiles(18, 8, (1,))
        assert [s for _, s in plan.blocks] == [8, 8, 2]

    def test_degenerate_single_tile(self):
        plan = make_tiles(8, 8, (1, 3))
        assert plan.blocks == ((0, 8),)
        assert plan.layouts[0].loop_lengths == (1, 3)

    def test_trailing_singleton_rebalanced(self):
        plan = make_tiles(17, 8, (1,))
        assert [s for _, s in plan.blocks] == [8, 7, 2]
        assert sum(s for _, s in plan.blocks) == 17

    def test_drops_oversized_loops_per_tile(self):
        with pytest.warns(UserWarning):
            plan = make_tiles(12, 4, (1, 3, 9))
        assert all(layout.loop_lengths == (1, 3) for layout in plan.layouts)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            make_tiles(1, 0, (1,))


class TestConfigValidation:
    def test_invariants_enforced(self):
        for bad in (
            dict(updates=0),
            dict(samples=0),
            dict(shift=0.0),
            dict(shift=math.pi),
            dict(tile_size=1),
            dict(sampler_backend="qpu"),
        ):
            with pytest.raises(ValueError):
                BbsConfig(**bad)

    def test_tile_plan_partitions_modes(self):
        for m, tile in [(16, 8), (18, 8), (17, 8), (10, 4), (9, 3)]:
            plan = make_tiles(m, tile, (1,))
            covered = []
            for start, size in plan.blocks:
                covered.extend(range(start, start + size))
            assert covered == list(range(m))  # disjoint, ordered, complete
            assert all(size >= 2 for _, size in plan.blocks)


class TestInitParams:
    def test_probs_half_exactly(self):
        plan = make_plan(6, BbsConfig(updates=1, samples=1))
        params = init_params(plan, np.random.default_rng(0))
        assert (params.probs == 0.5).all()
        assert (params.alphas == 0.0).all()

    def test_deterministic(self):
        plan = make_plan(6, BbsConfig(updates=1, samples=1))
        a = init_params(plan, np.random.default_rng(3))
        b = init_params(plan, np.random.default_rng(3))
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_theta_distribution(self):
        plan = make_tiles(2, 0, (1,))
        draws = np.array(
            [init_params(plan, np.random.default_rng(s)).thetas[0] for s in range(10_000)]
        )
        sigma_mean = (2 * math.pi / math.sqrt(12)) / 100
        assert abs(draws.mean() - math.pi) < 3 * sigma_mean
        assert draws.min() >= 0 and draws.max() <= 2 * math.pi


class TestApplyBitflips:
    def test_zero_and_one_probs(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(apply_bitflips(bits, np.zeros(4), rng), bits)
        np.testing.assert_array_equal(apply_bitflips(bits, np.ones(4), rng), 1 - bits)

    def test_half_probs_uniform_exact(self):
        # enumerated: p = 1/2 makes every candidate exactly 2^-m likely
        for m in (2, 3, 4):
            thresh = {(1,) * m: 0.7, (0,) * m: 0.3}
            dist = candidate_distribution(thresh, np.full(m, 0.5))
            for p in dist.values():
                assert p == pytest.approx(2.0**-m, abs=1e-12)

    def test_half_probs_uniform_chisquare(self):
        rng = np.random.default_rng(99)
        m = 4
        base = np.tile(np.array([1, 0, 1, 0], dtype=np.uint8), (1_000_000, 1))
        flipped = apply_bitflips(base, np.full(m, 0.5), rng)
        keys = flipped @ (1 << np.arange(m - 1, -1, -1))
        counts = np.bincount(keys, minlength=16)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_bitflips(np.zeros(3, dtype=np.uint8), np.zeros(4), np.random.default_rng(0))


class TestEvalLedger:
    def test_counts_and_memo(self):
        handle = onesum_handle(4)
        ledger = EvalLedger(handle)
        bits = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]], dtype=np.uint8)
        costs = ledger.evaluate_batch(bits)
        np.testing.assert_array_equal(costs, [0, 4, 0])
        assert ledger.call_count == 3
        assert ledger.unique_count == 2
        assert ledger.best_native == 0.0
        assert ledger.best_bits == (0, 0, 0, 0)

    def test_maximize_negates(self):
        handle = knapsack_handle(gen_knapsack(4, np.random.default_rng(0)))
        ledger = EvalLedger(handle)
        internal = ledger.evaluate_batch(np.eye(4, dtype=np.uint8))
        assert (internal == -np.array([handle.eval(r) for r in np.eye(4, dtype=np.uint8)])).all()
        assert ledger.best_native == max(handle.eval(r) for r in np.eye(4, dtype=np.uint8))

    def test_nonfinite_rejected(self):
        handle = CostFunctionHandle(
            size=2, sense="minimize", eval=lambda b: float("nan"), kind="bad"
        )
        with pytest.raises(ValueError):
            EvalLedger(handle).evaluate(np.zeros(2, dtype=np.uint8))

    def test_best_is_memo_extremum(self):
        handle = onesum_handle(5)
        ledger = EvalLedger(handle)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(64, 5)).astype(np.uint8)
        ledger.evaluate_batch(bits)
        assert ledger.best_native == min(handle.eval(row) for row in bits)
        assert handle.eval(np.array(ledger.best_bits)) == ledger.best_native

    @pytest.mark.parametrize("m", [62, 63, 64, 70])
    def test_keys_distinct_past_int64(self, m):
        # the zero string and every single-bit string: m + 1 distinct keys
        bits = np.vstack([np.zeros(m), np.eye(m)]).astype(np.uint8)
        ledger = EvalLedger(constant_handle(m))
        ledger.evaluate_batch(bits)
        ledger.evaluate_batch(bits[::-1])
        assert ledger.call_count == 2 * (m + 1)
        assert ledger.unique_count == m + 1


class TestLedgerCostTable:
    """A ledger whose budget covers all 2^m strings reads the handle's cost
    table; a run must equal the same run costed batch by batch."""

    HANDLES = {
        "knapsack": lambda: knapsack_handle(gen_knapsack(8, np.random.default_rng(60))),
        "deconfliction": lambda: deconfliction_handle(
            gen_deconfliction(4, 2, 0.4, np.random.default_rng(61))
        ),
        # tour lengths are inexact floats: a row must cost the same in any batch
        "tsp": lambda: tsp_handle(gen_tsp(6, np.random.default_rng(62))),
    }

    @staticmethod
    def tabled(handle):
        return handle.__dict__.get("cost_table") is not None

    @pytest.mark.parametrize("crn", [False, True])
    @pytest.mark.parametrize("tile_size", [0, 4])
    @pytest.mark.parametrize("kind", sorted(HANDLES))
    def test_run_equals_the_batch_path(self, monkeypatch, kind, tile_size, crn):
        config = BbsConfig(
            updates=3, samples=5, seed=63, loop_lengths=(1, 2), tile_size=tile_size, crn=crn
        )
        handle = self.HANDLES[kind]()
        result = run_bbs(handle, config)
        assert result.budget >= 1 << handle.size and self.tabled(handle)
        monkeypatch.setattr(problems, "TABLE_LIMIT", 0)
        batched = self.HANDLES[kind]()
        want = run_bbs(batched, config)
        assert not self.tabled(batched)
        assert result.trace.losses == want.trace.losses
        assert result.trace.best_costs == want.trace.best_costs
        assert (result.best_bits, result.best_cost) == (want.best_bits, want.best_cost)
        assert (result.calls, result.unique_evals) == (want.calls, want.unique_evals)

    @pytest.mark.parametrize("budget", [None, (1 << 8) - 1])
    def test_no_table_below_a_covering_budget(self, budget):
        handle = self.HANDLES["knapsack"]()
        ledger = EvalLedger(handle, budget)
        ledger.evaluate_batch(np.eye(8, dtype=np.uint8))
        assert "cost_table" not in handle.__dict__
        EvalLedger(handle, 1 << 8).evaluate_batch(np.eye(8, dtype=np.uint8))
        assert self.tabled(handle)


class TestEstimateMeanCost:
    def test_constant_cost(self):
        plan = make_plan(4, BbsConfig(updates=1, samples=1))
        params = init_params(plan, np.random.default_rng(1))
        (loss, _, _), _ = one_update(plan, params, constant_handle(4), 2, samples=20)
        assert loss == 7.0

    def test_uniform_bit_sum(self):
        # p = 1/2 makes candidates uniform; E[sum] = m/2 = 2
        plan = make_plan(4, BbsConfig(updates=1, samples=1))
        params = init_params(plan, np.random.default_rng(1))
        s = 10_000
        (loss, _, _), _ = one_update(plan, params, onesum_handle(4), 3, samples=s)
        sigma = math.sqrt(4 * 0.25) / math.sqrt(s)
        assert abs(loss - 2.0) < 4 * sigma

    def test_ledger_sees_all_calls(self):
        plan = make_plan(4, BbsConfig(updates=1, samples=1))
        params = init_params(plan, np.random.default_rng(1))
        _, ledger = one_update(plan, params, onesum_handle(4), 0, samples=15)
        assert ledger.call_count == budget_bound(4, updates=1, samples=15)


class TestSgdUpdate:
    def _params(self):
        return BbsParams(thetas=np.array([1.0]), alphas=np.array([0.0]))

    def test_zero_gradients_noop(self):
        p = self._params()
        q = sgd_update(p, np.zeros(1), np.zeros(1), 0.01, 0.05)
        np.testing.assert_array_equal(q.thetas, p.thetas)
        np.testing.assert_array_equal(q.alphas, p.alphas)

    def test_theta_step(self):
        q = sgd_update(self._params(), np.array([1.0]), np.zeros(1), 0.01, 0.05)
        assert q.thetas[0] == pytest.approx(0.99)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sgd_update(self._params(), np.array([np.inf]), np.zeros(1), 0.01, 0.05)

    def test_alpha_moves_probability_downhill(self):
        # minimize C(x) = x_1: the update must push p_1 toward 0
        plan, params = photon_to_mode_two()
        handle = CostFunctionHandle(
            size=2, sense="minimize", eval=lambda b: float(b[0]), kind="bit"
        )
        (_, theta_grads, alpha_grads), _ = one_update(plan, params, handle, 0, samples=8)
        updated = sgd_update(params, theta_grads, alpha_grads, 0.01, 0.05)
        assert sigmoid(updated.alphas[0]) < 0.5


class TestGradTheta:
    def test_constant_cost_exact_zero(self):
        plan = make_plan(3, BbsConfig(updates=1, samples=1, loop_lengths=(1,)))
        params = init_params(plan, np.random.default_rng(5))
        (_, theta_grads, _), _ = one_update(
            plan, params, constant_handle(3), 6, samples=1000, shift=math.pi / 2
        )
        assert (theta_grads == 0.0).all()


def _exact_cdf(layout, thetas):
    state = evolve(input_pattern(layout.modes), layout, thetas)
    return np.cumsum(state.amplitudes**2)


def _shifted(thetas, c, delta):
    out = np.array(thetas, dtype=float)
    out[c] += delta
    return out


def _tiles(plan, params, shift, backend):
    """Each layout's tile, set to its slice of ``params.thetas``."""
    tiles = []
    for layout, sl in zip(plan.layouts, plan.theta_slices()):
        tile = _TileRuntime(layout, backend, DEFAULT_MAX_DIM, shift)
        tile.set_thetas(params.thetas[sl])
        tiles.append(tile)
    return tiles


def photon_to_mode_two():
    """A 2-mode plan whose coupler at pi/2 sends the photon to mode 2, so
    every raw sample is (0, 1), and alphas 0."""
    plan = make_tiles(2, 0, (1,))
    return plan, BbsParams(thetas=np.array([math.pi / 2]), alphas=np.zeros(2))


class TestShiftedCdfs:
    """Every batched shift-rule CDF equals the CDF of a separate evolution."""

    def check_tiles(self, plan, shift):
        params = init_params(plan, np.random.default_rng(3))
        for tile, sl in zip(_tiles(plan, params, shift, "statevector"), plan.theta_slices()):
            thetas = params.thetas[sl]
            exact = _exact_cdf(tile.layout, thetas)
            np.testing.assert_allclose(tile.cdfs[0], exact, rtol=0, atol=1e-12)
            for c in range(tile.layout.coupler_count):
                for up, delta in ((True, shift), (False, -shift)):
                    np.testing.assert_allclose(
                        tile.shifted_cdf(c, up),
                        _exact_cdf(tile.layout, _shifted(thetas, c, delta)),
                        rtol=0,
                        atol=1e-12,
                    )

    def test_untiled_plan(self):
        self.check_tiles(make_plan(7, BbsConfig(updates=1, samples=1)), math.pi / 2)

    def test_tiled_plan(self):
        plan = make_plan(10, BbsConfig(updates=1, samples=1, loop_lengths=(1, 3), tile_size=5))
        assert len(plan.layouts) == 2
        self.check_tiles(plan, math.pi / 2)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_shared_coupler_in_row_chunks(self, monkeypatch, rows):
        # a state this small normally takes each coupler in one application
        plan = make_plan(7, BbsConfig(updates=1, samples=1))
        dim = fock_dim(7, int(input_pattern(7).sum()))
        monkeypatch.setattr(engine, "_CHUNK_FLOATS", rows * dim)
        calls = []
        apply = engine.apply_coupler

        def spy(amps, table, blocks):
            calls.append(amps.shape)
            apply(amps, table, blocks)

        monkeypatch.setattr(engine, "apply_coupler", spy)
        self.check_tiles(plan, math.pi / 2)
        count = plan.theta_counts[0]
        # per coupler c: the two shifted rows, then rows 0..2c in chunks
        assert len(calls) == sum(2 + -(-(2 * c + 1) // rows) for c in range(count))
        assert max(shape[0] for shape in calls if len(shape) == 2) == rows

    def test_shift_rule_circuits_draw_from_shifted_cdfs(self, monkeypatch):
        phi = 0.3
        plan = make_plan(10, BbsConfig(updates=1, samples=1, loop_lengths=(1, 3), tile_size=5))
        params = init_params(plan, np.random.default_rng(8))
        seen = []
        draw = _TileRuntime._draw_from_cdf

        def spy(tile, cdf, rng, count):
            seen.append((tile.layout, cdf.copy()))
            return draw(tile, cdf, rng, count)

        monkeypatch.setattr(_TileRuntime, "_draw_from_cdf", spy)
        local_c = 2
        index = plan.theta_counts[0] + local_c
        one_update(plan, params, onesum_handle(10), 9, samples=5, shift=phi)
        slices = plan.theta_slices()
        expected = []
        for delta in (phi, -phi):
            for t, layout in enumerate(plan.layouts):
                thetas = params.thetas[slices[t]]
                if t == 1:
                    thetas = _shifted(thetas, local_c, delta)
                expected.append((layout, _exact_cdf(layout, thetas)))
        # draws arrive circuit by circuit, tile by tile; coupler index's
        # circuits are 2 * index + 1 (+phi) and 2 * index + 2 (-phi)
        tiles = len(plan.layouts)
        assert len(seen) == tiles * (2 * plan.total_thetas + 1)
        shifted = seen[tiles * (2 * index + 1) : tiles * (2 * index + 3)]
        assert len(shifted) == len(expected) == 4
        for (layout, cdf), (want_layout, want) in zip(shifted, expected):
            assert layout is want_layout
            np.testing.assert_allclose(cdf, want, rtol=0, atol=1e-12)


class TestShiftedUnitaries:
    """Every row of a sequential tile's unitary stack is circuit_unitary of its thetas."""

    def check_tiles(self, plan, shift):
        params = init_params(plan, np.random.default_rng(5))
        for tile, sl in zip(_tiles(plan, params, shift, "sequential"), plan.theta_slices()):
            thetas = params.thetas[sl]
            count = tile.layout.coupler_count
            assert tile.unitaries.shape == (2 * count + 1, tile.m, tile.m)
            np.testing.assert_array_equal(tile.unitaries[0], circuit_unitary(tile.layout, thetas))
            for c in range(count):
                for up, delta in ((True, shift), (False, -shift)):
                    np.testing.assert_array_equal(
                        tile.unitaries[engine._shift_row(c, up)],
                        circuit_unitary(tile.layout, _shifted(thetas, c, delta)),
                    )

    def test_untiled_plan(self):
        self.check_tiles(make_plan(17, BbsConfig(updates=1, samples=1)), math.pi / 2)

    def test_tiled_plan(self):
        plan = make_plan(10, BbsConfig(updates=1, samples=1, loop_lengths=(1, 3), tile_size=5))
        assert len(plan.layouts) == 2
        self.check_tiles(plan, 0.3)


class TestGradAlpha:
    def test_single_bit_worked_example(self):
        # raw sample (0, 1), alpha 0: (E|p=1 - E|p=0) * sigma'(0) = (1 - 0) / 4
        plan, params = photon_to_mode_two()
        handle = CostFunctionHandle(
            size=2, sense="minimize", eval=lambda b: float(b[0]), kind="bit"
        )
        (_, _, alpha_grads), _ = one_update(plan, params, handle, 0, samples=1)
        assert alpha_grads[0] == pytest.approx(0.25)

    def test_cost_independent_of_bit(self):
        plan, params = photon_to_mode_two()
        handle = CostFunctionHandle(
            size=2,
            sense="minimize",
            eval=lambda b: float(b[1]),
            kind="bit2",
            eval_batch=lambda mat: mat[:, 1].astype(float),
        )
        (_, _, alpha_grads), _ = one_update(plan, params, handle, 2, samples=2000)
        # zero in expectation; bound by 4 sigma of the Monte Carlo estimate
        assert abs(alpha_grads[0]) < 4 * 0.25 / math.sqrt(2000)
        # under crn both passes of bit 1 flip bit 2 alike
        (_, _, alpha_grads), _ = one_update(plan, params, handle, 2, samples=2000, crn=True)
        assert alpha_grads[0] == 0.0


class TestReachability:
    def test_exact_uniform_for_small_m(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 4):
            layout = build_layout(m, (1,))
            thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
            state = evolve(input_pattern(m), layout, thetas)
            thresh = threshold_distribution(output_distribution(state))
            dist = candidate_distribution(thresh, np.full(m, 0.5))
            assert len(dist) == 2**m
            for p in dist.values():
                assert p == pytest.approx(2.0**-m, abs=1e-12)


class TestRunBbs:
    CFG = BbsConfig(updates=12, samples=6, seed=42, loop_lengths=(1, 3))

    @pytest.fixture
    def updates(self, monkeypatch):
        """Every parameter set ``sgd_update`` returns during the test."""
        updates = []
        step = engine.sgd_update

        def spy(*args, **kwargs):
            updates.append(step(*args, **kwargs))
            return updates[-1]

        monkeypatch.setattr(engine, "sgd_update", spy)
        return updates

    def test_seeded_trajectory_pinned(self, updates):
        # recorded when every shifted circuit was evolved on its own; the
        # batched evolution must keep every draw, and so every value, equal
        handle = knapsack_handle(gen_knapsack(10, np.random.default_rng(2024)))
        result = run_bbs(handle, BbsConfig(updates=3, samples=50, seed=11))
        assert result.trace.losses == [-4.88, 5.22, -63.2]
        assert result.trace.best_costs == [-450.0, -450.0, -450.0]
        assert result.best_cost == 450.0
        assert result.best_bits == (1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
        assert (result.calls, result.unique_evals, result.budget) == (8250, 1021, 8250)
        assert updates[-1].thetas.tolist() == [
            -0.1679695910194648, 4.1076553294837606, 3.980325642911732,
            0.7996583558801542, 0.9474470011656759, 6.001721861426727,
            -0.9649344705848293, 0.6783937721203361, 6.321923404103224,
            5.491209853034285, 3.015452173469322, 3.312758271232508,
            4.28116510022109, 1.201216306127339, 1.8474789682975363,
            4.7163988016632405, 3.9955997725450514,
        ]
        assert updates[-1].alphas.tolist() == [
            0.12224617102251589, 1.4724764462751259, 0.6248849539473427,
            -1.2182932186283824, 0.8544168905681352, 1.377585609741615,
            -3.41391185543361, -0.4884007480847294, -0.08114763835582911,
            -1.0239460978686648,
        ]

    def test_seeded_sequential_trajectory_pinned(self, updates):
        # recorded with the per-minor Ryser sampler and one circuit_unitary
        # call per shifted circuit
        handle = knapsack_handle(gen_knapsack(10, np.random.default_rng(2024)))
        config = BbsConfig(updates=3, samples=10, seed=11, sampler_backend="sequential")
        result = run_bbs(handle, config)
        assert result.trace.losses == [-28.5, 62.0, 114.3]
        assert result.trace.best_costs == [-428.0, -450.0, -450.0]
        assert result.best_cost == 450.0
        assert result.best_bits == (1, 1, 0, 1, 1, 1, 0, 1, 1, 1)
        assert (result.calls, result.unique_evals, result.budget) == (1650, 764, 1650)
        assert updates[-1].thetas.tolist() == [
            -0.9271695910194651, 5.585055329483761, 3.6973256429117325,
            1.2512583558801542, -0.4305529988343243, 5.663121861426727,
            1.710465529415171, 1.554393772120336, 8.595523404103224,
            1.7244098530342853, 4.921452173469323, 3.903158271232508,
            5.371765100221089, 6.51781630612734, 0.2908789682975367,
            3.666398801663241, 4.145999772545052,
        ]
        assert updates[-1].alphas.tolist() == [
            -1.625605415581204, -1.0998615922951618, -1.4706152437631894,
            -2.245568923920068, -1.9179026825518624, -0.9038695838024381,
            -1.3778831568489003, -1.7284607682902122, 1.3969521784917385,
            0.16530666238472436,
        ]

    def test_finds_small_knapsack_optimum(self):
        inst = gen_knapsack(6, np.random.default_rng(0))
        handle = knapsack_handle(inst)
        result = run_bbs(handle, BbsConfig(updates=200, samples=50, seed=7))
        oracle = brute_force(handle)
        assert result.best_cost == oracle.optimum

    def test_trace_shape_and_first_loss(self):
        inst = gen_knapsack(8, np.random.default_rng(1))
        handle = knapsack_handle(inst)
        cfg = BbsConfig(updates=15, samples=40, seed=3)
        result = run_bbs(handle, cfg)
        assert len(result.trace) == 15
        # first forward pass sees uniform candidates (p = 1/2 everywhere)
        uniform_mean = np.mean(
            [-handle.eval(np.array(b)) for b in np.ndindex(*([2] * 8))]
        )
        sigma = np.std(
            [-handle.eval(np.array(b)) for b in np.ndindex(*([2] * 8))]
        ) / math.sqrt(40)
        assert abs(result.trace.losses[0] - uniform_mean) < 5 * sigma

    def test_budget_and_calls(self):
        inst = gen_knapsack(7, np.random.default_rng(2))
        handle = knapsack_handle(inst)
        result = run_bbs(handle, self.CFG)
        plan = make_plan(7, self.CFG)
        bound = budget_bound(7, updates=12, samples=6, tile_plan=plan)
        assert result.budget == bound
        assert result.calls == bound  # every request counted, hits included
        assert result.unique_evals <= result.calls

    def test_deterministic(self):
        inst = gen_knapsack(6, np.random.default_rng(4))
        handle = knapsack_handle(inst)
        a = run_bbs(handle, self.CFG)
        b = run_bbs(handle, self.CFG)
        assert a.best_bits == b.best_bits
        assert a.best_cost == b.best_cost
        np.testing.assert_array_equal(a.trace.losses, b.trace.losses)
        np.testing.assert_array_equal(
            np.array(a.trace.theta_snapshots), np.array(b.trace.theta_snapshots)
        )

    def test_best_monotone_in_minimization_sense(self):
        inst = gen_knapsack(8, np.random.default_rng(5))
        result = run_bbs(knapsack_handle(inst), self.CFG)
        best = np.array(result.trace.best_costs)
        assert (np.diff(best) <= 0).all()
        # trace is in minimization sense: knapsack values appear negated,
        # while the result reports the native (maximize) sense
        assert best[-1] == -result.best_cost

    def test_tiling_degenerate_bit_for_bit(self):
        inst = gen_knapsack(6, np.random.default_rng(6))
        handle = knapsack_handle(inst)
        untiled = run_bbs(handle, BbsConfig(updates=6, samples=5, seed=9, loop_lengths=(1,)))
        tiled = run_bbs(
            handle,
            BbsConfig(updates=6, samples=5, seed=9, loop_lengths=(1,), tile_size=6),
        )
        assert untiled.best_bits == tiled.best_bits
        assert untiled.trace.losses == tiled.trace.losses
        np.testing.assert_array_equal(
            np.array(untiled.trace.prob_snapshots), np.array(tiled.trace.prob_snapshots)
        )

    def test_tiled_run_covers_full_length(self):
        inst = gen_knapsack(10, np.random.default_rng(7))
        handle = knapsack_handle(inst)
        cfg = BbsConfig(updates=8, samples=5, seed=1, loop_lengths=(1,), tile_size=4)
        result = run_bbs(handle, cfg)
        assert len(result.best_bits) == 10
        plan = make_plan(10, cfg)
        assert [s for _, s in plan.blocks] == [4, 4, 2]
        assert result.calls == budget_bound(10, updates=8, samples=5, tile_plan=plan)

    def test_untrained_run_is_budget_matched_random_search(self):
        inst = gen_knapsack(8, np.random.default_rng(8))
        handle = knapsack_handle(inst)
        cfg = BbsConfig(updates=20, samples=10, seed=11, lr_theta=0.0, lr_alpha=0.0)
        result = run_bbs(handle, cfg)
        # parameters never move, candidates stay uniform
        assert (np.array(result.trace.prob_snapshots) == 0.5).all()
        first = result.trace.theta_snapshots[0]
        np.testing.assert_array_equal(result.trace.theta_snapshots[-1], first)
        # budget far exceeds 2^8, so uniform search must have hit the optimum
        assert result.best_cost == brute_force(handle).optimum

    def test_gradient_scale_absorbed_by_learning_rate(self):
        # doubling the shift-rule scale while halving the theta rate leaves
        # the entire trajectory untouched (alpha updates are not scaled)
        inst = gen_knapsack(6, np.random.default_rng(12))
        handle = knapsack_handle(inst)
        base = BbsConfig(
            updates=6, samples=5, seed=4, loop_lengths=(1,), lr_theta=0.01,
            gradient_scale=1.0,
        )
        doubled = BbsConfig(
            updates=6, samples=5, seed=4, loop_lengths=(1,), lr_theta=0.005,
            gradient_scale=2.0,
        )
        a = run_bbs(handle, base)
        b = run_bbs(handle, doubled)
        assert a.trace.losses == b.trace.losses
        np.testing.assert_array_equal(
            np.array(a.trace.theta_snapshots), np.array(b.trace.theta_snapshots)
        )
        assert a.best_bits == b.best_bits

    def test_crn_run_deterministic(self):
        inst = gen_knapsack(5, np.random.default_rng(13))
        handle = knapsack_handle(inst)
        cfg = BbsConfig(updates=4, samples=6, seed=2, loop_lengths=(1,), crn=True)
        a = run_bbs(handle, cfg)
        b = run_bbs(handle, cfg)
        assert a.best_bits == b.best_bits
        assert a.trace.losses == b.trace.losses
        assert a.calls == a.budget

    def test_sequential_backend_runs(self):
        inst = gen_knapsack(6, np.random.default_rng(9))
        handle = knapsack_handle(inst)
        cfg = BbsConfig(
            updates=4, samples=5, seed=2, loop_lengths=(1,), sampler_backend="sequential"
        )
        result = run_bbs(handle, cfg)
        assert len(result.trace) == 4
        assert result.calls == result.budget

    def test_trace_csv(self, tmp_path):
        inst = gen_knapsack(5, np.random.default_rng(10))
        result = run_bbs(knapsack_handle(inst), BbsConfig(updates=3, samples=4, seed=0))
        path = tmp_path / "trace.csv"
        result.trace.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("step,loss,best_cost,p_1")
        assert len(rows) == 4


class TestOnePassUpdate:
    """An update draws every pass first, then places and costs them together;
    a seeded run must equal the loop of separate passes in ``oracles``."""

    SAMPLES = [1, 2, 7, 8, 9, 50]

    @staticmethod
    def check(monkeypatch, handle, config):
        updates = []
        step = engine.sgd_update

        def spy(*args, **kwargs):
            updates.append(step(*args, **kwargs))
            return updates[-1]

        monkeypatch.setattr(engine, "sgd_update", spy)
        result = run_bbs(handle, config)
        final = updates[-1]
        want = per_pass_run(handle, config)
        assert result.trace.losses == want["losses"]
        assert result.trace.best_costs == want["best_costs"]
        assert result.best_bits == want["best_bits"]
        assert result.best_cost == want["best_cost"]
        assert (result.calls, result.unique_evals) == (want["calls"], want["unique_evals"])
        assert final.thetas.tolist() == want["thetas"]
        assert final.alphas.tolist() == want["alphas"]

    @pytest.mark.parametrize("crn", [False, True])
    @pytest.mark.parametrize("samples", SAMPLES)
    def test_statevector_untiled(self, monkeypatch, samples, crn):
        # tour lengths are inexact floats, so each mean depends on its summation order
        handle = tsp_handle(gen_tsp(6, np.random.default_rng(40)))
        config = BbsConfig(updates=3, samples=samples, seed=41, loop_lengths=(1, 3), crn=crn)
        self.check(monkeypatch, handle, config)

    @pytest.mark.parametrize("samples", [1, 7])
    def test_tiled_plan(self, monkeypatch, samples):
        handle = knapsack_handle(gen_knapsack(10, np.random.default_rng(42)))
        config = BbsConfig(updates=3, samples=samples, seed=43, loop_lengths=(1, 3), tile_size=5)
        self.check(monkeypatch, handle, config)

    @pytest.mark.parametrize("crn", [False, True])
    @pytest.mark.parametrize("samples", SAMPLES)
    def test_sequential_backend(self, monkeypatch, samples, crn):
        handle = tsp_handle(gen_tsp(6, np.random.default_rng(44)))
        config = BbsConfig(
            updates=2, samples=samples, seed=45, loop_lengths=(1, 3), crn=crn,
            sampler_backend="sequential",
        )
        self.check(monkeypatch, handle, config)

    def test_sequential_tiled_plan(self, monkeypatch):
        handle = knapsack_handle(gen_knapsack(10, np.random.default_rng(46)))
        config = BbsConfig(
            updates=2, samples=3, seed=47, loop_lengths=(1, 3), tile_size=5,
            sampler_backend="sequential",
        )
        self.check(monkeypatch, handle, config)

    def test_frozen_thetas(self, monkeypatch):
        handle = knapsack_handle(gen_knapsack(8, np.random.default_rng(48)))
        config = BbsConfig(updates=4, samples=8, seed=49, loop_lengths=(1, 3), lr_theta=0.0)
        self.check(monkeypatch, handle, config)

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_row_means_equal_separate_means(self, samples):
        # a cost table of inexact floats: every row's costs are the same in
        # one batch or in its own, so only the means' summation can differ
        m, passes = 8, 55
        rng = np.random.default_rng(samples)
        table = rng.normal(scale=1e3, size=1 << m)
        weights = 1 << np.arange(m - 1, -1, -1)
        handle = CostFunctionHandle(
            size=m, sense="minimize", eval=lambda bits: float(table[bits @ weights]),
            kind="table", eval_batch=lambda mat: table[mat.astype(np.int64) @ weights],
        )
        candidates = rng.integers(0, 2, (passes, samples, m)).astype(np.uint8)
        separate = [float(EvalLedger(handle).evaluate_batch(rows).mean()) for rows in candidates]
        assert engine._pass_means(EvalLedger(handle), candidates) == separate

    def test_tied_optima_keep_the_first_in_call_order(self, monkeypatch):
        # every string with at most one set bit is optimal
        rows = []
        evaluate = EvalLedger.evaluate_batch

        def spy(ledger, mat):
            rows.append(np.array(mat))
            return evaluate(ledger, mat)

        handle = CostFunctionHandle(
            size=6, sense="minimize", eval=lambda bits: float(bits.sum() > 1), kind="tied",
            eval_batch=lambda mat: (mat.sum(axis=1) > 1).astype(float),
        )
        config = BbsConfig(updates=3, samples=5, seed=50, loop_lengths=(1, 3))
        monkeypatch.setattr(EvalLedger, "evaluate_batch", spy)
        result = run_bbs(handle, config)
        called = np.concatenate(rows)
        optima = called[called.sum(axis=1) <= 1]
        assert len({tuple(row) for row in optima}) > 1
        assert result.best_bits == tuple(optima[0])
        self.check(monkeypatch, handle, config)
