from math import comb

import numpy as np
import pytest

from bbsolve._evolve_kernels import block_coefficients, make_blocks
from bbsolve.fock import (
    FockDimensionError,
    evolve,
    fock_dim,
    get_basis,
    output_distribution,
)
from bbsolve.interferometer import build_layout, circuit_unitary, input_pattern
from oracles import (
    beamsplitter_blocks,
    exact_distribution,
    pattern_probability,
    perm_definition,
    permanent,
)


class TestBasis:
    def test_dimension(self):
        for m, n in [(2, 1), (4, 2), (6, 3), (10, 5), (12, 6)]:
            assert fock_dim(m, n) == comb(m + n - 1, n)
            assert get_basis(m, n).patterns.shape == (fock_dim(m, n), m)

    def test_pattern_sums(self):
        basis = get_basis(5, 3)
        assert (basis.patterns.sum(axis=1) == 3).all()

    def test_canonical_order_frozen(self):
        # descending-lex order is part of the serialization contract
        basis = get_basis(3, 2)
        expected = [
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]
        assert [tuple(row) for row in basis.patterns] == expected

    def test_rank_roundtrip(self):
        for m, n in [(3, 2), (5, 3), (8, 4)]:
            basis = get_basis(m, n)
            ranks = basis.rank_rows(basis.patterns.astype(np.int64))
            np.testing.assert_array_equal(ranks, np.arange(basis.dim))


class TestEvolve:
    def test_trivial_identity(self):
        layout = build_layout(2, [1])
        state = evolve([1, 0], layout, [0.0])
        dist = output_distribution(state)
        assert dist == {(1, 0): 1.0}

    def test_balanced_single_photon(self):
        layout = build_layout(2, [1])
        state = evolve([1, 0], layout, [np.pi / 4])
        dist = output_distribution(state)
        assert dist[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(0, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_two_photon_coincidence_suppression(self):
        # two identical photons on a balanced splitter never split up
        layout = build_layout(2, [1])
        state = evolve([1, 1], layout, [np.pi / 4])
        dist = output_distribution(state)
        assert dist.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-14)
        assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = int(rng.integers(2, 8))
            layout = build_layout(m, [l for l in (1, 3) if l < m])
            thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
            state = evolve(input_pattern(m), layout, thetas)
            assert abs(np.sum(state.amplitudes**2) - 1.0) < 1e-10

    def test_norm_preserved_deep_circuit(self):
        # 23 couplers over a 12376-dimensional basis
        rng = np.random.default_rng(6)
        layout = build_layout(12, [1, 3, 9])
        thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
        state = evolve(input_pattern(12), layout, thetas)
        assert abs(np.sum(state.amplitudes**2) - 1.0) < 1e-10

    def test_single_photon_marginal(self):
        rng = np.random.default_rng(9)
        for theta in rng.uniform(0, 2 * np.pi, 10):
            layout = build_layout(2, [1])
            state = evolve([1, 0], layout, [theta])
            dist = output_distribution(state)
            assert dist.get((0, 1), 0.0) == pytest.approx(np.sin(theta) ** 2, abs=1e-12)

    def test_dimension_limit(self):
        layout = build_layout(12, [1])
        with pytest.raises(FockDimensionError):
            evolve(input_pattern(12), layout, np.zeros(11), max_dim=100)

    def test_matches_permanent_oracle(self):
        # independent route: outcome probabilities via matrix permanents
        rng = np.random.default_rng(21)
        for _ in range(6):
            m = 4
            layout = build_layout(m, [1, 3])
            thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
            inp = np.array([1, 0, 1, 0])
            state = evolve(inp, layout, thetas)
            dist = output_distribution(state)
            u = circuit_unitary(layout, thetas)
            oracle = exact_distribution(u, inp)
            for pattern, p in oracle.items():
                assert dist.get(pattern, 0.0) == pytest.approx(p, abs=1e-8)

    def test_three_photons_match_permanents(self):
        rng = np.random.default_rng(33)
        m = 6
        layout = build_layout(m, [1, 3])
        thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
        inp = input_pattern(m)
        dist = output_distribution(evolve(inp, layout, thetas))
        u = circuit_unitary(layout, thetas)
        for pattern, p in list(exact_distribution(u, inp).items())[::5]:
            assert dist.get(pattern, 0.0) == pytest.approx(p, abs=1e-8)


class TestOutputDistribution:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            layout = build_layout(m, [1])
            thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
            dist = output_distribution(evolve(input_pattern(m), layout, thetas))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


class TestBeamsplitterBlocks:
    @pytest.mark.parametrize("n", range(13))
    def test_tensor_matches_direct_expansion(self, n):
        thetas = np.random.default_rng(n).uniform(-2 * np.pi, 2 * np.pi, 8)
        blocks = make_blocks(thetas, block_coefficients(n))
        assert blocks.shape == (8, n + 1, n + 1, n + 1)
        for theta, got in zip(thetas, blocks):
            np.testing.assert_allclose(got, beamsplitter_blocks(theta, n), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_each_block_orthogonal(self, n):
        thetas = np.random.default_rng(100 + n).uniform(0, 2 * np.pi, 6)
        for blocks in make_blocks(thetas, block_coefficients(n)):
            for t in range(n + 1):
                b = blocks[t, : t + 1, : t + 1]
                np.testing.assert_allclose(b @ b.T, np.eye(t + 1), rtol=0, atol=1e-12)
                assert not blocks[t, t + 1 :].any() and not blocks[t, :, t + 1 :].any()

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_zero_angle_is_identity(self, n):
        blocks = make_blocks([0.0], block_coefficients(n))[0]
        for t in range(n + 1):
            np.testing.assert_array_equal(blocks[t, : t + 1, : t + 1], np.eye(t + 1))

    def test_coefficients_cached_on_basis(self):
        basis = get_basis(6, 3)
        assert basis.block_coef is basis.block_coef
        np.testing.assert_array_equal(basis.block_coef, block_coefficients(3))


class TestPermanent:
    def test_against_definition(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4, 5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert permanent(a) == pytest.approx(perm_definition(a), rel=1e-10)

    def test_identity(self):
        assert permanent(np.eye(4)) == pytest.approx(1.0)

    def test_ones(self):
        # permanent of all-ones n x n is n!
        assert permanent(np.ones((5, 5))) == pytest.approx(120.0)

    def test_pattern_probability_single_photon(self):
        theta = 0.7
        u = circuit_unitary(build_layout(2, [1]), [theta])
        assert pattern_probability(u, [1, 0], [0, 1]) == pytest.approx(
            np.sin(theta) ** 2, abs=1e-12
        )
