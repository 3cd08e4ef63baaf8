import numpy as np
import pytest

from bbsolve.engine import _TileRuntime
from bbsolve.fock import DEFAULT_MAX_DIM, FockStateVector
from bbsolve.fock import evolve, output_distribution
from bbsolve.interferometer import build_layout, circuit_unitary, input_pattern
from bbsolve.sampling import (
    resolve_backend,
    sample_occupations_sequential,
    sample_occupations_statevector,
    sample_threshold,
    threshold_pattern,
)

from oracles import empirical_distribution, threshold_distribution, tv_distance


def test_threshold_pattern():
    np.testing.assert_array_equal(threshold_pattern([2, 0, 1]), [1, 0, 1])
    np.testing.assert_array_equal(threshold_pattern([0, 0]), [0, 0])


def test_photon_number_conserved():
    layout = build_layout(5, [1, 3])
    thetas = np.random.default_rng(0).uniform(0, 2 * np.pi, layout.coupler_count)
    state = evolve(input_pattern(5), layout, thetas)
    occ = sample_occupations_statevector(state, np.random.default_rng(1), 500)
    assert (occ.sum(axis=1) == 3).all()


def test_hom_coincidences_never_sampled():
    layout = build_layout(2, [1])
    state = evolve([1, 1], layout, [np.pi / 4])
    bits = sample_threshold(state, np.random.default_rng(4), 100_000)
    coincidences = np.sum((bits == 1).all(axis=1))
    assert coincidences / 100_000 <= 0.005


class _TopUniform:
    """Generator stub whose every uniform is the largest double below 1."""

    def random(self, count):
        return np.full(count, np.nextafter(1.0, 0.0))


def test_cdf_tail_draw_lands_on_last_positive_state():
    # probabilities sum to 1 - 1e-12 and the trailing states are empty, so
    # the top uniform lies beyond cdf[-1]; it must land on state 1
    state = FockStateVector(3, 1, np.sqrt([0.5, 0.5 - 1e-12, 0.0]))
    occ = sample_occupations_statevector(state, _TopUniform(), 4)
    np.testing.assert_array_equal(occ, np.tile(state.basis.patterns[1], (4, 1)))

    tile = _TileRuntime(build_layout(3, [1]), "statevector", DEFAULT_MAX_DIM)
    cdf = np.cumsum([0.5, 0.5 - 1e-12, 0.0, 0.0, 0.0, 0.0])
    bits = tile._draw_from_cdf(cdf, _TopUniform(), 4)
    np.testing.assert_array_equal(bits, np.tile(tile.basis.thresholded[1], (4, 1)))


def test_statevector_matches_oracle_tv():
    rng = np.random.default_rng(12)
    layout = build_layout(6, [1, 3])
    thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
    state = evolve(input_pattern(6), layout, thetas)
    bits = sample_threshold(state, rng, 100_000)
    oracle = threshold_distribution(output_distribution(state))
    assert tv_distance(empirical_distribution(bits), oracle) < 0.02


def test_sequential_matches_exact_distribution():
    rng = np.random.default_rng(8)
    for m, loops in [(2, [1]), (4, [1, 3]), (6, [1, 3])]:
        layout = build_layout(m, loops)
        thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
        u = circuit_unitary(layout, thetas)
        inp = input_pattern(m)
        occ = sample_occupations_sequential(u, inp, rng, 40_000)
        exact = threshold_distribution(output_distribution(evolve(inp, layout, thetas)))
        emp = empirical_distribution((occ > 0).astype(np.uint8))
        assert tv_distance(emp, exact) < 0.02


def test_two_backends_agree():
    rng = np.random.default_rng(77)
    layout = build_layout(6, [1, 3])
    thetas = rng.uniform(0, 2 * np.pi, layout.coupler_count)
    inp = input_pattern(6)
    state = evolve(inp, layout, thetas)
    bits_sv = sample_threshold(state, np.random.default_rng(1), 100_000)
    u = circuit_unitary(layout, thetas)
    bits_seq = sample_threshold(u, np.random.default_rng(2), 100_000, input_pattern=inp)
    tv = tv_distance(empirical_distribution(bits_sv), empirical_distribution(bits_seq))
    assert tv < 0.03


def test_sequential_hom():
    u = circuit_unitary(build_layout(2, [1]), [np.pi / 4])
    occ = sample_occupations_sequential(u, [1, 1], np.random.default_rng(3), 20_000)
    coincidences = np.sum((occ == 1).all(axis=1))
    assert coincidences / 20_000 <= 0.005


def test_sampling_deterministic_given_seed():
    layout = build_layout(5, [1])
    thetas = np.random.default_rng(6).uniform(0, 2 * np.pi, layout.coupler_count)
    state = evolve(input_pattern(5), layout, thetas)
    a = sample_threshold(state, np.random.default_rng(123), 1000)
    b = sample_threshold(state, np.random.default_rng(123), 1000)
    np.testing.assert_array_equal(a, b)
    u = circuit_unitary(layout, thetas)
    c = sample_threshold(u, np.random.default_rng(9), 200, input_pattern=input_pattern(5))
    d = sample_threshold(u, np.random.default_rng(9), 200, input_pattern=input_pattern(5))
    np.testing.assert_array_equal(c, d)


def test_resolve_backend():
    assert resolve_backend("auto", 4, 2) == "statevector"
    assert resolve_backend("auto", 40, 20) == "sequential"
    assert resolve_backend("sequential", 4, 2) == "sequential"
    with pytest.raises(ValueError):
        resolve_backend("qpu", 4, 2)


def test_sequential_requires_input_pattern():
    u = np.eye(3)
    with pytest.raises(ValueError):
        sample_threshold(u, np.random.default_rng(0), 5)
