import math

import numpy as np
import pytest

from bbsolve import sampling
from bbsolve.engine import _TileRuntime
from bbsolve.fock import DEFAULT_MAX_DIM, FockStateVector
from bbsolve.fock import evolve, output_distribution
from bbsolve.interferometer import build_layout, circuit_unitary, input_pattern
from bbsolve.sampling import resolve_backend, sample_occupations_sequential

from oracles import (
    empirical_distribution,
    permanent,
    sample_occupations_statevector,
    sample_threshold,
    threshold_distribution,
    tv_distance,
)


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

    tile = _TileRuntime(build_layout(3, [1]), "statevector", DEFAULT_MAX_DIM, math.pi / 2)
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


def test_joint_minors_are_permanents(monkeypatch):
    # spy on every placement step of seeded samples, batched as the sampler
    # batches them, and recompute each minor as a separate permanent
    calls = []
    place, minors = sampling._place_photons, sampling._placement_minors

    def spy_place(a, step_u):
        calls.append([a, None, []])
        calls[-1][1] = place(a, step_u)
        return calls[-1][1]

    def spy_minors(sums, signs, k):
        calls[-1][2].append(minors(sums, signs, k))
        return calls[-1][2][-1]

    monkeypatch.setattr(sampling, "_place_photons", spy_place)
    monkeypatch.setattr(sampling, "_placement_minors", spy_minors)
    rng = np.random.default_rng(21)
    for m, loops in [(4, (1,)), (9, (1, 3)), (12, (1,)), (15, (1, 3, 9))]:
        layout = build_layout(m, loops)
        u = circuit_unitary(layout, rng.uniform(0, 2 * np.pi, layout.coupler_count))
        sample_occupations_sequential(u, input_pattern(m), rng, 4)
    assert [a.shape[2] for a, _, _ in calls] == [2, 5, 6, 8]
    for a, rows, steps in calls:
        assert len(steps) == a.shape[2]
        for k, g in enumerate(steps, start=1):
            for s in range(len(a)):
                placed = a[s][rows[s, : k - 1], :k]
                exact = [permanent(np.delete(placed, j, axis=1)).real for j in range(k)]
                np.testing.assert_allclose(g[s], exact, rtol=0, atol=1e-12)


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


# Occupations recorded from the per-minor Ryser kernel, one string of mode
# counts per sample. The unitary is drawn from the same generator first.
PINNED_SEQUENTIAL = {
    (12, (1,), 120): """
            100012010100 020010110100 010011110010 010200110100 100012001100
            100011101100 100200110100 010200101100 100011110100 100011110100
            100200101100 000210101100 100200110100 100200110100 100003010100
            010200110100 100200101100 100200101010 010110110100 020011010100
            010201010010 010200110100 000201101010 010020110100 010020110010
            010012010100 010101101100 100200110100 000211010010 010200101010
            020100110100 100020101010 010201001010 010021010100 000030101010
            020010101010 010110101100 100020101010 020010101100 100200101100
        """,
    (13, (1, 3, 9), 130): """
            0000102120010 3001001000011 0012020110000 0001001102011
            3000101100010 0010101111001 2000001120001 0002030010010
            0010011111001 0000021101011 1020101100001 2020001100001
            0000021010012 1010201110000 0110001012001 1001011000210
            0001000121011 0010001103001 0002001101011 0010002100003
            0010111101001 1010001102001 0001200111010 0000001002121
            1010001103000 0010021102000 0001101101110 0020001101002
            1002001001011 2000001010003
        """,
    (17, (1, 3, 9), 170): """
            20002100101001100 00111003000000111 01200010100021100 00001010111200011
            00101012000001030 00101022002000010 01000010000112300 12000020001001020
            00000200201101020 00011011002100020 01101001000120110 10101010001100021
            00101101110100110 11011011000000210 01200110200002000 00110020101011010
            11111021000001000 01020020100001110 00001001001111201 01200020000011110
        """,
}


@pytest.mark.parametrize("m, loops, seed", list(PINNED_SEQUENTIAL))
def test_sequential_samples_pinned(m, loops, seed):
    # loops (1,) leave structural zeros in the unitary, so some rows have
    # weight exactly zero at some steps
    expected = PINNED_SEQUENTIAL[(m, loops, seed)].split()
    layout = build_layout(m, loops)
    rng = np.random.default_rng(seed)
    u = circuit_unitary(layout, rng.uniform(0, 2 * np.pi, layout.coupler_count))
    occ = sample_occupations_sequential(u, input_pattern(m), rng, len(expected))
    assert ["".join(map(str, row)) for row in occ] == expected


def test_sequential_zero_weights_place_by_uniform():
    # with every weight zero, a photon lands on row floor(u * m)
    m, count = 5, 200
    occ = sample_occupations_sequential(np.zeros((m, m)), [1, 1, 0, 1, 0], np.random.default_rng(4), count)
    replay = np.random.default_rng(4)
    replay.permuted(np.tile(np.arange(3), (count, 1)), axis=1)
    rows = (replay.random((count, 3)) * m).astype(np.int64)
    np.testing.assert_array_equal(occ, [np.bincount(r, minlength=m) for r in rows])
