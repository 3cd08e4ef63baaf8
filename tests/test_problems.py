import itertools
import json
import tracemalloc
from math import factorial

import numpy as np
import pytest

from bbsolve import problems
from bbsolve.problems import (
    BruteForceResult,
    DeconflictionInstance,
    KnapsackInstance,
    TspInstance,
    brute_force,
    decode_permutation,
    deconfliction_cost,
    deconfliction_handle,
    gen_deconfliction,
    gen_knapsack,
    gen_tsp,
    instance_from_json,
    instance_to_json,
    knapsack_cost,
    knapsack_handle,
    load_instance,
    make_handle,
    save_instance,
    string_bits,
    string_index,
    tsp_bit_length,
    tsp_cost,
    tsp_handle,
)

from oracles import lex_permutation


def all_bits(m):
    return [np.array(b, dtype=np.uint8) for b in itertools.product((0, 1), repeat=m)]


class TestKnapsack:
    INST = KnapsackInstance(values=(3, 4), weights=(2, 3), capacity=4)

    def test_feasible(self):
        assert knapsack_cost(self.INST, [1, 0]) == 3.0

    def test_infeasible_penalty(self):
        assert knapsack_cost(self.INST, [1, 1]) == 7 - 7 - 1 == -1

    def test_sense_is_maximize(self):
        assert knapsack_handle(self.INST).sense == "maximize"

    def test_infeasible_always_below_feasible(self):
        rng = np.random.default_rng(42)
        for n in (4, 8, 12):
            inst = gen_knapsack(n, rng)
            weights = np.asarray(inst.weights)
            feas, infeas = [], []
            for bits in all_bits(n):
                cost = knapsack_cost(inst, bits)
                (feas if bits @ weights <= inst.capacity else infeas).append(cost)
            assert min(feas) >= 0 > max(infeas or [-1])

    def test_generator_ranges(self):
        rng = np.random.default_rng(7)
        inst = gen_knapsack(25, rng)
        assert all(1 <= v <= 100 for v in inst.values)
        assert all(1 <= w <= 100 for w in inst.weights)
        assert min(inst.weights) <= inst.capacity <= sum(inst.weights)

    def test_separation_sampled_large(self):
        rng = np.random.default_rng(3)
        inst = gen_knapsack(24, rng)
        weights = np.asarray(inst.weights)
        bits = rng.integers(0, 2, size=(5000, 24)).astype(np.uint8)
        costs = np.array([knapsack_cost(inst, b) for b in bits])
        feasible = bits @ weights <= inst.capacity
        assert (costs[feasible] >= 0).all()
        assert (costs[~feasible] < 0).all()

    def test_generator_deterministic(self):
        a = gen_knapsack(10, np.random.default_rng(5))
        b = gen_knapsack(10, np.random.default_rng(5))
        assert a == b

    def test_batch_matches_scalar(self):
        inst = gen_knapsack(9, np.random.default_rng(1))
        handle = knapsack_handle(inst)
        bits = np.random.default_rng(2).integers(0, 2, size=(40, 9)).astype(np.uint8)
        batch = handle.batch(bits)
        scalar = np.array([handle.eval(row) for row in bits])
        np.testing.assert_array_equal(batch, scalar)


class TestDeconfliction:
    @staticmethod
    def _two_by_two(conflict_pairs=()):
        cm = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for i, j, i2, j2 in conflict_pairs:
            cm[i, j, i2, j2] = 1
            cm[i2, j2, i, j] = 1
        nested = tuple(
            tuple(tuple(tuple(int(v) for v in r) for r in p) for p in b) for b in cm
        )
        return DeconflictionInstance(n_aircraft=2, n_maneuvers=2, conflicts=nested)

    def test_no_conflicts_valid_assignment(self):
        inst = self._two_by_two()
        assert deconfliction_cost(inst, [1, 0, 1, 0]) == -2.0

    def test_h1_violation(self):
        inst = self._two_by_two()
        assert deconfliction_cost(inst, [1, 1, 1, 0]) == 5 * 1 + 0 - 2 == 3.0

    def test_conflict_double_counted(self):
        inst = self._two_by_two([(0, 0, 1, 0)])
        assert deconfliction_cost(inst, [1, 0, 1, 0]) == 0 + 3 * 2 - 2 == 4.0

    def test_h1_dominates_when_no_conflicts(self):
        rng = np.random.default_rng(0)
        for n_air, k_man in [(2, 2), (3, 2), (2, 3), (3, 4)]:
            inst = gen_deconfliction(n_air, k_man, 0.0, rng)
            valid, invalid = [], []
            for bits in all_bits(n_air * k_man):
                ok = (bits.reshape(n_air, k_man).sum(axis=1) == 1).all()
                (valid if ok else invalid).append(deconfliction_cost(inst, bits))
            assert min(invalid) > max(valid)

    def test_generator_symmetry_and_self_zero(self):
        inst = gen_deconfliction(4, 3, 0.5, np.random.default_rng(3))
        cm = inst.conflict_tensor()
        for i, j, i2, j2 in itertools.product(range(4), range(3), range(4), range(3)):
            assert cm[i, j, i2, j2] == cm[i2, j2, i, j]
            if i == i2:
                assert cm[i, j, i2, j2] == 0

    def test_q_zero_optimum(self):
        inst = gen_deconfliction(3, 2, 0.0, np.random.default_rng(1))
        res = brute_force(deconfliction_handle(inst))
        assert res.optimum == -3.0
        assert res.argopt == (1, 0, 1, 0, 1, 0)

    def test_q_one_optimum_enumerated(self):
        # With every cross-aircraft pair in conflict, the flat one-maneuver
        # penalty (NK+1 = 7) is cheaper than three double-counted conflicts
        # (6 * (N+1) = 24), so the enumerated optimum violates it: a single
        # stay-on-course aircraft at cost 7 - 1 = 6.
        inst = gen_deconfliction(3, 2, 1.0, np.random.default_rng(1))
        res = brute_force(deconfliction_handle(inst))
        assert res.optimum == 6.0
        best_valid = min(
            deconfliction_cost(inst, b)
            for b in all_bits(6)
            if (b.reshape(3, 2).sum(axis=1) == 1).all()
        )
        assert best_valid == 21.0

    def test_batch_matches_scalar(self):
        inst = gen_deconfliction(3, 2, 0.4, np.random.default_rng(9))
        handle = deconfliction_handle(inst)
        bits = np.random.default_rng(4).integers(0, 2, size=(30, 6)).astype(np.uint8)
        np.testing.assert_array_equal(
            handle.batch(bits), [handle.eval(row) for row in bits]
        )

    @pytest.mark.parametrize("n_air", [10, 11])
    def test_handle_matches_reference_formula(self, n_air):
        # eval and batch share the handle's conflict matrix; deconfliction_cost
        # rebuilds it from the instance, so it checks both independently.
        # Every string of a 4x3 instance, then random strings at m = 20 and
        # m = 22, where the baselines read eval instead of the cost table.
        small = gen_deconfliction(4, 3, 0.4, np.random.default_rng(41))
        big = gen_deconfliction(n_air, 2, 0.3, np.random.default_rng(42))
        random_bits = np.random.default_rng(43).integers(0, 2, size=(200, 2 * n_air))
        for inst, bits in ((small, np.array(all_bits(12))), (big, random_bits.astype(np.uint8))):
            handle = deconfliction_handle(inst)
            reference = [deconfliction_cost(inst, row) for row in bits]
            np.testing.assert_array_equal(handle.batch(bits), reference)
            np.testing.assert_array_equal([handle.eval(row) for row in bits], reference)


class TestTspDecode:
    def test_bit_lengths(self):
        assert tsp_bit_length(5) == 5
        assert tsp_bit_length(7) == 10
        assert tsp_bit_length(10) == 19
        assert tsp_bit_length(13) == 29

    def test_zero_is_identity(self):
        np.testing.assert_array_equal(decode_permutation(np.zeros(5, int), 5), [1, 2, 3, 4])

    def test_k25_example(self):
        # 25 mod 4! = 1 -> second permutation in lexicographic order
        bits = [int(b) for b in format(25, "05b")]
        np.testing.assert_array_equal(decode_permutation(bits, 5), [1, 2, 4, 3])
        assert lex_permutation(4, 1) == (1, 2, 4, 3)

    def test_matches_lexicographic_unranking(self):
        for n in (4, 5, 6):
            n_perm = n - 1
            for k in range(factorial(n_perm)):
                m = tsp_bit_length(n)
                bits = [int(b) for b in format(k, f"0{m}b")]
                assert tuple(decode_permutation(bits, n)) == lex_permutation(n_perm, k)

    def test_surjective(self):
        for n in (4, 5, 6):
            m = tsp_bit_length(n)
            seen = set()
            for k in range(1 << m):
                bits = [int(b) for b in format(k, f"0{m}b")]
                seen.add(tuple(decode_permutation(bits, n)))
            assert len(seen) == factorial(n - 1)

    def test_cost_depends_only_on_k_mod_factorial(self):
        inst = gen_tsp(5, np.random.default_rng(0))
        m = inst.size
        for k in range(8):
            a = [int(b) for b in format(k, f"0{m}b")]
            b = [int(v) for v in format(k + 24, f"0{m}b")]
            assert tsp_cost(inst, a) == pytest.approx(tsp_cost(inst, b), rel=1e-12)


class TestTspCost:
    CORNERS = TspInstance(points=((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)))

    def test_perimeter(self):
        bits = np.zeros(self.CORNERS.size, dtype=int)  # identity decode
        assert tsp_cost(self.CORNERS, bits) == pytest.approx(4.0, abs=1e-12)

    def test_crossed_tour(self):
        # permutation (2, 1, 3): fifth entry in lexicographic order of S_3
        rank = [p for p in itertools.permutations((1, 2, 3))].index((2, 1, 3))
        bits = [int(b) for b in format(rank, f"0{self.CORNERS.size}b")]
        assert tsp_cost(self.CORNERS, bits) == pytest.approx(2 + 2 * np.sqrt(2), abs=1e-12)

    def test_start_label_invariance(self):
        # relabeling which point is index 0 leaves closed-tour lengths intact
        rng = np.random.default_rng(12)
        inst = gen_tsp(5, rng)
        pts = np.asarray(inst.points)
        lengths = set()
        for shift in range(5):
            rotated = TspInstance(points=tuple(map(tuple, np.roll(pts, shift, axis=0))))
            handle = tsp_handle(rotated)
            res = brute_force(handle)
            lengths.add(round(res.optimum, 9))
        assert len(lengths) == 1

    def test_generator(self):
        inst = gen_tsp(7, np.random.default_rng(3))
        assert inst.size == 10
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in inst.points)
        again = gen_tsp(7, np.random.default_rng(3))
        assert inst == again

    def test_batch_matches_scalar(self):
        inst = gen_tsp(6, np.random.default_rng(11))
        handle = tsp_handle(inst)
        bits = np.random.default_rng(5).integers(0, 2, size=(25, inst.size)).astype(np.uint8)
        np.testing.assert_allclose(
            handle.batch(bits), [handle.eval(row) for row in bits], rtol=1e-12
        )

    def test_batch_exact_on_every_string_at_seven_points(self):
        inst = gen_tsp(7, np.random.default_rng(13))
        bits = np.array(all_bits(inst.size))
        assert bits.shape == (1024, 10)
        np.testing.assert_array_equal(
            tsp_handle(inst).batch(bits), [tsp_cost(inst, row) for row in bits]
        )

    def test_batch_exact_past_int64(self):
        inst = gen_tsp(22, np.random.default_rng(14))
        assert inst.size == 66
        bits = np.random.default_rng(15).integers(0, 2, size=(100, 66)).astype(np.uint8)
        bits[0] = 1  # index 2^66 - 1
        np.testing.assert_array_equal(
            tsp_handle(inst).batch(bits), [tsp_cost(inst, row) for row in bits]
        )


class TestStringCodec:
    """``string_index`` and ``string_bits`` are the one map between a bit
    string and its cost-table index: bit 1 is the most significant bit."""

    @pytest.mark.parametrize("m", [1, 10, 20, 62, 63, 64, 70])
    def test_round_trip(self, m):
        rows = np.random.default_rng(m).integers(0, 2, size=(8, m), dtype=np.uint8)
        rows[0] = 1
        rows[1] = 0
        rows[2] = 0
        rows[2, 0] = 1
        indices = string_index(rows)
        assert len(indices) == len(rows)
        for row, index in zip(rows, indices):
            assert string_index(row) == index
            assert string_bits(index, m) == tuple(int(b) for b in row)
        # exact past 62 bits: from 64 bits on, these indices are >= 2^63
        assert int(indices[0]) == (1 << m) - 1
        assert int(indices[2]) == 1 << (m - 1)
        if m > 62:
            assert type(string_index(rows[0])) is int

    def test_order_is_the_cost_table_order(self):
        strings = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        assert string_index(strings).tolist() == list(range(32))
        assert [string_bits(i, 5) for i in range(32)] == [tuple(r) for r in strings.tolist()]


class TestSign:
    @pytest.mark.parametrize(
        "handle, sign",
        [
            (knapsack_handle(gen_knapsack(8, np.random.default_rng(31))), -1.0),
            (deconfliction_handle(gen_deconfliction(4, 2, 0.4, np.random.default_rng(32))), 1.0),
            (tsp_handle(gen_tsp(6, np.random.default_rng(33))), 1.0),
        ],
        ids=["knapsack", "deconfliction", "tsp"],
    )
    def test_sign_puts_the_optimum_at_the_minimum(self, handle, sign):
        assert handle.sign == sign
        table = handle.cost_table
        best = int(np.argmin(handle.sign * table))
        assert brute_force(handle).argopt == string_bits(best, handle.size)


class TestCostTable:
    """The cost table is what brute force and the baselines' search loops
    read for every string up to ``TABLE_LIMIT`` bits, so it must equal
    ``handle.eval`` exactly, string for string."""

    @pytest.mark.parametrize(
        "handle",
        [
            knapsack_handle(gen_knapsack(12, np.random.default_rng(21))),
            deconfliction_handle(gen_deconfliction(4, 3, 0.4, np.random.default_rng(22))),
            tsp_handle(gen_tsp(7, np.random.default_rng(23))),
            tsp_handle(gen_tsp(8, np.random.default_rng(24))),
        ],
        ids=["knapsack", "deconfliction", "tsp7", "tsp8"],
    )
    def test_table_matches_eval(self, handle):
        table = handle.cost_table
        assert table.shape == (1 << handle.size,)
        assert handle.cost_table is table  # tabulated once
        np.testing.assert_array_equal(
            table, [handle.eval(row) for row in all_bits(handle.size)]
        )

    @pytest.mark.parametrize(
        "make",
        [
            # optimum 8 from items {2, 3} (bits 011) and {1, 3} (bits 101)
            lambda: knapsack_handle(KnapsackInstance((5, 5, 3), (2, 2, 1), 3)),
            lambda: knapsack_handle(gen_knapsack(10, np.random.default_rng(31))),
            lambda: deconfliction_handle(gen_deconfliction(4, 2, 0.4, np.random.default_rng(32))),
            lambda: tsp_handle(gen_tsp(7, np.random.default_rng(33))),
        ],
        ids=["tied-knapsack", "knapsack", "deconfliction", "tsp7"],
    )
    def test_brute_force_table_matches_chunked_scan(self, make, monkeypatch):
        tabled = brute_force(make())
        monkeypatch.setattr(problems, "TABLE_LIMIT", 0)
        monkeypatch.setattr(problems, "_ENUM_CHUNK", 2)  # ties straddle chunks
        handle = make()
        assert handle.cost_table is None
        assert brute_force(handle) == tabled

    @pytest.mark.parametrize(
        "make",
        [
            lambda: knapsack_handle(gen_knapsack(11, np.random.default_rng(41))),
            lambda: deconfliction_handle(gen_deconfliction(4, 3, 0.4, np.random.default_rng(42))),
            lambda: tsp_handle(gen_tsp(7, np.random.default_rng(43))),
        ],
        ids=["knapsack", "deconfliction", "tsp7"],
    )
    def test_table_is_the_same_in_any_chunking(self, make, monkeypatch):
        whole = make().cost_table
        # 2^m is no multiple of 3, so the last chunk is partial
        monkeypatch.setattr(problems, "_ENUM_CHUNK", 3)
        np.testing.assert_array_equal(make().cost_table, whole)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: knapsack_handle(gen_knapsack(17, np.random.default_rng(44))),
            lambda: tsp_handle(gen_tsp(9, np.random.default_rng(45))),
            lambda: knapsack_handle(gen_knapsack(20, np.random.default_rng(46))),
        ],
        ids=["knapsack17", "tsp9", "knapsack20"],
    )
    def test_table_build_holds_one_table(self, make):
        # the costs stream into the table chunk by chunk: the build's peak
        # is the table and one chunk's temporaries, never a second table
        # (which the 8 MB table at m = 20 would show)
        handle = make()
        tracemalloc.start()
        try:
            table = handle.cost_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + (4 << 20)

    def test_tied_optimum_takes_smallest_string(self):
        res = brute_force(knapsack_handle(KnapsackInstance((5, 5, 3), (2, 2, 1), 3)))
        assert res.optimum == 8.0
        assert res.argopt == (0, 1, 1)


class TestBruteForce:
    def test_small_knapsack(self):
        res = brute_force(knapsack_handle(KnapsackInstance((3, 4), (2, 3), 4)))
        assert res.optimum == 4.0
        assert res.argopt == (0, 1)

    def test_deconfliction_cmax(self):
        inst = TestDeconfliction._two_by_two()
        res = brute_force(deconfliction_handle(inst))
        assert res.optimum == -2.0
        assert res.maximum == 5.0

    def test_constant_cost(self):
        from bbsolve.problems import CostFunctionHandle

        handle = CostFunctionHandle(
            size=3, sense="minimize", eval=lambda bits: 7.0, kind="constant"
        )
        res = brute_force(handle)
        assert res.optimum == res.maximum == 7.0
        assert res.argopt == (0, 0, 0)

    def test_matches_exhaustive_loop(self):
        rng = np.random.default_rng(8)
        inst = gen_knapsack(10, rng)
        handle = knapsack_handle(inst)
        res = brute_force(handle)
        best = max(knapsack_cost(inst, b) for b in all_bits(10))
        assert res.optimum == best

    def test_size_limit(self):
        inst = gen_tsp(13, np.random.default_rng(0))  # m = 29
        with pytest.raises(ValueError):
            brute_force(tsp_handle(inst))


class TestSerialization:
    def test_knapsack_roundtrip(self, tmp_path):
        inst = gen_knapsack(8, np.random.default_rng(13))
        path = tmp_path / "k.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_deconfliction_roundtrip(self, tmp_path):
        inst = gen_deconfliction(4, 2, 0.4, np.random.default_rng(2))
        path = tmp_path / "d.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_tsp_roundtrip_exact_floats(self, tmp_path):
        inst = gen_tsp(6, np.random.default_rng(4))
        path = tmp_path / "t.json"
        save_instance(inst, path)
        assert load_instance(path) == inst  # bit-exact float round trip

    def test_schema_keys(self):
        payload = instance_to_json(gen_knapsack(3, np.random.default_rng(0)))
        assert set(payload) == {"values", "weights", "capacity"}

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"what": 1})

    def test_self_conflict_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"N": 2, "K": 2, "conflicts": [[1, 1, 1, 2]]})

    def test_make_handle_dispatch(self):
        assert make_handle(gen_knapsack(3, np.random.default_rng(0))).kind == "knapsack"
        assert make_handle(gen_tsp(4, np.random.default_rng(0))).kind == "tsp"
        inst = gen_deconfliction(2, 2, 0.2, np.random.default_rng(0))
        assert make_handle(inst).kind == "deconfliction"
