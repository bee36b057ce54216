"""Sweeps, threshold extraction, and the set-counting oracles."""

from __future__ import annotations

import itertools
import math
import random

import mpmath
import pytest

from pauliblocks import (
    BlockSpec,
    Hamiltonian,
    PauliString,
    SweepRow,
    Term,
    bacon_shor,
    count_block_commuting,
    count_independent_commuting_sets,
    count_linearly_independent_sets,
    diag_gate_lower_bound,
    enumerate_block_commuting,
    find_k_star,
    hardcore_boson_1d,
    k_star_scaling,
    k_sweep,
    max_set_size_check,
    min_circuit_depth,
    parse_pauli,
    random_hamiltonian,
    restrict,
    tfim,
)
from pauliblocks import analysis as analysis_module
from pauliblocks import grouping as grouping_module


def compositions(n):
    """All ordered block-size compositions of n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def identity_free(p, blocks):
    return all(not restrict(p, a, b).is_identity for a, b in blocks.spans)


class TestCounting:
    def test_closed_form_examples(self):
        assert count_block_commuting(parse_pauli("XX", 2), BlockSpec([1, 1])) == 4
        assert count_block_commuting(parse_pauli("XYZ", 3), BlockSpec([1, 2])) == 16
        assert count_block_commuting(parse_pauli("ZZ", 2), BlockSpec([2])) == 8

    def test_closed_form_rejects_identity_blocks(self):
        with pytest.raises(ValueError, match="block 1"):
            count_block_commuting(parse_pauli("XI", 2), BlockSpec([1, 1]))
        with pytest.raises(ValueError):
            count_block_commuting(PauliString.identity(3), BlockSpec([3]))

    def test_enumeration_examples(self):
        assert enumerate_block_commuting(parse_pauli("XX", 2), BlockSpec([1, 1])) == 4
        assert enumerate_block_commuting(parse_pauli("ZZ", 2), BlockSpec([2])) == 8

    def test_enumeration_exposes_identity_edge_case(self):
        # identity commutes with everything, so the closed form's 4^n/2^m
        # cannot apply; the enumeration reports the true count 4^n
        assert enumerate_block_commuting(PauliString.identity(2), BlockSpec([1, 1])) == 16
        assert enumerate_block_commuting(PauliString.identity(3), BlockSpec([1, 2])) == 64

    def test_enumeration_rejects_large_n(self):
        with pytest.raises(ValueError):
            enumerate_block_commuting(PauliString.identity(9), BlockSpec([9]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_agreement_exhaustive(self, n):
        for sizes in compositions(n):
            blocks = BlockSpec(sizes)
            for x in range(1 << n):
                for z in range(1 << n):
                    p = PauliString(n, x, z)
                    if not identity_free(p, blocks):
                        continue
                    assert enumerate_block_commuting(p, blocks) == count_block_commuting(
                        p, blocks
                    )

    def test_oracle_agreement_sampled(self):
        rng = random.Random(17)
        for n in (5, 6, 7, 8):
            for _ in range(25):
                sizes = []
                left = n
                while left:
                    s = rng.randrange(1, left + 1)
                    sizes.append(s)
                    left -= s
                blocks = BlockSpec(sizes)
                x = z = 0
                for a, b in blocks.spans:
                    w = b - a
                    bx, bz = 0, 0
                    while bx == 0 and bz == 0:
                        bx, bz = rng.randrange(1 << w), rng.randrange(1 << w)
                    x |= bx << a
                    z |= bz << a
                p = PauliString(n, x, z)
                assert enumerate_block_commuting(p, blocks) == count_block_commuting(
                    p, blocks
                )


class TestMaxSetSize:
    def test_qubitwise_witness(self):
        assert max_set_size_check(2, BlockSpec([1, 1])) == 4

    def test_single_block(self):
        assert max_set_size_check(2, BlockSpec([2])) == 4

    def test_mixed_blocks(self):
        assert max_set_size_check(3, BlockSpec([1, 2])) == 8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_compositions(self, n):
        for sizes in compositions(n):
            assert max_set_size_check(n, BlockSpec(sizes)) == 2**n

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            max_set_size_check(5, BlockSpec([5]))


def _rank_f2(vectors):
    pivots = []
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return len(pivots)


class TestSetCountingHelpers:
    @pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_linear_independence_count_against_enumeration(self, dim, r):
        vectors = range(1 << dim)
        expected = sum(
            1
            for combo in itertools.combinations(vectors, r)
            if _rank_f2(list(combo)) == r
        )
        assert count_linearly_independent_sets(dim, r) == expected

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_commuting_set_count_against_enumeration(self, n, r):
        def sip(a, b):
            # symplectic product of (x|z) vectors packed as 2n-bit ints
            ax, az = a >> n, a & ((1 << n) - 1)
            bx, bz = b >> n, b & ((1 << n) - 1)
            return ((ax & bz) ^ (az & bx)).bit_count() & 1

        vectors = range(1, 1 << (2 * n))  # phaseless non-identity strings
        expected = 0
        for combo in itertools.combinations(vectors, r):
            if any(sip(a, b) for a, b in itertools.combinations(combo, 2)):
                continue
            if _rank_f2(list(combo)) == r:
                expected += 1
        assert count_independent_commuting_sets(n, r) == expected

    def test_more_generators_than_qubits_is_impossible(self):
        assert count_independent_commuting_sets(2, 3) == 0
        assert count_independent_commuting_sets(3, 5) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_linearly_independent_sets(3, 4)
        with pytest.raises(ValueError):
            count_linearly_independent_sets(0, 1)
        with pytest.raises(ValueError):
            count_independent_commuting_sets(2, 0)

    @pytest.mark.parametrize("n,r", [(2, 2), (4, 3), (6, 4), (8, 8)])
    def test_counts_reproduce_the_gate_bound(self, n, r):
        # the bound's numerator is log2 of (all independent commuting
        # r-sets) / (r-sets inside one 2^n-element commuting subgroup)
        ratio = count_independent_commuting_sets(
            n, r
        ) / count_linearly_independent_sets(n, r)
        via_counts = math.log2(ratio) / math.log2(n * n + n + 1)
        assert diag_gate_lower_bound(n, r) == pytest.approx(via_counts, rel=1e-12)


class TestGateBound:
    def test_2_2_against_high_precision(self):
        with mpmath.workdps(50):
            expected = (mpmath.log(5, 2) + mpmath.log(3, 2)) / mpmath.log(7, 2)
            assert abs(diag_gate_lower_bound(2, 2) - float(expected)) < 1e-12

    def test_4_4(self):
        assert diag_gate_lower_bound(4, 4) == pytest.approx(2.5418, abs=5e-5)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_single_pauli_case(self, n):
        expected = math.log2(1 + 2**n) / math.log2(n * n + n + 1)
        assert diag_gate_lower_bound(n, 1) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            diag_gate_lower_bound(1, 1)
        with pytest.raises(ValueError):
            diag_gate_lower_bound(4, 0)
        with pytest.raises(ValueError):
            diag_gate_lower_bound(4, 5)

    def test_depth_floor(self):
        assert min_circuit_depth(1.39, 2) == 1
        assert min_circuit_depth(9, 4) == 3
        assert min_circuit_depth(0, 4) == 0


class TestSweep:
    def test_tfim_rows(self):
        h = tfim(8, 1.0, 1.0)
        rows = k_sweep(h, range(1, 9))
        assert [r.k for r in rows] == list(range(1, 9))
        assert all(r.num_groups == 2 for r in rows)
        assert all(r.r_hat == pytest.approx(rows[0].r_hat, rel=1e-12) for r in rows)

    def test_bacon_shor_group_minimum_at_column_multiples(self):
        h = bacon_shor(4, 4)
        rows = k_sweep(h, range(1, 17))
        for row in rows:
            assert (row.num_groups == 1) == (row.k % 4 == 0)

    def test_single_term(self):
        h = Hamiltonian(3, (Term(2.0, parse_pauli("XYZ", 3)),))
        rows = k_sweep(h, range(1, 4))
        assert all(r.num_groups == 1 and r.r_hat == 1.0 for r in rows)

    def test_validates_inputs(self):
        h = tfim(4)
        with pytest.raises(ValueError):
            k_sweep(h, [])
        with pytest.raises(ValueError):
            k_sweep(h, [0])
        with pytest.raises(ValueError):
            k_sweep(h, [5])
        with pytest.raises(ValueError):
            k_sweep(h, [1], algorithm="random")  # missing seed
        with pytest.raises(ValueError):
            k_sweep(h, [1], algorithm="mystery")

    def test_with_circuits_populates_block_columns(self):
        rows = k_sweep(bacon_shor(3, 3), [1, 3, 9], with_circuits=True)
        for row in rows:
            assert row.max_block_circuit_gates is not None
            assert row.max_block_circuit_depth is not None
            assert row.max_block_circuit_gates >= row.max_block_circuit_depth >= 0

    def test_parallel_matches_serial(self):
        h = random_hamiltonian(10, 2.0, seed=5)
        serial = k_sweep(h, range(1, 11), jobs=1)
        parallel = k_sweep(h, range(1, 11), jobs=4)
        assert serial == parallel
        # workers rebuild each group's strings from the shared term table
        serial = k_sweep(h, range(1, 11), with_circuits=True, jobs=1)
        parallel = k_sweep(h, range(1, 11), with_circuits=True, jobs=2)
        assert serial == parallel

    def test_term_table_built_once_per_hamiltonian(self, monkeypatch):
        calls = []  # the width of every term table built

        def counting(h):
            calls.append(h.n_qubits)
            return real(h)

        real = grouping_module._terms
        # both modules: `analysis` holds its own reference to `_terms`
        monkeypatch.setattr(grouping_module, "_terms", counting)
        monkeypatch.setattr(analysis_module, "_terms", counting)
        k_sweep(random_hamiltonian(40, 2.0, seed=1), range(1, 41), jobs=1)
        assert calls == [40]
        calls.clear()
        k_star_scaling(
            lambda n, seed: random_hamiltonian(n, 2.0, seed), [5], seeds=range(3)
        )
        assert calls == [5, 5, 5]

    def test_random_algorithm_rows(self):
        h = random_hamiltonian(8, 2.0, seed=0)
        rows = k_sweep(h, [1, 2, 4], algorithm="random", seed=3)
        assert rows == k_sweep(h, [1, 2, 4], algorithm="random", seed=3)


class TestKStar:
    def test_constant_rows_pick_smallest_k(self):
        rows = [SweepRow(k, 3, 2.0) for k in (2, 4, 6)]
        res = find_k_star(rows)
        assert res.k_star_rhat == 2 and res.k_star_groups == 2

    def test_first_max_and_first_min(self):
        rows = [
            SweepRow(1, 4, 1.0),
            SweepRow(2, 2, 3.0),
            SweepRow(3, 2, 3.0 - 1e-15),
            SweepRow(4, 3, 2.0),
        ]
        res = find_k_star(rows)
        assert res.k_star_rhat == 2
        assert res.k_star_groups == 2

    def test_tolerance_widens_the_match(self):
        rows = [SweepRow(1, 2, 0.95), SweepRow(2, 2, 1.0)]
        assert find_k_star(rows).k_star_rhat == 2
        assert find_k_star(rows, rel_tol=0.1).k_star_rhat == 1

    def test_rejects_empty_and_negative_tol(self):
        with pytest.raises(ValueError):
            find_k_star([])
        for bad in (-1.0, math.nan, 1.0):
            with pytest.raises(ValueError, match="rel_tol"):
                find_k_star([SweepRow(1, 1, 1.0)], rel_tol=bad)

    def test_bacon_shor_4x4_threshold(self):
        rows = k_sweep(bacon_shor(4, 4), range(1, 17))
        res = find_k_star(rows)
        assert res.k_star_groups == 4
        assert res.k_star_rhat == 4

    def test_tfim_threshold_is_one(self):
        rows = k_sweep(tfim(8), range(1, 9))
        res = find_k_star(rows)
        assert res.k_star_rhat == 1 and res.k_star_groups == 1


class TestScaling:
    def test_bacon_shor_square_lattices(self):
        def factory(n):
            side = math.isqrt(n)
            return bacon_shor(side, side)

        rows = k_star_scaling(factory, [4, 9, 16])
        assert [(r.n, r.k_star_groups) for r in rows] == [(4, 2), (9, 3), (16, 4)]
        assert all(r.k_star_rhat == math.isqrt(r.n) for r in rows)
        assert all(r.num_seeds is None for r in rows)

    def test_tfim_is_flat(self):
        rows = k_star_scaling(lambda n: tfim(n), [4, 8, 16])
        assert all(r.k_star_rhat == 1 and r.k_star_groups == 1 for r in rows)

    def test_hardcore_boson_is_flat(self):
        rows = k_star_scaling(lambda n: hardcore_boson_1d(n), [4, 8])
        assert all(r.k_star_rhat == 1 and r.k_star_groups == 1 for r in rows)

    def test_random_family_reports_spread(self):
        rows = k_star_scaling(
            lambda n, seed: random_hamiltonian(n, 2.0, seed),
            [6, 8],
            seeds=range(5),
        )
        for row in rows:
            assert row.num_seeds == 5
            assert row.k_star_rhat_std is not None
            assert 1 <= row.k_star_rhat <= row.n

    def test_repeated_size_gives_one_row(self):
        def factory(n, seed):
            return random_hamiltonian(n, 2.0, seed)

        once = k_star_scaling(factory, [6, 4], seeds=range(3))
        assert k_star_scaling(factory, [6, 4, 6, 6], seeds=range(3)) == once
        assert [(r.n, r.num_seeds) for r in once] == [(6, 3), (4, 3)]
        assert k_star_scaling(tfim, [4, 4]) == k_star_scaling(tfim, [4])

    def test_rejects_empty_args(self):
        with pytest.raises(ValueError):
            k_star_scaling(lambda n: tfim(n), [])
        with pytest.raises(ValueError):
            k_star_scaling(lambda n, s: random_hamiltonian(n, 2.0, s), [4], seeds=[])
