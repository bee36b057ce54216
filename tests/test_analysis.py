"""Sweeps, threshold extraction, and the set-counting oracles."""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from pauliblocks import (
    BlockSpec,
    Hamiltonian,
    PauliString,
    ScalingRow,
    SweepRow,
    Term,
    bacon_shor,
    circuit_depth,
    count_block_commuting,
    count_independent_commuting_sets,
    count_linearly_independent_sets,
    diag_gate_lower_bound,
    diagonalize_group,
    enumerate_block_commuting,
    find_k_star,
    hardcore_boson_1d,
    k_commutes,
    k_star_scaling,
    k_sweep,
    max_set_size_check,
    min_circuit_depth,
    parse_pauli,
    per_block_circuits,
    random_hamiltonian,
    random_insertion,
    restrict,
    sorted_insertion,
    tfim,
)
from pauliblocks import analysis as analysis_module
from pauliblocks import clifford as clifford_module
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

    def test_counts_must_be_integers(self):
        # count_independent_commuting_sets(2.5, 1) returned 31.0 before, and
        # count_linearly_independent_sets(2.5, 1) failed an assert
        for count in (count_linearly_independent_sets, count_independent_commuting_sets):
            for args in [(2.5, 1), (3, 1.0)]:
                with pytest.raises(TypeError):
                    count(*args)
            assert count(np.int64(3), np.int64(2)) == count(3, 2)
        for args in [(4.0, 2), (4, 2.0)]:
            with pytest.raises(TypeError):
                diag_gate_lower_bound(*args)
        with pytest.raises(TypeError):
            max_set_size_check(2.0, BlockSpec([1, 1]))

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

    @staticmethod
    def left_to_right(n, r):
        terms = [math.log2(1 + 2 ** (n - k)) for k in range(r)]
        return functools.reduce(operator.add, terms) / math.log2(n * n + n + 1)

    def test_adds_left_to_right(self):
        # builtin sum() compensates from Python 3.12 on; the bound must not
        for n in range(2, 220):
            for r in sorted({1, 2, max(1, n // 2), n - 1, n}):
                assert diag_gate_lower_bound(n, r) == self.left_to_right(n, r), (n, r)
        # past m = 1023, 2^m no longer converts to a float
        assert diag_gate_lower_bound(1500, 1500) == self.left_to_right(1500, 1500)
        assert diag_gate_lower_bound(20, 20) == 24.232778599479886
        assert diag_gate_lower_bound(128, 128) == 589.327535985073

    @staticmethod
    def term_by_term(n, r):
        """The bound as one float loop over every term, widest first: the
        reference for the integer series that replaces the wide terms."""
        total = 0.0
        for m in range(n, n - r, -1):
            total += math.log2(1 + 2**m) if m < 53 else float(m)
        return total / math.log2(n * n + n + 1)

    def test_matches_term_by_term_loop_bit_for_bit(self):
        for n in range(2, 201):
            for r in range(1, n + 1):
                expected = self.term_by_term(n, r).hex()
                assert diag_gate_lower_bound(n, r).hex() == expected, (n, r)

    def test_wide_series_rounds_once(self):
        n = 10**12
        wide = (53 + n) * (n - 52) // 2  # every term from m = 53 to n
        narrow = functools.reduce(
            operator.add, (math.log2(1 + 2**m) for m in range(52, 0, -1)), float(wide)
        )
        assert diag_gate_lower_bound(n, n) == narrow / math.log2(n * n + n + 1)

    def test_rejects_n_past_sys_maxsize(self):
        for n in (sys.maxsize + 1, 10**400):
            with pytest.raises(ValueError, match=f"n={n} exceeds sys.maxsize"):
                diag_gate_lower_bound(n, 1)
        n = sys.maxsize
        assert diag_gate_lower_bound(n, 1) == float(n) / math.log2(n * n + n + 1)

    def test_wide_terms_are_exact_integers(self):
        # why the bound may skip 2^m from m = 53 on
        assert all(math.log2(1 + 2**m) == float(m) for m in range(53, 5000))

    def test_builds_no_wide_integer(self, monkeypatch):
        real = math.log2

        def narrow_log2(v):
            assert not isinstance(v, int) or v.bit_length() <= 53, "wide integer"
            return real(v)

        monkeypatch.setattr(math, "log2", narrow_log2)
        huge = diag_gate_lower_bound(100_000, 100_000)
        assert huge == pytest.approx(100_000 * 100_001 / 2 / real(100_001**2 - 100_000))

    def test_depth_floor(self):
        assert min_circuit_depth(1.39, 2) == 1
        assert min_circuit_depth(9, 4) == 3
        assert min_circuit_depth(0, 4) == 0
        with pytest.raises(ValueError, match="n must be positive"):
            min_circuit_depth(9, 0)
        with pytest.raises(TypeError):
            min_circuit_depth(10, 2.5)  # returned 4 before
        assert min_circuit_depth(10, np.int64(4)) == 3

    def test_depth_floor_of_an_int_is_its_exact_ceiling(self):
        # d / n overflows a float from about 2**1024 on
        assert min_circuit_depth(10**400, 4) == 25 * 10**398
        assert min_circuit_depth(10**400 + 1, 4) == 25 * 10**398 + 1
        assert min_circuit_depth(2**60 + 1, 2) == 2**59 + 1  # d / n rounds to 2**59
        for d in range(40):
            for n in range(1, 9):
                assert min_circuit_depth(d, n) == math.ceil(d / n) == min_circuit_depth(d + 0.0, n)

    @pytest.mark.parametrize("d_gates", [-5, -1e-9, math.nan, math.inf, -math.inf])
    def test_depth_floor_rejects_a_bad_gate_count(self, d_gates):
        with pytest.raises(ValueError, match="gate count must be finite and non-negative"):
            min_circuit_depth(d_gates, 4)


@pytest.mark.usefixtures("deadline")
class TestSweep:
    def test_block_sizes_and_jobs_must_be_integers(self):
        h = tfim(4)
        with pytest.raises(TypeError):
            k_sweep(h, [1.9, 2.2])  # returned the rows of k = 1 and 2 before
        with pytest.raises(TypeError):
            k_sweep(h, [1, 2], jobs=1.0)
        rows = k_sweep(h, np.arange(1, 5), jobs=np.int64(1))
        assert rows == k_sweep(h, range(1, 5)) and all(type(r.k) is int for r in rows)

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
        for jobs in (0, -5):
            with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
                k_sweep(h, [1, 2], jobs=jobs)

    def test_with_circuits_populates_block_columns(self):
        rows = k_sweep(bacon_shor(3, 3), [1, 3, 9], with_circuits=True)
        for row in rows:
            assert row.max_block_circuit_gates is not None
            assert row.max_block_circuit_depth is not None
            assert row.max_block_circuit_gates >= row.max_block_circuit_depth >= 0

    @staticmethod
    def round_trip_rows(h, ks, algorithm, seed):
        """The circuit columns by way of whole circuits: diagonalize each
        group, split the circuit per block, then count and layer each part."""
        rows = []
        for k in ks:
            blocks = BlockSpec.uniform(k, h.n_qubits)
            grouping = (
                sorted_insertion(h, blocks)
                if algorithm == "sorted"
                else random_insertion(h, blocks, seed)
            )
            gates = depth = 0
            paulis = h.paulis()
            for group in grouping.groups:
                circuit = diagonalize_group([paulis[i] for i in group], blocks)
                for sub in per_block_circuits(circuit, blocks):
                    gates = max(gates, sub.gate_count)
                    depth = max(depth, circuit_depth(sub))
            rows.append(SweepRow(k, grouping.num_groups, grouping.r_hat, gates, depth))
        return rows

    @pytest.mark.parametrize(
        "h",
        [bacon_shor(3, 4), tfim(7, g=0.5), hardcore_boson_1d(6),
         random_hamiltonian(10, 2.0, seed=4)],
        ids=["bacon-shor", "tfim", "hardcore-boson", "random"],
    )
    @pytest.mark.parametrize("algorithm, seed", [("sorted", None), ("random", 6)])
    def test_circuit_columns_match_whole_circuit_round_trip(
        self, h, algorithm, seed
    ):
        ks = range(1, h.n_qubits + 1)
        expected = self.round_trip_rows(h, ks, algorithm, seed)
        for jobs in (1, 2):
            rows = k_sweep(
                h, ks, algorithm=algorithm, seed=seed, with_circuits=True, jobs=jobs
            )
            assert rows == expected, jobs

    def test_circuits_need_no_pair_search_or_split(self, monkeypatch):
        # the sweep reads each block's gate list as synthesis builds it, and
        # searches the members for a failing pair only when a block fails
        def refuse(*args):
            raise AssertionError("called on the success path")

        h = random_hamiltonian(12, 3.0, seed=2)
        expected = self.round_trip_rows(h, range(1, 13), "sorted", None)
        monkeypatch.setattr(clifford_module, "first_noncommuting_pair", refuse)
        monkeypatch.setattr(clifford_module, "per_block_circuits", refuse)
        monkeypatch.setattr(analysis_module, "per_block_circuits", refuse, raising=False)
        assert k_sweep(h, range(1, 13), with_circuits=True, jobs=1) == expected

    def test_circuits_build_no_gate_or_pauli_string(self, monkeypatch):
        # the sweep synthesizes on plain (x, z) bits and (kind, qubits)
        # pairs; only diagonalize_group builds value objects
        def refuse(*args, **kwargs):
            raise AssertionError("value object built on the sweep's synthesis path")

        h = random_hamiltonian(12, 3.0, seed=2)
        expected = self.round_trip_rows(h, range(1, 13), "sorted", None)
        monkeypatch.setattr(clifford_module.Gate, "__init__", refuse)
        monkeypatch.setattr(PauliString, "__init__", refuse)
        assert k_sweep(h, range(1, 13), with_circuits=True, jobs=1) == expected

    def test_circuit_cells_build_no_block_spec(self, monkeypatch):
        # each k's cell synthesizes under the starts range(0, n, k), not
        # under a BlockSpec whose per-qubit home costs O(n) for every k
        def refuse(*args, **kwargs):
            raise AssertionError("BlockSpec built on the sweep's synthesis path")

        h = random_hamiltonian(12, 3.0, seed=2)
        expected = self.round_trip_rows(h, range(1, 13), "sorted", None)
        monkeypatch.setattr(BlockSpec, "__init__", refuse)
        assert k_sweep(h, range(1, 13), with_circuits=True, jobs=1) == expected

    def test_parallel_matches_serial(self):
        h = random_hamiltonian(10, 2.0, seed=5)
        serial = k_sweep(h, range(1, 11), jobs=1)
        parallel = k_sweep(h, range(1, 11), jobs=4)
        assert serial == parallel
        # workers rebuild each group's strings from the shared term table
        serial = k_sweep(h, range(1, 11), with_circuits=True, jobs=1)
        parallel = k_sweep(h, range(1, 11), with_circuits=True, jobs=2)
        assert serial == parallel

    def test_pool_starts_no_more_workers_than_cells(self, recording_pool):
        started, handed = recording_pool.started, recording_pool.handed

        def assert_cells_hold_only_groups(h, ks):
            # the term bitmaps, k and k's groups, in k order: no row of the
            # anticommutation table and no column mask
            t = grouping_module._terms(h)
            assert [cell[3] for cell in handed[-1]] == list(ks)
            for n, xs, zs, k, groups in handed[-1]:
                assert (n, xs, zs) == (h.n_qubits, t.xs, t.zs)
                assert groups == sorted_insertion(h, BlockSpec.uniform(k, n)).groups

        # grouping runs in this process at any jobs: in the hardcore-boson
        # chain every k is a class of its own, and still no pool starts
        h = hardcore_boson_1d(6)
        assert classes_of(h, range(1, 7)) == [[k] for k in range(1, 7)]
        assert k_sweep(h, [1, 2], jobs=64) == k_sweep(h, [1, 2], jobs=1)
        assert k_sweep(h, range(1, 7), jobs=3) == k_sweep(h, range(1, 7), jobs=1)
        assert k_sweep(h, range(1, 7), jobs=4) == k_sweep(h, range(1, 7), jobs=1)
        assert started == []
        # circuits go out one cell per k, on min(jobs, len(ks)) workers
        for ks, jobs in (([1, 2], 64), (range(1, 7), 3), (range(1, 7), 4)):
            serial = k_sweep(h, ks, with_circuits=True, jobs=1)
            assert k_sweep(h, ks, with_circuits=True, jobs=jobs) == serial
            assert_cells_hold_only_groups(h, ks)
        assert started == [2, 3, 4]
        # in the tfim chain every k shares one class, and still gets a cell
        h = tfim(6)
        assert classes_of(h, range(1, 7)) == [list(range(1, 7))]
        assert k_sweep(h, range(1, 7), jobs=3) == k_sweep(h, range(1, 7), jobs=1)
        serial = k_sweep(h, range(1, 7), with_circuits=True, jobs=1)
        assert k_sweep(h, range(1, 7), with_circuits=True, jobs=3) == serial
        assert_cells_hold_only_groups(h, range(1, 7))
        assert started == [2, 3, 4, 3]
        # one k is one cell: no pool
        assert k_sweep(h, [2], with_circuits=True, jobs=8) == serial[1:2]
        # a k* scan hands out one cell per instance
        assert k_star_scaling(tfim, [4, 5, 6], jobs=8) == k_star_scaling(tfim, [4, 5, 6])
        assert started == [2, 3, 4, 3, 3]
        assert [len(cells) for cells in handed] == [2, 6, 6, 6, 3]
        # under four cells per worker, each cell goes out on its own
        assert recording_pool.chunks == [1, 1, 1, 1, 1]

    def test_pool_starts_on_jobs_and_cells_alone(self, recording_pool):
        items = list(range(41))
        negated = [-i for i in items]
        # one item or one job starts no pool
        assert analysis_module._map(operator.neg, [3], 8) == [-3]
        assert analysis_module._map(operator.neg, items, 1) == negated
        assert recording_pool.started == []
        # two jobs and two items start one, however little the items do
        assert analysis_module._map(operator.neg, items[:2], 2) == negated[:2]
        assert recording_pool.started == [2]
        # about four chunks per worker: ceil(41 / (4 * 2)) items each
        assert analysis_module._map(operator.neg, items, 2) == negated
        assert recording_pool.started == [2, 2]
        # no more workers than items, and then one item per chunk
        assert analysis_module._map(operator.neg, items[:5], 64) == negated[:5]
        assert recording_pool.started == [2, 2, 5]
        assert recording_pool.chunks == [1, 6, 1]

    def test_circuit_sweep_defaults_to_one_job(self, recording_pool):
        # a sweep with circuits runs in this process unless `jobs` asks for
        # workers, and a sweep without circuits maps nothing either way
        h = tfim(6)
        serial = k_sweep(h, range(1, 7), with_circuits=True)
        assert recording_pool.started == []
        assert k_sweep(h, range(1, 7), with_circuits=True, jobs=3) == serial
        assert recording_pool.started == [3]
        # one cell per k, handed out in k order
        assert [cell[3] for cell in recording_pool.handed[0]] == [1, 2, 3, 4, 5, 6]
        k_sweep(h, range(1, 7), jobs=3)
        assert recording_pool.started == [3]

    def test_serial_sweep_builds_one_anticommutation_table(self, monkeypatch):
        h = hardcore_boson_1d(6)
        expected = k_sweep(h, range(1, 7), jobs=1)
        built = []  # one entry per table built

        def counting_table(*args):
            built.append(args)
            return real_table(*args)

        real_table = grouping_module._anti_table
        monkeypatch.setattr(grouping_module, "_anti_table", counting_table)
        assert k_sweep(h, range(1, 7), jobs=1) == expected
        assert len(built) == 1

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_matches_serial_under_start_method(self, tmp_path, method):
        # under these start methods every cell is pickled to its worker, and
        # a factory defined in the main script is found by name
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} is not available here")
        script = tmp_path / "pooled.py"
        script.write_text(POOLED_SCRIPT, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(script), method],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{method}\n"

    def test_rows_to_json_drop_absent_columns(self):
        assert SweepRow(2, 3, 0.5).to_json_dict() == {"k": 2, "num_groups": 3, "r_hat": 0.5}
        full = SweepRow(2, 3, 0.5, 7, 4).to_json_dict()
        assert list(full.items()) == [
            ("k", 2), ("num_groups", 3), ("r_hat", 0.5),
            ("max_block_circuit_gates", 7), ("max_block_circuit_depth", 4),
        ]
        exact = ScalingRow(4, 2, 1).to_json_dict()
        assert exact == {"n": 4, "k_star_rhat": 2, "k_star_groups": 1}
        spread = ScalingRow(4, 2.5, 1.0, 0.5, 0.0, 2).to_json_dict()
        assert list(spread.items()) == [
            ("n", 4), ("k_star_rhat", 2.5), ("k_star_groups", 1.0),
            ("k_star_rhat_std", 0.5), ("k_star_groups_std", 0.0), ("num_seeds", 2),
        ]

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


# run as a script: pooled sweeps and k* scans under the start method named by
# argv[1] must equal their serial runs. Spawned and forkserver workers
# re-import the script, so the read-bounded order of `deadline` is installed
# at module level: a column fit that accepts a term twice fails in any process.
POOLED_SCRIPT = """\
import concurrent.futures
import multiprocessing
import sys

from pauliblocks import grouping, k_star_scaling, k_sweep, random_hamiltonian, tfim


class ReadOnce(list):
    reads = 0

    def __getitem__(self, r):
        self.reads += 1
        if self.reads > len(self):
            raise AssertionError(f"column fit accepted more than {len(self)} terms")
        return super().__getitem__(r)


real_fit = grouping._column_fit
grouping._column_fit = lambda antis, order, home: real_fit(antis, ReadOnce(order), home)
started = []  # max_workers of every pool started


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        started.append(max_workers)
        super().__init__(max_workers)


def random_w2(n, seed):
    return random_hamiltonian(n, 2.0, seed)


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    concurrent.futures.ProcessPoolExecutor = CountingPool
    h = random_hamiltonian(10, 3.0, seed=2)  # nine classes of block sizes
    for circuits in (False, True):
        serial = k_sweep(h, range(1, 11), with_circuits=circuits, jobs=1)
        assert k_sweep(h, range(1, 11), with_circuits=circuits, jobs=2) == serial
    serial = k_star_scaling(tfim, [4, 5, 6])
    assert k_star_scaling(tfim, [4, 5, 6], jobs=2) == serial
    serial = k_star_scaling(random_w2, [5, 6], seeds=range(3))
    assert k_star_scaling(random_w2, [5, 6], seeds=range(3), jobs=2) == serial
    assert started == [2, 2, 2]  # the circuit sweep and both scans
    print(multiprocessing.get_start_method())
"""


def classes_of(h, ks):
    t = grouping_module._terms(h)
    _, cuts = grouping_module._anti_table(t, t.order)
    return grouping_module._relation_classes(cuts, ks)


# every family, and random instances with light (w = 2) and heavy (w = n/2)
# terms; between them they have classes of one k, of several ks, of all ks,
# and a class that is not a run of consecutive ks
SWEEP_CORPUS = {
    "bacon-shor": bacon_shor(3, 4),
    "tfim": tfim(7, g=0.5),
    "hardcore-boson": hardcore_boson_1d(6),
    "random-w2": random_hamiltonian(12, 2.0, seed=7),
    "random-w6": random_hamiltonian(12, 6.0, seed=7),
}


@pytest.mark.usefixtures("deadline")
class TestRelationClasses:
    @staticmethod
    def independent_rows(h, ks, algorithm, seed, with_circuits):
        """The sweep with nothing shared across k: its own first fit at every
        k, and with circuits the whole-circuit round trip."""
        if with_circuits:
            return TestSweep.round_trip_rows(h, ks, algorithm, seed)
        t = grouping_module._terms(h)
        rows = []
        for k in ks:
            blocks = BlockSpec.uniform(k, h.n_qubits)
            grouping = grouping_module._first_fit(
                t, blocks, grouping_module._order(t, algorithm, seed)
            )
            rows.append(SweepRow(k, grouping.num_groups, grouping.r_hat))
        return rows

    @pytest.mark.parametrize("name", list(SWEEP_CORPUS))
    @pytest.mark.parametrize("algorithm, seed", [("sorted", None), ("random", 6)])
    def test_sweep_matches_independent_grouping_at_every_k(
        self, name, algorithm, seed
    ):
        h = SWEEP_CORPUS[name]
        ks = range(1, h.n_qubits + 1)
        for with_circuits in (False, True):
            expected = self.independent_rows(h, ks, algorithm, seed, with_circuits)
            for jobs in (1, 2):
                rows = k_sweep(
                    h, ks, algorithm=algorithm, seed=seed,
                    with_circuits=with_circuits, jobs=jobs,
                )
                assert rows == expected, (with_circuits, jobs)

    def test_corpus_has_every_kind_of_class(self):
        sizes = set()
        for h in SWEEP_CORPUS.values():
            classes = classes_of(h, range(1, h.n_qubits + 1))
            sizes.update(len(c) for c in classes)
            assert sorted(k for c in classes for k in c) == list(range(1, h.n_qubits + 1))
        assert 1 in sizes and max(sizes) > 1
        assert classes_of(SWEEP_CORPUS["random-w6"], range(1, 13)) == [
            [1, 3, 9], [2, 4, 5, 6, 7, 8, 10, 11, 12]
        ]

    def test_classes_key_on_which_cuts_share_a_block(self):
        # the classes, by definition: block sizes alike in which cuts (a, b)
        # have a // k == b // k, in order of first appearance
        def by_definition(cuts, ks):
            classes = {}
            for k in ks:
                classes.setdefault(tuple(a // k == b // k for a, b in cuts), []).append(k)
            return list(classes.values())

        rng = random.Random(20)
        for _ in range(500):
            n = rng.randint(2, 40)
            pairs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))]
            cuts = sorted(set(map(tuple, pairs)))
            ks = rng.sample(range(1, n + 1), rng.randint(1, n))
            assert grouping_module._relation_classes(cuts, ks) == by_definition(cuts, ks)
        # every pair of adjacent qubits cut: each k its own class
        cuts = [(q, q + 1) for q in range(63)]
        classes = grouping_module._relation_classes(cuts, range(1, 65))
        assert classes == [[k] for k in range(1, 65)]

    @pytest.mark.parametrize("name", list(SWEEP_CORPUS))
    def test_one_class_shares_one_relation_and_one_grouping(self, name):
        h = SWEEP_CORPUS[name]
        t = grouping_module._terms(h)
        paulis = h.paulis()
        pairs = list(itertools.combinations(paulis, 2))
        for cls in classes_of(h, range(1, h.n_qubits + 1)):
            relations = set()
            groups = set()
            for k in cls:
                blocks = BlockSpec.uniform(k, h.n_qubits)
                relations.add(tuple(k_commutes(p, q, blocks) for p, q in pairs))
                for algorithm, seed in (("sorted", None), ("random", 6)):
                    grouping = grouping_module._first_fit(
                        t, blocks, grouping_module._order(t, algorithm, seed)
                    )
                    groups.add((algorithm, grouping.groups))
            assert len(relations) == 1, cls
            assert len(groups) == 2, cls

    def test_tfim_groups_once(self, monkeypatch):
        calls = []  # the block index of every grouping run

        def counting(antis, order, home):
            calls.append(home)
            return real(antis, order, home)

        real = grouping_module._column_fit
        monkeypatch.setattr(grouping_module, "_column_fit", counting)
        rows = k_sweep(tfim(8), range(1, 9), jobs=1)
        assert len(calls) == 1
        assert [r.k for r in rows] == list(range(1, 9))

    @pytest.mark.parametrize(
        "qubits, classes",
        [((1, 2), [[1, 2], [3, 4]]), ((0, 1), [[1], [2, 3, 4]]),
         ((2, 3), [[1, 3], [2, 4]]), ((0, 3), [[1, 2, 3], [4]]),
         ((1, 3), [[1, 2, 3], [4]])],
    )
    def test_even_pair_splits_where_blocks_separate_it(self, qubits, classes):
        # X and Z on the same two qubits anticommute on exactly those two
        bits = (1 << qubits[0]) | (1 << qubits[1])
        h = Hamiltonian(
            4, (Term(1.0, PauliString(4, bits, 0)), Term(0.5, PauliString(4, 0, bits)))
        )
        assert classes_of(h, range(1, 5)) == classes
        for row in k_sweep(h, range(1, 5), jobs=1):
            together = qubits[0] // row.k == qubits[1] // row.k
            assert row.num_groups == (1 if together else 2)

    def test_odd_and_disjoint_pairs_never_split(self):
        # anticommuting on one or three positions, or on none, is the same
        # under every partition
        h = Hamiltonian(4, tuple(
            Term(c, parse_pauli(s, 4))
            for c, s in [(1.0, "XXXI"), (0.5, "ZZZI"), (0.25, "IIIX"), (0.125, "ZIII")]
        ))
        assert classes_of(h, range(1, 5)) == [[1, 2, 3, 4]]
        assert classes_of(h, [3, 1]) == [[3, 1]]


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
        rows = [SweepRow(1, 2, 0.95), SweepRow(2, 2, 1.0 - 1e-12), SweepRow(3, 2, 1.0)]
        assert find_k_star(rows, rel_tol=0.0).k_star_rhat == 3  # the exact maximum
        assert find_k_star(rows).k_star_rhat == 2
        assert find_k_star(rows, rel_tol=0.1).k_star_rhat == 1

    def test_rejects_empty_and_negative_tol(self):
        with pytest.raises(ValueError):
            find_k_star([])
        for bad in (-1.0, math.nan, 1.0):
            with pytest.raises(ValueError, match="rel_tol"):
                find_k_star([SweepRow(1, 1, 1.0)], rel_tol=bad)

    def test_bacon_shor_4x4_threshold(self, deadline):
        rows = k_sweep(bacon_shor(4, 4), range(1, 17))
        res = find_k_star(rows)
        assert res.k_star_groups == 4
        assert res.k_star_rhat == 4

    def test_tfim_threshold_is_one(self, deadline):
        rows = k_sweep(tfim(8), range(1, 9))
        res = find_k_star(rows)
        assert res.k_star_rhat == 1 and res.k_star_groups == 1


@pytest.mark.usefixtures("deadline")
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

    def test_sizes_seeds_and_jobs_must_be_integers(self):
        # tfim at [4.7] reported n = 4, and seeds [1.9, 2.2] ran as 1 and 2
        random_w2 = lambda n, seed: random_hamiltonian(n, 2.0, seed)  # noqa: E731
        for kwargs in [dict(sizes=[4.7]), dict(sizes=[4], seeds=[1.9, 2.2]),
                       dict(sizes=[4], jobs=1.5)]:
            sizes = kwargs.pop("sizes")
            with pytest.raises(TypeError):
                k_star_scaling(random_w2 if "seeds" in kwargs else tfim, sizes, **kwargs)
        rows = k_star_scaling(random_w2, np.array([4, 5]), seeds=np.arange(2), jobs=np.int64(1))
        assert rows == k_star_scaling(random_w2, [4, 5], seeds=[0, 1])
        assert all(type(r.n) is int for r in rows)

    def test_scaling_defaults_to_one_job(self, recording_pool):
        random_w2 = lambda n, seed: random_hamiltonian(n, 2.0, seed)  # noqa: E731
        serial = k_star_scaling(random_w2, [5, 6], seeds=[1, 2])
        assert recording_pool.started == []
        assert k_star_scaling(random_w2, [5, 6], seeds=[1, 2], jobs=8) == serial
        # four instances, so no more than four workers
        assert recording_pool.started == [4]
        assert [cell[1:3] for cell in recording_pool.handed[0]] == [
            (5, 1), (5, 2), (6, 1), (6, 2)
        ]

    def test_scaling_builds_each_instance_once(self, recording_pool):
        # each (size, seed) instance is built by its own cell and nowhere
        # else, on a pool or not
        built = []

        def factory(n, seed):
            built.append((n, seed))
            return random_hamiltonian(n, 2.0, seed)

        for jobs in (1, 2):
            built.clear()
            k_star_scaling(factory, [6, 4, 6], seeds=[3, 1], jobs=jobs)
            assert built == [(6, 3), (6, 1), (4, 3), (4, 1)]
        built.clear()
        k_star_scaling(lambda n: built.append((n, None)) or tfim(n), [5, 3, 4])
        assert built == [(5, None), (3, None), (4, None)]

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

    def test_cells_read_k_star_from_the_sweep_itself(self, monkeypatch):
        # a k* cell takes k* from the grouped (k, groups, r_hat) triples by the
        # rule find_k_star applies to a sweep's rows, and builds no row
        random_w2 = lambda n, seed: random_hamiltonian(n, 2.0, seed)  # noqa: E731
        square = lambda n: bacon_shor(math.isqrt(n), math.isqrt(n))  # noqa: E731
        cells = [(tfim, 6, None, 1e-9), (hardcore_boson_1d, 5, None, 0.0),
                 (square, 9, None, 1e-9), (random_w2, 8, 3, 1e-9), (random_w2, 12, 1, 0.1)]
        expected = [
            find_k_star(k_sweep(f(n) if s is None else f(n, s), range(1, n + 1)), tol)
            for f, n, s, tol in cells
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a SweepRow was built")

        monkeypatch.setattr(SweepRow, "__init__", refuse)
        assert [analysis_module._scaling_cell(cell) for cell in cells] == expected
        with pytest.raises(ValueError, match=r"block size 4 out of range \[1, 3\]"):
            analysis_module._scaling_cell((lambda n: tfim(3), 4, None, 1e-9))

    def test_rejects_empty_args(self):
        with pytest.raises(ValueError):
            k_star_scaling(lambda n: tfim(n), [])
        with pytest.raises(ValueError):
            k_star_scaling(lambda n, s: random_hamiltonian(n, 2.0, s), [4], seeds=[])
        for jobs in (0, -5):
            with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
                k_star_scaling(tfim, [4], jobs=jobs)
