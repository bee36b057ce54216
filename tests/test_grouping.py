"""First-fit grouping and the measurement-cost score."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliblocks import (
    BlockSpec,
    Grouping,
    Hamiltonian,
    PauliString,
    Term,
    bacon_shor,
    check_grouping,
    hardcore_boson_1d,
    k_sweep,
    parse_pauli,
    r_hat,
    random_hamiltonian,
    random_insertion,
    sorted_insertion,
    tfim,
)
from pauliblocks import analysis as analysis_module
from pauliblocks import grouping as grouping_module
from pauliblocks import paulis as paulis_module


def worked_example() -> Hamiltonian:
    """4*X on qubit 0, 4*X on qubit 1, Z on qubit 1, Z0 X1: the classic
    instance where fewest groups and fewest shots disagree."""
    return Hamiltonian(
        2,
        (
            Term(4.0, parse_pauli("XI", 2)),
            Term(4.0, parse_pauli("IX", 2)),
            Term(1.0, parse_pauli("IZ", 2)),
            Term(1.0, parse_pauli("ZX", 2)),
        ),
    )


def brute_force_orders(h, blocks):
    """First-fit over every insertion order; the oracle for order effects."""
    scores = []
    for order in itertools.permutations(range(h.num_terms)):
        groups: list[list[int]] = []
        paulis = h.paulis()
        from pauliblocks import k_commutes

        for i in order:
            for g in groups:
                if all(k_commutes(paulis[i], paulis[j], blocks) for j in g):
                    g.append(i)
                    break
            else:
                groups.append([i])
        num = sum(abs(t.coefficient) for t in h.terms)
        den = sum(
            math.sqrt(sum(h.terms[j].coefficient ** 2 for j in g)) for g in groups
        )
        scores.append((num / den) ** 2)
    return scores


class TestWorkedExample:
    def test_sorted_insertion_grouping(self):
        h = worked_example()
        g = sorted_insertion(h, BlockSpec.uniform(1, 2))
        assert g.groups == ((0, 1), (2,), (3,))
        assert g.num_groups == 3

    def test_r_hat_values(self):
        h = worked_example()
        blocks = BlockSpec.uniform(1, 2)
        best = sorted_insertion(h, blocks)
        expected = (10.0 / (math.sqrt(32.0) + 2.0)) ** 2
        assert best.r_hat == pytest.approx(expected, abs=1e-12)
        alt = Grouping.from_groups(h, blocks, [[0, 2], [1, 3]])
        assert alt.r_hat == pytest.approx(100.0 / 68.0, abs=1e-12)
        assert best.r_hat > alt.r_hat

    def test_r_hat_recompute_matches_cached(self):
        h = worked_example()
        g = sorted_insertion(h, BlockSpec.uniform(1, 2))
        assert r_hat(h, g) == g.r_hat

    def test_random_insertion_mean_below_sorted(self):
        h = worked_example()
        blocks = BlockSpec.uniform(1, 2)
        sorted_score = sorted_insertion(h, blocks).r_hat
        seeded = [random_insertion(h, blocks, s).r_hat for s in range(100)]
        assert sum(seeded) / len(seeded) <= sorted_score
        # exhaustive oracle over all 4! = 24 insertion orders agrees
        all_orders = brute_force_orders(h, blocks)
        assert sum(all_orders) / len(all_orders) <= sorted_score
        assert max(all_orders) == pytest.approx(sorted_score, abs=1e-12)


class TestInsertion:
    def test_tfim_two_groups_at_k1(self):
        g = sorted_insertion(tfim(3, 1.0, 1.0), BlockSpec.uniform(1, 3))
        assert g.num_groups == 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_tfim_two_groups_any_k(self, k):
        g = sorted_insertion(tfim(8, 1.0, 1.0), BlockSpec.uniform(k, 8))
        assert g.num_groups == 2

    def test_single_term(self):
        h = Hamiltonian(2, (Term(1.0, parse_pauli("XY", 2)),))
        for k in (1, 2):
            assert sorted_insertion(h, BlockSpec.uniform(k, 2)).groups == ((0,),)
            assert random_insertion(h, BlockSpec.uniform(k, 2), seed=5).groups == ((0,),)

    def test_random_insertion_deterministic(self):
        h = random_hamiltonian(10, 2.0, seed=4)
        blocks = BlockSpec.uniform(2, 10)
        assert random_insertion(h, blocks, 11) == random_insertion(h, blocks, 11)

    def test_rejects_empty_hamiltonian(self):
        h = tfim(2)
        empty = Hamiltonian(2, ())
        with pytest.raises(ValueError):
            sorted_insertion(empty, BlockSpec.uniform(1, 2))
        with pytest.raises(ValueError):
            random_insertion(empty, BlockSpec.uniform(1, 2), 0)
        with pytest.raises(ValueError):
            sorted_insertion(h, BlockSpec.uniform(3, 3))

    def test_sorted_is_permutation_invariant_for_distinct_magnitudes(self):
        rng = random.Random(0)
        base = random_hamiltonian(8, 2.0, seed=2)
        coeffs = rng.sample(range(1, 100), base.num_terms)
        terms = [Term(float(c), t.pauli) for c, t in zip(coeffs, base.terms)]
        blocks = BlockSpec.uniform(2, 8)

        def group_contents(h):
            g = sorted_insertion(h, blocks)
            return {
                frozenset((h.terms[i].coefficient, h.terms[i].pauli) for i in grp)
                for grp in g.groups
            }

        reference = group_contents(Hamiltonian(8, tuple(terms)))
        for seed in range(5):
            shuffled = terms[:]
            random.Random(seed).shuffle(shuffled)
            assert group_contents(Hamiltonian(8, tuple(shuffled))) == reference


class TestValidityAndScore:
    @pytest.mark.parametrize(
        "h",
        [
            bacon_shor(3, 3),
            tfim(6, 1.0, 0.7),
            hardcore_boson_1d(6, 2.0, 1.0),
            random_hamiltonian(8, 2.0, seed=9),
        ],
        ids=["bacon-shor", "tfim", "hardcore", "random"],
    )
    def test_groupings_revalidate(self, h):
        for k in range(1, h.n_qubits + 1):
            blocks = BlockSpec.uniform(k, h.n_qubits)
            check_grouping(h, sorted_insertion(h, blocks))
            check_grouping(h, random_insertion(h, blocks, seed=k))

    def test_grouping_valid_at_k_stays_valid_at_multiples(self):
        h = tfim(8, 1.0, 1.0)
        g = sorted_insertion(h, BlockSpec.uniform(2, 8))
        for ck in (4, 8):
            Grouping.from_groups(h, BlockSpec.uniform(ck, 8), g.groups)

    def test_full_block_score_at_least_qubitwise_score(self):
        for h in (
            bacon_shor(3, 3),
            tfim(6),
            hardcore_boson_1d(6),
            random_hamiltonian(8, 2.0, seed=1),
        ):
            n = h.n_qubits
            fine = sorted_insertion(h, BlockSpec.uniform(1, n)).r_hat
            coarse = sorted_insertion(h, BlockSpec.uniform(n, n)).r_hat
            assert coarse >= fine

    def test_score_bounds(self):
        for seed in range(5):
            h = random_hamiltonian(9, 2.0, seed=seed)
            for k in (1, 3, 9):
                g = sorted_insertion(h, BlockSpec.uniform(k, 9))
                assert 1.0 - 1e-12 <= g.r_hat <= h.num_terms + 1e-12

    @settings(deadline=None)
    @given(
        st.integers(-1000, 1000),
        st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.integers(1, 8),
    )
    def test_score_exact_under_power_of_two_scaling(self, e, mags, signs, k):
        paulis = random_hamiltonian(8, 2.0, seed=3).paulis()
        coeffs = [-m if neg else m for m, neg in zip(mags, signs)]
        h = Hamiltonian(8, tuple(Term(c, p) for c, p in zip(coeffs, paulis)))
        scaled = Hamiltonian(
            8, tuple(Term(math.ldexp(c, e), p) for c, p in zip(coeffs, paulis))
        )
        g = sorted_insertion(h, BlockSpec.uniform(k, 8))
        assert r_hat(scaled, g) == r_hat(h, g)

    def test_singletons_score_one(self):
        h = tfim(4, 1.0, 0.3)
        blocks = BlockSpec.uniform(1, 4)
        singles = Grouping.from_groups(h, blocks, [[i] for i in range(h.num_terms)])
        assert singles.r_hat == pytest.approx(1.0, abs=1e-12)

    def test_equal_terms_in_one_group_score_is_count(self):
        h = Hamiltonian(
            2,
            (
                Term(0.7, parse_pauli("ZI", 2)),
                Term(0.7, parse_pauli("IZ", 2)),
                Term(0.7, parse_pauli("ZZ", 2)),
            ),
        )
        g = sorted_insertion(h, BlockSpec.uniform(1, 2))
        assert g.num_groups == 1
        assert g.r_hat == pytest.approx(3.0, abs=1e-12)

    def test_score_sums_left_to_right(self):
        # 1.0 plus ten small terms: a plain left-to-right sum drops every
        # small term, a compensated one (builtin sum() from Python 3.12 on)
        # keeps them, so the last bits of the score would depend on the
        # interpreter; 1e-16 tests the sum of |c|, 1e-8 the sum of squares
        n = 4
        zs = range(1, 12)  # eleven distinct Z strings, all in one group
        add = functools.partial(functools.reduce, operator.add)
        for small in (1e-16, 1e-8):
            coeffs = [1.0] + [small] * 10
            terms = (Term(c, PauliString(n, 0, z)) for c, z in zip(coeffs, zs))
            h = Hamiltonian(n, tuple(terms))
            g = sorted_insertion(h, BlockSpec.uniform(1, n))
            assert g.groups == (tuple(range(11)),)
            scaled = [c / 2.0 for c in coeffs]  # max|c| scaled into [0.5, 1)
            numerator = add([abs(c) for c in scaled], 0.0)
            squares = add([c * c for c in scaled], 0.0)
            assert squares == 0.25  # every small square dropped
            expected = (numerator / math.sqrt(squares)) ** 2
            assert g.r_hat.hex() == expected.hex()
            assert r_hat(h, g).hex() == expected.hex()
            if small == 1e-16:  # and every small |c|
                assert expected.hex() == (1.0).hex()

    def test_bacon_shor_single_group_at_column_size(self):
        g = sorted_insertion(bacon_shor(4, 4), BlockSpec.uniform(4, 16))
        assert g.num_groups == 1

    def test_from_groups_rejects_invalid(self):
        h = worked_example()
        blocks = BlockSpec.uniform(1, 2)
        with pytest.raises(ValueError):
            Grouping.from_groups(h, blocks, [[0, 1, 2, 3]])  # 2 anticommutes with 1
        with pytest.raises(ValueError):
            Grouping.from_groups(h, blocks, [[0, 1], [2]])  # not a partition
        with pytest.raises(ValueError):
            Grouping.from_groups(h, blocks, [[0, 1], [2], [3], [3]])
        with pytest.raises(ValueError, match="empty grouping"):
            Grouping.from_groups(h, blocks, [])
        # checked as a partition before the score indexes or divides by them
        for groups in ([[0, 99]], [[]], [[0.5]]):
            with pytest.raises(ValueError, match="partition"):
                Grouping.from_groups(tfim(4), BlockSpec.uniform(2, 4), groups)

    def test_partition_indices_must_be_integers(self):
        h, blocks = tfim(4), BlockSpec.uniform(2, 4)
        valid = sorted_insertion(h, blocks).groups
        # a float equal to an index is refused as a partition, not as a list index
        floats = [tuple(float(i) for i in g) for g in valid]
        with pytest.raises(ValueError, match="partition"):
            Grouping.from_groups(h, blocks, floats)
        with pytest.raises(ValueError, match="partition"):
            r_hat(h, Grouping(blocks, tuple(floats), 1.0))
        with pytest.raises(ValueError, match="partition"):
            check_grouping(h, Grouping(blocks, tuple(floats), 1.0))
        # anything with __index__ is an index, numpy integers among them, and
        # is stored as a plain int, so the grouping still dumps to JSON
        for to_index in (np.int64, np.uint8, Index):
            g = Grouping.from_groups(h, blocks, [[to_index(i) for i in g] for g in valid])
            assert g.r_hat == sorted_insertion(h, blocks).r_hat
            assert g.groups == valid
            assert all(type(i) is int for group in g.groups for i in group)
            assert json.loads(json.dumps(g.to_json_dict()))["groups"] == [list(v) for v in valid]

    def test_r_hat_rejects_non_partition(self):
        h = worked_example()
        blocks = BlockSpec.uniform(1, 2)
        g = sorted_insertion(h, blocks)
        bad = Grouping(blocks, ((0,), (1,)), 1.0)
        with pytest.raises(ValueError):
            r_hat(h, bad)
        assert r_hat(h, g) > 1.0

    def test_json_export_shape(self):
        h = worked_example()
        g = sorted_insertion(h, BlockSpec.uniform(1, 2))
        d = g.to_json_dict()
        assert d["block_sizes"] == [1, 1]
        assert d["groups"] == [[0, 1], [2], [3]]
        assert d["num_groups"] == 3
        assert d["r_hat"] == pytest.approx(g.r_hat)


class Index:
    """An integer-like object that is no int: only `__index__` makes it one."""

    def __init__(self, i):
        self.i = i

    def __index__(self):
        return self.i


def sparse_hamiltonian(n: int, count: int, seed: int) -> Hamiltonian:
    """`count` distinct strings of weight 1..6 on n qubits with signed
    log-uniform coefficients, a pure function of the seed."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < count:
        x = z = 0
        for q in rng.sample(range(n), rng.randint(1, 6)):
            letter = rng.randrange(1, 4)  # 1 = X, 2 = Z, 3 = Y
            x |= (letter & 1) << q
            z |= (letter >> 1) << q
        terms.setdefault((x, z), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.0))
    return Hamiltonian(
        n, tuple(Term(c, PauliString(n, x, z)) for (x, z), c in terms.items())
    )


# every family, random terms of weight about 1, 2 and n/2, and a large
# sparse input with many groups
COLUMN_FIT_CORPUS = {
    "bacon-shor": bacon_shor(3, 4),
    "tfim": tfim(9, 0.5, -1.5),
    "hardcore-boson": hardcore_boson_1d(8, 3.0, 1.0),
    "random-w1": random_hamiltonian(16, 1.0, seed=3),
    "random-w2": random_hamiltonian(16, 2.0, seed=3),
    "random-w8": random_hamiltonian(16, 8.0, seed=3),
    "sparse-40x2000": sparse_hamiltonian(40, 2000, seed=5),
}


def naive_anti_table(t, order):
    """`_anti_table` from each pair of terms: (antis, cuts) in rank space."""
    antis, cuts = [], set()
    for i in order:
        anti = {}  # qubit -> mask of the terms anticommuting with term i there
        even = []  # the qubits split against an even partner
        for s, j in enumerate(order):
            on = (t.xs[i] & t.zs[j]) ^ (t.zs[i] & t.xs[j])
            qs = [q for q in range(t.n_qubits) if on >> q & 1]
            for q in qs:
                anti[q] = anti.get(q, 0) | 1 << s
            if qs and len(qs) % 2 == 0:
                even += qs
        support = t.xs[i] | t.zs[i]
        antis.append([(q, anti.get(q, 0)) for q in range(t.n_qubits) if support >> q & 1])
        split = sorted(set(even))
        cuts.update(zip(split, split[1:]))
    return antis, sorted(cuts)


class TestColumnFit:
    @pytest.mark.parametrize("name", list(COLUMN_FIT_CORPUS))
    @pytest.mark.parametrize("algorithm, seed", [("sorted", None), ("random", 6)])
    def test_same_groups_as_first_fit_at_every_k(self, deadline, name, algorithm, seed):
        h = COLUMN_FIT_CORPUS[name]
        t = grouping_module._terms(h)
        order = grouping_module._order(t, algorithm, seed)
        antis, _ = grouping_module._anti_table(t, order)
        for k in range(1, h.n_qubits + 1):
            blocks = BlockSpec.uniform(k, h.n_qubits)
            expected = grouping_module._first_fit(t, blocks, order).groups
            assert grouping_module._column_fit(antis, order, blocks.home) == expected, k

    @pytest.mark.parametrize("name", list(COLUMN_FIT_CORPUS))
    @pytest.mark.parametrize("algorithm, seed", [("sorted", None), ("random", 6)])
    def test_same_groups_as_first_fit_on_any_partition(self, deadline, name, algorithm, seed):
        # seeded random compositions of n, from one block to all singletons
        h = COLUMN_FIT_CORPUS[name]
        n = h.n_qubits
        t = grouping_module._terms(h)
        order = grouping_module._order(t, algorithm, seed)
        antis, _ = grouping_module._anti_table(t, order)
        rng = random.Random(name)
        for _ in range(12):
            density = rng.random()
            cuts = [q for q in range(1, n) if rng.random() < density]
            blocks = BlockSpec([b - a for a, b in zip([0, *cuts], [*cuts, n])])
            expected = grouping_module._first_fit(t, blocks, order).groups
            assert grouping_module._column_fit(antis, order, blocks.home) == expected, blocks

    def test_columns_in_rank_space(self):
        h = Hamiltonian(3, tuple(
            Term(c, parse_pauli(s, 3)) for c, s in [(0.25, "XIZ"), (1.0, "YZI"), (0.5, "IXY")]
        ))
        t = grouping_module._terms(h)
        assert t.order == [1, 2, 0]
        # rank 0 is YZI, rank 1 IXY, rank 2 XIZ; by qubit, the x columns are
        # 0b101, 0b010, 0b010 and the z columns 0b001, 0b001, 0b110
        antis, _ = grouping_module._anti_table(t, t.order)
        assert antis == [
            [(0, 0b100), (1, 0b010)],  # Y0 reads x ^ z, Z1 reads x
            [(1, 0b001), (2, 0b100)],  # X1 reads z, Y2 reads x ^ z
            [(0, 0b001), (2, 0b010)],  # X0 reads z, Z2 reads x
        ]

    def test_anti_table_in_rank_space(self, deadline):
        # XXI and ZZI anticommute on qubits 0 and 1, an even pair; IZX
        # anticommutes with XXI on qubit 1 and with IIZ on qubit 2, odd pairs
        h = Hamiltonian(3, tuple(
            Term(c, parse_pauli(s, 3))
            for c, s in [(1.0, "XXI"), (0.5, "ZZI"), (0.25, "IIZ"), (0.125, "IZX")]
        ))
        t = grouping_module._terms(h)
        assert t.order == [0, 1, 2, 3]
        antis, cuts = grouping_module._anti_table(t, t.order)
        assert antis == [
            [(0, 0b0010), (1, 0b1010)],
            [(0, 0b0001), (1, 0b0001)],
            [(2, 0b1000)],
            [(1, 0b0001), (2, 0b0100)],
        ]
        assert cuts == [(0, 1)]
        # XXI and ZZI share a group only where one block holds both qubits
        expected = {1: ((0, 2), (1, 3)), 2: ((0, 1, 2), (3,)), 3: ((0, 1, 2), (3,))}
        for k, groups in expected.items():
            blocks = BlockSpec.uniform(k, 3)
            assert grouping_module._first_fit(t, blocks, t.order).groups == groups
            assert grouping_module._column_fit(antis, t.order, blocks.home) == groups

    def test_antis_hold_the_columns_own_ints(self):
        # every term with the same letter on a qubit reads the same column:
        # one int, not a copy per term
        t = grouping_module._terms(COLUMN_FIT_CORPUS["sparse-40x2000"])
        antis, _ = grouping_module._anti_table(t, t.order)
        columns = {}  # (qubit, x bit, z bit) -> the masks read for it
        for i, anti in zip(t.order, antis):
            for q, a in anti:
                columns.setdefault((q, t.xs[i] >> q & 1, t.zs[i] >> q & 1), []).append(a)
        assert len(columns) <= 3 * 40
        assert sum(map(len, columns.values())) > 10 * len(columns)
        for masks in columns.values():
            assert all(a is masks[0] for a in masks)

    # every corpus entry but the 2,000-term one, whose pairs the reference
    # would take seconds to walk, and seeded random widths and weights
    @pytest.mark.parametrize("name", [*list(COLUMN_FIT_CORPUS)[:-1], "random-seeded"])
    @pytest.mark.parametrize("algorithm, seed", [("sorted", None), ("random", 6)])
    def test_anti_table_matches_pairwise_reference(self, name, algorithm, seed):
        if name in COLUMN_FIT_CORPUS:
            hs = [COLUMN_FIT_CORPUS[name]]
        else:
            rng = random.Random(20)
            hs = [random_hamiltonian(rng.randint(2, 24), rng.uniform(1.0, 6.0), seed=s)
                  for s in range(12)]
        for h in hs:
            t = grouping_module._terms(h)
            order = grouping_module._order(t, algorithm, seed)
            assert grouping_module._anti_table(t, order) == naive_anti_table(t, order)

    def test_sweeps_share_uniform_block_indices(self, monkeypatch):
        # a k* scan sweeps one width many times: each relation class gets one
        # column fit, on block indices equal to the uniform BlockSpec's own
        homes = []

        def recording_fit(antis, order, home):
            homes.append(tuple(home))
            return real(antis, order, home)

        real = grouping_module._column_fit
        monkeypatch.setattr(grouping_module, "_column_fit", recording_fit)
        t = grouping_module._terms(random_hamiltonian(12, 2.0, seed=3))
        first = grouping_module._sweep_groups(t, t.order, range(1, 13))
        _, cuts = grouping_module._anti_table(t, t.order)
        classes = grouping_module._relation_classes(cuts, range(1, 13))
        assert len(homes) == len(classes) > 1
        assert homes == [BlockSpec.uniform(ks[0], 12).home for ks in classes]
        assert [k for k, _, _ in first] == list(range(1, 13))
        for k, groups, _ in first:
            blocks = BlockSpec.uniform(k, 12)
            assert groups == grouping_module._first_fit(t, blocks, t.order).groups
        assert grouping_module._sweep_groups(t, t.order, range(1, 13)) == first
        assert len(homes) == 2 * len(classes)

    def test_sweep_memory_is_linear_in_the_term_count(self, deadline):
        # the table holds references to the qubit columns, not a mask over
        # the terms per term: doubling the terms must not quadruple the peak
        peaks = []
        for count in (2000, 4000):
            t = grouping_module._terms(sparse_hamiltonian(80, count, seed=5))
            tracemalloc.start()
            try:
                grouping_module._sweep_groups(t, t.order, [1])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.5 * peaks[0], peaks

    def test_sweep_runs_without_the_kernel_and_group_uses_it(self, deadline, monkeypatch):
        h = random_hamiltonian(10, 3.0, seed=2)
        expected = k_sweep(h, range(1, 11), jobs=1)

        def boom(*args):
            raise AssertionError("block_commutes_all called")

        for module in (paulis_module, grouping_module, analysis_module):
            monkeypatch.setattr(module, "block_commutes_all", boom)
        assert k_sweep(h, range(1, 11), jobs=1) == expected
        with pytest.raises(AssertionError, match="block_commutes_all called"):
            sorted_insertion(h, BlockSpec.uniform(2, 10))
