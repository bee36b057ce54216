"""Pauli string parsing, commutativity, and block commutativity."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import matrices_commute, pauli_matrix, traced_peak
from pauliblocks import (
    BlockSpec,
    PauliString,
    commutes,
    k_commutes,
    parse_pauli,
    restrict,
)
from pauliblocks import paulis
from pauliblocks.paulis import block_commutes_all, first_noncommuting_pair


def test_qubit_count_must_be_an_integer():
    # PauliString(3.0, 1, 0) was built before, and only its render() raised
    with pytest.raises(TypeError):
        PauliString(3.0, 1, 0)
    p = PauliString(np.int64(3), 1, 0)
    assert p == PauliString(3, 1, 0) and type(p.n_qubits) is int and p.render() == "XII"


def test_bitmaps_must_be_integers():
    # a numpy integer had no bit_length(), so the range check raised
    # AttributeError on it
    p = PauliString(80, np.int64(5), np.uint8(4))
    assert p == PauliString(80, 5, 4) and type(p.x_bits) is type(p.z_bits) is int
    assert p.render().startswith("XIY")
    for bits in ((5.0, 0), (0, 4.0), ("5", 0)):
        with pytest.raises(TypeError):
            PauliString(80, *bits)


def all_paulis(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliString(n, x, z)


class TestParse:
    def test_identity(self):
        p = parse_pauli("IIII", 4)
        assert p == PauliString.identity(4)
        assert p.x_bits == 0 and p.z_bits == 0

    def test_dense_encoding(self):
        p = parse_pauli("XYZI", 4)
        # qubit 0 is leftmost: X on 0, Y on 1, Z on 2
        assert p.x_bits == 0b0011
        assert p.z_bits == 0b0110

    def test_sparse_equals_dense(self):
        assert parse_pauli("X0 Z3", 4) == parse_pauli("XIIZ", 4)

    def test_dense_tokens_may_be_spaced(self):
        assert parse_pauli("X I", 2) == parse_pauli("XI", 2)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("XQ", 2),
            ("XYZ", 4),
            ("XYZII", 4),
            ("X4", 4),
            ("X0 Z0", 4),
            ("X0 XY", 4),
            ("", 2),
            ("I0", 2),
            ("XI Z0", 4),
            ("X0 Z1 Q2", 4),
            ("X0 X0", 4),
            ("X0Z1", 4),
        ],
    )
    def test_rejects(self, text, n):
        with pytest.raises(ValueError):
            parse_pauli(text, n)

    @pytest.mark.parametrize("text", ["Y0 Y0", "Y0 X0", "Z0 Y0", "X1 Y0 Y1"])
    def test_rejects_repeated_y_index(self, text):
        # a Y sets both bits, which cancel in x ^ z: the test must read x | z
        with pytest.raises(ValueError, match=f"duplicate qubit index \\d in {text!r}"):
            parse_pauli(text, 4)

    @pytest.mark.parametrize("text", ["X4", "Z0 Y4", "X5"])
    def test_index_past_the_width_names_itself(self, text):
        # the parser's own message, not PauliString's range check
        idx = text[-1]
        with pytest.raises(ValueError, match=f"^qubit index {idx} out of range for n=4$"):
            parse_pauli(text, 4)

    def test_render(self):
        assert parse_pauli("XYZI", 4).render() == "XYZI"
        assert str(parse_pauli("Y1", 3)) == "IYI"

    @given(st.integers(1, 200) | st.integers(1000, 1100) | st.just(4096), st.data())
    def test_roundtrip(self, n, data):
        # all-I and all-Y strings among them, each bitmap all 0s or all 1s
        bits = st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1)
        x, z = data.draw(bits), data.draw(bits)
        p = PauliString(n, x, z)
        dense = p.render()
        assert dense == reference.dense_text(n, x, z)
        assert parse_pauli(dense, n) == p
        sparse = " ".join(f"{ch}{i}" for i, ch in enumerate(dense) if ch != "I")
        if sparse:
            assert parse_pauli(sparse, n) == p

    def test_wide_string_needs_no_wide_integer(self):
        p = PauliString(10**12, 1, 2)
        assert (p.n_qubits, p.x_bits, p.z_bits) == (10**12, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            PauliString(3, 8, 0)
        with pytest.raises(ValueError, match="out of range"):
            PauliString(3, 0, -1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_qubits(self, n):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            PauliString(n)

    def test_immutable(self):
        p = parse_pauli("XY", 2)
        for name in ("n_qubits", "x_bits", "z_bits"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0)
        # no new attribute either
        with pytest.raises(AttributeError):
            p.phase = 1
        assert p == parse_pauli("XY", 2)

    def test_pickle_round_trip_keeps_value_and_hash(self):
        p = parse_pauli("XIYZ", 4)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and repr(q) == "PauliString('XIYZ')"
        assert copy.deepcopy(p) == p

    def test_hashes_through_the_value_base(self):
        # no cached hash of its own: the same rule as every other value type
        assert PauliString.__slots__ == PauliString._fields == ("n_qubits", "x_bits", "z_bits")
        assert "__hash__" not in vars(PauliString)
        for n, x, z in [(1, 0, 0), (3, 1, 2), (80, 1 << 79, 5), (10**12, 1, 2)]:
            assert hash(PauliString(n, x, z)) == hash((n, x, z))

    def test_equality_is_by_value_only(self):
        assert PauliString(3, 1, 2) == PauliString(n_qubits=3, x_bits=1, z_bits=2)
        assert PauliString(3, 1, 2) != PauliString(4, 1, 2)
        assert PauliString(3, 1, 2) != (3, 1, 2)
        assert len({PauliString(3, 1, 2), PauliString(3, 1, 2)}) == 1

    def test_weight_and_support(self):
        p = parse_pauli("XIYZ", 4)
        assert p.weight == 3
        assert p.support == 0b1101


class TestCommutes:
    def test_equal_strings_commute(self):
        x = parse_pauli("X", 1)
        assert commutes(x, x)

    def test_x_z_anticommute(self):
        assert not commutes(parse_pauli("X", 1), parse_pauli("Z", 1))

    def test_xx_zz_commute_against_matrix_oracle(self):
        p, q = parse_pauli("XX", 2), parse_pauli("ZZ", 2)
        assert matrices_commute(pauli_matrix(p), pauli_matrix(q))
        assert commutes(p, q)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_matrix_oracle(self, n):
        paulis = list(all_paulis(n))
        mats = [pauli_matrix(p) for p in paulis]
        for i, j in itertools.combinations_with_replacement(range(len(paulis)), 2):
            assert commutes(paulis[i], paulis[j]) == matrices_commute(mats[i], mats[j])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="qubit count mismatch: 1 vs 2"):
            commutes(parse_pauli("X", 1), parse_pauli("XX", 2))

    def test_builds_no_block_spec(self, monkeypatch):
        # one whole-string mask decides plain commutation, at any width
        def refuse(*args):
            raise AssertionError("BlockSpec built")

        monkeypatch.setattr(paulis, "BlockSpec", refuse)
        n = 10**6
        assert not commutes(PauliString(n, 1 << (n - 1), 0), PauliString(n, 0, 1 << (n - 1)))


class TestRestrict:
    def test_prefix(self):
        assert restrict(parse_pauli("XYZ", 3), 0, 2) == parse_pauli("XY", 2)

    def test_full_range_is_identity_operation(self):
        p = parse_pauli("XYZ", 3)
        assert restrict(p, 0, 3) == p

    def test_interior(self):
        assert restrict(parse_pauli("IZII", 4), 1, 3) == parse_pauli("ZI", 2)

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (0, 5), (-1, 2)])
    def test_bad_ranges(self, a, b):
        with pytest.raises(ValueError):
            restrict(parse_pauli("XYZI", 4), a, b)


class TestBlockSpec:
    def test_uniform_divides(self):
        assert BlockSpec.uniform(2, 6).sizes == (2, 2, 2)

    def test_uniform_remainder(self):
        spec = BlockSpec.uniform(3, 7)
        assert spec.sizes == (3, 3, 1)
        assert len(spec) == 3
        assert spec.n_qubits == 7

    def test_uniform_extremes(self):
        assert BlockSpec.uniform(5, 5).sizes == (5,)
        assert BlockSpec.uniform(1, 3).sizes == (1, 1, 1)

    @pytest.mark.parametrize("k,n", [(0, 4), (5, 4), (-1, 4)])
    def test_uniform_bad_k(self, k, n):
        with pytest.raises(ValueError):
            BlockSpec.uniform(k, n)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockSpec([])
        with pytest.raises(ValueError):
            BlockSpec([2, 0, 1])

    def test_require_n(self):
        with pytest.raises(ValueError):
            BlockSpec([1, 2]).require_n(4)

    def test_starts_and_spans(self):
        spec = BlockSpec([1, 2])
        assert spec.spans == ((0, 1), (1, 3))
        assert spec.starts == (0, 1) and spec.n_qubits == 3
        assert BlockSpec.__slots__ == ("sizes", "starts", "home")

    def test_immutable(self):
        spec = BlockSpec([1, 2])
        for name in ("sizes", "spans", "starts", "home", "n_qubits"):
            with pytest.raises(AttributeError):
                setattr(spec, name, ())
        assert spec.sizes == (1, 2) and spec.starts == (0, 1)

    def test_value_semantics(self):
        spec = BlockSpec(iter([1, 2]))
        assert spec == BlockSpec((1, 2)) and hash(spec) == hash(BlockSpec([1, 2]))
        assert spec != BlockSpec((2, 1)) and spec != (1, 2)
        assert repr(spec) == "BlockSpec((1, 2))"
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and back.spans == spec.spans and back.starts == spec.starts

    def test_pickles_as_its_sizes(self):
        # the starts and homes of uniform(1, n) are 2n ints, not pickled
        spec = BlockSpec.uniform(1, 2000)
        data = pickle.dumps(spec)
        assert len(data) < 10_000
        back = pickle.loads(data)
        assert (back.spans, back.starts, back.home) == (spec.spans, spec.starts, spec.home)

    def test_memory_is_linear_in_the_qubits(self):
        # a mask per block made uniform(1, 100_000) peak at 656 MB
        spec, peak = traced_peak(lambda: BlockSpec.uniform(1, 100_000), 15)
        assert peak < 32 * 2**20, peak
        assert spec.n_qubits == 100_000

    # a float was truncated before: BlockSpec([2.7, 1.3]).sizes was (2, 1)
    @pytest.mark.parametrize("sizes", [[2.7, 1.3], [2.0, 1], ["2", 1]])
    def test_sizes_must_be_integers(self, sizes):
        with pytest.raises(TypeError):
            BlockSpec(sizes)

    @pytest.mark.parametrize("k, n", [(2.0, 4), (2, 4.0)])
    def test_uniform_needs_integers(self, k, n):
        with pytest.raises(TypeError):
            BlockSpec.uniform(k, n)

    def test_numpy_integers_become_ints(self):
        spec = BlockSpec(np.array([2, 1]))
        assert spec == BlockSpec([2, 1]) and all(type(s) is int for s in spec.sizes)
        assert BlockSpec.uniform(np.int64(2), np.int64(3)) == spec

    def test_home_is_each_qubits_block(self):
        assert BlockSpec((1, 3, 2)).home == (0, 1, 1, 1, 2, 2)
        # the identity the sweep's relation classes rely on
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert BlockSpec.uniform(k, n).home == tuple(q // k for q in range(n)), (k, n)


def assert_kernel_and_first_pair_match_letterwise_oracle(paulis, spec):
    def letterwise(p, q):
        a, b = p.render(), q.render()
        return all(
            sum(x != "I" != y != x for x, y in zip(a[s:e], b[s:e])) % 2 == 0
            for s, e in spec
        )

    p, rest = paulis[0], paulis[1:]
    assert block_commutes_all(
        p.x_bits, p.z_bits, [(q.x_bits, q.z_bits) for q in rest], spec.starts
    ) == all(letterwise(p, q) for q in rest)
    bad = [
        (a, b)
        for a, b in itertools.combinations(range(len(paulis)), 2)
        if not letterwise(paulis[a], paulis[b])
    ]
    assert first_noncommuting_pair(paulis, spec) == (bad[0] if bad else None)


class TestKCommutes:
    def test_two_commuting_example(self):
        p, q = parse_pauli("XXYY", 4), parse_pauli("ZZXX", 4)
        assert k_commutes(p, q, BlockSpec.uniform(2, 4))
        # both aligned blocks commute individually
        assert commutes(restrict(p, 0, 2), restrict(q, 0, 2))
        assert commutes(restrict(p, 2, 4), restrict(q, 2, 4))

    def test_all_x_vs_all_z(self):
        p, q = parse_pauli("XXXX", 4), parse_pauli("ZZZZ", 4)
        assert k_commutes(p, q, BlockSpec.uniform(2, 4))
        assert not k_commutes(p, q, BlockSpec.uniform(1, 4))

    def test_block_matrix_oracle(self):
        p, q = parse_pauli("XY", 2), parse_pauli("ZZ", 2)
        for k in (1, 2):
            spec = BlockSpec.uniform(k, 2)
            expected = all(
                matrices_commute(
                    pauli_matrix(restrict(p, a, b)), pauli_matrix(restrict(q, a, b))
                )
                for a, b in spec.spans
            )
            assert k_commutes(p, q, spec) == expected
        assert not k_commutes(p, q, BlockSpec.uniform(1, 2))
        assert k_commutes(p, q, BlockSpec.uniform(2, 2))

    def test_mismatched_blocks(self):
        with pytest.raises(ValueError):
            k_commutes(parse_pauli("XX", 2), parse_pauli("ZZ", 2), BlockSpec([3]))

    @settings(deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_kernel_and_first_pair_match_letterwise_oracle(self, n, data):
        spec = BlockSpec.uniform(data.draw(st.integers(1, n)), n)
        bits = st.integers(0, (1 << n) - 1)
        paulis = [
            PauliString(n, data.draw(bits), data.draw(bits))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        assert_kernel_and_first_pair_match_letterwise_oracle(paulis, spec)

    @settings(deadline=None)
    @given(st.integers(1, 300), st.data())
    def test_sparse_strings_on_uneven_blocks_match_letterwise_oracle(self, n, data):
        # a few qubits anywhere on up to 300, so the anticommuting bits often
        # end blocks before the last start, where the kernel stops
        cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=8)) if n > 1 else set()
        spec = BlockSpec(b - a for a, b in itertools.pairwise([0, *sorted(cuts), n]))
        qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
        bits = st.sets(st.sampled_from(qubits)).map(lambda qs: sum(1 << q for q in qs))
        paulis = [
            PauliString(n, data.draw(bits), data.draw(bits))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        assert_kernel_and_first_pair_match_letterwise_oracle(paulis, spec)

    @settings(deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_symmetric(self, n, data):
        x1 = data.draw(st.integers(0, (1 << n) - 1))
        z1 = data.draw(st.integers(0, (1 << n) - 1))
        x2 = data.draw(st.integers(0, (1 << n) - 1))
        z2 = data.draw(st.integers(0, (1 << n) - 1))
        k = data.draw(st.integers(1, n))
        p, q = PauliString(n, x1, z1), PauliString(n, x2, z2)
        spec = BlockSpec.uniform(k, n)
        assert k_commutes(p, q, spec) == k_commutes(q, p, spec)

    def test_k_equals_n_matches_full_commutation(self):
        for n in (1, 2, 3):
            spec = BlockSpec.uniform(n, n)
            for p in all_paulis(n):
                for q in all_paulis(n):
                    assert k_commutes(p, q, spec) == commutes(p, q)

    def test_k_equals_one_is_per_qubit(self):
        for n in (1, 2, 3):
            spec = BlockSpec.uniform(1, n)
            for p in all_paulis(n):
                for q in all_paulis(n):
                    expected = all(
                        commutes(restrict(p, i, i + 1), restrict(q, i, i + 1))
                        for i in range(n)
                    )
                    assert k_commutes(p, q, spec) == expected


class TestCoarseningImplication:
    """Block commutativity at size k implies it at every multiple ck."""

    def test_exhaustive_small(self):
        n = 2
        fine = BlockSpec.uniform(1, n)
        coarse = BlockSpec.uniform(2, n)
        for p in all_paulis(n):
            for q in all_paulis(n):
                if k_commutes(p, q, fine):
                    assert k_commutes(p, q, coarse)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_sampled_up_to_64(self, data):
        n = data.draw(st.sampled_from([8, 12, 16, 24, 32, 48, 64]))
        divisors = [k for k in range(1, n) if n % k == 0]
        k = data.draw(st.sampled_from(divisors))
        multiples = [c * k for c in range(2, n // k + 1) if n % (c * k) == 0]
        if not multiples:
            return
        ck = data.draw(st.sampled_from(multiples))
        x1 = data.draw(st.integers(0, (1 << n) - 1))
        z1 = data.draw(st.integers(0, (1 << n) - 1))
        x2 = data.draw(st.integers(0, (1 << n) - 1))
        z2 = data.draw(st.integers(0, (1 << n) - 1))
        p, q = PauliString(n, x1, z1), PauliString(n, x2, z2)
        if k_commutes(p, q, BlockSpec.uniform(k, n)):
            assert k_commutes(p, q, BlockSpec.uniform(ck, n))

    def test_no_downward_implication(self):
        p, q = parse_pauli("XX", 2), parse_pauli("ZZ", 2)
        assert k_commutes(p, q, BlockSpec.uniform(2, 2))
        assert not k_commutes(p, q, BlockSpec.uniform(1, 2))


class TestTranspose:
    """`paulis._transpose` fills columns from (x, z) rows, and rows from columns."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_to_columns_and_back(self, seed):
        rng = random.Random(seed)
        n, height = rng.randint(1, 70), rng.randint(1, 90)
        rows = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(height)]
        for r in rng.sample(range(height), height // 4):
            rows[r] = (0, 0)
        xs, zs = [0] * n, [0] * n
        paulis._transpose(rows, xs, zs)
        assert all(
            (xs[q] >> r & 1, zs[q] >> r & 1) == (x >> q & 1, z >> q & 1)
            for r, (x, z) in enumerate(rows)
            for q in range(n)
        )
        x_rows, z_rows = [0] * height, [0] * height
        paulis._transpose(zip(xs, zs), x_rows, z_rows)
        assert list(zip(x_rows, z_rows)) == rows

    def test_zero_and_no_rows(self):
        # dict columns, as a block's synthesis keys them by its own qubits
        xs, zs = dict.fromkeys(range(2, 5), 0), dict.fromkeys(range(2, 5), 0)
        paulis._transpose([(0, 0), (0b10100, 0b01000), (0, 0)], xs, zs)
        assert (xs, zs) == ({2: 0b010, 3: 0, 4: 0b010}, {2: 0, 3: 0b010, 4: 0})
        paulis._transpose([], xs, zs)
        assert (xs, zs) == ({2: 0b010, 3: 0, 4: 0b010}, {2: 0, 3: 0b010, 4: 0})
        x_rows, z_rows = [], []
        paulis._transpose([(0, 0)] * 3, x_rows, z_rows)  # the columns of no rows are zero
        assert (x_rows, z_rows) == ([], [])
