"""Pauli string parsing, commutativity, and block commutativity."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrices_commute, pauli_matrix
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

    def test_render(self):
        assert parse_pauli("XYZI", 4).render() == "XYZI"
        assert str(parse_pauli("Y1", 3)) == "IYI"

    @given(st.integers(1, 200), st.data())
    def test_roundtrip(self, n, data):
        x = data.draw(st.integers(0, (1 << n) - 1))
        z = data.draw(st.integers(0, (1 << n) - 1))
        p = PauliString(n, x, z)
        dense = p.render()
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
        for name in ("n_qubits", "x_bits", "z_bits", "_hash"):
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

    def test_masks_and_spans(self):
        spec = BlockSpec([1, 2])
        assert spec.spans == ((0, 1), (1, 3))
        assert spec.masks == (0b001, 0b110)

    def test_immutable(self):
        spec = BlockSpec([1, 2])
        for name in ("sizes", "spans", "masks", "home"):
            with pytest.raises(AttributeError):
                setattr(spec, name, ())
        assert spec.sizes == (1, 2) and spec.masks == (0b001, 0b110)

    def test_value_semantics(self):
        spec = BlockSpec(iter([1, 2]))
        assert spec == BlockSpec((1, 2)) and hash(spec) == hash(BlockSpec([1, 2]))
        assert spec != BlockSpec((2, 1)) and spec != (1, 2)
        assert repr(spec) == "BlockSpec((1, 2))"
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and back.spans == spec.spans and back.masks == spec.masks

    def test_pickles_as_its_sizes(self):
        # the masks of uniform(1, n) total about n^2 / 2 bits
        spec = BlockSpec.uniform(1, 2000)
        data = pickle.dumps(spec)
        assert len(data) < 10_000
        back = pickle.loads(data)
        assert (back.spans, back.masks, back.home) == (spec.spans, spec.masks, spec.home)

    def test_home_is_each_qubits_block(self):
        assert BlockSpec((1, 3, 2)).home == (0, 1, 1, 1, 2, 2)
        # the identity the sweep's relation classes rely on
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert BlockSpec.uniform(k, n).home == tuple(q // k for q in range(n)), (k, n)


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
        def letterwise(p, q, spec):
            a, b = p.render(), q.render()
            return all(
                sum(x != "I" != y != x for x, y in zip(a[s:e], b[s:e])) % 2 == 0
                for s, e in spec
            )

        spec = BlockSpec.uniform(data.draw(st.integers(1, n)), n)
        bits = st.integers(0, (1 << n) - 1)
        paulis = [
            PauliString(n, data.draw(bits), data.draw(bits))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        p, rest = paulis[0], paulis[1:]
        assert block_commutes_all(
            p.x_bits, p.z_bits, [(q.x_bits, q.z_bits) for q in rest], spec.masks
        ) == all(letterwise(p, q, spec) for q in rest)
        bad = [
            (a, b)
            for a, b in itertools.combinations(range(len(paulis)), 2)
            if not letterwise(paulis[a], paulis[b], spec)
        ]
        assert first_noncommuting_pair(paulis, spec) == (bad[0] if bad else None)

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
