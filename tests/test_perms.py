"""Index-vector permutation utilities and the head structure of attention
permutations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import block_lists
from taskport.errors import AssignmentFormatError
from taskport.perms import (
    PermutationAssignment,
    check_permutation,
    compose,
    identity,
    inverse,
    join_heads,
    random_permutation,
)


class TestBasics:
    def test_identity(self):
        assert np.array_equal(identity(4), [0, 1, 2, 3])

    def test_compose_with_identity(self):
        rng = np.random.default_rng(0)
        p = random_permutation(7, rng)
        assert np.array_equal(compose(p, identity(7)), p)
        assert np.array_equal(compose(identity(7), p), p)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            p = random_permutation(n, rng)
            assert np.array_equal(compose(p, inverse(p)), identity(n))
            assert np.array_equal(compose(inverse(p), p), identity(n))

    def test_hand_composition(self):
        # (a o b)(i) = a[b[i]]
        assert np.array_equal(compose([1, 2, 0], [2, 0, 1]), [0, 1, 2])

    def test_compose_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (random_permutation(9, rng) for _ in range(3))
        assert np.array_equal(compose(compose(a, b), c), compose(a, compose(b, c)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose([0, 1], [0, 1, 2])


class TestValidation:
    def test_duplicate_index_rejected(self):
        with pytest.raises(AssignmentFormatError):
            check_permutation([0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(AssignmentFormatError):
            check_permutation([0, 2])

    def test_wrong_size_rejected(self):
        with pytest.raises(AssignmentFormatError):
            check_permutation([0, 1, 2], size=2)

    @pytest.mark.parametrize("p", [[0.7, 1.2], [1.0, 0.0], [True, False], ["0", "1"]],
                             ids=["fractional", "whole-floats", "bool", "str"])
    def test_non_integer_dtype_rejected(self, p):
        with pytest.raises(AssignmentFormatError, match="integers"):
            check_permutation(p)

    @pytest.mark.parametrize("p", [[[0, 1], [1, 0]], []], ids=["2-D", "empty"])
    def test_not_a_non_empty_vector_rejected(self, p):
        with pytest.raises(AssignmentFormatError, match="non-empty 1-D index vector"):
            check_permutation(p)

    def test_identity_of_size_zero_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            identity(0)

    def test_unsigned_and_narrow_integers_accepted(self):
        for dtype in (np.uint8, np.int16, np.uint64):
            p = check_permutation(np.array([2, 0, 1], dtype=dtype))
            assert p.dtype == np.int64 and np.array_equal(p, [2, 0, 1])

    def test_messages_name_first_offender_not_whole_vector(self):
        n = 3072
        p = np.arange(n)
        p[[5, 900]] = [n, -1]
        with pytest.raises(AssignmentFormatError) as e:
            check_permutation(p)
        assert "2 index(es) out of range" in str(e.value) and "position 5:" in str(e.value)
        assert len(str(e.value)) < 200
        p = np.arange(n)
        p[[7, 11, 2000]] = [3, 3, 4]
        with pytest.raises(AssignmentFormatError) as e:
            check_permutation(p)
        assert "repeats 3 index(es)" in str(e.value) and "position 7: 3" in str(e.value)
        assert len(str(e.value)) < 200

    def test_valid_roundtrip(self):
        p = check_permutation([2, 0, 1])
        assert p.dtype == np.int64


@st.composite
def head_parts(draw, min_heads=1, min_head_dim=1):
    """(inter, intras) for random H and d_k: a head pairing and one unit
    order per head."""
    n_heads = draw(st.integers(min_heads, 6))
    d_k = draw(st.integers(min_head_dim, 6))
    inter = draw(st.permutations(range(n_heads)))
    intras = [draw(st.permutations(range(d_k))) for _ in range(n_heads)]
    return inter, intras


class TestJoinHeads:
    def test_identity_parts_join_to_identity(self):
        assert np.array_equal(join_heads(identity(3), [identity(4)] * 3), identity(12))

    def test_head_swap(self):
        # two heads of two units, heads swapped, units kept
        assert np.array_equal(join_heads(np.array([1, 0]), (np.array([0, 1]), np.array([0, 1]))), [2, 3, 0, 1])

    def test_joined_is_int64_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = int(rng.integers(1, 5))
            d_k = int(rng.integers(1, 5))
            p = join_heads(random_permutation(h, rng), [random_permutation(d_k, rng) for _ in range(h)])
            assert p.dtype == np.int64
            check_permutation(p, size=h * d_k)

    def test_wrong_intra_count_rejected(self):
        with pytest.raises(AssignmentFormatError, match="expected 2 intra-head"):
            join_heads(np.array([1, 0]), (np.array([0, 1]),))

    def test_mixed_intra_sizes_rejected(self):
        with pytest.raises(AssignmentFormatError):
            join_heads(np.array([1, 0]), (np.array([0, 1]), np.array([0, 1, 2])))

    def test_non_permutation_parts_rejected(self):
        with pytest.raises(AssignmentFormatError):
            join_heads(np.array([1, 1]), (np.array([0, 1]), np.array([0, 1])))
        with pytest.raises(AssignmentFormatError):
            join_heads(np.array([1, 0]), (np.array([0, 1]), np.array([1, 1])))

    @given(head_parts())
    def test_block_reads_back_the_joined_parts(self, parts):
        inter, intras = parts
        a = PermutationAssignment({"attn": join_heads(inter, intras)}, {"attn": len(inter)})
        assert block_lists(a.block("attn")) == (inter, intras)

    @given(head_parts(min_heads=2, min_head_dim=2), st.data())
    def test_block_is_none_once_a_unit_crosses_heads(self, parts, data):
        """Swapping two units of different destination heads moves a unit
        into another head (with d_k >= 2 each head keeps one of its own)."""
        inter, intras = parts
        p = join_heads(inter, intras)
        d_k = len(intras[0])
        i = data.draw(st.integers(0, p.size - 1))
        j = data.draw(st.integers(0, p.size - 1).filter(lambda j: j // d_k != i // d_k))
        p[[i, j]] = p[[j, i]]
        assert PermutationAssignment({"attn": p}, {"attn": len(inter)}).block("attn") is None

    def test_block_needs_a_head_count_that_divides_the_width(self):
        p = join_heads(np.array([1, 0]), (np.array([1, 0]), np.array([0, 1])))
        assert PermutationAssignment({"attn": p}).block("attn") is None
        assert PermutationAssignment({"attn": p}, {"attn": 3}).block("attn") is None


class TestAssignmentEquality:
    def test_head_counts_take_part(self):
        """The same index vector with and without a head count is written
        differently (inter and intra records, or one flat record), so the
        two assignments must differ."""
        p = np.array([2, 3, 0, 1])
        with_heads = PermutationAssignment({"block.0.attn": p}, {"block.0.attn": 2})
        assert with_heads != PermutationAssignment({"block.0.attn": p.copy()})
        assert with_heads != PermutationAssignment({"block.0.attn": p.copy()}, {"block.0.attn": 4})
        assert with_heads == PermutationAssignment({"block.0.attn": p.copy()}, {"block.0.attn": 2})

    def test_vectors_take_part(self):
        a = PermutationAssignment({"stream": np.array([1, 0, 2])})
        assert a != PermutationAssignment({"stream": np.array([0, 1, 2])})
        assert a != PermutationAssignment({"stream": np.array([1, 0, 2]), "other": np.array([0])})
        assert a == a.copy()

    def test_other_types_are_not_compared(self):
        a = PermutationAssignment({"stream": np.array([1, 0, 2])})
        assert a.__eq__({"stream": np.array([1, 0, 2])}) is NotImplemented
        assert a != {"stream": np.array([1, 0, 2])}
