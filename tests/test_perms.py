"""Index-vector permutation utilities and the structured attention form."""

import numpy as np
import pytest

from taskport.errors import AssignmentFormatError
from taskport.perms import (
    BlockPermutation,
    check_permutation,
    compose,
    identity,
    inverse,
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


class TestBlockPermutation:
    def test_identity_flattens_to_identity(self):
        bp = BlockPermutation.identity(3, 4)
        assert np.array_equal(bp.flattened(), identity(12))

    def test_head_swap_flattening(self):
        # two heads of two units, heads swapped, units kept
        bp = BlockPermutation(np.array([1, 0]), (np.array([0, 1]), np.array([0, 1])))
        assert np.array_equal(bp.flattened(), [2, 3, 0, 1])

    def test_flattened_is_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = int(rng.integers(1, 5))
            d_k = int(rng.integers(1, 5))
            bp = BlockPermutation(
                random_permutation(h, rng),
                tuple(random_permutation(d_k, rng) for _ in range(h)),
            )
            check_permutation(bp.flattened(), size=h * d_k)

    def test_wrong_intra_count_rejected(self):
        with pytest.raises(AssignmentFormatError):
            BlockPermutation(np.array([1, 0]), (np.array([0, 1]),))

    def test_mixed_intra_sizes_rejected(self):
        with pytest.raises(AssignmentFormatError):
            BlockPermutation(np.array([1, 0]), (np.array([0, 1]), np.array([0, 1, 2])))
