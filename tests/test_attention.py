"""Head splitting, spectral distances, two-level alignment, equivariance."""

import itertools

import numpy as np
import pytest

from conftest import (
    attention_forward,
    dense_block_permutation,
    dense_perm_matrix,
    verify_attention_equivariance,
)
from taskport.attention import (
    align_within_heads,
    inter_head_distance_matrix,
    pair_heads,
    split_heads,
)
from taskport.lap import solve_min
from taskport.perms import identity, join_heads, random_permutation


def _random_qkv(rng, d_m):
    return tuple(rng.normal(size=(d_m, d_m)) for _ in range(3))


def _random_parts(rng, n_heads, head_dim):
    """A random head pairing and one random unit order per head."""
    return random_permutation(n_heads, rng), [random_permutation(head_dim, rng) for _ in range(n_heads)]


def _permute_qkv(qkv, flat, incoming=None):
    """Plant: rows by a head-respecting permutation, optionally columns by
    an incoming stream permutation."""
    out = []
    for w in qkv:
        w = w[flat, :]
        if incoming is not None:
            w = w[:, incoming]
        out.append(w)
    return tuple(out)


class TestSplitHeads:
    def test_single_head_is_whole_matrix(self):
        w = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(split_heads(w, 1)[0], w)

    def test_one_row_per_head(self):
        w = np.arange(16.0).reshape(4, 4)
        heads = split_heads(w, 4)
        for i in range(4):
            np.testing.assert_array_equal(heads[i], w[i : i + 1])

    def test_head_zero_is_first_rows(self):
        w = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(split_heads(w, 2)[0], w[:2])

    def test_concatenation_reproduces_input(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(12, 7))
        heads = split_heads(w, 3)
        np.testing.assert_array_equal(heads.reshape(12, 7), w)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            split_heads(np.zeros((5, 5)), 2)


def _spectral_head_distance(h_b, h_a):
    """Distance between two heads: the one entry of the inter-head distance
    matrix of one-head stacks whose q is the head and whose k and v are zero."""
    def stack(h):
        h = np.asarray(h, dtype=np.float64)[None]
        return (h, np.zeros_like(h), np.zeros_like(h))

    d = inter_head_distance_matrix(stack(h_b), stack(h_a))
    assert d.shape == (1, 1)
    return float(d[0, 0])


class TestSpectralHeadDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 16))
        assert _spectral_head_distance(h, h) == 0.0

    def test_invariant_to_row_col_permutations(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 16))
        shuffled = h[rng.permutation(4)][:, rng.permutation(16)]
        assert _spectral_head_distance(h, shuffled) <= 1e-9

    def test_analytic_diagonal_case(self):
        """Spectra (2, 1) and (3, 0) are sqrt(2) apart in Euclidean distance."""
        a = np.zeros((2, 3))
        a[0, 0], a[1, 1] = 2.0, 1.0
        b = np.zeros((2, 3))
        b[0, 0], b[1, 1] = 3.0, 0.0
        assert _spectral_head_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _spectral_head_distance(np.zeros((2, 3)), np.zeros((3, 2)))


class TestInterHeadDistanceMatrix:
    def test_self_comparison_zero_diagonal_identity_solution(self):
        rng = np.random.default_rng(3)
        qkv = _random_qkv(rng, 16)
        heads = tuple(split_heads(w, 4) for w in qkv)
        d = inter_head_distance_matrix(heads, heads)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        perm, _ = solve_min(d)
        assert np.array_equal(perm, np.arange(4))

    def test_recovers_cyclic_head_shift(self):
        """Shift A's heads by one; the assignment must recover the shift."""
        rng = np.random.default_rng(4)
        q, k, v = _random_qkv(rng, 16)
        shift = np.roll(np.arange(4), -1)  # dest head i <- source head i+1
        flat = join_heads(shift, [np.arange(4)] * 4)
        heads_b = tuple(split_heads(w[flat, :], 4) for w in (q, k, v))
        heads_a = tuple(split_heads(w, 4) for w in (q, k, v))
        d = inter_head_distance_matrix(heads_b, heads_a)
        perm, total = solve_min(d)
        assert np.array_equal(perm, shift)
        assert total <= 1e-8

    def test_invariant_to_within_head_shuffling_and_incoming_cols(self):
        rng = np.random.default_rng(5)
        q, k, v = _random_qkv(rng, 16)
        heads_plain = tuple(split_heads(w, 4) for w in (q, k, v))
        flat = join_heads(np.arange(4), [random_permutation(4, rng) for _ in range(4)])
        incoming = random_permutation(16, rng)
        shuffled = tuple(split_heads(w, 4) for w in _permute_qkv((q, k, v), flat, incoming))
        d0 = inter_head_distance_matrix(heads_plain, heads_plain)
        d1 = inter_head_distance_matrix(heads_plain, shuffled)
        assert np.abs(d0 - d1).max() <= 1e-9


def _align_heads(a_qkv, b_qkv, n_heads):
    """Both stages as the matcher runs them: head pairing, then units within
    each matched head pair of the summed q/k/v value matrix."""
    inter = pair_heads(a_qkv, b_qkv, n_heads)
    value = sum(b @ a.T for a, b in zip(a_qkv, b_qkv))
    return align_within_heads(value, n_heads, inter)


class TestAlignHeads:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(6)
        qkv = _random_qkv(rng, 16)
        assert np.array_equal(_align_heads(qkv, qkv, n_heads=4), np.arange(16))

    def test_plant_and_recover_structured_permutation(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            q, k, v = _random_qkv(rng, 16)
            plant = join_heads(*_random_parts(rng, 4, 4))
            b_qkv = _permute_qkv((q, k, v), plant)
            got = _align_heads((q, k, v), b_qkv, n_heads=4)
            assert np.array_equal(got, plant), f"trial {trial}"

    def test_recovery_with_incoming_columns_folded(self):
        """Algorithm input carries the previous layer's permutation on A's
        columns; recovery must be unaffected once it is folded in."""
        rng = np.random.default_rng(8)
        q, k, v = _random_qkv(rng, 16)
        incoming = random_permutation(16, rng)
        plant = join_heads(*_random_parts(rng, 4, 4))
        b_qkv = _permute_qkv((q, k, v), plant)
        a_folded = tuple(w[:, incoming] for w in (q, k, v))
        b_folded = tuple(w[:, incoming] for w in b_qkv)
        got = _align_heads(a_folded, b_folded, n_heads=4)
        assert np.array_equal(got, plant)


class TestJoinHeadsReconstruction:
    def test_exhaustive_tiny_cases(self):
        """join_heads must equal the Kronecker-sum dense matrix for every
        (inter, intras) combination at H=2, d_k=2."""
        for inter in itertools.permutations(range(2)):
            for i0 in itertools.permutations(range(2)):
                for i1 in itertools.permutations(range(2)):
                    np.testing.assert_array_equal(
                        dense_perm_matrix(join_heads(np.array(inter), (np.array(i0), np.array(i1)))),
                        dense_block_permutation(inter, (i0, i1)),
                    )

    def test_random_cases_up_to_four(self):
        rng = np.random.default_rng(9)
        for h in range(1, 5):
            for d_k in range(1, 5):
                for _ in range(5):
                    inter, intras = _random_parts(rng, h, d_k)
                    np.testing.assert_array_equal(
                        dense_perm_matrix(join_heads(inter, intras)), dense_block_permutation(inter, intras)
                    )

    def test_spec_example_head_swap(self):
        flat = join_heads(np.array([1, 0]), (np.array([0, 1]), np.array([0, 1])))
        assert np.array_equal(flat, [2, 3, 0, 1])


class TestEquivariance:
    def test_identity_permutation_zero_deviation(self):
        rng = np.random.default_rng(10)
        q, k, v = _random_qkv(rng, 16)
        x = rng.normal(size=(6, 16))
        assert verify_attention_equivariance(q, k, v, identity(16), 4, x, inter=identity(4)) == 0.0

    def test_structured_permutations_commute(self):
        """100 random (weights, inputs, block permutation) triples stay
        within 1e-10: permuting projections equals permuting outputs."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            q, k, v = _random_qkv(rng, 16)
            x = rng.normal(size=(5, 16))
            inter, intras = _random_parts(rng, 4, 4)
            worst = max(worst, verify_attention_equivariance(q, k, v, join_heads(inter, intras), 4, x, inter=inter))
        assert worst <= 1e-10, worst

    def test_cross_head_mixing_breaks_equivalence(self):
        """Negative control: a permutation crossing head boundaries loses
        functional equivalence by a wide margin."""
        rng = np.random.default_rng(12)
        q, k, v = _random_qkv(rng, 16)
        x = rng.normal(size=(5, 16))
        contaminated = np.arange(16)
        contaminated[[0, 4]] = contaminated[[4, 0]]  # swap across heads 0 and 1
        dev = verify_attention_equivariance(q, k, v, contaminated, 4, x)
        assert dev > 0.1

    def test_scores_only_depend_on_head_pairing(self):
        """Within-head permutations cancel in the score matrices."""
        rng = np.random.default_rng(13)
        q, k, v = _random_qkv(rng, 16)
        x = rng.normal(size=(5, 16))
        inter, intras = _random_parts(rng, 4, 4)
        inv = np.argsort(join_heads(inter, intras))
        _, scores_ref = attention_forward(q, k, v, 4, x)
        _, scores_perm = attention_forward(q[:, inv], k[:, inv], v[:, inv], 4, x)
        inv_inter = np.argsort(inter)
        for i in range(4):
            np.testing.assert_allclose(
                scores_perm[i], scores_ref[inv_inter[i]], atol=1e-12
            )
