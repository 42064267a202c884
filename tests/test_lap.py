"""Assignment solver vs exhaustive enumeration, plus its classical invariances."""

import gc
import sys
import time

import numpy as np
import pytest

from conftest import brute_force_min_assignment
from taskport.lap import solve_max, solve_min


class TestAgainstEnumeration:
    def test_tiny_hand_cases(self):
        p, cost = solve_min(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(p, [0, 1]) and cost == 0.0

        p, cost = solve_min(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(p, [1, 0]) and cost == 2.0

    def test_random_instances_match_brute_force(self):
        """Exact cost and exact permutation (lexicographic tie rule) on
        random instances for every n in 2..7."""
        rng = np.random.default_rng(20)
        for n in range(2, 8):
            for _ in range(30):
                c = rng.normal(size=(n, n))
                p, total = solve_min(c)
                bp, btotal = brute_force_min_assignment(c)
                assert np.array_equal(p, bp)
                assert total == btotal

    def test_tied_integer_instances_match_brute_force(self):
        """Integer costs create massed ties; the tie-break must still agree."""
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            for _ in range(25):
                c = rng.integers(0, 3, size=(n, n)).astype(float)
                p, _ = solve_min(c)
                bp, _ = brute_force_min_assignment(c)
                assert np.array_equal(p, bp), (c, p, bp)

    def test_degenerate_all_zero_returns_identity(self):
        p, total = solve_min(np.zeros((6, 6)))
        assert np.array_equal(p, np.arange(6))
        assert total == 0.0

    def test_adversarial_tie_structures(self):
        """Rounded-decimal costs manufacture mathematical ties whose float
        totals differ by an ulp depending on summation order.  The solver
        must stay optimal to its stated ~1e-10 tie resolution and agree with
        enumeration exactly whenever the optimum is unique at that scale."""
        rng = np.random.default_rng(26)
        for trial in range(600):
            n = int(rng.integers(1, 7))
            style = trial % 4
            if style == 0:
                c = np.round(rng.normal(size=(n, n)), 1)
            elif style == 1:
                c = rng.integers(0, 2, size=(n, n)).astype(float)
            elif style == 2:
                c = np.tile(rng.integers(0, 3, n).astype(float), (n, 1))
            else:
                c = np.outer(rng.integers(0, 3, n), np.ones(n))
            p, total = solve_min(c)
            oracle_p, oracle_total = brute_force_min_assignment(c)
            scale = max(1.0, float(np.abs(c).max()))
            slack = total - oracle_total
            assert 0.0 <= slack <= 1e-8 * scale, (c, slack)
            if slack > 0.0:
                # only a sub-resolution near-tie may explain a different
                # permutation, and ours must then be the lexicographically
                # smaller of the two
                assert tuple(p) < tuple(oracle_p), (c, p, oracle_p)
            else:
                rows = np.arange(n)
                assert float(np.sum(c[rows, p])) == oracle_total


class TestTieHeavy:
    @staticmethod
    def _random_binary(n, seed):
        return np.random.default_rng(seed).integers(0, 2, size=(n, n)).astype(float)

    def test_long_augmenting_paths_need_no_recursion(self):
        """A 300x300 random 0/1 cost matrix drives the lexicographic
        refinement along alternating paths hundreds of rows long; the search
        must not consume interpreter stack per row on the path."""
        c = self._random_binary(300, 300)
        expected, expected_total = solve_min(c)
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            p, total = solve_min(c)
        finally:
            sys.setrecursionlimit(limit)
        assert np.array_equal(p, expected) and total == expected_total
        assert np.array_equal(np.sort(p), np.arange(300))

    def test_refinement_leaves_no_reference_cycles(self):
        """Every garbage object of a tie-heavy solve is freed by reference
        counting; nothing waits for the cycle collector."""
        c = self._random_binary(120, 7)
        gc.collect()
        gc.disable()
        try:
            solve_min(c)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


class TestSolveMax:
    def test_identity_value_matrix(self):
        p, value = solve_max(np.eye(4))
        assert np.array_equal(p, np.arange(4))
        assert value == 4.0

    def test_definitional_negation(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=(5, 5))
        pmax, vmax = solve_max(c)
        pmin, vmin = solve_min(-c)
        assert np.array_equal(pmax, pmin)
        assert vmax == -vmin

    def test_random_vs_enumeration(self):
        rng = np.random.default_rng(23)
        rows = np.arange(4)
        for _ in range(50):
            c = rng.normal(size=(4, 4))
            p, value = solve_max(c)
            best = max(
                float(np.sum(c[rows, perm]))
                for perm in __import__("itertools").permutations(range(4))
            )
            assert value == pytest.approx(best, abs=0)


class TestInvariances:
    def test_row_col_constant_shift(self):
        """Adding a constant to a row or column shifts the cost but never
        the argmin."""
        rng = np.random.default_rng(24)
        for _ in range(30):
            c = rng.normal(size=(6, 6))
            p0, t0 = solve_min(c)
            shifted = c.copy()
            shifted[2, :] += 4.0
            shifted[:, 5] += 0.5
            p1, t1 = solve_min(shifted)
            assert np.array_equal(p0, p1)
            assert t1 == pytest.approx(t0 + 4.5)

    def test_rejects_non_finite(self):
        c = np.zeros((3, 3))
        c[1, 1] = np.inf
        with pytest.raises(ValueError):
            solve_min(c)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            solve_min(np.zeros((2, 3)))

    def test_cubic_ish_scaling(self):
        """Soft check: doubling n from 128 to 256 costs at most ~10x."""
        rng = np.random.default_rng(25)
        timings = {}
        for n in (128, 256):
            c = rng.normal(size=(n, n))
            solve_min(rng.normal(size=(64, 64)))  # warm caches
            start = time.perf_counter()
            solve_min(c)
            timings[n] = time.perf_counter() - start
        assert timings[256] <= 10.0 * max(timings[128], 1e-3), timings
