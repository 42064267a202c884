"""Dense kernels: singular values (``attention``) and the row and column
gather of permutation application (``coupling``)."""

import numpy as np
import pytest

from conftest import charpoly_singular_values, dense_perm_matrix
from taskport.attention import singular_values
from taskport.checkpoint import ArchSpec
from taskport.coupling import build_coupling_graph, permuted_tensor
from taskport.errors import NumericalFailureError


class TestSingularValues:
    def test_diagonal_embedded(self):
        m = np.zeros((2, 3))
        m[0, 0], m[1, 1] = 2.0, 1.0
        np.testing.assert_allclose(singular_values(m), [2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        assert np.array_equal(singular_values(np.zeros((3, 3))), np.zeros(3))

    def test_against_charpoly_oracle(self):
        """Gram-eigenvalue square roots from characteristic-polynomial roots
        must agree to 1e-8 on matrices up to 8x8."""
        rng = np.random.default_rng(10)
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.normal(size=(rows, cols)) * 10.0 ** float(rng.integers(-2, 3))
            mine = singular_values(m)
            oracle = charpoly_singular_values(m)
            scale = max(1.0, oracle.max())
            np.testing.assert_allclose(mine, oracle, atol=1e-8 * scale)

    def test_permutation_invariance(self):
        """Row/column permutations never change the spectrum (500 trials)."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            m = rng.normal(size=(6, 24))
            permuted = m[rng.permutation(6)][:, rng.permutation(24)]
            worst = max(worst, np.abs(singular_values(m) - singular_values(permuted)).max())
        assert worst <= 1e-9

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(12)
        sv = singular_values(rng.normal(size=(5, 7)))
        assert len(sv) == 5
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 0)

    def test_lapack_failure_raises_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalFailureError):
            singular_values(np.eye(3))

    def test_stack_against_charpoly_oracle(self):
        """A (..., rows, cols) stack gives each matrix's own descending
        spectrum, to the same 1e-8 as the single-matrix oracle test."""
        rng = np.random.default_rng(13)
        for shape in [(4, 3, 7), (2, 3, 5, 2), (1, 1, 1)]:
            stack = rng.normal(size=shape)
            got = singular_values(stack)
            assert got.shape == shape[:-2] + (min(shape[-2:]),)
            flat = stack.reshape(-1, *shape[-2:])
            for mine, m in zip(got.reshape(len(flat), -1), flat):
                oracle = charpoly_singular_values(m)
                np.testing.assert_allclose(mine, oracle, atol=1e-8 * max(1.0, oracle.max()))


class TestPermuteRowsCols:
    """The row and column gather of ``coupling.permuted_tensor`` on a single
    matrix: ``fc1.weight`` has its rows on ``mlp_hidden`` (8 units) and its
    columns on ``attn_out`` (4 units)."""

    NAME = "block.0.mlp.fc1.weight"

    def _permute(self, m, rows=None, cols=None):
        graph = build_coupling_graph(ArchSpec(1, 2, 4, 8, 3, 2), "compose", pin_embedding=False)
        assignment = graph.identity_assignment()
        if rows is not None:
            assignment.perms["block.0.mlp_hidden"] = np.asarray(rows)
        if cols is not None:
            assignment.perms["block.0.attn_out"] = np.asarray(cols)
        return permuted_tensor({self.NAME: m}, graph, assignment, self.NAME)

    def test_identity_is_noop(self):
        m = np.arange(32.0).reshape(8, 4)
        assert np.array_equal(self._permute(m), m)
        assert np.array_equal(self._permute(m, rows=np.arange(8), cols=np.arange(4)), m)

    def test_row_swap(self):
        m = np.arange(32.0).reshape(8, 4)
        got = self._permute(m, rows=np.r_[1, 0, 2:8])
        assert np.array_equal(got[:2], [m[1], m[0]])
        assert np.array_equal(got[2:], m[2:])

    def test_inverse_restores_exactly(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(8, 4))
        p = rng.permutation(8)
        assert np.array_equal(self._permute(self._permute(m, rows=p), rows=np.argsort(p)), m)
        q = rng.permutation(4)
        assert np.array_equal(self._permute(self._permute(m, cols=q), cols=np.argsort(q)), m)

    def test_matches_dense_matrix_action(self):
        """Rows go as P @ m and columns as m @ P.T for the dense matrix with
        ones at (i, p[i])."""
        rng = np.random.default_rng(16)
        m = rng.normal(size=(8, 4))
        p_rows, p_cols = rng.permutation(8), rng.permutation(4)
        np.testing.assert_array_equal(self._permute(m, rows=p_rows), dense_perm_matrix(p_rows) @ m)
        np.testing.assert_array_equal(self._permute(m, cols=p_cols), m @ dense_perm_matrix(p_cols).T)
        np.testing.assert_array_equal(
            self._permute(m, rows=p_rows, cols=p_cols),
            dense_perm_matrix(p_rows) @ m @ dense_perm_matrix(p_cols).T,
        )
