import numpy as np
import pytest

from repro.sparse import CSRMatrix, from_dense

from helpers import random_sparse_dense


class TestInvariants:
    def test_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr length"):
            CSRMatrix(3, 3, [0, 1], [0], [1.0])

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="must be 0"):
            CSRMatrix(1, 3, [1, 1], [], [])

    def test_indptr_nondecreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            CSRMatrix(2, 3, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_indptr_end_equals_nnz(self):
        with pytest.raises(ValueError, match="nnz"):
            CSRMatrix(2, 3, [0, 1, 3], [0, 1], [1.0, 2.0])

    def test_col_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            CSRMatrix(1, 2, [0, 1], [5], [1.0])

    def test_sorts_indices_on_construction(self):
        m = CSRMatrix(1, 4, [0, 3], [2, 0, 1], [1.0, 2.0, 3.0])
        assert np.array_equal(m.indices, [0, 1, 2])
        assert np.array_equal(m.data, [2.0, 3.0, 1.0])
        assert m.has_sorted_indices()

    def test_has_duplicates_detection(self):
        m = CSRMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])
        assert m.has_duplicates()
        m2 = CSRMatrix(1, 3, [0, 2], [0, 1], [1.0, 2.0])
        assert not m2.has_duplicates()


class TestAccessors:
    def test_row_view(self, small_csr):
        A, D = small_csr
        cols, vals = A.row(2)
        dense_cols = np.nonzero(D[2])[0]
        assert np.array_equal(cols, dense_cols)
        assert np.array_equal(vals, D[2, dense_cols])

    def test_get_present_and_absent(self, small_csr):
        A, D = small_csr
        assert A.get(0, 2) == D[0, 2]
        assert A.get(0, 3) == 0.0

    def test_diagonal(self, small_csr):
        A, D = small_csr
        assert np.array_equal(A.diagonal(), np.diag(D))

    def test_row_nnz_and_density(self, small_csr):
        A, D = small_csr
        assert np.array_equal(A.row_nnz(), (D != 0).sum(axis=1))
        assert A.row_density() == pytest.approx(A.nnz / 6)

    def test_row_slice(self, small_csr):
        A, _ = small_csr
        sl = A.row_slice(1)
        assert np.array_equal(A.indices[sl], A.row(1)[0])


class TestTransforms:
    def test_transpose_matches_dense(self, rng):
        D = random_sparse_dense(15, 0.3, seed=1)
        A = from_dense(D)
        assert np.allclose(A.transpose().to_dense(), D.T)

    def test_transpose_rows_sorted(self, rng):
        A = from_dense(random_sparse_dense(20, 0.2, seed=2))
        assert A.transpose().has_sorted_indices()

    def test_double_transpose_identity(self):
        D = random_sparse_dense(12, 0.25, seed=3)
        A = from_dense(D)
        assert np.allclose(A.transpose().transpose().to_dense(), D)

    def test_permute_rows(self, rng):
        D = random_sparse_dense(10, 0.3, seed=4)
        A = from_dense(D)
        p = rng.permutation(10)
        assert np.allclose(A.permute(row_perm=p).to_dense(), D[p])

    def test_permute_symmetric(self, rng):
        D = random_sparse_dense(10, 0.3, seed=5)
        A = from_dense(D)
        p = rng.permutation(10)
        assert np.allclose(A.permute(p, p).to_dense(), D[np.ix_(p, p)])

    def test_permute_wrong_length(self):
        A = from_dense(np.eye(4))
        with pytest.raises(ValueError, match="row_perm"):
            A.permute(row_perm=np.arange(3))

    def test_extract_rows(self):
        D = random_sparse_dense(8, 0.3, seed=6)
        A = from_dense(D)
        sub = A.extract_rows([1, 5, 2])
        assert np.allclose(sub.to_dense(), D[[1, 5, 2]])

    def test_prune(self):
        D = random_sparse_dense(8, 0.4, seed=7)
        A = from_dense(D)
        mask = np.abs(A.data) > np.median(np.abs(A.data))
        P = A.prune(mask)
        assert P.nnz == int(mask.sum())
        dd = P.to_dense()
        assert np.all((dd != 0) <= (D != 0))

    def test_prune_wrong_mask_length(self):
        A = from_dense(np.eye(3))
        with pytest.raises(ValueError, match="mask length"):
            A.prune(np.ones(5, dtype=bool))

    def test_pattern_copy_is_ones(self, small_csr):
        A, _ = small_csr
        P = A.pattern_copy()
        assert np.all(P.data == 1.0)
        assert np.array_equal(P.indices, A.indices)


class TestNumerics:
    def test_matvec(self, rng):
        D = random_sparse_dense(17, 0.3, seed=8)
        A = from_dense(D)
        x = rng.standard_normal(17)
        assert np.allclose(A @ x, D @ x)

    def test_scale_rows(self):
        D = random_sparse_dense(6, 0.4, seed=9)
        A = from_dense(D)
        s = np.arange(1.0, 7.0)
        A.scale_rows(s)
        assert np.allclose(A.to_dense(), D * s[:, None])

    def test_frobenius_norm(self):
        D = random_sparse_dense(6, 0.4, seed=10)
        A = from_dense(D)
        assert A.frobenius_norm() == pytest.approx(np.linalg.norm(D))

    def test_copy_independent(self, small_csr):
        A, _ = small_csr
        B = A.copy()
        B.data[:] = 0
        assert A.data.sum() != 0


def _sorted_per_row(indptr, indices, data):
    """Per-row stable sort: the reference the vectorized sort must match."""
    indices, data = indices.copy(), data.copy()
    for r in range(len(indptr) - 1):
        lo, hi = indptr[r], indptr[r + 1]
        order = np.argsort(indices[lo:hi], kind="stable")
        indices[lo:hi] = indices[lo:hi][order]
        data[lo:hi] = data[lo:hi][order]
    return indices, data


class TestVectorizedSortAndPermute:
    @pytest.mark.parametrize("seed", range(5))
    def test_sort_indices_matches_stable_per_row_sort(self, seed):
        """Unsorted rows with duplicate columns: bitwise the per-row result."""
        rng = np.random.default_rng(seed)
        n, m = 9, 5
        lens = rng.integers(0, 7, n)
        indptr = np.concatenate(([0], np.cumsum(lens)))
        indices = rng.integers(0, m, indptr[-1])  # duplicates on purpose
        data = rng.standard_normal(indptr[-1])
        want_idx, want_data = _sorted_per_row(indptr, indices, data)
        A = CSRMatrix(n, m, indptr, indices.copy(), data.copy(), check=False)
        assert np.array_equal(A.indices, want_idx)
        assert np.array_equal(A.data, want_data)
        assert A.has_sorted_indices()

    def test_sorted_matrix_is_not_written(self):
        A = from_dense(random_sparse_dense(8, 0.3, seed=2))
        A.indices.flags.writeable = False
        A.data.flags.writeable = False
        A.sort_indices()  # nothing to do: no write, so no error

    def test_permute_matches_row_by_row_gather(self, rng):
        A = from_dense(random_sparse_dense(15, 0.3, seed=8))
        p = rng.permutation(15)
        B = A.permute(p, p)
        inv = np.empty_like(p)
        inv[p] = np.arange(15)
        for new_r, old_r in enumerate(p):
            cols, vals = A.row(old_r)
            order = np.argsort(inv[cols], kind="stable")
            got_cols, got_vals = B.row(new_r)
            assert np.array_equal(got_cols, inv[cols][order])
            assert np.array_equal(got_vals, vals[order])
