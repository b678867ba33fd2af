"""Compressed Sparse Row (CSR) matrix.

CSR is the working format of the whole framework.  The paper's central
storage claim is that Javelin needs nothing beyond conventional CSR plus
a small amount of tile metadata for the lower stage, so this class stays
deliberately lightweight: three NumPy arrays and a set of operations
(row access, permutation, triangular extraction, matvec) used by the
factorization, the triangular solves and the orderings.

Column indices within each row are kept **sorted**; the up-looking ILU
kernels rely on this for merge-style row updates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Sparse matrix in compressed sparse row format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, length ``nnz``.
    data:
        Values, length ``nnz``.  ``None`` creates an all-ones pattern.
    sort:
        When true (default) column indices are sorted within each row.
    check:
        When true (default) the invariants are validated.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data=None, *, sort=True, check=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if data is None:
            data = np.ones(self.indices.shape[0], dtype=np.float64)
        self.data = np.asarray(data, dtype=np.float64)
        if check:
            self._validate()
        if sort:
            self.sort_indices()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self):
        if self.indptr.shape[0] != self.n_rows + 1:
            raise ValueError(
                f"indptr length {self.indptr.shape[0]} != n_rows+1 = {self.n_rows + 1}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr[-1] must equal nnz")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data lengths disagree")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_cols):
            raise ValueError("column index out of range")

    def _row_of(self):
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))

    def _unsorted_at(self, row_of):
        """Mask of positions whose column is below the previous one in-row."""
        idx = self.indices
        return (idx[1:] < idx[:-1]) & (row_of[1:] == row_of[:-1])

    def sort_indices(self):
        """Sort column indices (and values) within every row, in place.

        One stable argsort on global ``(row, column)`` keys: equal
        columns keep their storage order, exactly like a stable per-row
        sort, and an already sorted matrix is left untouched (no writes).
        """
        row_of = self._row_of()
        if np.any(self._unsorted_at(row_of)):
            order = np.argsort(row_of * self.n_cols + self.indices, kind="stable")
            self.indices[:] = self.indices[order]
            self.data[:] = self.data[order]
        return self

    def has_sorted_indices(self):
        return not np.any(self._unsorted_at(self._row_of()))

    def has_duplicates(self):
        for r in range(self.n_rows):
            seg = self.indices[self.indptr[r] : self.indptr[r + 1]]
            if np.unique(seg).shape[0] != seg.shape[0]:
                return True
        return False

    # ------------------------------------------------------------------
    # basic properties and accessors
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def row_nnz(self):
        """Number of stored entries per row (the paper's row density ×1)."""
        return np.diff(self.indptr)

    def row_density(self):
        """Average nonzeros per row — the RD column of Table I."""
        return self.nnz / max(self.n_rows, 1)

    def row(self, r):
        """Return ``(cols, vals)`` views of row ``r``."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_slice(self, r):
        """Return the ``slice`` of the storage arrays covering row ``r``."""
        return slice(int(self.indptr[r]), int(self.indptr[r + 1]))

    def get(self, i, j):
        """Value at ``(i, j)`` (0.0 if not stored).  O(log nnz(row))."""
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < cols.shape[0] and cols[k] == j:
            return float(vals[k])
        return 0.0

    def diagonal(self):
        """Extract the main diagonal as a dense vector."""
        d = np.zeros(min(self.n_rows, self.n_cols))
        for r in range(d.shape[0]):
            cols, vals = self.row(r)
            k = np.searchsorted(cols, r)
            if k < cols.shape[0] and cols[k] == r:
                d[r] = vals[k]
        return d

    def copy(self):
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sort=False,
            check=False,
        )

    def pattern_copy(self):
        """A copy with all stored values replaced by 1.0."""
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            np.ones(self.nnz),
            sort=False,
            check=False,
        )

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def transpose(self):
        """Return Aᵀ as a new CSR matrix (bucket counting, O(nnz))."""
        n, m = self.n_rows, self.n_cols
        nnz = self.nnz
        counts = np.bincount(self.indices, minlength=m)
        t_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=t_indptr[1:])
        t_indices = np.empty(nnz, dtype=np.int64)
        t_data = np.empty(nnz)
        fill = t_indptr[:-1].copy()
        for r in range(n):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            for k in range(lo, hi):
                c = self.indices[k]
                pos = fill[c]
                t_indices[pos] = r
                t_data[pos] = self.data[k]
                fill[c] += 1
        # rows of the transpose come out sorted because we scan rows in order
        return CSRMatrix(m, n, t_indptr, t_indices, t_data, sort=False, check=False)

    def permute(self, row_perm=None, col_perm=None):
        """Return ``P A Q`` where ``new[i, j] = old[row_perm[i], col_perm_inv[j]]``.

        ``row_perm[i]`` gives the *old* index of new row ``i`` (gather
        convention).  ``col_perm`` uses the same convention: new column
        ``j`` holds old column ``col_perm[j]``.  For the symmetric
        permutation used throughout the framework pass the same array for
        both.
        """
        A = self
        if row_perm is not None:
            row_perm = np.asarray(row_perm, dtype=np.int64)
            if row_perm.shape[0] != self.n_rows:
                raise ValueError("row_perm has wrong length")
            lens = np.diff(A.indptr)[row_perm]
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(lens, out=indptr[1:])
            # gather every new row's storage run in one shot
            src = np.repeat(A.indptr[row_perm] - indptr[:-1], lens) + np.arange(
                A.nnz, dtype=np.int64
            )
            indices = A.indices[src]
            data = A.data[src]
            A = CSRMatrix(self.n_rows, self.n_cols, indptr, indices, data, sort=False, check=False)
        if col_perm is not None:
            col_perm = np.asarray(col_perm, dtype=np.int64)
            if col_perm.shape[0] != self.n_cols:
                raise ValueError("col_perm has wrong length")
            inv = np.empty_like(col_perm)
            inv[col_perm] = np.arange(self.n_cols, dtype=np.int64)
            A = CSRMatrix(
                A.n_rows, A.n_cols, A.indptr.copy(), inv[A.indices], A.data.copy(), sort=True, check=False
            )
        elif row_perm is not None:
            pass
        return A.copy() if A is self else A

    def extract_rows(self, row_ids):
        """Submatrix of the given rows (all columns kept)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        lens = np.diff(self.indptr)[row_ids]
        indptr = np.zeros(row_ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]))
        for i, r in enumerate(row_ids):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            nlo = indptr[i]
            indices[nlo : nlo + hi - lo] = self.indices[lo:hi]
            data[nlo : nlo + hi - lo] = self.data[lo:hi]
        return CSRMatrix(row_ids.shape[0], self.n_cols, indptr, indices, data, sort=False, check=False)

    def prune(self, keep_mask):
        """Drop stored entries where ``keep_mask`` is false."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape[0] != self.nnz:
            raise ValueError("mask length must equal nnz")
        lens = np.zeros(self.n_rows, dtype=np.int64)
        for r in range(self.n_rows):
            lens[r] = int(np.count_nonzero(keep_mask[self.indptr[r] : self.indptr[r + 1]]))
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            indptr,
            self.indices[keep_mask],
            self.data[keep_mask],
            sort=False,
            check=False,
        )

    # ------------------------------------------------------------------
    # numeric operations
    # ------------------------------------------------------------------
    def matvec(self, x):
        """Dense matvec ``A @ x`` (row-major accumulation)."""
        from .spmv import spmv_csr

        return spmv_csr(self, x)

    def to_dense(self):
        out = np.zeros(self.shape)
        for r in range(self.n_rows):
            cols, vals = self.row(r)
            out[r, cols] = vals
        return out

    def scale_rows(self, s):
        """In-place row scaling ``A[i, :] *= s[i]``."""
        s = np.asarray(s, dtype=np.float64)
        self.data *= np.repeat(s, np.diff(self.indptr))
        return self

    def frobenius_norm(self):
        return float(np.sqrt(np.sum(self.data * self.data)))

    def __matmul__(self, x):
        return self.matvec(x)

    def __repr__(self):
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
