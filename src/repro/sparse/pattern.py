"""Sparsity-pattern algebra.

Javelin's scheduling is entirely structural: the level sets are computed
on the pattern of ``lower(A)`` or ``lower(A + A^T)`` (§III), the choice
between them gates whether the Segmented-Rows lower stage is legal
(§III-B), and Table I reports whether the symbolic pattern is symmetric.
This module provides those pattern operations on CSR matrices.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = [
    "lower_pattern",
    "upper_pattern",
    "strict_lower_pattern",
    "strict_upper_pattern",
    "symmetrize_pattern",
    "pattern_union",
    "is_pattern_symmetric",
    "has_full_diagonal",
    "split_lu",
    "add_diagonal_pattern",
]


def _triangular(csr: CSRMatrix, keep) -> CSRMatrix:
    """Filter stored entries by a predicate ``keep(rows, cols) -> bool mask``."""
    rows = csr._row_of()
    mask = keep(rows, csr.indices)
    indptr = np.zeros(csr.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[mask], minlength=csr.n_rows), out=indptr[1:])
    return CSRMatrix(
        csr.n_rows, csr.n_cols, indptr, csr.indices[mask], csr.data[mask], sort=False, check=False
    )


def lower_pattern(csr: CSRMatrix) -> CSRMatrix:
    """``lower(A)``: entries with col ≤ row (diagonal included)."""
    return _triangular(csr, lambda r, c: c <= r)


def upper_pattern(csr: CSRMatrix) -> CSRMatrix:
    """``upper(A)``: entries with col ≥ row (diagonal included)."""
    return _triangular(csr, lambda r, c: c >= r)


def strict_lower_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Entries with col < row."""
    return _triangular(csr, lambda r, c: c < r)


def strict_upper_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Entries with col > row."""
    return _triangular(csr, lambda r, c: c > r)


def _pattern_from_keys(n_rows, n_cols, keys) -> CSRMatrix:
    """All-ones CSR pattern of the distinct ``row * n_cols + col`` keys."""
    keys = np.unique(keys)
    rows, indices = np.divmod(keys, max(n_cols, 1))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return CSRMatrix(
        n_rows, n_cols, indptr, indices, np.ones(indices.shape[0]), sort=False, check=False
    )


def pattern_union(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Structural union of two patterns (values become 1.0).

    Used to form ``A + Aᵀ`` for the level scheduling of
    ``lower(A + Aᵀ)`` without caring about numerical cancellation.
    Rows come out sorted and free of duplicates.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    m = a.n_cols
    keys = np.concatenate([a._row_of() * m + a.indices, b._row_of() * m + b.indices])
    return _pattern_from_keys(a.n_rows, m, keys)


def symmetrize_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Pattern of ``A + Aᵀ`` (square matrices only)."""
    if csr.n_rows != csr.n_cols:
        raise ValueError("symmetrize_pattern requires a square matrix")
    n = csr.n_rows
    rows = csr._row_of()
    keys = np.concatenate([rows * n + csr.indices, csr.indices * n + rows])
    return _pattern_from_keys(n, n, keys)


def is_pattern_symmetric(csr: CSRMatrix) -> bool:
    """True when the sparsity pattern equals that of its transpose.

    This is Table I's SP column ("if the symbolic pattern of the matrix
    in natural order is symmetric").
    """
    if csr.n_rows != csr.n_cols:
        return False
    t = csr.transpose()
    if t.nnz != csr.nnz:
        return False
    return bool(
        np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)
    )


def has_full_diagonal(csr: CSRMatrix) -> bool:
    """True when every diagonal position is structurally present.

    ILU without pivoting (Javelin does not pivot, §III) requires a
    structurally full diagonal; Dulmage–Mendelsohn matching is the
    preprocessing step that establishes it.
    """
    n = min(csr.n_rows, csr.n_cols)
    rows = csr._row_of()
    present = np.zeros(n, dtype=bool)
    present[rows[rows == csr.indices]] = True
    return bool(present.all())


def add_diagonal_pattern(csr: CSRMatrix, value=0.0) -> CSRMatrix:
    """Return a copy with every diagonal position structurally present.

    Missing diagonal entries are inserted with ``value``; existing ones
    are untouched.
    """
    n = csr.n_rows
    chunks_c = []
    chunks_v = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for r in range(n):
        lo, hi = csr.indptr[r], csr.indptr[r + 1]
        cols = csr.indices[lo:hi]
        vals = csr.data[lo:hi]
        if r < csr.n_cols:
            k = np.searchsorted(cols, r)
            if k >= cols.shape[0] or cols[k] != r:
                cols = np.insert(cols, k, r)
                vals = np.insert(vals, k, value)
        chunks_c.append(cols)
        chunks_v.append(vals)
        indptr[r + 1] = indptr[r] + cols.shape[0]
    return CSRMatrix(
        n,
        csr.n_cols,
        indptr,
        np.concatenate(chunks_c) if chunks_c else np.empty(0, dtype=np.int64),
        np.concatenate(chunks_v) if chunks_v else np.empty(0),
        sort=False,
        check=False,
    )


def split_lu(csr: CSRMatrix):
    """Split a factored matrix into unit-diagonal L and U (both CSR).

    Javelin stores L and U together in the CSR of A (Fig. 1: "L and U
    are stored in A"); the triangular solves then need them separately.
    L gets an implicit unit diagonal made explicit; U keeps the diagonal.
    """
    n = csr.n_rows
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    l_cols, l_vals, u_cols, u_vals = [], [], [], []
    for r in range(n):
        cols, vals = csr.row(r)
        below = cols < r
        at_or_above = ~below
        lc = cols[below]
        lv = vals[below]
        # explicit unit diagonal for L
        lc = np.append(lc, r)
        lv = np.append(lv, 1.0)
        uc = cols[at_or_above]
        uv = vals[at_or_above]
        l_cols.append(lc)
        l_vals.append(lv)
        u_cols.append(uc)
        u_vals.append(uv)
        l_indptr[r + 1] = l_indptr[r] + lc.shape[0]
        u_indptr[r + 1] = u_indptr[r] + uc.shape[0]
    L = CSRMatrix(
        n, n, l_indptr, np.concatenate(l_cols), np.concatenate(l_vals), sort=False, check=False
    )
    U = CSRMatrix(
        n, n, u_indptr, np.concatenate(u_cols), np.concatenate(u_vals), sort=False, check=False
    )
    return L, U
