"""Sequential up-looking incomplete LU — the numerical reference.

This is Fig. 1 of the paper verbatim: rows top to bottom; within row
``i`` scan the strict-lower pattern columns ``c`` in ascending order,
divide by the pivot ``a_cc``, then apply multiply-subtract updates to
the positions of row ``i`` that also appear in the upper part of row
``c``.  L and U are stored together in one CSR matrix (unit diagonal of
L implicit).

Every parallel execution path in the framework (upper stage p2p/barrier,
Even-Rows, Segmented-Rows, the threaded runtime) must reproduce this
factorization *exactly* — the dependency structure makes traditional ILU
deterministic, which is the robustness property the paper contrasts with
the fine-grained asynchronous method of Chow & Patel.  Tests assert
bit-for-bit agreement.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .breakdown import FactorizationBreakdown, classify_pivot
from .symbolic import ilu0_pattern, iluk_pattern

__all__ = [
    "ilu_factor_sequential",
    "ilu_refactor",
    "ilu0_factor",
    "PivotBreakdownError",
    "factor_row",
]


class PivotBreakdownError(FactorizationBreakdown, ZeroDivisionError):
    """A structurally present pivot evaluated to (near) zero or non-finite.

    Javelin does not pivot (§III), so factorization must abort; the
    paper's WSMP comparison marks such failures with an 'x'.  The
    structured fields (``row``, ``value``, ``kind``) feed the retry
    driver in :mod:`repro.resilience`.
    """

    def __init__(self, row, value, kind="zero"):
        super().__init__(row, value, kind=kind)


def _scatter_values(S: CSRMatrix, A: CSRMatrix):
    """Copy A's values into the (superset) pattern S; missing → 0.

    One whole-matrix ``searchsorted`` over global ``(row, col)`` keys —
    rows ascend and columns ascend within a row, so the keys are sorted
    and every entry of A locates its slot in S in a single pass.
    """
    F = S.pattern_copy()
    F.data[:] = 0.0
    if A.nnz:
        ncol = np.int64(F.n_cols)
        f_keys = (
            np.repeat(np.arange(F.n_rows, dtype=np.int64), np.diff(F.indptr)) * ncol
            + F.indices
        )
        a_keys = (
            np.repeat(np.arange(A.n_rows, dtype=np.int64), np.diff(A.indptr)) * ncol
            + A.indices
        )
        pos = np.searchsorted(f_keys, a_keys)
        nnz_f = f_keys.shape[0]
        bad = (pos >= nnz_f) | (f_keys[np.minimum(pos, nnz_f - 1)] != a_keys)
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            r = int(np.searchsorted(A.indptr, k, side="right")) - 1
            raise ValueError(f"pattern S does not contain all of A's row {r}")
        F.data[pos] = A.data
    return F


def factor_row(F: CSRMatrix, i, diag_pos, pivot_tol=0.0):
    """Factor row ``i`` of F in place (all pivot rows < i must be done).

    ``diag_pos[r]`` is the storage index of ``F[r, r]``.  This is the
    unit of work every executor schedules; keeping it a standalone
    function lets the sequential reference, the simulated stages and the
    threaded runtime share one numerical kernel.  ``pivot_tol`` is the
    pivot floor: a pivot with ``|p| <= pivot_tol``, or a non-finite
    pivot, raises :class:`PivotBreakdownError` instead of dividing
    through and poisoning every dependent row.
    """
    indptr, indices, data = F.indptr, F.indices, F.data
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols = indices[lo:hi]
    ncols = cols.shape[0]
    inf = float("inf")
    for kk in range(lo, hi):
        c = int(indices[kk])
        if c >= i:
            break
        pivot = data[diag_pos[c]]
        # one comparison covers zero, tiny AND NaN/Inf: abs(NaN) > tol
        # is False and abs(Inf) < inf is False, so both fall through
        if not (pivot_tol < abs(pivot) < inf):
            raise PivotBreakdownError(c, pivot, kind=classify_pivot(pivot, pivot_tol))
        lic = data[kk] / pivot
        data[kk] = lic
        # update row i positions matching the upper part of row c —
        # batched: one searchsorted over the pivot row's upper columns
        # (same element order as the scalar loop, so bit-identical)
        c_lo, c_hi = int(indptr[c]), int(indptr[c + 1])
        u_cols = indices[c_lo:c_hi]
        start = int(np.searchsorted(u_cols, c + 1))
        if c_lo + start == c_hi:
            continue
        u_cols = u_cols[start:]
        pos = np.searchsorted(cols, u_cols)
        pos[pos == ncols] = ncols - 1
        hit = cols[pos] == u_cols
        if np.any(hit):
            data[lo + pos[hit]] -= lic * data[c_lo + start : c_hi][hit]


def drop_row_fixed_pattern(F: CSRMatrix, r, diag_pos, threshold, *, modified=False):
    """Numerical dropping with a fixed pattern, applied at row completion.

    Entries of row ``r`` with ``|v| < threshold`` are zeroed (the storage
    slot stays, so the schedule and the stri structure are untouched —
    the way Javelin supports ILU(k, τ) without re-planning).  With
    ``modified`` the dropped mass is added to the diagonal (MILU
    compensation), preserving the row sum.  The diagonal itself is never
    dropped.  Returns the total mass dropped.
    """
    lo, hi = int(F.indptr[r]), int(F.indptr[r + 1])
    dpos = int(diag_pos[r])
    dropped = 0.0
    for kk in range(lo, hi):
        if kk == dpos:
            continue
        v = F.data[kk]
        if v != 0.0 and abs(v) < threshold:
            dropped += v
            F.data[kk] = 0.0
    if modified and dropped != 0.0:
        F.data[dpos] += dropped
    return dropped


def _diag_positions(S: CSRMatrix):
    """Storage index of each diagonal entry, one whole-matrix searchsorted."""
    from ..kernels import diag_positions

    return diag_positions(S, message="pattern has no diagonal entry in row {row}")


def factor_rows(F: CSRMatrix, diag_pos, *, pivot_tol=0.0, drop_threshold=None, modified=False):
    """Factor every row of ``F`` in place, rows ``0..n-1`` in order.

    The sequential up-looking row loop shared by the references
    (:func:`ilu_factor_sequential`, the ``scalar`` ``ilu_factor``
    kernel).  With ``drop_threshold`` each row gets fixed-pattern
    ILU(k, τ) dropping at its completion.
    """
    for r in range(F.n_rows):
        factor_row(F, r, diag_pos, pivot_tol=pivot_tol)
        if drop_threshold is not None:
            drop_row_fixed_pattern(F, r, diag_pos, drop_threshold[r], modified=modified)
    return F


def ilu_factor_sequential(A: CSRMatrix, S: CSRMatrix | None = None, *, pivot_tol=0.0):
    """Up-looking ILU of A on pattern S (default: ILU(0) pattern).

    Returns the factored CSR matrix holding L (strictly below the
    diagonal, unit diagonal implicit) and U (diagonal and above).
    """
    if S is None:
        S = ilu0_pattern(A)
    F = _scatter_values(S, A)
    return factor_rows(F, _diag_positions(F), pivot_tol=pivot_tol)


def ilu_refactor(A: CSRMatrix, S: CSRMatrix, *, pivot_tol=0.0):
    """Value-only numeric phase: factor new values on a known pattern ``S``.

    The symbolic identity of an incomplete factorization is
    ``(indptr, indices)`` alone — so when only values change (a Newton
    step, an implicit time step), the diagonal positions come from the
    pattern-keyed symbolic cache instead of being recomputed, and no
    pattern analysis runs at all.  Bitwise identical to
    :func:`ilu_factor_sequential` on the same ``(A, S)``; the only
    difference is where ``diag_pos`` comes from.

    This is the sequential reference for the value-only path; the
    staged equivalent is :meth:`repro.core.javelin.JavelinILU.refactor`.
    """
    from ..kernels import get_kernel

    return get_kernel("ilu_factor", "scalar")(_scatter_values(S, A), pivot_tol=pivot_tol)


def ilu0_factor(A: CSRMatrix, *, pivot_tol=0.0):
    """ILU(0): factor on the pattern of A itself."""
    return ilu_factor_sequential(A, ilu0_pattern(A), pivot_tol=pivot_tol)


def iluk_factor(A: CSRMatrix, k: int, *, pivot_tol=0.0):
    """ILU(k): symbolic level-of-fill pattern, then numeric up-looking."""
    S = iluk_pattern(A, k)
    return ilu_factor_sequential(A, S, pivot_tol=pivot_tol)
