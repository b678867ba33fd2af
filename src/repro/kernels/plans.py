"""Precomputed structures driving the level-batched kernels.

A :class:`TriSolvePlan` holds everything a batched triangular sweep
needs: the rows in level order, per-level boundaries, and — aligned
arrays — the storage index of every strict-part entry grouped by its
row's position in the level ordering.  With that in hand each level
solves as one gather / multiply / segment-reduce, and the plan is built
*without per-row Python loops* (one ``argsort`` over the strict-part
entries does the grouping), so symbolic setup scales with nnz.

The accumulation contract: within a row, entries appear in ascending
column order (CSR order, preserved by the stable sort), and the batched
segment reduction (:func:`numpy.bincount`) adds them strictly
sequentially in that order — exactly the scalar reference's
``s += data[k] * y[col[k]]`` loop, so the two backends agree
bit-for-bit.

A :class:`FactorPlan` drives the level-batched numeric ILU
(:mod:`repro.kernels.factor`): every strict-lower entry becomes one
division in a *step* ``(level, in-row rank)``, and each step carries the
``(target, source)`` multiply-subtract pairs its entries scatter into
their rows — the same operations, in the same per-entry order, as the
row-at-a-time :func:`~repro.core.iluk.factor_row`.

Also here: the array-level level-set computations shared by the plans
and the symbolic cache, and the whole-matrix diagonal locator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ordering.levelsets import LevelSets

__all__ = [
    "TriSolvePlan",
    "build_trisolve_plan",
    "FactorPlan",
    "build_factor_plan",
    "forward_level_sets",
    "backward_level_sets",
    "diag_positions",
    "build_producer_csr",
]


def _pack_levels(level_of, n):
    n_levels = int(level_of.max()) + 1 if n else 0
    counts = np.bincount(level_of, minlength=n_levels)
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=level_ptr[1:])
    rows = np.argsort(level_of, kind="stable").astype(np.int64)
    return LevelSets(level_of=level_of, level_ptr=level_ptr, rows=rows)


def forward_level_sets(pattern) -> LevelSets:
    """Level sets of the forward sweep: deps are strict-lower entries.

    Equivalent to ``level_sets_lower(lower_pattern(S))`` without the
    pattern copy.
    """
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    level_of = np.zeros(n, dtype=np.int64)
    for r in range(n):
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r]
        if deps.size:
            level_of[r] = int(level_of[deps].max()) + 1
    return _pack_levels(level_of, n)


def backward_level_sets(pattern) -> LevelSets:
    """Level sets of the backward sweep: deps are strict-upper entries.

    ``level[i] = 1 + max(level[j] : j > i, s_ij ≠ 0)`` computed bottom to
    top; rows solved first (no upper deps) land in level 0.
    """
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    level_of = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        cols = indices[indptr[i] : indptr[i + 1]]
        deps = cols[cols > i]
        if deps.size:
            level_of[i] = int(level_of[deps].max()) + 1
    return _pack_levels(level_of, n)


def diag_positions(pattern, *, message="missing diagonal in factored row {row}"):
    """Storage index of every ``(r, r)`` entry, whole-matrix vectorized.

    One ``searchsorted`` over global ``(row, col)`` keys replaces the
    per-row loop; ``message`` keeps the caller's historical
    ``ValueError`` diagnostics (``{row}`` is substituted).
    """
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ncol = np.int64(pattern.n_cols)
    keys = (
        np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * ncol + indices
    )
    want = np.arange(n, dtype=np.int64) * (ncol + 1)
    pos = np.searchsorted(keys, want)
    nnz = keys.shape[0]
    bad = (pos >= nnz) | (keys[np.minimum(pos, nnz - 1)] != want)
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(message.format(row=row))
    return pos.astype(np.int64)


@dataclass
class TriSolvePlan:
    """Gather/scatter structure for one level-batched triangular sweep.

    ``ent_idx[lev_ent_ptr[l]:lev_ent_ptr[l+1]]`` are the storage indices
    of the strict-``part`` entries of level ``l``'s rows, grouped by row
    (ascending row id within the level, ascending column within a row);
    ``ent_local`` maps each entry to its row's local index inside the
    level.  ``diag_idx`` is present for upper sweeps only.
    """

    part: str
    n: int
    rows: np.ndarray
    level_ptr: np.ndarray
    ent_idx: np.ndarray
    ent_local: np.ndarray
    lev_ent_ptr: np.ndarray
    diag_idx: np.ndarray | None = None

    @property
    def n_levels(self):
        return self.level_ptr.shape[0] - 1


def build_trisolve_plan(pattern, part, *, levels=None, diag_idx=None) -> TriSolvePlan:
    """Build the batched sweep structure for ``part`` ('lower'|'upper').

    ``levels`` (a :class:`LevelSets`) and ``diag_idx`` can be supplied
    by the symbolic cache to avoid recomputation.
    """
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    if levels is None:
        levels = forward_level_sets(pattern) if part == "lower" else backward_level_sets(pattern)
    if part == "upper" and diag_idx is None:
        diag_idx = diag_positions(pattern)
    rows = np.asarray(levels.rows, dtype=np.int64)
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)

    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    mask = indices < row_of if part == "lower" else indices > row_of
    ent_all = np.flatnonzero(mask)  # CSR order: row-major, ascending column
    # position of each entry's row in the level ordering
    pos_of_row = np.empty(n, dtype=np.int64)
    pos_of_row[rows] = np.arange(n, dtype=np.int64)
    key = pos_of_row[row_of[ent_all]]
    order = np.argsort(key, kind="stable")  # stable: column order survives
    ent_idx = ent_all[order]
    ent_pos = key[order]
    # per-level entry boundaries: cumulative strict-part counts in level order
    cnt = np.bincount(row_of[ent_all], minlength=n) if ent_all.size else np.zeros(n, dtype=np.int64)
    row_ent_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt[rows], out=row_ent_ptr[1:])
    lev_ent_ptr = row_ent_ptr[level_ptr]
    # local row index within the level
    lev_of_ent = np.searchsorted(level_ptr, ent_pos, side="right") - 1
    ent_local = ent_pos - level_ptr[lev_of_ent]
    return TriSolvePlan(
        part=part,
        n=n,
        rows=rows,
        level_ptr=level_ptr,
        ent_idx=ent_idx,
        ent_local=ent_local,
        lev_ent_ptr=lev_ent_ptr,
        diag_idx=diag_idx,
    )


@dataclass
class FactorPlan:
    """Step schedule of the level-batched numeric ILU on one pattern.

    Step ``s`` covers the strict-lower entries ``kk[step_ptr[s]:
    step_ptr[s+1]]`` (storage slots, ascending row) that sit at one
    in-row rank of the rows of one level; ``piv`` is each entry's pivot
    slot ``diag_idx[col]``.  Its multiply-subtract pairs are
    ``tgt/src/ent[pair_ptr[s]:pair_ptr[s+1]]``: ``data[tgt] -=
    lic[ent] * data[src]`` where ``lic`` is the step's multiplier vector
    and ``src`` runs over the pivot row's strict-upper entries that meet
    the target row's pattern.  Level ``l`` owns steps
    ``level_step_ptr[l]:level_step_ptr[l+1]``; ``rows``/``level_ptr``
    (the forward level sets) and ``diag_idx`` are shared with the cache.
    Entry and pair arrays are int32 (int64 past 2**31 stored entries).
    """

    rows: np.ndarray
    level_ptr: np.ndarray
    diag_idx: np.ndarray
    level_step_ptr: np.ndarray
    step_ptr: np.ndarray
    kk: np.ndarray
    piv: np.ndarray
    pair_ptr: np.ndarray
    tgt: np.ndarray
    src: np.ndarray
    ent: np.ndarray

    @property
    def n_levels(self):
        return self.level_ptr.shape[0] - 1

    @property
    def n_steps(self):
        return self.step_ptr.shape[0] - 1


#: candidate pairs expanded per chunk by :func:`build_factor_plan`; bounds
#: its int64 temporaries to a few MB whatever the pattern size
FACTOR_PLAN_CHUNK = 1 << 16


def build_factor_plan(pattern, *, levels=None, diag_idx=None) -> FactorPlan:
    """Build the :class:`FactorPlan` of ``pattern`` with array operations.

    Strict-lower entries are ordered by one stable argsort on
    ``(level(row), rank)``, so a step lists its rows in ascending order.
    The pivot rows' strict-upper entries are expanded in that order,
    about :data:`FACTOR_PLAN_CHUNK` candidates at a time, and
    located in the target row with one ``searchsorted`` over global
    ``(row, col)`` keys; hits are kept, so the pairs come out grouped by
    step.  ``levels``/``diag_idx`` are supplied by the symbolic cache.
    """
    n = pattern.n_rows
    indptr = np.asarray(pattern.indptr, dtype=np.int64)
    indices = np.asarray(pattern.indices, dtype=np.int64)
    if levels is None:
        levels = forward_level_sets(pattern)
    if diag_idx is None:
        diag_idx = diag_positions(pattern)
    level_ptr = np.asarray(levels.level_ptr)
    n_levels = level_ptr.shape[0] - 1
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    lower = np.flatnonzero(indices < row_of)
    rows_l = row_of[lower]
    rank = lower - indptr[rows_l]
    width = int(rank.max()) + 1 if lower.size else 1
    step_key = np.asarray(levels.level_of, dtype=np.int64)[rows_l] * width + rank
    order = np.argsort(step_key, kind="stable")  # stable: rows ascend in a step
    kk = lower[order]
    step_key = step_key[order]
    del lower, rows_l, rank, order
    first = np.flatnonzero(np.diff(step_key)) + 1
    step_ptr = np.concatenate(([0], first, [kk.size])) if kk.size else np.zeros(1, np.int64)
    step_level = step_key[step_ptr[:-1]] // width
    level_step_ptr = np.searchsorted(step_level, np.arange(n_levels + 1))
    del step_key, first, step_level

    # pairs: entry (i, c) scatters the pivot row c's strict-upper entries
    # into the positions of row i with the same column
    ncol = np.int64(pattern.n_cols)
    keys = row_of * ncol + indices
    tgt_row = row_of[kk]
    del row_of
    piv_row = indices[kk]
    piv = np.asarray(diag_idx, dtype=np.int64)[piv_row]
    u_lo = piv + 1
    cnt = indptr[piv_row + 1] - u_lo
    cum = np.concatenate(([0], np.cumsum(cnt)))
    nnz = keys.shape[0]
    idx_t = np.int32 if nnz < 2**31 else np.int64
    tgts, srcs, ents = [], [], []
    e_lo = 0
    while e_lo < kk.size:
        e_hi = int(np.searchsorted(cum, cum[e_lo] + FACTOR_PLAN_CHUNK, side="right")) - 1
        e_hi = max(e_hi, e_lo + 1)
        c = cnt[e_lo:e_hi]
        total = int(cum[e_hi] - cum[e_lo])
        if total:
            src = np.repeat(u_lo[e_lo:e_hi] - (cum[e_lo:e_hi] - cum[e_lo]), c)
            src += np.arange(total, dtype=np.int64)
            want = np.repeat(tgt_row[e_lo:e_hi] * ncol, c) + indices[src]
            pos = np.searchsorted(keys, want)
            np.minimum(pos, nnz - 1, out=pos)
            hit = keys[pos] == want
            tgts.append(pos[hit].astype(idx_t))
            srcs.append(src[hit].astype(idx_t))
            ents.append(np.repeat(np.arange(e_lo, e_hi, dtype=idx_t), c)[hit])
        e_lo = e_hi
    del keys, u_lo, cnt, cum, tgt_row
    cat = lambda parts: np.concatenate(parts) if parts else np.empty(0, dtype=idx_t)
    tgt, src, ent = cat(tgts), cat(srcs), cat(ents)
    # entries are in step order, hence so are the pairs; make ``ent``
    # step-local and cut the pair boundaries per step
    n_steps = step_ptr.shape[0] - 1
    pair_step = np.repeat(np.arange(n_steps, dtype=idx_t), np.diff(step_ptr))[ent]
    pair_ptr = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_step, minlength=n_steps), out=pair_ptr[1:])
    ent -= step_ptr[:-1].astype(idx_t)[pair_step]
    return FactorPlan(
        rows=levels.rows,
        level_ptr=levels.level_ptr,
        diag_idx=diag_idx,
        level_step_ptr=level_step_ptr.astype(np.int64),
        step_ptr=step_ptr.astype(np.int64),
        kk=kk.astype(idx_t),
        piv=piv.astype(idx_t),
        pair_ptr=pair_ptr,
        tgt=tgt,
        src=src,
        ent=ent,
    )


def build_producer_csr(S, m, thread_of):
    """Per-row producer table for the p2p DES, built in one shot.

    For every row ``r < m`` and every *other* thread ``u`` owning at
    least one of ``r``'s strict-lower dependencies, record the latest
    such dependency row (its finish bounds every earlier one under the
    implied ordering).  Returns ``(ptr, producer_thread, latest_dep)``
    as a CSR-like triple over rows — the per-row ``np.unique`` +
    boolean-mask work the scalar DES loop repeats is done once here.
    """
    thread_of = np.asarray(thread_of, dtype=np.int64)
    p = int(thread_of.max()) + 1 if thread_of.size else 1
    ptr = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        return ptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    end = int(S.indptr[m])
    cols = S.indices[:end]
    row_of = np.repeat(np.arange(m, dtype=np.int64), np.diff(S.indptr[: m + 1]))
    dep_mask = cols < row_of  # deps of r<m are all < r, hence below m too
    d = cols[dep_mask]
    r_of = row_of[dep_mask]
    if d.size == 0:
        return ptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    u = thread_of[d]
    key = r_of * p + u
    order = np.argsort(key, kind="stable")  # within a group, dep rows ascend
    ks = key[order]
    ds = d[order]
    last = np.flatnonzero(np.r_[ks[1:] != ks[:-1], np.ones(1, dtype=bool)])
    gkey = ks[last]
    latest = ds[last]
    g_row = gkey // p
    g_u = gkey % p
    keep = g_u != thread_of[g_row]  # program order covers same-thread deps
    g_row, g_u, latest = g_row[keep], g_u[keep], latest[keep]
    np.cumsum(np.bincount(g_row, minlength=m), out=ptr[1:])
    return ptr, g_u, latest
