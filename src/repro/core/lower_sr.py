"""Segmented-Rows (SR) lower-stage method (§III-B, Figs. 5–6).

The excluded rows' sub-diagonal entries are grouped into *subblocks*
``L_{k,i}`` by the level (in the upper stage's level sets) of the column
they sit in.  Because the levels were computed on ``lower(A + Aᵀ)``,
columns within one subblock are mutually independent — the key
observation that lets the subblock be carved into fixed-size CSR5-style
*tiles* processed as vector operations.

Per Fig. 6, the execution is a task DAG:

* ``DIVIDE_COLUMNS(L_{k,i}, tile)`` — divide tile entries by the final
  diagonal of their column;
* ``UPDATE_BLOCK(L_{k,i} → L_{k,j}, tile)`` — multiply-subtract the
  tile's contribution into later subblocks (j > i) and the corner;
* ``FACTOR_LU`` — factor the trailing corner block once every update
  has landed.

The numeric path processes entries in ascending column order (levels are
contiguous in the permuted numbering), which reproduces the sequential
reference bit-for-bit; the simulated path builds a
:class:`~repro.machine.tasking.TaskGraph` and runs it through the
OpenMP-task model, whose per-task overheads are what the paper observes
drowning SR's benefit at 68 KNL threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.core import SimMachine
from ..machine.tasking import TaskGraph, simulate_task_graph
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from .breakdown import classify_pivot
from .iluk import PivotBreakdownError
from .lower_er import _factor_row_range

__all__ = ["SegmentedRows", "factor_lower_sr", "simulate_lower_sr"]


@dataclass
class SegmentedRows:
    """Tiled subblock structure of the lower-left block.

    Attributes
    ----------
    m:
        First lower row / corner column (permuted numbering).
    level_ptr:
        Upper-stage level boundaries (permuted row ids).
    tile_size:
        Entries per tile (user option; Fig. 5's tiles can span rows).
    sub_entries:
        Per upper level ``i``, an (n_i, 3) int array of
        ``(storage_idx, row, col)`` entries of ``L_{k,i}``, sorted by
        (col, row).
    """

    m: int
    level_ptr: np.ndarray
    tile_size: int
    sub_entries: list = field(default_factory=list)

    @classmethod
    def build(cls, S: CSRMatrix, m, level_ptr, tile_size=64):
        n = S.n_rows
        level_ptr = np.asarray(level_ptr, dtype=np.int64)
        n_levels = level_ptr.shape[0] - 1
        per_level = [[] for _ in range(n_levels)]
        for r in range(m, n):
            lo, hi = int(S.indptr[r]), int(S.indptr[r + 1])
            for kk in range(lo, hi):
                c = int(S.indices[kk])
                if c >= m:
                    break
                lvl = int(np.searchsorted(level_ptr, c, side="right")) - 1
                per_level[lvl].append((kk, r, c))
        sub_entries = []
        for lvl in range(n_levels):
            ents = per_level[lvl]
            ents.sort(key=lambda e: (e[2], e[1]))
            sub_entries.append(np.asarray(ents, dtype=np.int64).reshape(-1, 3))
        return cls(m=m, level_ptr=level_ptr, tile_size=int(tile_size), sub_entries=sub_entries)

    @property
    def n_levels(self):
        return len(self.sub_entries)

    def tiles_of(self, lvl):
        """Yield (tile_id_within_level, entry_array) chunks for level lvl."""
        ents = self.sub_entries[lvl]
        for tid, lo in enumerate(range(0, ents.shape[0], self.tile_size)):
            yield tid, ents[lo : lo + self.tile_size]

    def n_tiles(self, lvl=None):
        if lvl is not None:
            return -(-self.sub_entries[lvl].shape[0] // self.tile_size) if self.sub_entries[lvl].shape[0] else 0
        return sum(self.n_tiles(l) for l in range(self.n_levels))

    def level_of_col(self, c):
        if c >= self.m:
            return self.n_levels  # corner pseudo-level
        return int(np.searchsorted(self.level_ptr, c, side="right")) - 1


def factor_lower_sr(F: CSRMatrix, sr: SegmentedRows, diag_pos, *, pivot_tol=0.0):
    """Numerically factor the lower rows with the SR phase structure.

    Subblocks are processed in ascending level; within a subblock,
    entries in ascending column order.  Global column order is therefore
    ascending (levels are contiguous in permuted ids), so each target
    position accumulates its updates in exactly the reference order.
    """
    indptr, indices, data = F.indptr, F.indices, F.data
    m, n = sr.m, F.n_rows
    for lvl in range(sr.n_levels):
        for kk, r, c in sr.sub_entries[lvl]:
            pivot = data[diag_pos[c]]
            # same test as factor_row: zero, tiny, NaN and Inf all fail it
            if not (pivot_tol < abs(pivot) < np.inf):
                raise PivotBreakdownError(int(c), pivot, kind=classify_pivot(pivot, pivot_tol))
            lic = data[kk] / pivot
            data[kk] = lic
            c_lo, c_hi = int(indptr[c]), int(indptr[c + 1])
            u_cols = indices[c_lo:c_hi]
            start = int(np.searchsorted(u_cols, c + 1))
            if c_lo + start == c_hi:
                continue
            r_lo, r_hi = int(indptr[r]), int(indptr[r + 1])
            row_cols = indices[r_lo:r_hi]
            nrc = row_cols.shape[0]
            u_cols = u_cols[start:]
            pos = np.searchsorted(row_cols, u_cols)
            pos[pos == nrc] = nrc - 1
            hit = row_cols[pos] == u_cols
            if np.any(hit):
                data[r_lo + pos[hit]] -= lic * data[c_lo + start : c_hi][hit]
    # corner FACTOR_LU
    for r in range(m, n):
        _factor_row_range(F, r, diag_pos, m, r, pivot_tol=pivot_tol)
    return F


def _tile_update_counts(S: CSRMatrix, sr: SegmentedRows, tile_entries):
    """Per-target-level (flops, touched) of one tile's UPDATE_BLOCK work."""
    indptr, indices = S.indptr, S.indices
    counts = {}
    for kk, r, c in tile_entries:
        c = int(c)
        r = int(r)
        c_lo, c_hi = int(indptr[c]), int(indptr[c + 1])
        u_cols = indices[c_lo:c_hi]
        u_cols = u_cols[u_cols > c]
        r_cols = indices[int(indptr[r]) : int(indptr[r + 1])]
        for j in u_cols:
            tgt = sr.level_of_col(int(j))
            f, t = counts.get(tgt, (0.0, 0.0))
            t += 1.0
            ppos = int(np.searchsorted(r_cols, int(j)))
            if ppos < r_cols.shape[0] and r_cols[ppos] == j:
                f += 2.0
            counts[tgt] = (f, t)
    return counts


def simulate_lower_sr(
    S: CSRMatrix,
    sr: SegmentedRows,
    machine: SimMachine,
    corner_costs,
    *,
    start_time=0.0,
    runtime="openmp",
):
    """Simulate the SR stage's task DAG on the machine's task runtime.

    Parameters
    ----------
    corner_costs:
        ``(flops_C, touched_C)`` arrays (full length n) for the corner
        rows, from :func:`repro.core.symbolic.row_factor_costs_split`.

    Returns ``(makespan, trace)`` with times offset by ``start_time``.
    """
    graph = TaskGraph()
    updates_targeting = {lvl: [] for lvl in range(sr.n_levels + 1)}

    for lvl in range(sr.n_levels):
        for tid, ents in sr.tiles_of(lvl):
            nent = ents.shape[0]
            div_cost = lambda th, ne=nent: machine.work_time(
                ne, 2.0 * ne, thread=th, vectorized=True
            )
            div_id = graph.add(
                div_cost,
                deps=updates_targeting[lvl],
                label=("sr_div", lvl, tid),
            )
            for tgt, (f, t) in sorted(_tile_update_counts(S, sr, ents).items()):
                upd_cost = lambda th, f=f, t=t: machine.work_time(
                    f, t, thread=th, vectorized=True
                )
                upd_id = graph.add(upd_cost, deps=(div_id,), label=("sr_upd", lvl, tid, tgt))
                if tgt <= sr.n_levels:
                    updates_targeting.setdefault(tgt, []).append(upd_id)

    fc, tc = corner_costs
    corner_total_f = float(fc[sr.m :].sum())
    corner_total_t = float(tc[sr.m :].sum())
    corner_deps = updates_targeting[sr.n_levels]
    graph.add(
        lambda th: machine.work_time(corner_total_f, corner_total_t, thread=th),
        deps=corner_deps,
        label=("sr_corner",),
    )

    makespan, trace = simulate_task_graph(graph, machine, runtime=runtime)
    # shift to the stage's start time
    shifted = ExecutionTrace(machine.n_threads)
    for iv in trace.intervals:
        shifted.record(iv.thread, iv.start + start_time, iv.stop + start_time, iv.label)
    return makespan + start_time, shifted
