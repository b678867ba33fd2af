"""Even-Rows (ER) lower-stage method (§III-B, Figs. 7–8).

When more rows are excluded from level scheduling than there are
threads, each thread takes a contiguous block of the excluded rows and,
independently, eliminates each row's *upper-stage* columns
(``FACTOR_L``: everything left of the corner), accumulating updates
into the row's corner entries.  A barrier, then the corner block
(``L_{k,2}``/``U_{k,1}``) is factored — serially by default, which the
paper finds "good enough" for most matrices.

In permuted space the excluded rows are ``m .. n-1`` and the corner is
the trailing ``(n-m) × (n-m)`` block.  Because each row's columns are
still eliminated in ascending order, the numeric result is bit-identical
to the sequential reference; only the simulated timeline differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from .breakdown import classify_pivot
from .iluk import PivotBreakdownError

__all__ = ["EvenRows", "factor_lower_er", "simulate_lower_er"]


@dataclass
class EvenRows:
    """Static block partition of lower rows ``m .. n-1`` over threads."""

    m: int
    n: int
    n_threads: int

    def blocks(self):
        """Yield (thread, row_lo, row_hi) contiguous assignments."""
        total = self.n - self.m
        base, extra = divmod(total, self.n_threads)
        lo = self.m
        for t in range(self.n_threads):
            size = base + (1 if t < extra else 0)
            yield t, lo, lo + size
            lo += size


def _factor_row_range(F: CSRMatrix, i, diag_pos, col_lo, col_hi, *, pivot_tol=0.0):
    """Eliminate row ``i``'s strict-lower columns within ``[col_lo, col_hi)``.

    The ER split of Fig. 1's inner loop: FACTOR_L uses ``[0, m)``,
    the corner factorization uses ``[m, i)``.
    """
    indptr, indices, data = F.indptr, F.indices, F.data
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols = indices[lo:hi]
    ncols = cols.shape[0]
    for kk in range(lo, hi):
        c = int(indices[kk])
        if c >= min(i, col_hi):
            break
        if c < col_lo:
            continue
        pivot = data[diag_pos[c]]
        # same test as factor_row: zero, tiny, NaN and Inf all fail it
        if not (pivot_tol < abs(pivot) < np.inf):
            raise PivotBreakdownError(c, pivot, kind=classify_pivot(pivot, pivot_tol))
        lic = data[kk] / pivot
        data[kk] = lic
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


def factor_lower_er(F: CSRMatrix, m, diag_pos, *, pivot_tol=0.0):
    """Numerically factor lower rows with the ER phase structure.

    Phase 1 (parallel in the real runtime): per row, eliminate columns
    ``< m``.  Phase 2: factor the corner block row by row.  Row-internal
    column order is preserved, so the result matches the reference.
    """
    n = F.n_rows
    for r in range(m, n):
        _factor_row_range(F, r, diag_pos, 0, m, pivot_tol=pivot_tol)
    for r in range(m, n):
        _factor_row_range(F, r, diag_pos, m, r, pivot_tol=pivot_tol)
    return F


def simulate_lower_er(
    S: CSRMatrix,
    m,
    machine: SimMachine,
    split_costs,
    *,
    start_time=0.0,
    parallel_corner=False,
    numa_aware=False,
    trace: ExecutionTrace | None = None,
):
    """Simulate the ER stage starting at ``start_time``.

    Parameters
    ----------
    S:
        Permuted pattern (used only for row count here; costs are
        precomputed).
    split_costs:
        ``((flops_L, touched_L), (flops_C, touched_C))`` from
        :func:`repro.core.symbolic.row_factor_costs_split`.
    parallel_corner:
        The paper notes the corner "can be done in serial or parallel";
        serial is the default.  Parallel mode charges the corner's
        critical path (one level-scheduled sweep) instead of its sum.
    numa_aware:
        §V's proposed ER fix ("a more static scheduling or NUMA-aware
        blocking of the distribution of the lower rows"): blocks are
        first-touch local to their thread's socket, so their traffic is
        charged at local cost even when two sockets are active.

    Returns ``(makespan, trace)``.
    """
    n = S.n_rows
    p = machine.n_threads
    (fl, tl), (fc, tc) = split_costs
    if trace is None:
        trace = ExecutionTrace(p)
    er = EvenRows(m=m, n=n, n_threads=p)
    remote = 0.0 if numa_aware else None
    block_finish = np.full(p, float(start_time))
    for t, lo, hi in er.blocks():
        clock = float(start_time)
        for r in range(lo, hi):
            cost = machine.work_time(fl[r], tl[r], thread=t, remote=remote)
            trace.record(t, clock, clock + cost, label=("er_row", r))
            clock += cost
        block_finish[t] = clock
    clock = float(block_finish.max()) + machine.barrier_cost()
    if not parallel_corner:
        corner_cost = sum(
            machine.work_time(fc[r], tc[r], thread=0) for r in range(m, n)
        )
        if corner_cost > 0:
            trace.record(0, clock, clock + corner_cost, label=("er_corner",))
        clock += corner_cost
    else:
        # level-schedule the corner rows on their internal dependencies
        finish = {}
        thread_time = np.full(p, clock)
        for idx, r in enumerate(range(m, n)):
            t = idx % p
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            deps = cols[(cols >= m) & (cols < r)]
            start = thread_time[t]
            for d in deps:
                if int(d) in finish:
                    start = max(start, finish[int(d)] + machine.spec.spin_poll)
            cost = machine.work_time(fc[r], tc[r], thread=t)
            trace.record(t, start, start + cost, label=("er_corner_row", r))
            finish[int(r)] = start + cost
            thread_time[t] = start + cost
        clock = float(thread_time.max())
    return clock, trace
