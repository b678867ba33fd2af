"""Threaded executors for the p2p-scheduled kernels.

``threaded_factor`` runs the upper-stage algorithm with real
``threading.Thread`` workers: rows dealt round-robin in level order,
each worker factoring its rows in sequence and spin-waiting on the
:class:`~repro.runtime.pointtopoint.ProgressBoard` for cross-thread
dependencies.  ``threaded_trisolve_lower`` does the same for the
forward solve.  Both must produce results bit-identical to their
sequential counterparts — that determinism is the point.

Resilience (``docs/resilience.md``): both executors accept a
:class:`repro.resilience.FaultPlan` (straggler sleeps, dropped publish
notifications) and run a *watchdog* around every dependency wait.  A
wait that exceeds ``watchdog_timeout`` wall-clock seconds — a lost
notification, a dead producer — sets a shared stop event; every worker
drains out, and the rows left incomplete are finished sequentially in
ascending order, which is exactly the barrier (CSR-LS) schedule.  The
fallback is numerically safe because every dependency of row ``r`` is a
row ``< r``, and a ``done[]`` flag array (written by workers *before*
publishing) guarantees no completed row is ever re-factored —
``factor_row`` divides in place and is not idempotent.  Faults
therefore cost time, never correctness: results under any plan are
bit-identical to the fault-free run.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..core.iluk import factor_row, _diag_positions, _scatter_values
from ..core.upper import assign_round_robin
from ..kernels.trisolve import solve_row
from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from .pointtopoint import FaultInjectedBoard, ProgressBoard

__all__ = ["deps_by_producer", "threaded_factor", "threaded_trisolve_lower"]


def _traced_wait(board, u, need, *, timeout, stop, rec, row):
    """One dependency wait, wrapped in a ``wait`` span when tracing.

    The span brackets the spin only — it reads the clock and appends an
    event, so the wait's outcome (and therefore the factor bits) is
    identical with tracing on or off.
    """
    if rec is None:
        return board.try_wait(u, need, timeout=timeout, stop=stop)
    with rec.span("wait", cat="runtime", producer=int(u), need=int(need), row=int(row)):
        return board.try_wait(u, need, timeout=timeout, stop=stop)


def deps_by_producer(S, r, thread_of, own_thread):
    """Latest dependency row per distinct producer thread (pruned waits)."""
    cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
    deps = cols[cols < r]
    out = {}
    for d in deps:
        u = int(thread_of[d])
        if u == own_thread:
            continue
        if d > out.get(u, -1):
            out[u] = int(d)
    return out


def _make_board(n_threads, fault_plan, fault_report):
    if fault_plan is not None and fault_plan.dropped:
        return FaultInjectedBoard(n_threads, fault_plan, report=fault_report)
    return ProgressBoard(n_threads)


def _straggler_sleep(fault_plan, t):
    """Per-row wall-clock delay of a straggler thread (0 when healthy)."""
    if fault_plan is None or fault_plan.real_sleep_per_row <= 0.0:
        return 0.0
    return fault_plan.real_sleep_per_row * (fault_plan.rate(t) - 1.0)


def threaded_factor(
    A: CSRMatrix,
    S: CSRMatrix,
    level_ptr,
    n_threads,
    *,
    pivot_tol=0.0,
    fault_plan=None,
    fault_report=None,
    watchdog_timeout=5.0,
):
    """Factor A on pattern S with real threads + p2p synchronization.

    ``A`` and ``S`` must already be in level order and ``level_ptr``
    must cover all rows (the LS-only configuration).  Returns the
    combined L\\U factor.

    ``fault_plan`` injects faults (see :mod:`repro.resilience.faults`);
    ``watchdog_timeout`` bounds every dependency wait in wall-clock
    seconds — on expiry the run falls back to the sequential barrier
    schedule for the remaining rows (recorded in ``fault_report``).
    The returned factor is bit-identical either way.
    """
    F = _scatter_values(S, A)
    diag_pos = _diag_positions(F)
    n = F.n_rows
    if int(level_ptr[-1]) != n:
        raise ValueError("level_ptr must cover every row")
    thread_of = assign_round_robin(level_ptr, n_threads)
    board = _make_board(n_threads, fault_plan, fault_report)
    done = np.zeros(n, dtype=bool)
    stop = threading.Event()
    stalled = []
    errors = []

    def worker(t):
        try:
            rec = _spans.active()
            sleep_per_row = _straggler_sleep(fault_plan, t)
            my_rows = np.nonzero(thread_of == t)[0]
            for r in my_rows:
                r = int(r)
                if stop.is_set():
                    return
                for u, need in deps_by_producer(S, r, thread_of, t).items():
                    if not _traced_wait(
                        board, u, need, timeout=watchdog_timeout, stop=stop, rec=rec, row=r
                    ):
                        if not stop.is_set():
                            stalled.append((t, u, need))
                            stop.set()
                            if rec is not None:
                                rec.instant(
                                    "watchdog", cat="runtime",
                                    row=r, producer=int(u), need=int(need),
                                )
                        return
                if sleep_per_row:
                    time.sleep(sleep_per_row)
                with _spans.span("factor_row", cat="runtime", row=r):
                    factor_row(F, r, diag_pos, pivot_tol=pivot_tol)
                done[r] = True  # before publish: truth even if the publish drops
                board.publish(t, r)
        except BaseException as e:  # surface worker failures to the caller
            errors.append(e)
            stop.set()  # don't leave the other workers spinning forever

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    if stop.is_set():
        # watchdog fallback: barrier-schedule the remaining rows.  All
        # workers have joined, deps of row r are rows < r, and done[]
        # keeps non-idempotent factor_row off completed rows.
        n_fallback = 0
        with _spans.span("watchdog_fallback", cat="runtime"):
            for r in range(n):
                if not done[r]:
                    factor_row(F, r, diag_pos, pivot_tol=pivot_tol)
                    n_fallback += 1
        if fault_report is not None:
            fault_report.watchdog_engaged = True
            fault_report.n_fallback_rows = n_fallback
            fault_report.stalls.extend(stalled)
    return F


def threaded_trisolve_lower(
    F: CSRMatrix,
    b,
    level_ptr,
    n_threads,
    *,
    fault_plan=None,
    fault_report=None,
    watchdog_timeout=5.0,
):
    """Forward solve ``L y = b`` with real threads + p2p sync.

    Same watchdog/fallback contract as :func:`threaded_factor`.
    """
    n = F.n_rows
    if int(level_ptr[-1]) != n:
        raise ValueError("level_ptr must cover every row")
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(n)
    thread_of = assign_round_robin(level_ptr, n_threads)
    board = _make_board(n_threads, fault_plan, fault_report)
    done = np.zeros(n, dtype=bool)
    stop = threading.Event()
    stalled = []
    errors = []

    def worker(t):
        try:
            rec = _spans.active()
            sleep_per_row = _straggler_sleep(fault_plan, t)
            my_rows = np.nonzero(thread_of == t)[0]
            for r in my_rows:
                r = int(r)
                if stop.is_set():
                    return
                for u, need in deps_by_producer(F, r, thread_of, t).items():
                    if not _traced_wait(
                        board, u, need, timeout=watchdog_timeout, stop=stop, rec=rec, row=r
                    ):
                        if not stop.is_set():
                            stalled.append((t, u, need))
                            stop.set()
                            if rec is not None:
                                rec.instant(
                                    "watchdog", cat="runtime",
                                    row=r, producer=int(u), need=int(need),
                                )
                        return
                if sleep_per_row:
                    time.sleep(sleep_per_row)
                with _spans.span("solve_row", cat="runtime", row=r):
                    solve_row(F, y, b, r, False)
                done[r] = True
                board.publish(t, r)
        except BaseException as e:
            errors.append(e)
            stop.set()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    if stop.is_set():
        n_fallback = 0
        with _spans.span("watchdog_fallback", cat="runtime"):
            for r in range(n):
                if not done[r]:
                    solve_row(F, y, b, r, False)
                    n_fallback += 1
        if fault_report is not None:
            fault_report.watchdog_engaged = True
            fault_report.n_fallback_rows = n_fallback
            fault_report.stalls.extend(stalled)
    return y
