"""Real-thread superstep executor.

The superstep plan's whole synchronization budget is one barrier per
superstep boundary: inside a step, every cross-thread dependency points
at an *earlier* step (the partition invariant
:func:`~repro.sched.superstep.validate_superstep_plan` checks), and
same-thread dependencies are satisfied by each worker running its rows
in plan order.  So the executor is barrier-simple — no progress board,
no spin waits, no watchdog — and the result is bit-identical to the
serial sweep because each row's accumulation is the same
ascending-entry sum over already-final values.
"""

from __future__ import annotations

import threading

import numpy as np

from ..kernels.trisolve import solve_row
from ..obs import spans as _spans

__all__ = ["threaded_trisolve_superstep"]


def threaded_trisolve_superstep(F, rhs, plan, *, n_threads=None):
    """Solve one triangular part of ``F`` under a superstep plan.

    ``plan.part`` selects the sweep: ``"lower"`` solves ``L y = rhs``
    (unit diagonal), ``"upper"`` solves ``U x = rhs``.  Spawns
    ``plan.n_threads`` workers (``n_threads`` may only *confirm* that
    number — a plan is partitioned for an exact thread count).
    """
    if n_threads is not None and n_threads != plan.n_threads:
        raise ValueError(
            f"plan was partitioned for {plan.n_threads} threads, got {n_threads}"
        )
    p = plan.n_threads
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.zeros(plan.n)
    upper = plan.part == "upper"
    # the scheduler's single sync point: one barrier per superstep boundary
    barrier = threading.Barrier(p)  # verify: ok[JAV002] superstep boundary barrier — the one sync point of this schedule
    errors = []

    def worker(t):
        try:
            for s in range(plan.n_steps):
                with _spans.span(
                    "sched.superstep", cat="sched", step=s, thread=t, part=plan.part
                ):
                    for r in plan.thread_rows(s, t):
                        solve_row(F, out, rhs, int(r), upper)
                barrier.wait()
        except BaseException as e:
            errors.append(e)
            barrier.abort()  # release peers blocked on the boundary

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(p)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    real = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
    if real:
        raise real[0]
    return out
