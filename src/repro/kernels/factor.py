"""Numeric ILU kernels: the row-at-a-time reference and the level-batched backend.

Both backends factor the combined L\\U matrix ``F`` in place on its
fixed pattern (``F`` arrives holding the scattered values of ``A``):

* ``scalar`` — :func:`~repro.core.iluk.factor_row` for rows ``0..n-1``
  in order, the sequential up-looking reference (Fig. 1);
* ``batched`` — the :class:`~repro.kernels.plans.FactorPlan` step
  schedule: rows of one level never read each other, so step ``(level,
  k)`` divides the k-th strict-lower entry of every row of the level by
  its pivot in one vector operation and then applies all of those
  entries' multiply-subtract updates in one scatter.

Every entry sees the same operations in the same order as in
``factor_row``: its multipliers arrive in ascending in-row rank (one
step each), the pivot and source rows lie in earlier levels and are
final, and one step's targets are distinct slots, so each is a plain
``a - l * u``.  The two backends agree bit for bit.

Optional ILU(k, τ) dropping (``drop_threshold``, ``modified`` for MILU)
runs at each row's completion on the scalar path and at the end of each
level on the batched one — equivalent, since no row of a level reads
another.  Pivot breakdowns raise the same
:class:`~repro.core.iluk.PivotBreakdownError` on both: the batched
backend finishes its steps with floating-point warnings silenced and
then reports the bad pivot reference that comes first in (row, storage
position) order, which is the one the row loop stops at, because every
row before it is computed identically.
"""

from __future__ import annotations

import numpy as np

from ..core.breakdown import classify_pivot
from ..core.iluk import PivotBreakdownError, drop_row_fixed_pattern, factor_rows
from .cache import cached_analysis
from .registry import register_kernel

__all__ = []  # access via repro.kernels.get_kernel

_DIAG_MESSAGE = "pattern has no diagonal entry in row {row}"


@register_kernel("ilu_factor", "scalar")
def ilu_factor_scalar(F, *, pivot_tol=0.0, drop_threshold=None, modified=False):
    """Factor ``F`` in place one row at a time (the reference order)."""
    diag_pos = cached_analysis(F).diag_pos(message=_DIAG_MESSAGE)
    return factor_rows(
        F, diag_pos, pivot_tol=pivot_tol, drop_threshold=drop_threshold, modified=modified
    )


@register_kernel("ilu_factor", "batched", default=True)
def ilu_factor_batched(F, *, pivot_tol=0.0, drop_threshold=None, modified=False):
    """Factor ``F`` in place one (level, rank) step at a time."""
    # the plan always comes from F's own pattern, so it cannot mismatch
    an = cached_analysis(F)
    an.diag_pos(message=_DIAG_MESSAGE)
    plan = an.factor_plan()
    data = F.data
    kk_all, piv_all = plan.kk, plan.piv
    tgt_all, src_all, ent_all = plan.tgt, plan.src, plan.ent
    step_ptr = plan.step_ptr.tolist()
    pair_ptr = plan.pair_ptr.tolist()
    level_step_ptr = plan.level_step_ptr.tolist()
    rows, level_ptr = plan.rows, plan.level_ptr
    with np.errstate(all="ignore"):
        for lev in range(plan.n_levels):
            s0, s1 = level_step_ptr[lev], level_step_ptr[lev + 1]
            # one cast of the level's int32 slices to intp: fancy indexing
            # would otherwise convert every step's index arrays again
            e0, p0 = step_ptr[s0], pair_ptr[s0]
            kk_l = kk_all[e0 : step_ptr[s1]].astype(np.intp)
            piv_l = piv_all[e0 : step_ptr[s1]].astype(np.intp)
            tgt_l = tgt_all[p0 : pair_ptr[s1]].astype(np.intp)
            src_l = src_all[p0 : pair_ptr[s1]].astype(np.intp)
            ent_l = ent_all[p0 : pair_ptr[s1]].astype(np.intp)
            for s in range(s0, s1):
                a, b = step_ptr[s] - e0, step_ptr[s + 1] - e0
                kk = kk_l[a:b]
                lic = data[kk] / data[piv_l[a:b]]
                data[kk] = lic
                p, q = pair_ptr[s] - p0, pair_ptr[s + 1] - p0
                if q > p:
                    tgt = tgt_l[p:q]
                    data[tgt] -= lic[ent_l[p:q]] * data[src_l[p:q]]
            if drop_threshold is not None:
                for r in rows[level_ptr[lev] : level_ptr[lev + 1]].tolist():
                    drop_row_fixed_pattern(
                        F, r, plan.diag_idx, drop_threshold[r], modified=modified
                    )
    # pivots are final before any use, so their end values are the ones used
    pivots = np.abs(data[piv_all])
    bad = ~((pivots > pivot_tol) & (pivots < np.inf))
    if np.any(bad):
        c = int(F.indices[int(kk_all[bad].min())])
        pivot = data[plan.diag_idx[c]]
        raise PivotBreakdownError(c, pivot, kind=classify_pivot(pivot, pivot_tol))
    return F
