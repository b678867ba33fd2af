"""Triangular-sweep kernels: scalar reference and level-batched backend.

Both backends implement the same contract on the combined L\\U factor:

* ``trisolve_lower``: solve ``L y = b`` with unit diagonal, reading the
  strict-lower entries of each row in ascending column order;
* ``trisolve_upper``: solve ``U x = y`` reading the strict-upper entries
  in ascending column order, then dividing by the diagonal.

The per-row accumulation is ``s = 0; s += data[k] * sol[col[k]]`` in
entry order followed by a single ``rhs - s`` (and ``/ diag`` for the
upper sweep).  The batched backend reproduces this *bit-for-bit*: rows
of a level are independent, so each level is one gather/multiply pass,
and ``np.bincount`` performs the per-row segment sums strictly
sequentially in the same entry order.  Tests assert exact equality, not
closeness.

Every sweep takes a right-hand side of shape ``(n,)`` or a block of
shape ``(n, k)`` (the micro-batches of :mod:`repro.serve`).  Column
``j`` of a block solve is bit-identical to the vector solve of column
``j``: the scalar row update does the same float operations elementwise
on a row of the block, and the batched sweep flattens the per-level
segment sum to bins ``local_row * k + column``, so each ``(row,
column)`` bin accumulates its entries in the ascending entry order of
the vector ``np.bincount``.  What a block buys is amortization: the
per-level gather/reduce overhead is paid once per level instead of once
per level per column.

There is one body per backend: :func:`solve_row` is the scalar row
update (also the unit of work of the threaded executors in
:mod:`repro.runtime` and :mod:`repro.sched`), and ``_sweep`` is the
batched one.  The plain and superstep kernels differ only in the row
order or the segmentation they hand to these: a superstep plan's
``(superstep, level)`` segments are just another grouping of rows into
independent sets.
"""

from __future__ import annotations

import numpy as np

from .cache import cached_analysis
from .registry import register_kernel

__all__ = ["solve_row"]  # the sweeps themselves: via repro.kernels.get_kernel


def _as_rhs(rhs):
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2):
        raise ValueError(
            f"trisolve kernels take a vector or a 2-D block, got shape {rhs.shape}"
        )
    return rhs


def _resolve_plan(F, part, plan, n_threads=None):
    """The given plan (checked against ``part``), else the cached one.

    ``n_threads`` selects the cached superstep plan instead of the
    level-set plan.
    """
    if plan is None:
        analysis = cached_analysis(F)
        if n_threads is None:
            return analysis.plan(part)
        return analysis.superstep_plan(part, n_threads=n_threads)
    if plan.part != part:
        raise ValueError(f"plan is for part {plan.part!r}, kernel needs {part!r}")
    return plan


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------
def solve_row(F, out, rhs, r, upper):
    """Solve row ``r`` of ``F``'s lower (unit) or upper part into ``out``.

    Reads the already-final solution rows of the strict part in
    ascending column order; ``out``/``rhs`` are vectors or ``(n, k)``
    blocks (then every float operation runs elementwise on row ``r``).
    """
    indptr, indices, data = F.indptr, F.indices, F.data
    lo, hi = int(indptr[r]), int(indptr[r + 1])
    cut = lo + int(np.searchsorted(indices[lo:hi], r))
    if upper:
        if cut >= hi or indices[cut] != r:
            raise ValueError(f"missing diagonal in factored row {r}")
        ents = range(cut + 1, hi)
    else:
        ents = range(lo, cut)
    # sequential entry-order accumulation (np.dot may pair products)
    s = 0.0
    for kk in ents:
        s += data[kk] * out[indices[kk]]
    out[r] = (rhs[r] - s) / data[cut] if upper else rhs[r] - s


def _solve_rows(F, rhs, order, upper):
    rhs = _as_rhs(rhs)
    out = np.empty((F.n_rows,) + rhs.shape[1:])
    for r in order:
        solve_row(F, out, rhs, int(r), upper)
    return out


@register_kernel("trisolve_lower", "scalar")
def trisolve_lower_scalar(F, b, plan=None):
    """Forward solve ``L y = b`` (unit diagonal), one row at a time."""
    return _solve_rows(F, b, range(F.n_rows), upper=False)


@register_kernel("trisolve_upper", "scalar")
def trisolve_upper_scalar(F, y, plan=None):
    """Backward solve ``U x = y``, one row at a time."""
    return _solve_rows(F, y, range(F.n_rows - 1, -1, -1), upper=True)


@register_kernel("trisolve_lower_superstep", "scalar")
def trisolve_lower_superstep_scalar(F, b, plan=None, *, n_threads=8):
    """Forward solve in superstep execution order, one row at a time.

    The superstep plan's ``rows`` is a valid topological order, and each
    row's accumulation is the same ascending-entry sum as the serial
    reference — so the result is bit-identical to it.
    """
    plan = _resolve_plan(F, "lower", plan, n_threads)
    return _solve_rows(F, b, plan.rows, upper=False)


@register_kernel("trisolve_upper_superstep", "scalar")
def trisolve_upper_superstep_scalar(F, y, plan=None, *, n_threads=8):
    """Backward solve in superstep execution order (scalar reference)."""
    plan = _resolve_plan(F, "upper", plan, n_threads)
    return _solve_rows(F, y, plan.rows, upper=True)


# ----------------------------------------------------------------------
# level-batched backend
# ----------------------------------------------------------------------
def _sweep(F, rhs, rows, seg_ptr, ent_idx, ent_local, ent_ptr, diag_idx):
    """One gather/multiply/segment-reduce per segment of independent rows.

    Segment ``g`` solves ``rows[seg_ptr[g]:seg_ptr[g+1]]``; its
    strict-part entries are ``ent_idx[ent_ptr[g]:ent_ptr[g+1]]``, with
    ``ent_local`` the row's index inside the segment.  ``diag_idx`` is
    ``None`` for the unit-diagonal lower part.
    """
    rhs = _as_rhs(rhs)
    if rhs.ndim == 2 and rhs.shape[1] == 1:
        # a one-column block takes the vector path (no per-level reshapes)
        x = _sweep(F, rhs[:, 0], rows, seg_ptr, ent_idx, ent_local, ent_ptr, diag_idx)
        return x[:, None]
    vec = rhs.ndim == 1
    k = 1 if vec else rhs.shape[1]
    col_ix = np.arange(k, dtype=np.int64)
    data, indices = F.data, F.indices
    out = np.empty((rows.shape[0],) + rhs.shape[1:])
    for g in range(seg_ptr.shape[0] - 1):
        rlo, rhi = seg_ptr[g], seg_ptr[g + 1]
        rows_g = rows[rlo:rhi]
        elo, ehi = ent_ptr[g], ent_ptr[g + 1]
        if ehi == elo:
            s = 0.0
        elif vec:
            ents = ent_idx[elo:ehi]
            prod = data[ents] * out[indices[ents]]
            s = np.bincount(ent_local[elo:ehi], weights=prod, minlength=rhi - rlo)
        else:
            ents = ent_idx[elo:ehi]
            prod = data[ents, None] * out[indices[ents]]
            bins = (ent_local[elo:ehi, None] * k + col_ix).ravel()
            s = np.bincount(
                bins, weights=prod.ravel(), minlength=(rhi - rlo) * k
            ).reshape(rhi - rlo, k)
        if diag_idx is None:
            out[rows_g] = rhs[rows_g] - s
        elif vec:
            out[rows_g] = (rhs[rows_g] - s) / data[diag_idx[rows_g]]
        else:
            out[rows_g] = (rhs[rows_g] - s) / data[diag_idx[rows_g], None]
    return out


@register_kernel("trisolve_lower", "batched", default=True)
def trisolve_lower_batched(F, b, plan=None):
    """Forward solve, one gather/multiply/segment-reduce per level."""
    p = _resolve_plan(F, "lower", plan)
    return _sweep(F, b, p.rows, p.level_ptr, p.ent_idx, p.ent_local, p.lev_ent_ptr, None)


@register_kernel("trisolve_upper", "batched", default=True)
def trisolve_upper_batched(F, y, plan=None):
    """Backward solve, one gather/multiply/segment-reduce per level."""
    p = _resolve_plan(F, "upper", plan)
    return _sweep(
        F, y, p.rows, p.level_ptr, p.ent_idx, p.ent_local, p.lev_ent_ptr, p.diag_idx
    )


@register_kernel("trisolve_lower_superstep", "batched", default=True)
def trisolve_lower_superstep_batched(F, b, plan=None, *, n_threads=8):
    """Forward solve, one gather/reduce per (superstep, level) segment.

    Segments group rows of one level inside one superstep, so every
    dependency of a segment's rows is already final when the segment
    runs; ``np.bincount`` keeps each row's ascending entry order, hence
    bit-identity with the serial sweep.
    """
    p = _resolve_plan(F, "lower", plan, n_threads)
    return _sweep(F, b, p.seg_rows, p.seg_ptr, p.ent_idx, p.ent_local, p.seg_ent_ptr, None)


@register_kernel("trisolve_upper_superstep", "batched", default=True)
def trisolve_upper_superstep_batched(F, y, plan=None, *, n_threads=8):
    """Backward solve, one gather/reduce per (superstep, level) segment."""
    p = _resolve_plan(F, "upper", plan, n_threads)
    return _sweep(
        F, y, p.seg_rows, p.seg_ptr, p.ent_idx, p.ent_local, p.seg_ent_ptr, p.diag_idx
    )


# ----------------------------------------------------------------------
# elastic (stale-synchronous) sweeps — thin dispatch shims
# ----------------------------------------------------------------------
@register_kernel("trisolve_lower_elastic", "batched", default=True)
def trisolve_lower_elastic_batched(
    F, b, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Forward solve via stale-synchronous correction sweeps."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("lower", staleness=staleness)
    return elastic_solve_part(F, b, sched, tol=tol, max_sweeps=max_sweeps)


@register_kernel("trisolve_lower_elastic", "scalar")
def trisolve_lower_elastic_scalar(
    F, b, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Forward stale-synchronous solve, per-row reference backend."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("lower", staleness=staleness)
    return elastic_solve_part(
        F, b, sched, tol=tol, max_sweeps=max_sweeps, backend="scalar"
    )


@register_kernel("trisolve_upper_elastic", "batched", default=True)
def trisolve_upper_elastic_batched(
    F, y, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Backward solve via stale-synchronous correction sweeps."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("upper", staleness=staleness)
    return elastic_solve_part(F, y, sched, tol=tol, max_sweeps=max_sweeps)


@register_kernel("trisolve_upper_elastic", "scalar")
def trisolve_upper_elastic_scalar(
    F, y, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Backward stale-synchronous solve, per-row reference backend."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("upper", staleness=staleness)
    return elastic_solve_part(
        F, y, sched, tol=tol, max_sweeps=max_sweeps, backend="scalar"
    )
