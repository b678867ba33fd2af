"""The ``ilu_factor`` kernel: level-batched steps ≡ the row loop, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JavelinILU, JavelinOptions
from repro.core.iluk import PivotBreakdownError, _scatter_values, ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern, iluk_pattern
from repro.kernels import build_factor_plan, cached_analysis, clear_default_cache, get_kernel
from repro.kernels import plans
from repro.matrices import grid2d
from repro.sparse import from_dense
from repro.sparse.csr import CSRMatrix


def _pattern(A, k):
    return ilu0_pattern(A) if k == 0 else iluk_pattern(A, k).pattern_copy()


def _thresholds(A, tau):
    norms = np.array([np.sqrt(np.sum(A.row(r)[1] ** 2)) for r in range(A.n_rows)])
    return tau * norms


def _run(A, S, backend, **kw):
    """Factor on ``S``; returns ``(data, None)`` or ``(None, (row, value, kind))``."""
    F = _scatter_values(S, A)
    try:
        get_kernel("ilu_factor", backend)(F, **kw)
    except PivotBreakdownError as e:
        return None, (e.row, e.value, e.kind)
    return F.data, None


def _same_error(a, b):
    return (
        a[0] == b[0]
        and a[2] == b[2]
        and np.array_equal(np.float64(a[1]), np.float64(b[1]), equal_nan=True)
    )


@st.composite
def dominant_dense(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.0, 0.45))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    if draw(st.booleans()):
        D = np.triu(D)  # no strict-lower entries: an empty step plan
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return D


@settings(max_examples=60, deadline=None)
@given(
    dominant_dense(),
    st.integers(0, 2),
    st.sampled_from([0.0, 0.01, 0.2]),
    st.booleans(),
    st.sampled_from([0.0, 1e-3, 0.5]),
)
def test_batched_equals_scalar_bitwise(D, k, tau, modified, pivot_tol):
    """Property: same factor (or same breakdown) on both backends."""
    A = from_dense(D)
    S = _pattern(A, k)
    kw = dict(pivot_tol=pivot_tol, modified=modified)
    if tau > 0.0:
        kw["drop_threshold"] = _thresholds(A, tau)
    scalar, s_err = _run(A, S, "scalar", **kw)
    batched, b_err = _run(A, S, "batched", **kw)
    if s_err is not None:
        assert b_err is not None and _same_error(s_err, b_err)
        return
    assert b_err is None
    assert np.array_equal(scalar, batched)
    if tau == 0.0:
        ref = ilu_factor_sequential(A, S, pivot_tol=pivot_tol)
        assert np.array_equal(ref.data, batched)


@settings(max_examples=60, deadline=None)
@given(
    dominant_dense(),
    st.integers(0, 2),
    st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from([0.0, np.nan, np.inf, -np.inf, 1e-9])),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0.0, 1e-6]),
)
def test_breakdown_matches_sequential_reference(D, k, poison, pivot_tol):
    """Property: the batched kernel raises the reference's (row, value, kind)."""
    n = D.shape[0]
    for r, v in poison:
        D[r % n, r % n] = v
    A = from_dense(D)
    S = _pattern(A, k)
    try:
        ilu_factor_sequential(A, S, pivot_tol=pivot_tol)
        ref_err = None
    except PivotBreakdownError as e:
        ref_err = (e.row, e.value, e.kind)
    for backend in ("scalar", "batched"):
        _, err = _run(A, S, backend, pivot_tol=pivot_tol)
        if ref_err is None:
            assert err is None
        else:
            assert err is not None and _same_error(ref_err, err), (backend, ref_err, err)


def test_breakdown_reports_row_order_not_level_order():
    """Two bad pivots: the level-order first is not the row-order first.

    Row 2 reads the NaN pivot of row 1 (row 2 is on level 2); row 4
    reads the stored zero pivot of row 3 (row 4 is on level 1, so the
    batched steps reach it first).  The reference stops at row 2, whose
    bad pivot row is 1.
    """
    rows = [[(0, 4.0)], [(0, 1.0), (1, np.nan)], [(1, 1.0), (2, 4.0)],
            [(3, 0.0)], [(3, 1.0), (4, 4.0)]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [c for r in rows for c, _ in r]
    data = [v for r in rows for _, v in r]
    A = CSRMatrix(5, 5, indptr, indices, data)
    level_of = cached_analysis(A).levels("lower").level_of
    assert level_of[4] < level_of[2]
    with pytest.raises(PivotBreakdownError) as ref:
        ilu_factor_sequential(A, A)
    assert (ref.value.row, ref.value.kind) == (1, "nonfinite")
    for backend in ("scalar", "batched"):
        with pytest.raises(PivotBreakdownError) as err:
            get_kernel("ilu_factor", backend)(A.copy())
        assert (err.value.row, err.value.kind) == (1, "nonfinite")
        assert np.isnan(err.value.value)


class TestPlan:
    def test_steps_follow_levels_and_ranks(self):
        F = _scatter_values(_pattern(grid2d(8), 1), grid2d(8))
        an = cached_analysis(F)
        plan = an.factor_plan()
        level_of = an.levels("lower").level_of
        row_of = np.searchsorted(F.indptr, plan.kk, side="right") - 1
        assert np.all(F.indices[plan.kk] < row_of)  # strict-lower entries only
        all_rows = np.repeat(np.arange(F.n_rows), np.diff(F.indptr))
        n_lower = int(np.count_nonzero(F.indices < all_rows))
        assert plan.kk.size == n_lower
        assert plan.n_steps <= n_lower
        for s in range(plan.n_steps):
            ks = plan.kk[plan.step_ptr[s] : plan.step_ptr[s + 1]]
            rows = row_of[plan.step_ptr[s] : plan.step_ptr[s + 1]]
            assert np.all(np.diff(rows) > 0)  # one entry per row, ascending
            assert len(set(level_of[rows].tolist())) == 1
            assert len(set((ks - F.indptr[rows]).tolist())) == 1  # one in-row rank
            tgt = plan.tgt[plan.pair_ptr[s] : plan.pair_ptr[s + 1]]
            assert np.unique(tgt).size == tgt.size  # no target twice in a step
        assert plan.kk.dtype == np.int32 and plan.tgt.dtype == np.int32

    def test_chunked_build_is_identical(self, monkeypatch):
        F = _scatter_values(_pattern(grid2d(9), 2), grid2d(9))
        an = cached_analysis(F)
        kw = dict(levels=an.levels("lower"), diag_idx=an.diag_pos())
        whole = build_factor_plan(F, **kw)
        monkeypatch.setattr(plans, "FACTOR_PLAN_CHUNK", 3)
        tiny = build_factor_plan(F, **kw)
        for f in ("step_ptr", "kk", "piv", "pair_ptr", "tgt", "src", "ent", "level_step_ptr"):
            assert np.array_equal(getattr(whole, f), getattr(tiny, f)), f


def test_factor_plan_and_levels_built_once_across_refactors():
    clear_default_cache()
    A = grid2d(11, convection=1.0)
    ilu = JavelinILU(JavelinOptions(fill_level=1)).setup(A)
    ilu.factor()
    rng = np.random.default_rng(0)
    for _ in range(10):
        B = A.copy()
        B.data = B.data * (1.0 + 0.1 * rng.random(B.nnz))
        ilu.refactor(B)
    ilu.build_solver()
    counts = cached_analysis(ilu.F).compute_counts
    assert counts["factor_plan"] == 1
    assert counts["levels_lower"] == 1
