"""The ER and SR lower stages reject non-finite pivots like the reference.

Regression: both stages tested ``abs(pivot) <= pivot_tol``, which lets
NaN and ±Inf through (every comparison with NaN is False) and always
reported ``kind="zero"``.  A NaN on a corner diagonal then flowed into
the factor instead of raising.
"""

import numpy as np
import pytest

from repro.core import JavelinILU
from repro.core.iluk import PivotBreakdownError, _scatter_values, factor_row
from repro.core.lower_er import factor_lower_er
from repro.core.lower_sr import SegmentedRows, factor_lower_sr
from repro.kernels import cached_analysis
from repro.matrices import build_matrix, preorder_for_javelin
from repro.runtime import threaded_factor_two_stage

CORNER_ROW = 3565


@pytest.fixture(scope="module")
def poisoned():
    """``transient@1`` with a NaN on the diagonal of one corner row."""
    ilu = JavelinILU().setup(preorder_for_javelin(build_matrix("transient", 1.0)))
    assert ilu.m == 3564 < CORNER_ROW < ilu.A_perm.n_rows
    A = ilu.A_perm
    cols, _ = A.row(CORNER_ROW)
    A.data[A.indptr[CORNER_ROW] + int(np.searchsorted(cols, CORNER_ROW))] = np.nan
    return ilu


def _upper_done(ilu):
    F = _scatter_values(ilu.S_perm, ilu.A_perm)
    dp = cached_analysis(F).diag_pos()
    for r in range(ilu.m):
        factor_row(F, r, dp)
    return F, dp


def _assert_nonfinite_corner(excinfo):
    assert (excinfo.value.row, excinfo.value.kind) == (CORNER_ROW, "nonfinite")
    assert np.isnan(excinfo.value.value)


def test_reference_raises_nonfinite(poisoned):
    with pytest.raises(PivotBreakdownError) as e:
        poisoned.factor_reference()
    _assert_nonfinite_corner(e)


@pytest.mark.parametrize("method", ["er", "sr"])
def test_factor_raises_for_every_method(poisoned, method):
    with pytest.raises(PivotBreakdownError) as e:
        poisoned.factor(method)
    _assert_nonfinite_corner(e)


def test_factor_lower_er(poisoned):
    F, dp = _upper_done(poisoned)
    with pytest.raises(PivotBreakdownError) as e:
        factor_lower_er(F, poisoned.m, dp)
    _assert_nonfinite_corner(e)


def test_factor_lower_sr(poisoned):
    F, dp = _upper_done(poisoned)
    sr = SegmentedRows.build(poisoned.S_perm, poisoned.m, poisoned.level_ptr)
    with pytest.raises(PivotBreakdownError) as e:
        factor_lower_sr(F, sr, dp)
    _assert_nonfinite_corner(e)


def test_threaded_er_executor(poisoned):
    ilu = poisoned
    with pytest.raises(PivotBreakdownError) as e:
        threaded_factor_two_stage(ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, 2)
    _assert_nonfinite_corner(e)
