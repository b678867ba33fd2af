"""Block right-hand sides: every sweep is per-column bit-identical to a vector solve."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.iluk import ilu0_factor
from repro.core.trisolve import (
    LevelizedTriangularSolver,
    trisolve_factor,
    trisolve_factor_levels,
)
from repro.kernels import cached_analysis, get_kernel
from repro.matrices import grid2d
from repro.resilience import ResilientFactor
from repro.sparse.csr import CSRMatrix

from helpers import random_csr

SWEEPS = [
    "trisolve_lower",
    "trisolve_upper",
    "trisolve_lower_superstep",
    "trisolve_upper_superstep",
]


def _factor(n=40, seed=0):
    return ilu0_factor(random_csr(n, 0.15, seed=seed))


def _block(n, k, seed=1):
    return np.random.default_rng(seed).standard_normal((n, k))


class TestKernelBitIdentity:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("name", ["trisolve_lower", "trisolve_upper"])
    def test_batched_matches_scalar_reference(self, name, k):
        F = _factor()
        B = _block(F.n_rows, k)
        out_s = get_kernel(name, "scalar")(F, B)
        out_b = get_kernel(name, "batched")(F, B)
        assert np.array_equal(out_s, out_b)  # bitwise, not approx

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_each_column_identical_to_one_rhs_solve(self, k):
        F = _factor(seed=3)
        B = _block(F.n_rows, k, seed=4)
        X = trisolve_factor_levels(F, B)
        for j in range(k):
            xj = trisolve_factor(F, B[:, j])
            assert np.array_equal(X[:, j], xj)

    def test_column_order_is_irrelevant(self):
        # batching must not couple columns: permuting them permutes output
        F = _factor(seed=5)
        B = _block(F.n_rows, 4, seed=6)
        perm = [2, 0, 3, 1]
        X = trisolve_factor_levels(F, B)
        Xp = trisolve_factor_levels(F, B[:, perm])
        assert np.array_equal(X[:, perm], Xp)

    def test_zero_width_block(self):
        F = _factor()
        for X in (
            trisolve_factor_levels(F, np.empty((F.n_rows, 0))),
            trisolve_factor(F, np.empty((F.n_rows, 0))),
        ):
            assert X.shape == (F.n_rows, 0)

    def test_rejects_3d_input(self):
        F = _factor()
        for name in SWEEPS:
            for backend in ("scalar", "batched"):
                with pytest.raises(ValueError, match="vector or a 2-D block"):
                    get_kernel(name, backend)(F, np.ones((F.n_rows, 2, 2)))

    def test_scalar_upper_rejects_missing_diagonal(self):
        # no cached plan can be built for this pattern, so hand the
        # superstep sweep a bare row order
        missing = CSRMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])
        order = SimpleNamespace(part="upper", rows=np.array([1, 0]))
        for name in ("trisolve_upper", "trisolve_upper_superstep"):
            for rhs in (np.ones(2), np.ones((2, 3))):
                with pytest.raises(ValueError, match="missing diagonal in factored row 1"):
                    get_kernel(name, "scalar")(missing, rhs, plan=order)

    def test_rejects_plan_for_other_part(self):
        F = _factor()
        a = cached_analysis(F)
        plans = {
            "trisolve_lower": a.plan("upper"),
            "trisolve_upper": a.plan("lower"),
            "trisolve_lower_superstep": a.superstep_plan("upper", n_threads=2),
            "trisolve_upper_superstep": a.superstep_plan("lower", n_threads=2),
        }
        for name, plan in plans.items():
            with pytest.raises(ValueError, match="kernel needs"):
                get_kernel(name, "batched")(F, np.ones(F.n_rows), plan=plan)

    def test_explicit_analysis_reused(self):
        F = _factor(seed=7)
        a = cached_analysis(F)
        B = _block(F.n_rows, 3, seed=8)
        X1 = trisolve_factor_levels(F, B, analysis=a)
        X2 = trisolve_factor_levels(F, B)
        assert np.array_equal(X1, X2)


@st.composite
def factors(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    return ilu0_factor(random_csr(n, density, seed=draw(st.integers(0, 2**31 - 1))))


def _sweep(F, rhs, part, superstep, backend, n_threads):
    if superstep:
        kernel = get_kernel(f"trisolve_{part}_superstep", backend)
        return kernel(F, rhs, n_threads=n_threads)
    return get_kernel(f"trisolve_{part}", backend)(F, rhs)


@settings(max_examples=40, deadline=None)
@given(
    factors(),
    st.sampled_from([0, 1, 2, 5]),
    st.sampled_from(["lower", "upper"]),
    st.sampled_from([1, 3]),
    st.integers(0, 2**31 - 1),
)
def test_block_sweep_is_vector_sweep_per_column(F, k, part, n_threads, seed):
    B = np.random.default_rng(seed).standard_normal((F.n_rows, k))
    ref = _sweep(F, B, part, False, "scalar", n_threads)
    for superstep in (False, True):
        for backend in ("scalar", "batched"):
            X = _sweep(F, B, part, superstep, backend, n_threads)
            assert X.shape == B.shape
            # batched ≡ scalar, superstep ≡ serial
            assert np.array_equal(X, ref)
            for j in range(k):
                xj = _sweep(F, B[:, j], part, superstep, backend, n_threads)
                assert np.array_equal(X[:, j], xj)
                if k == 1:  # an (n, 1) block is the vector result as a column
                    assert np.array_equal(X, xj[:, None])


class TestSolverIntegration:
    def test_levelized_solver_solves_block(self):
        A = grid2d(10)
        F = ilu0_factor(A)
        solver = LevelizedTriangularSolver(F)
        B = _block(A.n_rows, 4, seed=9)
        X = solver.solve(B)
        for j in range(4):
            assert np.array_equal(X[:, j], solver.solve(B[:, j]))

    def test_resilient_factor_multi_solver(self):
        A = grid2d(10)
        rf = ResilientFactor().setup(A)
        apply_multi = rf.build_multi_solver()
        apply_one = rf.build_solver()
        B = _block(A.n_rows, 5, seed=10)
        Z = apply_multi(B)
        for j in range(5):
            assert np.array_equal(Z[:, j], apply_one(B[:, j]))
