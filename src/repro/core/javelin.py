"""JavelinILU: the user-facing incomplete-factorization framework.

Typical use::

    from repro import JavelinILU, haswell
    ilu = JavelinILU()                 # ILU(0), auto two-stage schedule
    ilu.setup(A)                       # symbolic: pattern + level permutation
    res = ilu.factor()                 # numeric: bit-identical to sequential
    x = ilu.solve(b)                   # x = U^-1 L^-1 b (preconditioner apply)

    from repro.machine import SimMachine
    rep = ilu.simulate_factor(SimMachine(haswell(), 14))   # modelled time
    t_stri = ilu.simulate_trisolve(SimMachine(haswell(), 14), method="two_stage")

``setup`` performs the paper's preprocessing (§III): predetermine the
fill pattern (ILU(k)), level-schedule ``lower(S + Sᵀ)``, split into the
two stages, and symmetrically permute the matrix into the level
ordering.  ``factor`` runs the level-batched numeric kernel (all rows of
a level set advance together, one in-row rank at a time); the result is
bitwise identical to the sequential up-looking reference because every
entry sees the reference's operations in the reference's order.
``simulate_*`` replay the same schedules on a simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import has_full_diagonal
from .symbolic import (
    ilu0_pattern,
    iluk_pattern,
    row_factor_costs,
    row_factor_costs_split,
)
from ..kernels import get_kernel
from ..kernels.cache import pattern_fingerprint
from .iluk import _scatter_values
from .schedule import ScheduleOptions, build_schedule
from .upper import simulate_upper_p2p, simulate_upper_barrier
from .lower_er import simulate_lower_er
from .lower_sr import SegmentedRows, simulate_lower_sr
from .trisolve import (
    LevelizedTriangularSolver,
    simulate_trisolve_barrier,
    simulate_trisolve_p2p,
    simulate_trisolve_two_stage,
)
from ..ordering.levelsets import level_sets_lower
from ..sparse.pattern import lower_pattern, symmetrize_pattern

__all__ = ["JavelinOptions", "FactorResult", "SimReport", "JavelinILU"]


@dataclass(frozen=True)
class JavelinOptions:
    """All user knobs in one place.

    ``fill_level`` selects ILU(k); ``tau`` adds fixed-pattern numerical
    dropping on top (the framework's ILU(k, τ): entries below
    ``τ·‖A[i,:]‖₂`` are zeroed at row completion, storage retained so
    the schedule and stri structure are untouched); ``modified`` adds
    MILU compensation; ``schedule`` carries the two-stage partition
    options (α, density factor, lower method, A vs A+Aᵀ); ``tile_size``
    is the SR tile size; ``pivot_tol`` aborts on tiny pivots (Javelin
    does not pivot).
    """

    fill_level: int = 0
    tau: float = 0.0  # ILU(k, τ): fixed-pattern numerical dropping
    modified: bool = False  # MILU compensation of dropped mass
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    tile_size: int = 64
    pivot_tol: float = 0.0

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class FactorResult:
    """Outcome of the numeric factorization (permuted space)."""

    F: CSRMatrix  # combined L\\U factor of P A Pᵀ
    perm: np.ndarray  # gather permutation (new ← old)
    inv_perm: np.ndarray
    method: str  # lower-stage method actually used

    def factor_in_original_order(self):
        """The factor permuted back to the input row/column numbering."""
        return self.F.permute(row_perm=self.inv_perm, col_perm=self.inv_perm)


@dataclass
class SimReport:
    """Simulated execution times (seconds) of one factorization.

    ``trace`` is the upper-stage (or LS-only) timeline; ``lower_trace``
    carries the ER/SR lower stage when a two-stage schedule ran, so
    exporters (:mod:`repro.obs.chrome_trace`) can show the full
    upper+lower timeline instead of silently dropping the second stage.
    """

    total: float
    upper: float
    lower: float
    method: str
    n_threads: int
    trace: ExecutionTrace | None = None
    lower_trace: ExecutionTrace | None = None


class JavelinILU:
    """Two-stage parallel ILU preconditioner framework."""

    def __init__(self, options: JavelinOptions | None = None):
        self.options = options or JavelinOptions()
        self._ready = False
        self._factored = False
        self._solver = None

    # ------------------------------------------------------------------
    # symbolic phase
    # ------------------------------------------------------------------
    def setup(self, A: CSRMatrix, *, n_threads: int | None = None):
        """Pattern, level schedule, two-stage split, and permutation.

        ``n_threads`` (optional) lets the automatic ER/SR choice resolve
        now; otherwise it resolves per simulation call.
        """
        if A.n_rows != A.n_cols:
            raise ValueError("Javelin requires a square matrix")
        if not has_full_diagonal(A):
            raise ValueError(
                "matrix needs a structurally full diagonal; apply a "
                "Dulmage-Mendelsohn row permutation first "
                "(repro.ordering.dulmage_mendelsohn_row_perm)"
            )
        opts = self.options
        S = (
            ilu0_pattern(A)
            if opts.fill_level == 0
            else iluk_pattern(A, opts.fill_level).pattern_copy()
        )
        self.schedule = build_schedule(S, opts.schedule, n_threads=n_threads)
        self.perm = self.schedule.permutation()
        self.inv_perm = np.empty_like(self.perm)
        self.inv_perm[self.perm] = np.arange(self.perm.shape[0])
        self.A_perm = A.permute(row_perm=self.perm, col_perm=self.perm)
        self.S_perm = S.permute(row_perm=self.perm, col_perm=self.perm).pattern_copy()
        self.level_ptr = self.schedule.upper_level_ptr()
        self.m = self.schedule.n_upper_rows
        self.pattern_key = pattern_fingerprint(A)
        self._set_drop_threshold()
        self._costs = None
        self._split_costs = None
        self._ready = True
        self._factored = False
        self._solver = None
        return self

    def _set_drop_threshold(self):
        """Value-dependent ILU(k, τ) thresholds of the current ``A_perm``."""
        if self.options.tau > 0.0:
            norms = np.zeros(self.A_perm.n_rows)
            for r in range(self.A_perm.n_rows):
                _, vals = self.A_perm.row(r)
                norms[r] = np.sqrt(np.sum(vals * vals))
            self.drop_threshold = self.options.tau * norms
        else:
            self.drop_threshold = None

    def refactor(self, A: CSRMatrix, method: str | None = None) -> FactorResult:
        """Value-only re-factorization: new values, same sparsity pattern.

        The time-evolving regime the framework targets — Newton loops,
        implicit time-steppers — re-factors the *same* pattern for
        thousands of steps with drifting values.  Everything
        :meth:`setup` computes is a pure function of the pattern (fill
        pattern, level schedule, two-stage split, permutation), so a
        value change needs none of it: this re-permutes the new values,
        refreshes the value-dependent ILU(k, τ) drop thresholds, and
        runs the numeric phase against the cached symbolic products.

        Contract: the result is **bitwise identical** to
        ``JavelinILU(options).setup(A).factor(method)`` on the same
        ``A`` — value-only reuse is a cost optimization, never a
        numerical one.  Raises ``ValueError`` when ``A``'s pattern
        differs from the setup pattern (call :meth:`setup` instead).
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before refactor()")
        key = pattern_fingerprint(A)
        if key != self.pattern_key:
            raise ValueError(
                "refactor() requires the setup sparsity pattern "
                f"(got {key[:12]}, setup was {self.pattern_key[:12]}); "
                "call setup() for a new pattern"
            )
        self.A_perm = A.permute(row_perm=self.perm, col_perm=self.perm)
        self._set_drop_threshold()
        return self.factor(method)

    # ------------------------------------------------------------------
    # numeric phase
    # ------------------------------------------------------------------
    def _resolve_method(self, n_threads=None):
        method = self.schedule.chosen_lower_method
        if method == "auto":
            if self.schedule.n_lower_rows == 0:
                return "none"
            if n_threads is None:
                return "er"
            return "er" if self.schedule.n_lower_rows >= n_threads else "sr"
        return method

    def factor(self, method: str | None = None) -> FactorResult:
        """Numeric factorization through the ``ilu_factor`` kernel.

        The default ``batched`` backend runs every row of a level set
        together, one (level, in-row rank) step at a time, from the
        pattern-keyed :class:`~repro.kernels.plans.FactorPlan`; the
        factor is bit-identical to the sequential reference
        (:meth:`factor_reference`), and ILU(k, τ) dropping is applied
        at the end of each level.  ``method`` ("er" | "sr" | "none")
        no longer changes the numeric path — every staged order gives
        the same factor — it is validated, recorded in
        :class:`FactorResult`, and selects the lower stage the
        ``simulate_*`` paths model.
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before factor()")
        opts = self.options
        method = method or self._resolve_method()
        if method not in ("er", "sr", "none"):
            raise ValueError(f"unknown lower method {method!r}")
        F = _scatter_values(self.S_perm, self.A_perm)
        # the plan is cached on F's pattern, so the solve plans built
        # later (build_solver / the lazy solve path) reuse its level sets
        get_kernel("ilu_factor")(
            F,
            pivot_tol=opts.pivot_tol,
            drop_threshold=self.drop_threshold,
            modified=opts.modified,
        )
        self.F = F
        self._factored = True
        self._solver = None  # values changed; sweeps rebind on next solve
        self.result = FactorResult(
            F=F, perm=self.perm, inv_perm=self.inv_perm, method=method
        )
        return self.result

    def factor_reference(self) -> CSRMatrix:
        """Plain sequential up-looking ILU of the permuted matrix.

        Applies the same fixed-pattern dropping as :meth:`factor` when
        ``tau > 0`` (drop at each row's completion), so staged-vs-
        sequential parity tests cover the ILU(k, τ) path too.
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before factor_reference()")
        return get_kernel("ilu_factor", "scalar")(
            _scatter_values(self.S_perm, self.A_perm),
            pivot_tol=self.options.pivot_tol,
            drop_threshold=self.drop_threshold,
            modified=self.options.modified,
        )

    # ------------------------------------------------------------------
    # preconditioner application
    # ------------------------------------------------------------------
    def solve(self, b):
        """Apply the preconditioner: ``x ≈ A⁻¹ b`` via L/U sweeps.

        Backed by a lazily built
        :class:`~repro.core.trisolve.LevelizedTriangularSolver` (rebuilt
        after each :meth:`factor`), whose level-batched sweeps are
        bit-identical to the scalar reference sweeps — so this is both
        the convenient and the fast path.
        """
        if not self._factored:
            raise RuntimeError("call factor() before solve()")
        if self._solver is None:
            self._solver = LevelizedTriangularSolver(self.F)
        bp = np.asarray(b, dtype=np.float64)[self.perm]
        xp = self._solver.solve(bp)
        x = np.empty_like(xp)
        x[self.perm] = xp
        return x

    def build_solver(self):
        """A fast reusable preconditioner apply (vectorized level sweeps).

        Returns a callable ``apply(b) -> x`` backed by
        :class:`~repro.core.trisolve.LevelizedTriangularSolver`: the
        per-level structures come from the pattern-keyed symbolic cache,
        built once and reused across the thousands of preconditioner
        applications a Krylov loop performs (§VI).  Results match
        :meth:`solve` bit-for-bit.
        """
        if not self._factored:
            raise RuntimeError("call factor() before build_solver()")
        lv = LevelizedTriangularSolver(self.F)
        perm, inv = self.perm, self.inv_perm

        def apply(b):
            xp = lv.solve(np.asarray(b, dtype=np.float64)[perm])
            x = np.empty_like(xp)
            x[perm] = xp
            return x

        return apply

    def build_multi_solver(self):
        """A reusable multi-RHS preconditioner apply: ``apply(B) -> X``.

        ``B`` is a 2-D block of shape ``(n, k)``; column ``j`` of the
        result is bit-identical to ``build_solver()(B[:, j])`` — the
        multi-RHS sweeps only amortize per-level dispatch across the
        block (the serving layer's micro-batch contract).
        """
        if not self._factored:
            raise RuntimeError("call factor() before build_multi_solver()")
        lv = LevelizedTriangularSolver(self.F)
        perm = self.perm

        def apply(B):
            Xp = lv.solve_multi(np.asarray(B, dtype=np.float64)[perm, :])
            X = np.empty_like(Xp)
            X[perm, :] = Xp
            return X

        return apply

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _factor_costs(self):
        if self._costs is None:
            self._costs = row_factor_costs(self.S_perm)
        return self._costs

    def _factor_split_costs(self):
        if self._split_costs is None:
            self._split_costs = row_factor_costs_split(self.S_perm, self.m)
        return self._split_costs

    def _full_level_ptr(self):
        """Level boundaries covering *all* rows (lower rows re-leveled).

        Used by the LS-only simulations, where no rows are excluded: the
        schedule's own level sets already cover every row.
        """
        ls = level_sets_lower(lower_pattern(symmetrize_pattern(self.S_perm)))
        return ls

    def simulate_factor(
        self,
        machine: SimMachine,
        *,
        sync="p2p",
        lower: bool | None = None,
        tasking_runtime="openmp",
        numa_aware_er=False,
        sched_policy="static",
        sched_chunk=1,
        fault_plan=None,
        fault_report=None,
    ) -> SimReport:
        """Modelled factorization time on a simulated machine.

        ``sync`` is "p2p" (Javelin) or "barrier" (traditional level
        scheduling).  ``lower=False`` forces the LS-only configuration
        (every row level-scheduled); ``lower=True``/None uses the
        two-stage schedule with the resolved ER/SR method.
        ``tasking_runtime`` ("openmp" | "lightweight") selects the SR
        task model; ``numa_aware_er`` applies §V's proposed first-touch
        blocking to the ER stage; ``sched_policy``/``sched_chunk``
        select static dealing vs OpenMP DYNAMIC(chunk) self-scheduling
        (the paper's §IV configuration) for the level-scheduled rows.
        ``fault_plan``/``fault_report`` inject machine faults into the
        p2p DES and report what fired (see ``repro.resilience``); for
        straggler slowdowns to apply, construct the machine itself with
        the plan (``SimMachine(spec, p, fault_plan=plan)``).
        """
        flops, touched = self._factor_costs()
        use_lower = (
            self.schedule.n_lower_rows > 0 if lower is None else bool(lower)
        ) and self.schedule.n_lower_rows > 0
        sim_upper = simulate_upper_p2p if sync == "p2p" else simulate_upper_barrier
        upper_kw = (
            {
                "policy": sched_policy,
                "chunk": sched_chunk,
                "fault_plan": fault_plan,
                "fault_report": fault_report,
            }
            if sync == "p2p"
            else {}
        )
        if not use_lower:
            ls = self._full_level_ptr()
            # rows are already in level order, so ls.level_ptr applies
            makespan, _finish, trace = sim_upper(
                self.S_perm, ls.level_ptr, machine, flops, touched, **upper_kw
            )
            return SimReport(
                total=makespan,
                upper=makespan,
                lower=0.0,
                method="none",
                n_threads=machine.n_threads,
                trace=trace,
            )
        method = self._resolve_method(machine.n_threads)
        makespan_u, _finish, trace = sim_upper(
            self.S_perm, self.level_ptr, machine, flops, touched, **upper_kw
        )
        if method == "er" or method == "none":
            total, trace2 = simulate_lower_er(
                self.S_perm,
                self.m,
                machine,
                self._factor_split_costs(),
                start_time=makespan_u,
                numa_aware=numa_aware_er,
            )
        else:
            sr = SegmentedRows.build(
                self.S_perm, self.m, self.level_ptr, tile_size=self.options.tile_size
            )
            total, trace2 = simulate_lower_sr(
                self.S_perm,
                sr,
                machine,
                self._factor_split_costs()[1],
                start_time=makespan_u,
                runtime=tasking_runtime,
            )
        return SimReport(
            total=total,
            upper=makespan_u,
            lower=total - makespan_u,
            method=method,
            n_threads=machine.n_threads,
            trace=trace,
            lower_trace=trace2,
        )

    def simulate_trisolve(self, machine: SimMachine, *, method="two_stage", both=True):
        """Modelled triangular-solve time: 'barrier' | 'p2p' | 'two_stage'."""
        if method == "barrier":
            ls = self._full_level_ptr()
            return simulate_trisolve_barrier(self.S_perm, ls, machine, both=both)
        if method == "p2p":
            ls = self._full_level_ptr()
            return simulate_trisolve_p2p(self.S_perm, ls, machine, both=both)
        if method == "two_stage":
            if self.schedule.n_lower_rows == 0:
                ls = self._full_level_ptr()
                return simulate_trisolve_p2p(self.S_perm, ls, machine, both=both)
            return simulate_trisolve_two_stage(
                self.S_perm,
                self.level_ptr,
                self.m,
                machine,
                tile_size=self.options.tile_size,
                both=both,
            )
        raise ValueError(f"unknown trisolve method {method!r}")

    # ------------------------------------------------------------------
    def stats(self):
        """Structural summary of the schedule (for reports and tests)."""
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        return {
            "n": self.S_perm.n_rows,
            "nnz_pattern": self.S_perm.nnz,
            "n_levels": self.schedule.levels.n_levels,
            "n_upper_levels": self.schedule.n_upper_levels,
            "n_lower_rows": self.schedule.n_lower_rows,
            "lower_method": self.schedule.chosen_lower_method,
        }
