"""The four workloads: what each sets up, times, and checks.

Every workload has the same shape.  ``setup(seed, layers)`` builds all
inputs from the seed, runs whatever the workload keeps out of its timed
window (preorder, symbolic setup and first factor where the operation
reuses them) and ends with an untimed Krylov warm-up.  Then, per
operation, ``prepare`` (untimed) picks the next seeded input,
``run`` is the timed call into the program, and ``check`` (untimed)
verifies the output independently of the program's own kernels.

An operation may yield several verified solves (``units``): one per
operation everywhere except ``serve-stream``, where an operation is a
whole ``SolveService.run`` over a stream of requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.sparse as sp

from repro.core import JavelinILU, JavelinOptions
from repro.core.symbolic import row_factor_costs
from repro.kernels.cache import clear_default_cache
from repro.matrices import build_matrix, grid2d, preorder_for_javelin, rhs_stream
from repro.serve import (
    BatchPolicy,
    CostModel,
    SolveService,
    WorkloadSpec,
    build_matrices,
    generate_requests,
    summarize,
)
from repro.solvers import gmres
from repro.sparse.csr import CSRMatrix
from repro.verify.conservation import check_conservation

__all__ = ["Verdict", "OneShot", "TimeStep", "ManyRHS", "ServeStream", "WORKLOADS"]

#: warm-up Krylov calls per set-up: in some fresh processes the first two
#: GMRES calls run 10-30x slower than later ones; the warm-up absorbs it
WARMUP_CALLS = 2
WARMUP_ITERS = 30
#: GMRES relative-residual target of every solve, and of the scipy check
TOL = 1e-8
#: ILU fill level of the ``timestep`` factor (the other workloads use ILU(0))
FILL_LEVEL = 1


@dataclass
class Verdict:
    """The checked outcome of one operation."""

    units: int  # verified solves the operation attempted
    failed: int = 0
    iterations: list = field(default_factory=list)  # per converged solve
    problems: list = field(default_factory=list)  # one line per failure
    serve: dict | None = None  # serve-stream statistics of the run


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def to_scipy(A):
    """The same matrix as ``scipy.sparse``, for independent residuals."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=(A.n_rows, A.n_cols))


def residual(A_sp, x, b):
    """True relative residual ``||b - Ax|| / ||b||`` computed by scipy."""
    return float(np.linalg.norm(b - A_sp @ x) / np.linalg.norm(b))


def check_solve(A_sp, b, res, what):
    """Verdict of one Krylov solve: converged and scipy residual <= TOL."""
    if res is None:
        return Verdict(1, 1, problems=[f"{what}: raised"])
    rel = residual(A_sp, res.x, b)
    if not res.converged or not rel <= TOL:
        return Verdict(
            1, 1, problems=[f"{what}: converged={res.converged} residual={rel:.3e} tol={TOL:g}"]
        )
    return Verdict(1, iterations=[res.iterations])


def perturbed(A, rng, lo=0.9):
    """``A`` with each off-diagonal value scaled by a seeded factor in [lo, 1].

    The pattern is shared with ``A`` and the diagonal is kept, so the
    matrix stays diagonally dominant and ``refactor`` accepts it.
    """
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
    scale = np.where(rows == A.indices, 1.0, rng.uniform(lo, 1.0, A.nnz))
    return CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * scale,
                     sort=False, check=False)


def krylov(A, b, M, layers):
    """GMRES with the preconditioner and matvec each behind a span."""
    return layers.call(
        "solvers.krylov", gmres,
        layers.wrap("sparse.spmv", A.matvec), b,
        M=layers.wrap("kernels.apply", M), tol=TOL,
    )


def warm_up(A, layers):
    """Untimed Jacobi-preconditioned GMRES calls; returns their seconds."""
    d = 1.0 / to_scipy(A).diagonal()
    b = np.ones(A.n_rows)
    out = []
    for _ in range(WARMUP_CALLS):
        t0 = time.perf_counter()
        layers.call("solvers.warmup", gmres, A, b, M=lambda r: d * r, maxiter=WARMUP_ITERS)
        out.append(time.perf_counter() - t0)
    return out


def structure(ilu):
    """Exact structural counts of a factored ``JavelinILU``.

    ``apply_bytes`` is computed, not measured: one 1-RHS apply reads
    the factor's values and column indices once and its row pointers
    once per sweep, and moves six length-n float vectors (gather,
    lower in/out, upper in/out, scatter).
    """
    F = ilu.F
    n = F.n_rows
    flops, _ = row_factor_costs(ilu.S_perm)
    return {
        "levels": int(ilu.schedule.levels.n_levels),
        "lower_rows": int(ilu.schedule.n_lower_rows),
        "factor_nnz": int(F.nnz),
        "factor_flops": float(flops.sum()),
        "apply_bytes": float(
            F.nnz * (F.data.itemsize + F.indices.itemsize)
            + 2 * (n + 1) * F.indptr.itemsize
            + 6 * n * 8
        ),
    }


@dataclass
class State:
    """What ``setup`` hands to the timed operations."""

    warmup_s: list
    inputs: list  # the seeded inputs, used in turn
    ilu: JavelinILU | None = None
    M: object = None
    factored: dict = field(default_factory=dict)  # kind -> last factored JavelinILU
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class OneShot:
    """A fresh system per operation, cold caches, full pipeline.

    Kinds alternate: the 2D 5-point grid and the hub-row circuit
    ``transient``, one seeded system each.  Each operation starts from
    the CSR input with a new ``JavelinILU`` and an empty symbolic cache,
    and runs ND preorder, ILU(0) setup and factor, solver build and GMRES.
    """

    # n = 4096 and 3600: ~0.8 s per solve, so a 20-s run averages ~24
    # solves, and preorder, symbolic set-up and factor still take ~90%
    grid_n: int = 64
    transient_scale: float = 1.0
    op = "solve"
    kinds = 2

    def setup(self, seed, layers):
        rng = np.random.default_rng(seed)
        with layers.span("matrices.build"):
            bases = [grid2d(self.grid_n), build_matrix("transient", self.transient_scale)]
            inputs = [(perturbed(A, rng), rng.standard_normal(A.n_rows)) for A in bases]
        return State(warmup_s=warm_up(inputs[0][0], layers), inputs=inputs)

    def prepare(self, state, i):
        # a fresh process would start with an empty symbolic cache
        clear_default_cache()
        return i, *state.inputs[i % self.kinds]

    def run(self, state, inp, layers):
        i, A, b = inp
        B = layers.call("ordering.preorder", preorder_for_javelin, A)
        ilu = JavelinILU()
        layers.call("core.symbolic", ilu.setup, B)
        layers.call("core.factor", ilu.factor)
        M = layers.call("kernels.solver_build", ilu.build_solver)
        state.factored[i % self.kinds] = ilu
        return B, krylov(B, b, M, layers)

    def check(self, state, inp, out):
        i, _, b = inp
        if out is None:
            return check_solve(None, b, None, f"system {i}")
        B, res = out
        return check_solve(to_scipy(B), b, res, f"system {i}")

    def finish(self, state):
        return Verdict(0)


@dataclass
class TimeStep:
    """One pattern, seeded value drift per step: refactor, rebuild, GMRES."""

    grid_n: int = 128
    pool: int = 8  # seeded step matrices, used in turn
    op = "step"
    kinds = 1

    def setup(self, seed, layers):
        rng = np.random.default_rng(seed)
        with layers.span("matrices.build"):
            A = grid2d(self.grid_n, convection=1.0)
        B = layers.call("ordering.preorder", preorder_for_javelin, A)
        ilu = JavelinILU(JavelinOptions(fill_level=FILL_LEVEL))
        layers.call("core.symbolic", ilu.setup, B)
        layers.call("core.factor", ilu.factor)
        layers.call("kernels.solver_build", ilu.build_solver)
        with layers.span("matrices.build"):
            inputs = [(perturbed(B, rng), rng.standard_normal(B.n_rows)) for _ in range(self.pool)]
        state = State(warmup_s=warm_up(B, layers), inputs=inputs, ilu=ilu)
        state.factored[0] = ilu
        state.extra["scipy"] = [to_scipy(A) for A, _ in inputs]
        # the step whose factor is compared bitwise with a cold one
        state.extra["sample"] = int(rng.integers(self.pool))
        return state

    def prepare(self, state, i):
        return i % self.pool, *state.inputs[i % self.pool]

    def run(self, state, inp, layers):
        _, A, b = inp
        ilu = state.ilu
        layers.call("core.refactor", ilu.refactor, A)
        M = layers.call("kernels.solver_build", ilu.build_solver)
        return krylov(A, b, M, layers)

    def check(self, state, inp, res):
        k, A, b = inp
        state.extra["last"] = A
        if res is not None and k == state.extra["sample"] and "snapshot" not in state.extra:
            state.extra["snapshot"] = (A, state.ilu.F.copy())
        return check_solve(state.extra["scipy"][k], b, res, f"step input {k}")

    def finish(self, state):
        """Refactor of the sampled step == a cold ``setup().factor()``, bitwise.

        A window too short to reach the sampled input checks the last step.
        """
        A, F = state.extra.get("snapshot") or (state.extra["last"], state.ilu.F)
        cold = JavelinILU(JavelinOptions(fill_level=FILL_LEVEL)).setup(A).factor().F
        same = all(
            np.array_equal(getattr(F, a), getattr(cold, a)) for a in ("indptr", "indices", "data")
        )
        return Verdict(0, 0 if same else 1,
                       problems=[] if same else ["refactor differs bitwise from a cold factor"])


@dataclass
class ManyRHS:
    """One factor, a stream of seeded right-hand sides, 1-RHS GMRES each."""

    scale: float = 8.0  # thermal2 at this scale is the 28^3 7-point grid
    pool: int = 64  # seeded right-hand sides, used in turn
    op = "rhs"
    kinds = 1

    def setup(self, seed, layers):
        with layers.span("matrices.build"):
            A = build_matrix("thermal2", self.scale)
        B = layers.call("ordering.preorder", preorder_for_javelin, A)
        ilu = JavelinILU()
        layers.call("core.symbolic", ilu.setup, B)
        layers.call("core.factor", ilu.factor)
        M = layers.call("kernels.solver_build", ilu.build_solver)
        with layers.span("matrices.build"):
            inputs = list(islice(rhs_stream(B.n_rows, seed=seed), self.pool))
        state = State(warmup_s=warm_up(B, layers), inputs=inputs, ilu=ilu, M=M)
        state.factored[0] = ilu
        state.extra["B"] = B
        state.extra["scipy"] = to_scipy(B)
        return state

    def prepare(self, state, i):
        return i % self.pool, state.inputs[i % self.pool]

    def run(self, state, inp, layers):
        return krylov(state.extra["B"], inp[1], state.M, layers)

    def check(self, state, inp, res):
        return check_solve(state.extra["scipy"], inp[1], res, f"rhs {inp[0]}")

    def finish(self, state):
        return Verdict(0)


@dataclass
class ServeStream:
    """``SolveService.run`` over seeded Poisson streams of small systems.

    Deadlines are far beyond the virtual makespan and the queue holds a
    whole stream, so every request should be served whatever the
    ``CostModel`` constants are.
    """

    patterns: tuple = ("grid2d-16", "grid2d-24", "convect2d-16", "circuit-400")
    n_requests: int = 240
    pool: int = 4  # seeded request streams, used in turn
    op = "stream"
    kinds = 1

    def spec(self, seed):
        return WorkloadSpec(
            seed=seed, n_requests=self.n_requests, rate=500.0, patterns=self.patterns,
            deadline_lo=5.0, deadline_hi=10.0, maxiter=80, tol=TOL,
            solvers=("richardson", "gmres"), solver_weights=(0.5, 0.5),
        )

    def service(self, matrices):
        return SolveService(
            matrices, n_shards=2, capacity=self.n_requests,
            batch_policy=BatchPolicy(max_batch=16, max_wait=0.01), cost=CostModel(),
        )

    def setup(self, seed, layers):
        rng = np.random.default_rng(seed)
        with layers.span("matrices.build"):
            matrices = build_matrices(self.patterns)
            inputs = [
                generate_requests(self.spec(int(rng.integers(2**31))), matrices)
                for _ in range(self.pool)
            ]
        biggest = max(matrices.values(), key=lambda A: A.n_rows)
        state = State(warmup_s=warm_up(biggest, layers), inputs=inputs)
        state.extra["matrices"] = matrices
        state.extra["scipy"] = {k: to_scipy(A) for k, A in matrices.items()}
        clear_default_cache()
        layers.call("serve.warmup", self.service(matrices).run, inputs[0][:40])
        return state

    def prepare(self, state, i):
        # a fresh service starts with empty factor and symbolic caches
        clear_default_cache()
        return state.inputs[i % self.pool], self.service(state.extra["matrices"])

    def run(self, state, inp, layers):
        reqs, svc = inp
        return layers.call("serve.run", svc.run, reqs)

    def check(self, state, inp, results):
        reqs, svc = inp
        if results is None:
            return Verdict(len(reqs), len(reqs), problems=["SolveService.run raised"])
        v = Verdict(len(reqs))
        audit = check_conservation(reqs, results)
        v.problems += [f"conservation: {x}" for x in audit.violations]
        by_id = {r.request_id: r for r in results}
        for req in reqs:
            r = by_id.get(req.request_id)
            if r is None or r.outcome != "served" or not r.converged:
                v.problems.append(f"request {req.request_id}: {r.outcome if r else 'lost'}")
                continue
            rel = residual(state.extra["scipy"][req.matrix_key], r.x, req.b)
            if not rel <= req.tol:
                v.problems.append(f"request {req.request_id}: residual {rel:.3e}")
                continue
            v.iterations.append(r.iterations)
        v.failed = min(len(reqs), len(v.problems))
        summary = summarize(results)
        hits = sum(s.cache.hits for s in svc.shards)
        misses = sum(s.cache.misses for s in svc.shards)
        v.serve = {
            # every member of a batch records the batch's width
            "batches": sum(1.0 / r.batch_size for r in results if r.batch_size),
            "mean_batch_size": summary["mean_batch_size"],
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "factor_builds": sum(s.n_cold for s in svc.shards),
            "deadline_miss_rate": summary["deadline_miss_rate"],
            "virtual_p99_s": summary["p99_latency"],
        }
        return v

    def finish(self, state):
        return Verdict(0)


WORKLOADS = {
    "oneshot": OneShot,
    "timestep": TimeStep,
    "many-rhs": ManyRHS,
    "serve-stream": ServeStream,
}
