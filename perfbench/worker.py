"""Run one workload in this process and print its metrics.

``run.py`` starts this file in a fresh process per workload, with BLAS
and OpenMP threads pinned.  The process:

1. sets the workload up at least ``SETUP_REPEATS`` times from the same
   seed, each time with an empty symbolic cache; ``setup_s`` is the median
   set-up.  The interpreter start-up (process start to this module's
   imports done) is reported beside it as ``startup_s``;
2. runs rounds of timed operations within ``--seconds`` seconds; a
   round is one operation per input kind, and at least two rounds run;
   ``solves_per_s`` is one over the geometric mean, across rounds, of a
   round's seconds per verified solve (the machine's speed noise is a
   factor, so a mean of logarithms is its steadiest location: it spread
   half as much as the median over the same runs);
3. checks every output outside the timed window, and at the end runs
   the workload's whole-run check;
4. prints a report, writes it with the environment to
   ``perfbench/out/``, and prints the result JSON as its last line.

With ``--trace 1`` odd rounds run under the benchmark's own spans and
even rounds run without them; the per-layer metrics come from the
traced rounds and ``trace.overhead_frac`` compares the two halves.
The set-up repetitions are traced too.

Every set-up and operation is preceded by a calibration (:mod:`speed`),
and every reported time is in nominal seconds, so that the machine's
drifting speed cancels: an operation is scaled by the calibrations
just before and after it, and set-ups and layer times by all of the
run's calibrations.  The record keeps the raw wall times as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import geometric_mean

import numpy as np

import repro
from repro.kernels.cache import clear_default_cache
from repro.obs.chrome_trace import recorder_events, write_chrome_trace
from repro.obs.spans import SpanRecorder

from layers import Layers, self_times
from speed import REFERENCE_S, SHARE, calibrate, speed_factor
from stats import mean, median, quartiles, tail
from workloads import WORKLOADS, structure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: set-ups per run: at least SETUP_REPEATS, and more while they add up
#: to less than SETUP_SECONDS, so a cheap set-up still has a steady
#: median; never more than SETUP_MAX_REPEATS
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX_REPEATS = 30
#: each calibration around a set-up lasts at least this long
SETUP_CALIBRATION_S = 0.02
#: at least two rounds, so every run has the same minimum sample (and the
#: traced run has one untraced and one traced round)
MIN_ROUNDS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: metric name -> unit, from the benchmark's declaration; ``*_s`` layer
#: times are median self seconds per operation or set-up that calls the
#: layer, except apply and spmv, which are per call
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: the report's names for the time per solve and the rate, per operation
REPORT_NAMES = {
    "solve": ("solve_s", "solves_per_s"),
    "step": ("step_s", "steps_per_s"),
    "rhs": ("rhs_s", "rhs_per_s"),
    "stream": ("request_s", "req_per_s"),
}


@dataclass
class Op:
    round: int
    seconds: float  # wall
    traced: bool
    verdict: object
    scale: float = 1.0  # nominal seconds per wall second, from the calibrations

    @property
    def nominal(self):
        return self.seconds * self.scale


def run_workload(wl, seed, seconds, trace, startup_s=0.0):
    """Set up, time and check ``wl``; returns the full result record."""
    rec = SpanRecorder() if trace else None
    traced, plain = Layers(rec), Layers()  # alike when not tracing
    setups, setup_refs, first_krylov, state = [], [], None, None
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        state = None  # let the previous set-up's memory go first
        clear_default_cache()  # every set-up pays the symbolic analysis
        setup_refs.append(calibrate(max(SHARE * sum(setups[-1:]), SETUP_CALIBRATION_S)))
        t0 = time.perf_counter()
        with traced.span("bench.setup"):
            state = wl.setup(seed, traced)
        setups.append(time.perf_counter() - t0)
        if first_krylov is None:
            first_krylov = state.warmup_s[0]
    setup_refs.append(calibrate(max(SHARE * setups[-1], SETUP_CALIBRATION_S)))

    ops, refs = [], []  # refs[k]: the calibration right before ops[k]
    i = r = 0
    t_end = time.perf_counter() + seconds
    while True:
        t_round = time.perf_counter()
        layers = traced if r % 2 else plain
        for _ in range(wl.kinds):
            inp = wl.prepare(state, i)
            refs.append(calibrate(SHARE * ops[-1].seconds if ops else 0.0))
            t0 = time.perf_counter()
            try:
                with layers.span(f"bench.{wl.op}"):
                    out = wl.run(state, inp, layers)
            except Exception:
                traceback.print_exc()
                out = None
            dt = time.perf_counter() - t0
            ops.append(Op(r, dt, layers.traced, wl.check(state, inp, out)))
            i += 1
        r += 1
        # stop before a round that would end past the window, so a run's
        # length does not jump by a whole round of multi-second solves
        now = time.perf_counter()
        if r >= MIN_ROUNDS and now + (now - t_round) > t_end:
            break
    refs.append(calibrate(SHARE * ops[-1].seconds))
    # an operation's speed is that of the calibrations just before and
    # after it
    for o, before, after in zip(ops, refs, refs[1:]):
        o.scale = speed_factor(before + after)
    reference = [x for ref in setup_refs + refs for x in ref]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = wl.finish(state)

    verdicts = [o.verdict for o in ops] + [final]
    iters = [k for v in verdicts for k in v.iterations]
    plain_ops = [o for o in ops if not o.traced]
    per_unit = [o.nominal / o.verdict.units for o in plain_ops]
    record = {
        "op": wl.op,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "attempted": sum(v.units for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems],
        "startup_s": startup_s,
        "setup_samples": setups,
        "op_samples": [o.seconds for o in ops],
        "op_scales": [o.scale for o in ops],
        "op_traced": [o.traced for o in ops],
        "reference_samples": reference,
        "speed_factor": speed_factor(reference),
        "wall_solves_per_s": sum(o.verdict.units for o in plain_ops)
        / sum(o.seconds for o in plain_ops),
        "per_solve_s": {
            "median": median(per_unit),
            "quartiles": quartiles(per_unit) if len(per_unit) > 1 else None,
            "tail": tail(per_unit),
        },
        "end_to_end": {
            # a set-up lasts seconds, longer than the speed holds still,
            # so set-ups are scaled by the speed over the whole run
            "setup_s": median(setups) * speed_factor(reference),
            "solves_per_s": 1.0 / geometric_mean(_round_per_unit(plain_ops)),
            "krylov_iters": mean(iters),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        record["per_layer"] = _per_layer(wl, state, ops, rec, first_krylov,
                                         record["speed_factor"])
        record["recorder"] = rec
    return record


def _round_per_unit(ops):
    """Per round: nominal operation seconds over verified-solve units."""
    secs, units = defaultdict(float), defaultdict(int)
    for o in ops:
        secs[o.round] += o.nominal
        units[o.round] += o.verdict.units
    return [secs[r] / units[r] for r in secs]


def _per_layer(wl, state, ops, rec, first_krylov, scale):
    """Per-layer metrics from the traced rounds and set-ups.

    Layer times are in nominal seconds: wall seconds times ``scale``, the
    run's speed factor.
    """
    roots = {}  # id(root) -> (root span, root self seconds)
    self_s = defaultdict(lambda: defaultdict(float))  # id(root) -> layer -> self s
    calls = defaultdict(lambda: defaultdict(int))  # id(root) -> layer -> calls
    per_call = defaultdict(list)  # layer -> self s of each call
    krylov_total = []
    for e, s, root in self_times(rec.spans()):
        key = id(root)
        if e is root:  # a root sorts before every span it encloses
            roots[key] = (root, s)
        self_s[key][e.name] += s
        calls[key][e.name] += 1
        per_call[e.name].append(s)
        if e.name == "solvers.krylov":
            krylov_total.append(e.duration)
    op_keys = [k for k, (root, _) in roots.items() if root.name == f"bench.{wl.op}"]
    setup_keys = [k for k in roots if k not in op_keys]

    def layer_s(name):
        """Median self seconds per operation calling ``name``, else per set-up."""
        for keys in (op_keys, setup_keys):
            values = [self_s[k][name] for k in keys if calls[k][name]]
            if values:
                return median(values) * scale
        return 0.0

    def calls_per_op(name):
        return mean(calls[k][name] for k in op_keys)

    shapes = [structure(ilu) for ilu in state.factored.values()]
    serve = [o.verdict.serve for o in ops if o.verdict.serve]
    numeric_s = layer_s("core.refactor") or layer_s("core.factor")

    def per_call_s(name):
        return median(per_call[name]) * scale

    traced_s = sum(roots[k][0].duration for k in op_keys)
    attributed_s = sum(roots[k][0].duration - roots[k][1] for k in op_keys)
    plain = [o for o in ops if not o.traced]
    traced = [o for o in ops if o.traced]

    def shape(key):
        return mean(s[key] for s in shapes)

    def serve_mean(key):
        return mean(s[key] for s in serve)

    return {
        "matrices.build_s": layer_s("matrices.build"),
        "ordering.preorder_s": layer_s("ordering.preorder"),
        "core.symbolic_s": layer_s("core.symbolic"),
        "core.factor_s": layer_s("core.factor"),
        "core.refactor_s": layer_s("core.refactor"),
        "core.factor_flops": shape("factor_flops"),
        "core.factor_gflops": shape("factor_flops") / numeric_s / 1e9 if numeric_s else 0.0,
        "core.levels": shape("levels"),
        "core.lower_rows": shape("lower_rows"),
        "core.factor_nnz": shape("factor_nnz"),
        "kernels.solver_build_s": layer_s("kernels.solver_build"),
        "kernels.apply_s": per_call_s("kernels.apply"),
        "kernels.apply_calls": calls_per_op("kernels.apply"),
        "kernels.apply_bytes": shape("apply_bytes"),
        "sparse.spmv_s": per_call_s("sparse.spmv"),
        "sparse.spmv_calls": calls_per_op("sparse.spmv"),
        "solvers.krylov_s": median(krylov_total) * scale,
        "solvers.krylov_self_s": per_call_s("solvers.krylov"),
        "solvers.first_krylov_s": first_krylov * scale,
        "serve.run_s": layer_s("serve.run"),
        "serve.batches": serve_mean("batches"),
        "serve.mean_batch_size": serve_mean("mean_batch_size"),
        "serve.cache_hit_rate": serve_mean("cache_hit_rate"),
        "serve.factor_builds": serve_mean("factor_builds"),
        "serve.deadline_miss_rate": serve_mean("deadline_miss_rate"),
        "serve.virtual_p99_s": serve_mean("virtual_p99_s"),
        "trace.overhead_frac": geometric_mean(_round_per_unit(traced))
        / geometric_mean(_round_per_unit(plain)) - 1.0,
        "trace.attributed_frac": attributed_s / traced_s if traced_s else 0.0,
    }


# ----------------------------------------------------------------------
# environment and output
# ----------------------------------------------------------------------
def environment():
    """What the numbers depend on besides the code."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def report_lines(name, record):
    """Human-readable metrics, the per-workload names first."""
    e2e = record["end_to_end"]
    per_name, rate_name = REPORT_NAMES[record["op"]]
    lat = record["per_solve_s"]
    t = lat["tail"]
    spread_txt = (
        f"Q1 {lat['quartiles'][0]:.6g}, Q3 {lat['quartiles'][2]:.6g}; "
        if lat["quartiles"] else ""
    )
    tail_txt = (
        f"tail p{t['p']:g} {t['value']:.6g} s ({t['beyond']} beyond)"
        if t["p"] is not None else "no tail percentile"
    )
    attempted, failed = record["attempted"], record["failed"]
    lines = [
        f"perfbench {name}: seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}",
        f"  {per_name:<26} {lat['median']:.6g} s  nominal median ({spread_txt}{tail_txt}; "
        f"n={t['n']})",
        f"  {rate_name:<26} {e2e['solves_per_s']:.6g} 1/s  nominal "
        f"({record['wall_solves_per_s']:.6g} 1/s wall; reference task "
        f"{median(record['reference_samples']):.6g} s, nominal {REFERENCE_S:g} s)",
        f"  {'failed_frac':<26} {failed / attempted:.6g} frac  ({failed} of {attempted})",
        f"  {'startup_s':<26} {record['startup_s']:.6g} s  (interpreter start-up)",
    ]
    lines += [f"  {k:<26} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items()
              if k != "solves_per_s"]
    for k, v in record.get("per_layer", {}).items():
        lines.append(f"  {k:<26} {v:.6g} {PER_LAYER[k]}")
    lines += [f"  FAILED: {p}" for p in record["problems"][:20]]
    return lines


def result_json(record):
    """The contract's last line: correctness, counts, metrics with units."""
    metrics, units = (
        (record["per_layer"], PER_LAYER) if record["trace"] else (record["end_to_end"], END_TO_END)
    )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def write_outputs(out_dir, workload, seed, record):
    """Write the record and, when traced, its Chrome trace; returns the paths.

    The file names never match ``BENCH_*.json``, the glob that
    ``repro.tune`` fits from and ``repro tune check-regressions`` scans.
    """
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{record['trace']}"
    paths = []
    rec = record.pop("recorder", None)
    if rec is not None:
        paths.append(write_chrome_trace(
            out_dir / f"{stem}.trace.json", recorder_events(rec),
            metadata={"workload": workload, "seed": seed},
        ))
    paths.append(out_dir / f"{stem}.json")
    with open(paths[-1], "w") as fh:
        json.dump(record, fh, indent=1)
    return paths


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() when the parent started this process")
    args = p.parse_args(argv)
    startup_s = time.time() - args.spawned_at
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

    record = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                          args.trace, startup_s)
    record["environment"] = env = environment()
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} threads={env['threads']} "
          f"commit={env['git_commit']} src_sha256={env['src_sha256'][:12]}")
    print("\n".join(report_lines(args.workload, record)), flush=True)

    write_outputs(OUT_DIR, args.workload, args.seed, record)
    result = result_json(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
