import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.chrome_trace import validate_events

import run
import worker
import workloads
from layers import Layers

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "oneshot": lambda: workloads.OneShot(grid_n=12, transient_scale=0.1),
    "timestep": lambda: workloads.TimeStep(grid_n=12, pool=2),
    "many-rhs": lambda: workloads.ManyRHS(scale=0.05, pool=2),
    "serve-stream": lambda: workloads.ServeStream(
        patterns=("grid2d-8", "circuit-60"), n_requests=12, pool=1),
}


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == set(SMALL)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in worker.SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_runs_and_verifies(name, trace):
    record = worker.run_workload(SMALL[name](), seed=5, seconds=0.0, trace=trace)
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] >= 1
    result = worker.result_json(record)
    expected = worker.PER_LAYER if trace else worker.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert result["correct"]
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    worker.report_lines(name, record)


def test_same_seed_same_inputs():
    a = workloads.TimeStep(grid_n=12, pool=2).setup(7, Layers())
    b = workloads.TimeStep(grid_n=12, pool=2).setup(7, Layers())
    for (A1, b1), (A2, b2) in zip(a.inputs, b.inputs):
        assert np.array_equal(A1.data, A2.data) and np.array_equal(b1, b2)


def test_wrong_solution_is_caught_independently(monkeypatch):
    real = workloads.gmres

    def lying_gmres(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = res.x * 1.01  # still claims convergence
        return res

    monkeypatch.setattr(workloads, "gmres", lying_gmres)
    record = worker.run_workload(SMALL["many-rhs"](), seed=5, seconds=0.0, trace=False)
    assert record["failed"] == record["attempted"] >= 1
    assert not worker.result_json(record)["correct"]


def test_refactor_mismatch_is_caught(monkeypatch):
    wl = SMALL["timestep"]()
    state = wl.setup(5, Layers())
    state.extra["sample"] = 0  # the step below is the one compared
    out = wl.run(state, wl.prepare(state, 0), Layers())
    wl.check(state, wl.prepare(state, 0), out)
    _, F = state.extra["snapshot"]
    F.data[0] += 1e-12
    assert wl.finish(state).failed == 1


def test_outputs_stay_out_of_the_tuned_results_glob(tmp_path):
    results = (ROOT / "benchmarks" / "results").resolve()
    assert not worker.OUT_DIR.resolve().is_relative_to(results)
    record = worker.run_workload(SMALL["serve-stream"](), seed=5, seconds=0.0, trace=True)
    paths = worker.write_outputs(tmp_path, "serve-stream", 5, record)
    assert paths and all(p.parent == tmp_path for p in paths)
    assert not any(fnmatch.fnmatch(p.name, "BENCH_*.json") for p in paths)
    trace = json.loads(next(p for p in paths if p.name.endswith(".trace.json")).read_text())
    assert trace["traceEvents"] and not validate_events(trace["traceEvents"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
