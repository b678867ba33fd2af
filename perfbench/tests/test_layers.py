import time

import pytest

from repro.obs.spans import SpanRecorder

import workloads
from layers import Layers, self_times
from worker import run_workload

DELAY_S = 0.1


def test_self_times_subtract_direct_children():
    rec = SpanRecorder()
    layers = Layers(rec)
    with layers.span("root"):
        time.sleep(0.01)
        with layers.span("child"):
            time.sleep(0.02)
            layers.call("grandchild", time.sleep, 0.03)
        layers.wrap("wrapped", time.sleep)(0.01)
    rows = {e.name: (e, s, root) for e, s, root in self_times(rec.spans())}
    root = rows["root"][0]
    assert all(r is root for _, _, r in rows.values())
    child, child_self, _ = rows["child"]
    grandchild = rows["grandchild"][0]
    assert child_self == pytest.approx(child.duration - grandchild.duration)
    assert child_self == pytest.approx(0.02, abs=0.015)
    # the self times of one tree add up to the root's duration
    assert sum(s for _, s, _ in rows.values()) == pytest.approx(root.duration)


def test_untraced_layers_call_straight_through():
    layers = Layers()
    assert not layers.traced
    assert layers.wrap("x", abs) is abs
    assert layers.call("x", abs, -2) == 2


def _seconds_per_solve(record):
    """Wall seconds per solve: a planted sleep does not scale with speed."""
    return 1.0 / record["wall_solves_per_s"]


def _wall(record, name):
    return record["per_layer"][name] / record["speed_factor"]


def _delayed(fn):
    def slow(*args, **kwargs):
        time.sleep(DELAY_S)
        return fn(*args, **kwargs)

    return slow


def test_planted_delay_shows_in_its_layer_and_end_to_end(monkeypatch):
    wl = workloads.OneShot(grid_n=12, transient_scale=0.1)
    base = run_workload(wl, seed=3, seconds=0.0, trace=True)
    monkeypatch.setattr(workloads, "preorder_for_javelin",
                        _delayed(workloads.preorder_for_javelin))
    slow = run_workload(wl, seed=3, seconds=0.0, trace=True)
    assert base["failed"] == slow["failed"] == 0
    grew = {k: _wall(slow, k) - _wall(base, k) for k in base["per_layer"]}
    assert grew["ordering.preorder_s"] == pytest.approx(DELAY_S, abs=0.05)
    for other in ("core.symbolic_s", "core.factor_s", "kernels.solver_build_s",
                  "solvers.krylov_s"):
        assert abs(grew[other]) < 0.05, other
    assert _seconds_per_solve(slow) - _seconds_per_solve(base) == pytest.approx(
        DELAY_S, abs=0.05)


def test_planted_delay_in_a_wrapped_apply(monkeypatch):
    wl = workloads.ManyRHS(scale=0.05, pool=2)
    base = run_workload(wl, seed=3, seconds=0.0, trace=True)
    real = workloads.krylov

    def slow_apply(A, b, M, layers):
        return real(A, b, _delayed(M), layers)

    monkeypatch.setattr(workloads, "krylov", slow_apply)
    slow = run_workload(wl, seed=3, seconds=0.0, trace=True)
    grew = _wall(slow, "kernels.apply_s") - _wall(base, "kernels.apply_s")
    assert grew == pytest.approx(DELAY_S, abs=0.05)
    # the apply is a child of the Krylov span, not part of its self time
    assert _wall(slow, "solvers.krylov_self_s") < 0.05
    calls = slow["per_layer"]["kernels.apply_calls"]
    assert _seconds_per_solve(slow) - _seconds_per_solve(base) == pytest.approx(
        calls * DELAY_S, rel=0.3)
