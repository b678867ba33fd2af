"""Wall-clock benchmark of the solve pipeline, layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh process (``worker.py``) with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1, below the machine's processor count, ``PYTHONHASHSEED`` set
to 0, and with ``src/`` of this checkout first on ``PYTHONPATH``.  With ``--trace 0`` the last
line of output is the end-to-end result JSON, with ``--trace 1`` the
per-layer one.  ``--workload all`` runs every workload untraced and
then traced and ends with one JSON object keyed by workload and mode.

Exit status: 0 when every output was verified correct, 1 when a check
failed or a worker did not finish, 2 when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oneshot", "timestep", "many-rhs", "serve-stream")
#: one run must end within 180 s; leave the parent time to report
WORKER_TIMEOUT_S = 170
#: one BLAS/OpenMP thread: the pipeline's hot loops are Python and
#: level-1 vector work, so a run stays on one processor
THREADS = "1"


def run_worker(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, lines = run_worker(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_worker(workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            if code != 0:
                combined["correct"] = False
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                combined["correct"] = False
                continue
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
