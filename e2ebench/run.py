"""End-to-end benchmark of the CausalFormer discovery service.

Run from the repository root::

    python3 e2ebench/run.py --workload discover_lorenz96 --seed 1 --seconds 10 --trace 0

Workloads and metrics are listed, with the reason for each, in
``BENCHMARK.json``; the layer-to-metric table is :data:`layers.LAYERS`.

Each workload runs in a fresh ``worker.py`` process started with BLAS
threads and engine threads pinned to 1 and ``src/`` of this checkout on the
path.  ``--trace 0`` reports the end-to-end metrics.  Before the measuring
process, ``SETUP_SAMPLES - 1`` processes only set the workload up, and
``setup_s`` is the median over all of them of the time from starting the
process to its first timed op.  Op and set-up times are scaled to a
reference host speed measured by ``worker.HostProbe`` around every op; the
raw wall times are printed beside them.  ``--trace 1`` reports the
per-layer metrics and writes the traced ops' spans to ``.e2ebench/traces/``.

The output is one line per metric (name, value, unit), the raw wall times,
a line with the recorded environment, and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``src/repro`` the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from layers import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: set-up measurements per run; their median is ``setup_s``
SETUP_SAMPLES = 3
#: every process of one run must have ended by then
DEADLINE_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"jobs_per_s": "1/s", "op_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "f1_mean": "ratio"}


class WorkerError(RuntimeError):
    pass


def pinned_env(workdir: str) -> Dict[str, str]:
    """The workload process's environment: one BLAS thread, one engine
    thread, this checkout's ``src/`` only, no ambient fault plan."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({key: "1" for key in BLAS_ENV})
    env.update({
        "REPRO_ENGINE_THREADS": "1",
        "REPRO_CACHE_DIR": os.path.join(workdir, "default-cache"),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
    })
    return env


def run_worker(args: List[str], env: Dict[str, str], deadline: float):
    """Start one workload process; returns (start time, its JSON result)."""
    started = time.monotonic()
    try:
        completed = subprocess.run([sys.executable, WORKER] + args, env=env,
                                   cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                   timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerError("workload process ran past the deadline")
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited with {completed.returncode}")
    return started, json.loads(lines[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    state = os.path.join(ROOT, ".e2ebench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    env = pinned_env(workdir)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, ready = run_worker(common + ["--setup-only"], env, deadline)
                setups.append((ready["ready"] - started, ready["speed"]))
        measure = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(state, "traces")
            os.makedirs(traces, exist_ok=True)
            measure += ["--trace-out",
                        os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
        started, result = run_worker(measure, env, deadline)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    wall = result["wall"]
    if args.trace:
        units = LAYER_METRICS
    else:
        setups.append((result["ready"] - started, result["speed"]))
        metrics["setup_s"] = statistics.median(raw * speed for raw, speed in setups)
        wall["setup_s"] = statistics.median(raw for raw, _speed in setups)
        units = END_TO_END_UNITS
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    for name, value in wall.items():
        print(f"{name + ' (wall)':36s} {value:14.6g} {END_TO_END_UNITS[name]}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
