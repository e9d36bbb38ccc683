"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures.  The
experiment functions are expensive (they train several models), so each
benchmark runs its payload exactly once (``rounds=1, iterations=1``) — the
timing pytest-benchmark reports is the wall-clock cost of regenerating that
artefact, and the artefact itself is printed so the numbers can be compared
against the paper (see EXPERIMENTS.md).

The committed ``results/*.json`` files are golden outputs: :func:`save_result`
fails when a regenerated artefact differs from its committed file, and writes
only a file that does not exist yet.  To update a golden, delete its file,
rerun the suite and review the diff.  The suite pins float64 for the whole
session, so the goldens reproduce whether it runs alone or after ``tests/``.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
for path in (_ROOT, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import difflib
import json

import numpy as np
import pytest

RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")


@pytest.fixture(scope="session", autouse=True)
def _float64_experiments():
    """Train the experiment runners in float64, the dtype of the goldens.

    The engine defaults to float32; Table 2 and Table 3 readouts shift
    under float32 training, so without this pin the suite's results would
    depend on whether another suite's float64 fixture ran first.
    """
    from repro.nn.tensor import default_dtype

    with default_dtype(np.float64):
        yield


def _canonical(payload) -> str:
    return json.dumps(payload, indent=2, default=str)


def save_result(name: str, payload) -> str:
    """Check a benchmark's result against its committed golden file.

    The payload's JSON round-trip must equal the committed file exactly; a
    missing file is written instead.
    """
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    produced = _canonical(json.loads(_canonical(payload)))
    if not os.path.exists(path):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(produced)
        return path
    with open(path, encoding="utf-8") as handle:
        golden = _canonical(json.load(handle))
    if produced != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), produced.splitlines(),
            f"{name}.json (committed)", f"{name}.json (this run)",
            lineterm=""))
        pytest.fail(f"{name} drifted from its golden file {path}; delete "
                    f"the file and rerun to accept the change:\n{diff}",
                    pytrace=False)
    return path


@pytest.fixture()
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
