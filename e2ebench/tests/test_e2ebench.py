"""Tests of the end-to-end benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_names_match_benchmark_json():
    spec = _spec()
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert [m["name"] for m in spec["per_layer"]] == list(layers.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    completed = _run(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in named}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(value, (int, float)) for value in values.values())
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "discover_lorenz96":
        assert values["training.fit_s"] > 0 and values["stacked.fit_s"] == 0
        assert values["training.epochs"] > 0 and values["cache.get_s"] == 0
    elif workload == "sweep_synthetic_cold":
        assert values["stacked.fit_s"] > 0 and values["training.fit_s"] == 0
        assert values["batched.groups"] >= 1 and values["cache.put_calls"] > 0
        assert values["engine.op.backward_s"] > 0
    else:
        assert values["training.fit_s"] == 0 and values["stacked.fit_s"] == 0
        assert values["cache.hit_ratio"] == 1.0 and values["data.build_s"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "discover_lorenz96", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_check_fails_on_a_tampered_cached_graph(tmp_path):
    workload = worker.SweepLorenz96Warm(3, str(tmp_path), tiny=True)
    workload.setup()
    cache = ResultCache(workload.cache_dir)
    key = next(iter(workload.stored))
    payload = cache.get(key)
    payload["graph"]["edges"] = payload["graph"]["edges"][1:]
    cache.put(key, payload)

    workload.after_op(workload.op(0))
    assert any("differs from the graph stored" in failure
               for failure in workload.failures)


def test_check_fails_when_solo_and_lane_disagree(tmp_path, monkeypatch):
    workload = worker.SweepSyntheticCold(3, str(tmp_path), tiny=True)
    workload.after_op(workload.op(0))
    assert workload.failures == []

    solo = worker.execute_job

    def tampered(job, dataset):
        result = solo(job, dataset)
        dropped = result.graph.edges[0]
        result.graph.remove_edge(dropped.source, dropped.target)
        return result

    monkeypatch.setattr(worker, "execute_job", tampered)
    workload.final_checks()
    assert workload.failures
    assert all("disagrees with its batched lane" in failure
               for failure in workload.failures)


def test_executor_self_time_excludes_direct_children():
    spans = [
        {"name": "executor.run", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "cache.get", "start": 1.0, "end": 2.0, "parent": 0, "op": 0,
         "hit": True},
        {"name": "training.fit", "start": 3.0, "end": 7.0, "parent": 0, "op": 0,
         "epochs": 5},
        {"name": "engine.train_step", "start": 3.5, "end": 6.0, "parent": 2, "op": 0},
    ]
    engine = {op: 0.0 for op in layers.ENGINE_OPS}
    metrics = layers.layer_metrics(spans, n_ops=1, n_jobs=2, engine_seconds=engine,
                                   overhead_frac=0.05)
    assert list(metrics) == list(layers.LAYER_METRICS)
    assert metrics["executor.self_s"] == pytest.approx(5.0)
    assert metrics["training.fit_s"] == pytest.approx(4.0)
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["cache.gets_per_job"] == 0.5
    assert metrics["training.epochs"] == 5
