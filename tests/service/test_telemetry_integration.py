"""Telemetry wired through the service layer: executor, trainers, CLI.

Covers the observability contracts the telemetry subsystem makes to the
rest of the repo: the pool-fallback path produces identical results and an
audit trail, cache hits price the lookup separately from the original
compute, worker-collected telemetry ships back across the process boundary,
training emits per-epoch events without perturbing the numerics, and the
CLI surfaces expose it all.
"""

import os
import subprocess
import sys

import pytest

from repro.data import fork_dataset
from repro.service import DiscoveryJob, JobExecutor, fingerprint_dataset
from repro.service.executor import execute_job, execute_job_with_dtype
from repro.service.jobs import JobResult
from repro.telemetry import Telemetry, capture, get_telemetry, reset

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    reset(close=False)


@pytest.fixture(scope="module")
def fork_pairs():
    pairs = []
    for seed in (0, 1):
        dataset = fork_dataset(seed=seed, length=140)
        pairs.append((DiscoveryJob(method="var_granger", dataset="fork",
                                   dataset_fingerprint=fingerprint_dataset(dataset),
                                   seed=seed), dataset))
    return pairs


@pytest.fixture(scope="module")
def causalformer_pair():
    config = {"window": 12, "d_model": 16, "d_qk": 16, "d_ffn": 16,
              "n_heads": 2, "batch_size": 16, "window_stride": 2,
              "max_epochs": 2, "patience": 1000, "max_detector_windows": 4}
    dataset = fork_dataset(seed=0, length=150)
    job = DiscoveryJob(method="causalformer", config=config, dataset="fork",
                       dataset_fingerprint=fingerprint_dataset(dataset),
                       seed=0)
    return job, dataset


def _summaries(results):
    return [(result.job.method, result.job.seed, result.scores.f1,
             [edge.as_tuple() for edge in result.graph.edges])
            for result in results]


def _events(telemetry, name):
    return [record for record in telemetry.records()
            if record.get("kind") == "event" and record.get("name") == name]


class TestPoolFallback:
    def test_broken_pool_degrades_to_inline_with_audit_trail(
            self, fork_pairs, monkeypatch):
        import repro.service.executor as executor_module

        class BrokenPool:
            def __init__(self, *_args, **_kwargs):
                raise OSError("no usable multiprocessing primitives")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", BrokenPool)
        with capture() as telemetry:
            fallback = JobExecutor(max_workers=2).run(fork_pairs)
        inline = JobExecutor(max_workers=1).run(fork_pairs)

        assert all(result.ok for result in fallback)
        assert _summaries(fallback) == _summaries(inline)
        assert telemetry.counter("executor.pool_fallbacks").value == 1.0
        (event,) = _events(telemetry, "pool_fallback")
        assert event["attrs"] == {"workers": 2, "pending": len(fork_pairs)}

    def test_healthy_pool_emits_no_fallback(self, fork_pairs):
        with capture() as telemetry:
            results = JobExecutor(max_workers=2).run(fork_pairs)
        assert all(result.ok for result in results)
        assert _events(telemetry, "pool_fallback") == []
        assert telemetry.counter("executor.pool_fallbacks").value == 0.0


class TestUnfilledSlots:
    def test_lost_dispatch_result_raises_instead_of_shortening(
            self, fork_pairs, monkeypatch):
        monkeypatch.setattr(JobExecutor, "_dispatch",
                            lambda self, pending: {})
        with pytest.raises(RuntimeError) as excinfo:
            JobExecutor(max_workers=1).run(fork_pairs[:1])
        assert fork_pairs[0][0].job_id in str(excinfo.value)


class TestLookupDuration:
    def test_cache_hit_prices_lookup_separately(self, fork_pairs, tmp_path):
        executor = JobExecutor(cache=str(tmp_path))
        (cold,) = executor.run(fork_pairs[:1])
        assert cold.lookup_duration is None
        with capture() as telemetry:
            (warm,) = executor.run(fork_pairs[:1])
        assert warm.cached
        assert warm.lookup_duration is not None
        assert warm.lookup_duration > 0.0
        # duration keeps the original run's compute time, not the lookup
        assert warm.duration == pytest.approx(cold.duration)
        (event,) = _events(telemetry, "job_cache_hit")
        assert event["attrs"]["lookup_duration"] == warm.lookup_duration

    def test_lookup_duration_round_trips(self, fork_pairs, tmp_path):
        executor = JobExecutor(cache=str(tmp_path))
        executor.run(fork_pairs[:1])
        (warm,) = executor.run(fork_pairs[:1])
        payload = warm.to_dict()
        assert payload["lookup_duration"] == warm.lookup_duration
        restored = JobResult.from_dict(payload)
        assert restored.lookup_duration == warm.lookup_duration

    def test_fresh_results_omit_the_field(self, fork_pairs):
        (fresh,) = JobExecutor().run(fork_pairs[:1])
        assert "lookup_duration" not in fresh.to_dict()


class TestWorkerTelemetryShipBack:
    def test_collect_flag_attaches_export_payload(self, fork_pairs):
        job, dataset = fork_pairs[0]
        result = execute_job_with_dtype(job, dataset, "float64",
                                        collect_telemetry=True)
        assert result.ok
        assert result.telemetry is not None
        spans = [record["name"] for record in result.telemetry["records"]
                 if record.get("kind") == "span"]
        assert "job" in spans
        # the payload is transient — it must never reach the result cache
        assert "telemetry" not in result.to_dict()

    def test_without_flag_nothing_is_collected(self, fork_pairs):
        job, dataset = fork_pairs[0]
        result = execute_job_with_dtype(job, dataset, "float64")
        assert result.telemetry is None

    def test_absorb_grafts_worker_spans_and_strips_payload(self, fork_pairs):
        job, dataset = fork_pairs[0]
        result = execute_job_with_dtype(job, dataset, "float64",
                                        collect_telemetry=True)
        parent = Telemetry()
        with parent.trace("executor.run"):
            JobExecutor._absorb(result, parent)
        assert result.telemetry is None
        tree = parent.span_tree()
        assert [child["name"] for child in tree[0]["children"]] == ["job"]


class TestTrainingEvents:
    def test_fit_emits_epoch_events_under_the_job_span(
            self, causalformer_pair):
        job, dataset = causalformer_pair
        with capture() as telemetry:
            result = execute_job(job, dataset)
        assert result.ok
        epochs = _events(telemetry, "train_epoch")
        assert len(epochs) == job.config["max_epochs"]
        assert all("loss" in event["attrs"] for event in epochs)

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        (root,) = telemetry.span_tree()
        assert root["name"] == "job"
        assert "train_fit" in list(names(root))

    def test_telemetry_does_not_perturb_results(self, causalformer_pair):
        job, dataset = causalformer_pair
        baseline = execute_job(job, dataset)
        with capture():
            observed = execute_job(job, dataset)
        assert _summaries([observed]) == _summaries([baseline])

    def test_step_latency_histogram_populated(self, causalformer_pair):
        job, dataset = causalformer_pair
        with capture() as telemetry:
            execute_job(job, dataset)
        histogram = telemetry.metrics.snapshot()["histograms"]
        assert histogram["train.step_seconds"]["count"] > 0


class TestEngineProfiling:
    def test_seam_shadows_and_restores_instance_methods(self):
        from repro.nn.inference import ProfilingSeam

        class Demo(ProfilingSeam):
            _PROFILED_OPS = ("_op",)

            def _op(self, x):
                return x + 1

        demo = Demo()
        assert not demo.profiling_enabled
        observed = []
        demo.enable_profiling(lambda op, seconds: observed.append(op))
        assert demo.profiling_enabled
        assert demo._op(1) == 2
        assert observed == ["op"]
        demo.disable_profiling()
        assert not demo.profiling_enabled
        assert "_op" not in demo.__dict__
        assert demo._op(1) == 2
        assert observed == ["op"]  # class method runs untouched again

    def test_profiling_runtime_feeds_engine_histograms(
            self, causalformer_pair):
        job, dataset = causalformer_pair
        with capture(engine_profiling=True) as telemetry:
            result = execute_job(job, dataset)
        assert result.ok
        histograms = telemetry.metrics.snapshot()["histograms"]
        for op in ("causal_windows", "convolution", "attention_probs",
                   "combine_layout", "backward"):
            assert histograms[f"engine.{op}_seconds"]["count"] > 0

    def test_profiling_preserves_numerics(self, causalformer_pair):
        job, dataset = causalformer_pair
        baseline = execute_job(job, dataset)
        with capture(engine_profiling=True):
            profiled = execute_job(job, dataset)
        assert _summaries([profiled]) == _summaries([baseline])


class TestCli:
    def test_sweep_writes_a_trace_and_report_renders_it(
            self, tmp_path, capsys):
        from repro.service.cli import main

        trace = tmp_path / "trace.jsonl"
        code = main(["sweep", "--datasets", "fork",
                     "--methods", "var_granger", "--seeds", "0",
                     "--length", "140",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", f"jsonl:{trace}"])
        assert code == 0
        assert trace.is_file()
        # the runtime installed for the subcommand was torn down again
        assert not get_telemetry().enabled

        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "== span tree ==" in output
        assert "executor.run" in output

    def test_report_on_missing_trace_fails(self, tmp_path, capsys):
        from repro.service.cli import main

        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_bad_telemetry_spec_rejected(self, tmp_path):
        from repro.service.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--datasets", "fork", "--methods", "var_granger",
                  "--seeds", "0", "--cache-dir", str(tmp_path / "cache"),
                  "--telemetry", "prometheus"])


class TestPrintLint:
    def test_library_tree_is_clean(self):
        completed = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools",
                                          "check_print.py")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert completed.returncode == 0, completed.stdout

    def test_print_calls_ignores_docstring_mentions(self, tmp_path):
        # The check walks the AST (now as the ``no-print`` rule of
        # repro.analysis, which tools/check_print.py shims onto), so a
        # ``print`` mentioned in a docstring must not trip it.
        from repro.analysis import LintConfig, lint_paths

        clean = tmp_path / "clean.py"
        clean.write_text('"""Example: print(x) shows x."""\nVALUE = 1\n')
        dirty = tmp_path / "dirty.py"
        dirty.write_text('"""doc"""\n\ndef f(x):\n    print(x)\n')

        config = LintConfig(root=str(tmp_path))
        assert lint_paths(paths=["clean.py"], rules=["no-print"],
                          config=config).findings == []
        findings = lint_paths(paths=["dirty.py"], rules=["no-print"],
                              config=config).findings
        assert [finding.line for finding in findings] == [4]
