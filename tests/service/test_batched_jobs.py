"""Batched sweep execution: grouping, result identity, fallback, caching."""

import pytest

from repro.service.batched import (batch_signature, execute_batched_jobs,
                                   group_batchable)
from repro.service.cache import ResultCache
from repro.service.executor import JobExecutor
from repro.service.jobs import DiscoveryJob, fingerprint_dataset
from repro.service.registry import build_dataset

CONFIG = {
    "window": 12, "d_model": 16, "d_qk": 16, "d_ffn": 16, "n_heads": 2,
    "batch_size": 16, "window_stride": 2, "max_epochs": 3, "patience": 1000,
    "max_detector_windows": 4,
}


def causalformer_pair(seed, length=160, dataset="fork", config=None):
    data = build_dataset(dataset, seed=seed, length=length)
    job = DiscoveryJob(method="causalformer", config=dict(config or CONFIG),
                       dataset=dataset, dataset_fingerprint=fingerprint_dataset(data),
                       seed=seed)
    return job, data


@pytest.fixture(scope="module")
def four_pairs():
    return [causalformer_pair(seed) for seed in range(4)]


class TestGrouping:
    def test_same_shape_jobs_share_signature(self, four_pairs):
        signatures = {batch_signature(job, data) for job, data in four_pairs}
        assert len(signatures) == 1

    def test_non_causalformer_not_batchable(self):
        data = build_dataset("fork", seed=0, length=160)
        job = DiscoveryJob(method="var_granger", dataset="fork",
                           dataset_fingerprint=fingerprint_dataset(data))
        assert batch_signature(job, data) is None

    def test_single_kernel_batchable(self):
        """Single-kernel ablation jobs group among themselves (their (1,1,T)
        kernel stacks trivially) but never with multi-kernel jobs."""
        config = dict(CONFIG, single_kernel=True)
        single_a = causalformer_pair(0, config=config)
        single_b = causalformer_pair(1, config=config)
        multi = causalformer_pair(0)
        sig_a = batch_signature(*single_a)
        assert sig_a is not None
        assert sig_a == batch_signature(*single_b)
        assert sig_a != batch_signature(*multi)

    def test_different_shapes_do_not_group(self, four_pairs):
        other = causalformer_pair(9, length=200)
        indexed = list(enumerate(four_pairs + [other]))
        groups, singles = group_batchable(indexed)
        assert len(groups) == 1 and len(groups[0]) == 4
        assert [index for index, _pair in singles] == [4]

    def test_lone_batchable_job_stays_single(self, four_pairs):
        indexed = [(0, four_pairs[0])]
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == 1


class TestExecutionIdentity:
    @pytest.fixture(scope="class")
    def results(self, four_pairs):
        data = build_dataset("fork", seed=11, length=160)
        extra = (DiscoveryJob(method="var_granger", dataset="fork",
                              dataset_fingerprint=fingerprint_dataset(data)),
                 data)
        pairs = list(four_pairs) + [extra]
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        batched = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        return sequential, batched

    def test_all_jobs_succeed(self, results):
        sequential, batched = results
        assert all(result.ok for result in sequential)
        assert all(result.ok for result in batched)

    def test_graphs_identical(self, results):
        sequential, batched = results
        for result_a, result_b in zip(sequential, batched):
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b

    def test_scores_identical(self, results):
        sequential, batched = results
        for result_a, result_b in zip(sequential, batched):
            assert result_a.scores.precision == result_b.scores.precision
            assert result_a.scores.recall == result_b.scores.recall
            assert result_a.scores.f1 == result_b.scores.f1

    def test_results_keep_request_order(self, results):
        _sequential, batched = results
        seeds = [result.job.seed for result in batched[:4]]
        assert seeds == [0, 1, 2, 3]
        assert batched[4].job.method == "var_granger"


class TestQuarantineRetry:
    """A lane failing mid-fit degrades to a solo re-run of that one job
    while the survivors' stacked results stand, bit-identical."""

    def test_quarantined_lane_retries_solo(self, four_pairs):
        from repro import faults
        from repro.service.executor import execute_job

        reference = [execute_job(job, data) for job, data in four_pairs]
        with faults.override("raise@lane_step=4:lane=1"):
            results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results), \
            [result.error for result in results]
        for result_a, result_b in zip(reference, results):
            assert result_a.graph.to_dict() == result_b.graph.to_dict()
            assert result_a.scores.f1 == result_b.scores.f1

    def test_quarantine_emits_telemetry(self, four_pairs):
        from repro import faults
        from repro.telemetry import capture

        with faults.override("raise@lane_step=4:lane=1"):
            with capture() as telemetry:
                results = execute_batched_jobs(four_pairs)
        assert all(result.ok for result in results)
        assert telemetry.counter("jobs.quarantined").value == 1.0
        assert telemetry.counter("batched.quarantine_retries").value == 1.0
        names = {record.get("name") for record in telemetry.records()
                 if record.get("kind") == "event"}
        assert "lane_quarantined" in names
        assert "job_quarantine_retry" in names


class TestFallback:
    def test_stacked_failure_falls_back_to_sequential(self, four_pairs,
                                                      monkeypatch):
        import repro.core.batched as core_batched

        def explode(*_args, **_kwargs):
            raise RuntimeError("stacked training unavailable")

        monkeypatch.setattr(core_batched.StackedCausalFormerTrainer,
                            "__init__", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results)

    def test_per_job_graph_failure_is_captured(self, four_pairs, monkeypatch):
        from repro.core.detector import DecompositionCausalityDetector
        from repro.core.discovery import CausalFormer

        def explode(self, *args, **kwargs):
            raise RuntimeError("interpretation failed")

        # Kill both the per-job graph construction (stacked path) and the
        # per-job fallback so every job's failure is captured individually.
        monkeypatch.setattr(DecompositionCausalityDetector, "build_graph",
                            explode)
        monkeypatch.setattr(CausalFormer, "interpret", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(not result.ok for result in results)
        assert all("interpretation failed" in result.error
                   for result in results)
        assert [result.job.seed for result in results] == [0, 1, 2, 3]

    def test_stacked_interpretation_failure_falls_back_per_job(
            self, four_pairs, monkeypatch):
        import repro.core.detector as core_detector

        original = core_detector.compute_scores_group
        group_sizes = []

        def explode(detectors, windows_list, arena=None):
            # A solo detector scores as a group of one, so only the stacked
            # multi-model call fails; the per-job fallback still scores.
            group_sizes.append(len(detectors))
            if len(detectors) > 1:
                raise RuntimeError("stacked interpretation unavailable")
            return original(detectors, windows_list, arena=arena)

        monkeypatch.setattr(core_detector, "compute_scores_group", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results)
        assert group_sizes[0] > 1 and group_sizes[1:] == [1] * 4


class TestCaching:
    def test_batched_results_cached(self, four_pairs, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = JobExecutor(max_workers=1, cache=cache, batch_jobs=True)
        first = executor.run(four_pairs)
        assert all(not result.cached for result in first)
        second = executor.run(four_pairs)
        assert all(result.cached for result in second)
        for result_a, result_b in zip(first, second):
            assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
                == sorted(edge.as_tuple() for edge in result_b.graph.edges)


class TestSingleKernelExecution:
    """Single-kernel ablation groups run stacked with identical results."""

    def test_single_kernel_group_identical_to_sequential(self):
        config = dict(CONFIG, single_kernel=True)
        pairs = [causalformer_pair(seed, config=config) for seed in range(2)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert len(groups) == 1 and not singles
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        batched = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        for result_a, result_b in zip(sequential, batched):
            assert result_a.ok and result_b.ok
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b
            assert result_a.scores.f1 == result_b.scores.f1


class TestUnequalWindowCounts:
    """Same config on different-length datasets must not stack (their window
    counts differ), and the sweep still completes via the per-job path."""

    def test_unequal_lengths_stay_single_and_succeed(self):
        pairs = [causalformer_pair(0, length=160),
                 causalformer_pair(1, length=200)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == 2
        results = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        assert all(result.ok for result in results)
        assert [result.job.seed for result in results] == [0, 1]

    def test_min_group_minus_one_stays_single(self):
        """A group of MIN_GROUP - 1 batchable jobs falls back to per-job
        dispatch (a stacked pass of one model is pure overhead)."""
        from repro.service.batched import MIN_GROUP

        pairs = [causalformer_pair(seed) for seed in range(MIN_GROUP - 1)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == MIN_GROUP - 1
        results = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        assert all(result.ok for result in results)


class TestShapeBucketing:
    """Slack-based length bucketing: mixed-shape jobs stack via pad-and-mask."""

    def test_slack_groups_mixed_lengths(self):
        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 176])]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, slack=0.5)
        assert len(groups) == 1 and not singles
        assert sorted(index for index, _pair in groups[0]) == [0, 1, 2]

    def test_zero_slack_reproduces_exact_grouping(self):
        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 160])]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, slack=0.0)
        assert len(groups) == 1
        assert sorted(index for index, _pair in groups[0]) == [0, 2]
        assert [index for index, _pair in singles] == [1]

    def test_slack_bound_is_relative_to_bucket_anchor(self):
        """Admission compares against the bucket's *shortest* job, so chains
        of pairwise-close lengths cannot stretch a bucket unboundedly."""
        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 250])]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, slack=0.25)
        # 200 <= 160 * 1.25, but 250 > 160 * 1.25 even though 250 = 200 * 1.25.
        assert len(groups) == 1
        assert sorted(index for index, _pair in groups[0]) == [0, 1]
        assert [index for index, _pair in singles] == [2]

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError, match="non-negative"):
            group_batchable([], slack=-0.1)

    @pytest.mark.parametrize("trial", range(4))
    def test_random_shape_mixes_partition_exactly(self, trial):
        """Property: whatever the shape mix and slack, every job lands in
        exactly one bucket or the per-job leftovers, buckets meet MIN_GROUP,
        and every bucket obeys the anchor-relative slack bound."""
        import numpy as np

        from repro.service.batched import (MIN_GROUP, batch_signature)

        rng = np.random.default_rng(trial)
        lengths = [160, 168, 176, 200, 240, 300]
        configs = [dict(CONFIG), dict(CONFIG, single_kernel=True)]
        pairs = []
        for seed in range(int(rng.integers(5, 12))):
            pairs.append(causalformer_pair(
                seed, length=int(rng.choice(lengths)),
                config=configs[int(rng.integers(0, 2))]))
        slack = float(rng.choice([0.0, 0.1, 0.3, 0.6]))
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, slack=slack)
        seen = sorted([index for group in groups for index, _pair in group]
                      + [index for index, _pair in singles])
        assert seen == list(range(len(pairs)))
        for group in groups:
            assert len(group) >= MIN_GROUP
            signatures = {batch_signature(job, data)
                          for _idx, (job, data) in group}
            assert len(signatures) == 1
            group_lengths = sorted(data.values.shape[1]
                                   for _idx, (_job, data) in group)
            assert group_lengths[-1] <= group_lengths[0] * (1.0 + slack)

    def test_mixed_shape_group_executes_identically(self):
        """The acceptance contract: a slack-bucketed, lane-capped sweep over
        mixed lengths returns results bit-identical to per-job dispatch."""
        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 176, 168])]
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True,
                              bucket_slack=0.5, max_lanes=2).run(pairs)
        for result_a, result_b in zip(sequential, batched):
            assert result_a.ok and result_b.ok
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b
            assert result_a.scores.f1 == result_b.scores.f1
        assert [result.job.seed for result in batched] == [0, 1, 2, 3]


class TestCacheAwareGrouping:
    def test_cached_jobs_never_anchor_a_bucket(self, tmp_path):
        """A job already answered by the cache goes to the leftovers, so it
        neither anchors a bucket nor occupies a lane."""
        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(3)]
        # Prime the cache with job 0's result.
        JobExecutor(max_workers=1, cache=cache).run(pairs[:1])
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, cache=cache)
        assert [index for index, _pair in singles] == [0]
        assert len(groups) == 1
        assert sorted(index for index, _pair in groups[0]) == [1, 2]

    def test_admission_consults_cache(self, tmp_path):
        """execute_batched_jobs answers cached members from disk and trains
        only the rest — the cached job never occupies a lane."""
        from repro.core.batched import StackedCausalFormerTrainer

        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(3)]
        JobExecutor(max_workers=1, cache=cache).run(pairs[:1])

        trained = []
        original = StackedCausalFormerTrainer.__init__

        def recording(self, models, capacity=None):
            trained.append(len(models))
            return original(self, models, capacity=capacity)

        import repro.core.batched as core_batched
        try:
            core_batched.StackedCausalFormerTrainer.__init__ = recording
            results = execute_batched_jobs(pairs, cache=cache)
        finally:
            core_batched.StackedCausalFormerTrainer.__init__ = original
        assert len(results) == 3
        assert results[0].cached and results[0].ok
        assert not results[1].cached and not results[2].cached
        assert all(result.ok for result in results)
        assert trained == [2]

    def test_fully_cached_bucket_skips_training(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(2)]
        JobExecutor(max_workers=1, cache=cache).run(pairs)
        results = execute_batched_jobs(pairs, cache=cache)
        assert len(results) == 2
        assert all(result.cached and result.ok for result in results)


class TestMaxLanes:
    def test_lane_cap_with_queue_refill_matches_full_width(self):
        """Capping lanes forces admission-queue refill; results must match
        the uncapped stacked run (which matches per-job dispatch)."""
        pairs = [causalformer_pair(seed) for seed in range(4)]
        full = execute_batched_jobs(pairs)
        capped = execute_batched_jobs(pairs, max_lanes=2)
        for result_a, result_b in zip(full, capped):
            assert result_a.ok and result_b.ok
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b


class TestSchedulerTelemetry:
    def test_lane_lifecycle_is_observable(self):
        """The continuous-batching scheduler reports its lane occupancy,
        compaction/refill churn, and padding waste."""
        from repro.telemetry import capture, reset

        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 176])]
        try:
            with capture() as telemetry:
                results = execute_batched_jobs(pairs, max_lanes=2)
        finally:
            reset(close=False)
        assert all(result.ok for result in results)

        def events(name):
            return [record for record in telemetry.records()
                    if record.get("kind") == "event"
                    and record.get("name") == name]

        # Every trained job's lane retires through compaction; the third
        # job waits in the queue and is admitted into a freed lane.
        assert len(events("lane_compacted")) == 3
        assert len(events("lane_refilled")) == 1
        assert telemetry.gauge("scheduler.lanes_active").value == 0.0
        fraction = telemetry.gauge("scheduler.padded_window_fraction").value
        assert 0.0 <= fraction < 1.0
