"""Batched sweep execution must beat per-job dispatch on the same host.

Two fixtures run through the executor both ways: four same-shape
CausalFormer discovery jobs, and six mixed-length ones that exercise shape
bucketing, pad-and-mask lanes, lane compaction and queue refill.  The
stacked pass must be faster — it replaces per-model numpy call sequences
with one — while returning identical graphs and scores (the unit tests in
``tests/service/test_batched_jobs.py`` pin identity on every field; this
module pins the speed claim against per-job dispatch timed in the same
process).
"""

import time

from repro.service.executor import JobExecutor
from repro.service.jobs import DiscoveryJob, fingerprint_dataset
from repro.service.registry import build_dataset


def _sweep_pairs():
    """Four same-shape CausalFormer discovery jobs on fork datasets."""
    config = {
        "window": 16, "d_model": 24, "d_qk": 24, "d_ffn": 24, "n_heads": 4,
        "batch_size": 32, "window_stride": 2, "max_epochs": 8,
        "patience": 1000, "max_detector_windows": 8,
    }
    pairs = []
    for seed in range(4):
        dataset = build_dataset("fork", seed=seed, length=240)
        pairs.append((DiscoveryJob(
            method="causalformer", config=dict(config), dataset="fork",
            dataset_fingerprint=fingerprint_dataset(dataset), seed=seed), dataset))
    return pairs


def _hetero_sweep_pairs():
    """Six mixed-length CausalFormer discovery jobs on fork datasets.

    Three series lengths (200/240/280) with two dataset seeds each — the
    shape mix of a Table-3-style sweep — so the run exercises shape
    bucketing, pad-and-mask prefix scheduling, tail sub-stacks, lane
    compaction and queue refill rather than the exact-shape fast case.
    """
    config = {
        "window": 16, "d_model": 24, "d_qk": 24, "d_ffn": 24, "n_heads": 4,
        "batch_size": 32, "window_stride": 1, "max_epochs": 8,
        "patience": 1000, "max_detector_windows": 8,
    }
    pairs = []
    job_seed = 0
    for length in [200, 240, 280]:
        for dataset_seed in (0, 1):
            dataset = build_dataset("fork", seed=dataset_seed, length=length)
            pairs.append((DiscoveryJob(
                method="causalformer", config=dict(config), dataset="fork",
                dataset_fingerprint=fingerprint_dataset(dataset),
                seed=job_seed), dataset))
            job_seed += 1
    return pairs


def best_of_interleaved(runs, first, second):
    """Best-of-``runs`` wall times of two calls, timed alternately.

    Alternating the two calls exposes both to the same drift in host speed,
    where timing all runs of one and then all runs of the other lets a
    slow phase of a shared host land on one side only.
    """
    first()   # warm-up (imports, caches) outside the measurement
    second()
    best = [float("inf"), float("inf")]
    for _ in range(runs):
        for index, call in enumerate((first, second)):
            start = time.perf_counter()
            call()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_batched_sweep_faster_than_per_job_dispatch():
    pairs = _sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True)
    sequential_best, batched_best = best_of_interleaved(
        5, lambda: sequential.run(pairs), lambda: batched.run(pairs))
    assert batched_best < sequential_best, (
        f"batched sweep took {batched_best:.3f}s, per-job dispatch "
        f"{sequential_best:.3f}s — stacking should win on 4 same-shape jobs")


def test_batched_sweep_matches_per_job_results():
    pairs = _sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True).run(pairs)
    for result_a, result_b in zip(sequential, batched):
        assert result_a.ok and result_b.ok
        assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
            == sorted(edge.as_tuple() for edge in result_b.graph.edges)
        assert result_a.scores.f1 == result_b.scores.f1


def test_hetero_sweep_faster_than_per_job_dispatch():
    """Mixed-length jobs (the ``_hetero_sweep_pairs`` fixture) must also win
    stacked: shape bucketing + pad-and-mask lanes + compaction/refill
    amortise the dispatch overhead even when no two jobs share a shape."""
    pairs = _hetero_sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True,
                          bucket_slack=0.5, max_lanes=4)
    sequential_best, batched_best = best_of_interleaved(
        5, lambda: sequential.run(pairs), lambda: batched.run(pairs))
    assert batched_best < sequential_best, (
        f"hetero batched sweep took {batched_best:.3f}s, per-job dispatch "
        f"{sequential_best:.3f}s — continuous batching should win on 6 "
        "mixed-shape jobs")


def test_hetero_sweep_matches_per_job_results():
    pairs = _hetero_sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True,
                          bucket_slack=0.5, max_lanes=4).run(pairs)
    for result_a, result_b in zip(sequential, batched):
        assert result_a.ok and result_b.ok
        assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
            == sorted(edge.as_tuple() for edge in result_b.graph.edges)
        assert result_a.scores.f1 == result_b.scores.f1
