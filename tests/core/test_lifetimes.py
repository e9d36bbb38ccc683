"""Trained models and their scratch arenas die by reference counting.

Every entry point below runs with the cycle collector disabled and tracks
each :class:`CausalityAwareTransformer` and :class:`ScratchArena` it creates
through a weakref.  Once the entry point returns and its locals are gone,
every tracked object must already be dead.  An object kept alive only by a
reference cycle (a model holding an engine that points back at the model,
a profiling wrapper bound to its engine, ...) would instead survive until
a collection happens to run, so a process running many jobs would hold
every finished model and its buffers in the meantime.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core import CausalFormer, fast_preset
from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.detector import (DecompositionCausalityDetector,
                                 compute_scores_group)
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.data import fork_dataset
from repro.data.windows import sliding_windows, zscore_normalize
from repro.nn.inference import (InferenceEngine, ScratchArena,
                                StackedInferenceEngine)
from repro.service import DiscoveryJob, JobExecutor, fingerprint_dataset
from repro.service.executor import execute_job
from repro.telemetry import capture, reset

SMALL = dict(window=8, d_model=12, d_qk=12, d_ffn=12, n_heads=2,
             batch_size=16, window_stride=2, max_epochs=2, patience=1000,
             max_detector_windows=4)


@pytest.fixture
def tracked(monkeypatch):
    """Weakrefs to every model and arena constructed during the test."""
    refs = {"models": [], "arenas": []}
    model_init = CausalityAwareTransformer.__init__
    arena_init = ScratchArena.__init__

    def track_model(self, *args, **kwargs):
        model_init(self, *args, **kwargs)
        refs["models"].append(weakref.ref(self))

    def track_arena(self, *args, **kwargs):
        arena_init(self, *args, **kwargs)
        refs["arenas"].append(weakref.ref(self))

    monkeypatch.setattr(CausalityAwareTransformer, "__init__", track_model)
    monkeypatch.setattr(ScratchArena, "__init__", track_arena)
    return refs


def _values(seed=0, length=120):
    return zscore_normalize(fork_dataset(seed=seed, length=length).values)


def _config(values, seed=0):
    return CausalFormerConfig(n_series=values.shape[0], seed=seed, **SMALL)


def _windows(values, config):
    return np.ascontiguousarray(
        sliding_windows(values, config.window, config.window_stride))


def _pairs(lengths):
    pairs = []
    for seed, length in enumerate(lengths):
        dataset = fork_dataset(seed=seed, length=length)
        pairs.append((DiscoveryJob(
            method="causalformer", config=dict(SMALL), dataset="fork",
            dataset_fingerprint=fingerprint_dataset(dataset), seed=seed),
            dataset))
    return pairs


def _predict():
    values = _values()
    config = _config(values)
    CausalityAwareTransformer(config).predict(_windows(values, config))


def _trainer_fit():
    values = _values()
    config = _config(values)
    Trainer(CausalityAwareTransformer(config), config).fit(values)


def _detector_scores():
    values = _values()
    config = _config(values)
    detector = DecompositionCausalityDetector(
        CausalityAwareTransformer(config), config)
    detector.compute_scores(_windows(values, config)[:4])


def _scores_group():
    detectors, window_sets = [], []
    for seed in range(3):
        values = _values(seed)
        config = _config(values, seed)
        detectors.append(DecompositionCausalityDetector(
            CausalityAwareTransformer(config), config))
        window_sets.append(_windows(values, config)[:4])
    compute_scores_group(detectors, window_sets)


def _stacked_evaluate():
    values = _values()
    config = _config(values)
    models = [CausalityAwareTransformer(replace(config, seed=seed))
              for seed in range(3)]
    windows = _windows(values, config)
    StackedInferenceEngine(models).evaluate([windows] * 3, config.batch_size)


def _stacked_fit():
    values_list = [_values(seed) for seed in range(3)]
    models = [CausalityAwareTransformer(_config(values, seed))
              for seed, values in enumerate(values_list)]
    StackedCausalFormerTrainer(models).fit(values_list)


def _discover(**kwargs):
    def run():
        CausalFormer(fast_preset(max_epochs=2), **kwargs).discover(
            fork_dataset(seed=0, length=120))
    return run


def _discover_single_kernel():
    CausalFormer(fast_preset(max_epochs=2, single_kernel=True)).discover(
        fork_dataset(seed=0, length=120))


def _discover_under(**capture_kwargs):
    def run():
        try:
            with capture(**capture_kwargs):
                _discover()()
        finally:
            reset(close=False)
    return run


def _execute_job():
    (job, dataset), = _pairs([120])
    assert execute_job(job, dataset).ok


def _executor(lengths, **kwargs):
    def run():
        results = JobExecutor(max_workers=1, cache=None, **kwargs).run(
            _pairs(lengths))
        assert all(result.ok for result in results)
    return run


ENTRY_POINTS = {
    "model_predict": _predict,
    "trainer_fit": _trainer_fit,
    "detector_compute_scores": _detector_scores,
    "compute_scores_group": _scores_group,
    "stacked_inference_evaluate": _stacked_evaluate,
    "stacked_trainer_fit": _stacked_fit,
    "discover": _discover(),
    "discover_without_interpretation": _discover(use_interpretation=False),
    "discover_without_relevance": _discover(use_relevance=False),
    "discover_without_gradient": _discover(use_gradient=False),
    "discover_without_bias": _discover(use_bias=False),
    "discover_single_kernel": _discover_single_kernel,
    "discover_with_telemetry": _discover_under(),
    "discover_with_engine_profiling": _discover_under(engine_profiling=True),
    "execute_job": _execute_job,
    "executor_per_job": _executor([120, 120]),
    "executor_batched": _executor([120, 120, 120], batch_jobs=True),
    "executor_batched_mixed_lengths": _executor(
        [100, 120, 140], batch_jobs=True, bucket_slack=0.5, max_lanes=2),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_entry_point_leaves_no_model_to_the_cycle_collector(tracked,
                                                            entry_point):
    gc.collect()
    gc.disable()
    try:
        ENTRY_POINTS[entry_point]()
        models = [ref() for ref in tracked["models"]]
        arenas = [ref() for ref in tracked["arenas"]]
    finally:
        gc.enable()
    assert models, "the entry point built no model"
    assert sum(model is not None for model in models) == 0
    assert sum(arena is not None for arena in arenas) == 0


class TestEngineHandles:
    @pytest.fixture
    def model_and_windows(self):
        values = _values()
        config = _config(values)
        return CausalityAwareTransformer(config), _windows(values, config)

    def test_handles_share_the_model_arena(self, model_and_windows):
        model, windows = model_and_windows
        first = model.inference_engine()
        first.evaluate(windows, 16)
        buffers = first.arena.buffer_ids()
        second = model.inference_engine()
        assert second.arena is first.arena
        second.evaluate(windows, 16)
        assert second.arena.buffer_ids() == buffers

    def test_handles_evaluate_bit_identically(self, model_and_windows):
        model, windows = model_and_windows
        first = model.inference_engine().evaluate(windows, 16)
        second = model.inference_engine().evaluate(windows, 16)
        fresh = InferenceEngine(model).evaluate(windows, 16)
        assert first == second == fresh

    def test_a_live_handle_keeps_its_model_until_dropped(self):
        values = _values()
        config = _config(values)
        model = CausalityAwareTransformer(config)
        engine = model.inference_engine()
        engine.predict(_windows(values, config))
        model_ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert model_ref() is not None
            del engine
            assert model_ref() is None
        finally:
            gc.enable()


def test_scratch_arena_supports_weak_references():
    arena = ScratchArena()
    arena.take("buffer", (4, 4))
    ref = weakref.ref(arena)
    assert ref() is arena
    del arena
    assert ref() is None
