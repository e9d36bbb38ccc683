"""End-to-end CausalFormer facade (integration tests on small datasets)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import CausalFormer, fast_preset
from repro.data import fork_dataset
from repro.graph import TemporalCausalGraph, evaluate_discovery


class TestLifecycle:
    def test_not_fitted_initially(self):
        model = CausalFormer(fast_preset())
        assert not model.is_fitted
        with pytest.raises(RuntimeError):
            model.interpret()
        with pytest.raises(RuntimeError):
            model.prediction_error()

    def test_discover_returns_graph(self, trained_causalformer, fork_data):
        graph = trained_causalformer.graph_
        assert isinstance(graph, TemporalCausalGraph)
        assert graph.n_series == fork_data.n_series
        assert graph.n_edges > 0

    def test_fitted_attributes_populated(self, trained_causalformer):
        assert trained_causalformer.is_fitted
        assert trained_causalformer.history_ is not None
        assert trained_causalformer.scores_ is not None
        assert trained_causalformer.model_ is not None

    def test_training_reduced_loss(self, trained_causalformer):
        history = trained_causalformer.history_
        assert history.train_loss[-1] < history.train_loss[0]

    def test_discovery_beats_chance(self, trained_causalformer, fork_data):
        """F1 of the discovered graph must beat the empty graph and random guessing."""
        scores = evaluate_discovery(trained_causalformer.graph_, fork_data.graph)
        assert scores.f1 > 0.4

    def test_summary_keys(self, trained_causalformer):
        summary = trained_causalformer.summary()
        assert summary["fitted"] is True
        assert "n_edges" in summary and "epochs" in summary

    def test_prediction_error_positive(self, trained_causalformer):
        assert trained_causalformer.prediction_error() > 0.0


class TestInputHandling:
    def test_accepts_plain_array(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 120))
        model = CausalFormer(fast_preset(max_epochs=3))
        graph = model.discover(values)
        assert graph.n_series == 3

    def test_rejects_short_series(self):
        model = CausalFormer(fast_preset())
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 5)))

    def test_rejects_one_dimensional_input(self):
        model = CausalFormer(fast_preset())
        with pytest.raises(ValueError):
            model.fit(np.zeros(100))

    def test_series_names_carried_to_graph(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        dataset = fork_data
        dataset.series_names = ["alpha", "beta", "gamma"]
        graph = model.discover(dataset)
        assert graph.names == ["alpha", "beta", "gamma"]

    def test_detector_window_limit_respected(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3, max_detector_windows=10))
        model.fit(fork_data)
        windows = model._detector_windows(model._fitted_values)
        assert windows.shape[0] <= 10


class TestRefitHygiene:
    def test_unfitted_state_is_none(self):
        model = CausalFormer(fast_preset())
        assert model._fitted_values is None
        assert model.graph_ is None and model.scores_ is None and model.history_ is None

    def test_refit_clears_stale_discovery_results(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        model.discover(fork_data)
        assert model.graph_ is not None
        model.fit(fork_data)
        # fit() alone must not leave the previous run's discovery visible.
        assert model.graph_ is None and model.scores_ is None
        assert "n_edges" not in model.summary()

    def test_failed_refit_does_not_keep_stale_state(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        model.discover(fork_data)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 5)))  # shorter than the window
        assert not model.is_fitted
        assert model.summary()["fitted"] is False
        assert model.graph_ is None and model._fitted_values is None


class TestMemory:
    def test_dropped_model_frees_its_engine_arena_without_gc(self, fork_data):
        """A trained model and its scratch buffers die by reference counting.

        With the cycle collector off, anything still reachable only through
        a reference cycle (e.g. model → cached engine → model) would outlive
        the last user reference, so a process running many jobs would hold
        every finished model until a collection happens to run.
        """
        gc.collect()
        gc.disable()
        try:
            model = CausalFormer(fast_preset(max_epochs=2))
            model.discover(fork_data)
            arena = weakref.ref(model.model_.inference_engine().arena)
            assert arena() is not None
            del model
            assert arena() is None
        finally:
            gc.enable()


class TestAblationsRun:
    @pytest.mark.parametrize("kwargs", [
        {"use_interpretation": False},
        {"use_relevance": False},
        {"use_gradient": False},
        {"use_bias": False},
    ])
    def test_each_ablation_produces_a_graph(self, fork_data, kwargs):
        model = CausalFormer(fast_preset(max_epochs=4), **kwargs)
        graph = model.discover(fork_data)
        assert graph.n_series == fork_data.n_series
