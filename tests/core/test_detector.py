"""Decomposition-based causality detector: scores, ablations, graph construction."""

import numpy as np
import pytest

from repro.core import CausalFormerConfig, CausalityAwareTransformer, DecompositionCausalityDetector
from repro.core.detector import CausalScores


@pytest.fixture()
def detector(tiny_transformer):
    return DecompositionCausalityDetector(tiny_transformer)


class TestScores:
    def test_score_shapes(self, detector, window_batch, tiny_config):
        scores = detector.compute_scores(window_batch)
        n, t = tiny_config.n_series, tiny_config.window
        assert scores.attention.shape == (n, n)
        assert scores.kernel.shape == (n, n, t)
        assert scores.n_series == n and scores.window == t

    def test_scores_non_negative(self, detector, window_batch):
        scores = detector.compute_scores(window_batch)
        assert (scores.attention >= 0).all()
        assert (scores.kernel >= 0).all()

    def test_single_window_accepted(self, detector, tiny_config, rng):
        single = rng.normal(size=(tiny_config.n_series, tiny_config.window))
        scores = detector.compute_scores(single)
        assert scores.attention.shape == (tiny_config.n_series, tiny_config.n_series)

    def test_shape_mismatch_rejected(self, detector, tiny_config, rng):
        wrong = rng.normal(size=(2, tiny_config.n_series + 1, tiny_config.window))
        with pytest.raises(ValueError):
            detector.compute_scores(wrong)

    def test_scores_finite(self, detector, window_batch):
        scores = detector.compute_scores(window_batch)
        assert np.isfinite(scores.attention).all()
        assert np.isfinite(scores.kernel).all()


class TestAblations:
    def test_requires_relevance_or_gradient(self, tiny_transformer):
        with pytest.raises(ValueError):
            DecompositionCausalityDetector(tiny_transformer,
                                           use_relevance=False, use_gradient=False)

    def test_without_interpretation_reads_attention_weights(self, tiny_transformer, window_batch):
        detector = DecompositionCausalityDetector(tiny_transformer, use_interpretation=False)
        scores = detector.compute_scores(window_batch)
        # Attention rows are softmax outputs averaged over heads/batch → rows sum to 1.
        np.testing.assert_allclose(scores.attention.sum(axis=1), 1.0, atol=1e-8)

    def test_ablations_change_scores(self, tiny_config, window_batch):
        # Use a model with non-zero biases so the w/o-bias ablation actually
        # alters the RRP denominators.
        model = CausalityAwareTransformer(tiny_config)
        model.output_layer.bias.data = np.full_like(model.output_layer.bias.data, 0.4)
        model.feed_forward.b2.data = np.full_like(model.feed_forward.b2.data, 0.2)
        full = DecompositionCausalityDetector(model).compute_scores(window_batch)
        gradient_only = DecompositionCausalityDetector(
            model, use_relevance=False).compute_scores(window_batch)
        relevance_only = DecompositionCausalityDetector(
            model, use_gradient=False).compute_scores(window_batch)
        no_bias = DecompositionCausalityDetector(
            model, use_bias=False).compute_scores(window_batch)
        assert not np.allclose(full.attention, gradient_only.attention)
        assert not np.allclose(full.attention, relevance_only.attention)
        assert not np.allclose(full.attention, no_bias.attention)

    def test_single_kernel_model_supported(self, tiny_config, window_batch):
        config = CausalFormerConfig(**{**tiny_config.to_dict(), "single_kernel": True})
        model = CausalityAwareTransformer(config)
        detector = DecompositionCausalityDetector(model)
        scores = detector.compute_scores(window_batch)
        assert scores.kernel.shape == (config.n_series, config.n_series, config.window)


class TestGraphConstruction:
    def test_manual_scores_to_graph(self, detector, tiny_config):
        n, t = tiny_config.n_series, tiny_config.window
        attention = np.zeros((n, n))
        kernel = np.zeros((n, n, t))
        # Target 1 is strongly caused by source 0, with the kernel peaking
        # 3 slots before the end → delay 3.
        attention[1, 0] = 10.0
        kernel[1, 0, t - 1 - 3] = 5.0
        scores = CausalScores(attention=attention, kernel=kernel)
        graph = detector.build_graph(scores)
        assert graph.has_edge(0, 1)
        assert graph.delay(0, 1) == 3

    def test_self_loop_delay_offset(self, detector, tiny_config):
        """A self-loop whose kernel peaks at the last slot has delay 1 (not 0)."""
        n, t = tiny_config.n_series, tiny_config.window
        attention = np.zeros((n, n))
        kernel = np.zeros((n, n, t))
        attention[2, 2] = 1.0
        kernel[2, 2, t - 1] = 1.0
        graph = detector.build_graph(CausalScores(attention=attention, kernel=kernel))
        assert graph.delay(2, 2) == 1

    def test_instantaneous_cross_edge_allowed(self, detector, tiny_config):
        n, t = tiny_config.n_series, tiny_config.window
        attention = np.zeros((n, n))
        kernel = np.zeros((n, n, t))
        attention[0, 1] = 1.0
        kernel[0, 1, t - 1] = 1.0   # peak at the current slot → delay 0
        graph = detector.build_graph(CausalScores(attention=attention, kernel=kernel))
        assert graph.delay(1, 0) == 0

    def test_zero_scores_give_empty_graph(self, detector, tiny_config):
        n, t = tiny_config.n_series, tiny_config.window
        scores = CausalScores(attention=np.zeros((n, n)), kernel=np.zeros((n, n, t)))
        assert detector.build_graph(scores).n_edges == 0

    def test_density_ratio_controls_edges(self, tiny_transformer, tiny_config, rng):
        n, t = tiny_config.n_series, tiny_config.window
        attention = rng.random((n, n))
        kernel = rng.random((n, n, t))
        scores = CausalScores(attention=attention, kernel=kernel)
        sparse_detector = DecompositionCausalityDetector(
            tiny_transformer, CausalFormerConfig(**{**tiny_config.to_dict(),
                                                    "n_clusters": 3, "top_clusters": 1}))
        dense_detector = DecompositionCausalityDetector(
            tiny_transformer, CausalFormerConfig(**{**tiny_config.to_dict(),
                                                    "n_clusters": 3, "top_clusters": 3}))
        assert dense_detector.build_graph(scores).n_edges >= \
            sparse_detector.build_graph(scores).n_edges

    def test_detect_returns_graph_and_scores(self, detector, window_batch):
        graph, scores = detector.detect(window_batch, series_names=["a", "b", "c"])
        assert graph.n_series == 3
        assert graph.names == ["a", "b", "c"]
        assert isinstance(scores, CausalScores)

    def test_series_names_optional(self, detector, window_batch):
        graph, _scores = detector.detect(window_batch)
        assert graph.names == ["S0", "S1", "S2"]


class TestPlantedTruth:
    """Hand-set weights whose only causal path runs from ``source`` to ``target``.

    The kernel is zero except at ``kernel[source, target, τ]``, so the
    convolution values of every other (source, target) pair are exactly
    zero; every mask is zero, so attention is uniform and carries no data;
    the MLP tail and output layer are identities.  The interpretation must
    then put all of the target's attention score on ``source`` and read the
    planted delay off the kernel scores.  The autograd-oracle suites share
    the detector's row and column selection, so only this test pins its
    ``[target, source]`` orientation and the self-loop delay shift.
    """

    N_SERIES, WINDOW = 4, 8

    def planted_model(self, source, target, delay):
        config = CausalFormerConfig(
            n_series=self.N_SERIES, window=self.WINDOW, d_model=8, d_qk=8,
            d_ffn=self.WINDOW, n_heads=2, seed=5)
        model = CausalityAwareTransformer(config)
        identity = np.eye(self.WINDOW)
        for layer_weight in (model.feed_forward.w1, model.feed_forward.w2,
                             model.output_layer.weight):
            layer_weight.data[...] = identity
        for bias in (model.feed_forward.b1, model.feed_forward.b2,
                     model.output_layer.bias):
            bias.data[...] = 0.0
        for head in model.attention.heads:
            head.mask.data[...] = 0.0
        # Kernel position τ reads x[t - (T-1-τ)]; the self-convolution is
        # right-shifted by one more slot.
        position = self.WINDOW - 1 - delay + (source == target)
        kernel = model.convolution.kernel.data
        kernel[...] = 0.0
        kernel[source, target, position] = 1.5
        return model, config

    @pytest.mark.parametrize("source,target,delay",
                             [(0, 2, 1), (2, 0, 3), (3, 1, 0), (1, 1, 2)])
    def test_only_planted_source_scores(self, source, target, delay):
        model, config = self.planted_model(source, target, delay)
        windows = np.random.default_rng(11).normal(
            size=(16, self.N_SERIES, self.WINDOW))
        graph, scores = DecompositionCausalityDetector(model, config).detect(
            windows)
        row = scores.attention[target]
        assert int(np.argmax(row)) == source
        assert row[source] > 0
        assert not np.delete(row, source).any()
        profile = scores.kernel[target, source]
        assert int(np.argmax(profile)) == self.WINDOW - 1 - delay \
            + (source == target)
        assert graph.parents(target) == [source]
        assert graph.delay(source, target) == delay
