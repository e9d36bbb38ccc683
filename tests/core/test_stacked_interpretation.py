"""Stacked detector interpretation: bit-identical per model, and to autograd.

``compute_scores_group`` is the detector's one interpretation path (a solo
``compute_scores`` is a group of one).  It shares one stacked cache forward,
multi-target backward and model-axis relevance propagation across a whole
sweep group; every per-model :class:`CausalScores` must equal scoring that
detector alone bit for bit, and both must equal the autograd oracle — one
``backward()`` per target for the gradients and
:class:`RegressionRelevancePropagation` over the model's autograd cache —
across all Table 3 ablation switches and the single-kernel configuration,
in float64 (the detector always interprets through a float64 twin, so this
is the contract production sweeps rely on).
"""

import itertools

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.detector import (CausalScores, DecompositionCausalityDetector,
                                 compute_scores_group)
from repro.core.relevance import (RegressionRelevancePropagation,
                                  StackedRelevancePropagation)
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import StackedInferenceEngine
from repro.nn.tensor import Tensor, no_grad


def fleet(single_kernel=False, n_models=3, seed_base=0):
    configs = [CausalFormerConfig(n_series=4, window=10, d_model=12, d_qk=12,
                                  d_ffn=12, n_heads=2, seed=seed_base + seed,
                                  single_kernel=single_kernel)
               for seed in range(n_models)]
    models = [CausalityAwareTransformer(config) for config in configs]
    rng = np.random.default_rng(17)
    window_sets = [rng.normal(size=(4, 4, 10)) for _ in models]
    return models, configs, window_sets


ABLATIONS = [flags for flags in itertools.product((True, False), repeat=4)
             if flags[1] or flags[2]]   # relevance or gradient must be on


def autograd_cache(model, windows):
    with no_grad():
        _prediction, cache = model(Tensor(windows.copy()), return_cache=True)
    return cache


def autograd_scores(detector, windows) -> CausalScores:
    """The detector's scores computed on the autograd graph.

    Fig. 6b gradients from one autograd ``backward()`` per target, relevance
    from :class:`RegressionRelevancePropagation` over the autograd cache,
    combined by the detector's own Eq. 19 step.
    """
    model = detector.model
    cache = autograd_cache(model, windows)
    if not detector.use_interpretation:
        return detector._raw_weight_scores(cache)
    n_series, window = model.config.n_series, model.config.window
    propagation = RegressionRelevancePropagation(
        model, use_bias=detector.use_bias,
        epsilon=detector.config.relevance_epsilon)
    attention = np.zeros((n_series, n_series))
    kernel = np.zeros((n_series, n_series, window))
    for target in range(n_series):
        attention_grads = kernel_grad = relevance = None
        if detector.use_gradient:
            model.zero_grad()
            prediction, graph = model(Tensor(windows.copy()),
                                      return_cache=True)
            one_hot = np.zeros_like(prediction.data)
            one_hot[:, target, :] = 1.0
            (prediction * Tensor(one_hot)).sum().backward()
            attention_grads = [head.attention.grad
                               for head in graph.head_caches]
            kernel_grad = model.convolution.kernel.grad
        if detector.use_relevance:
            relevance = propagation.propagate(cache, target)
        attention[target], kernel[target] = detector._combine_target(
            cache, target, attention_grads, kernel_grad, relevance)
    return CausalScores(attention=attention, kernel=kernel)


class TestGroupScoringBitIdentity:
    @pytest.mark.parametrize(
        "use_interpretation,use_relevance,use_gradient,use_bias", ABLATIONS)
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_all_ablations_identical(self, single_kernel, use_interpretation,
                                     use_relevance, use_gradient, use_bias):
        models, configs, window_sets = fleet(single_kernel=single_kernel)
        detectors = [
            DecompositionCausalityDetector(
                model, config, use_interpretation=use_interpretation,
                use_relevance=use_relevance, use_gradient=use_gradient,
                use_bias=use_bias)
            for model, config in zip(models, configs)]
        group = compute_scores_group(detectors, window_sets)
        for detector, windows, scores in zip(detectors, window_sets, group):
            solo = detector.compute_scores(windows)
            assert np.array_equal(solo.attention, scores.attention)
            assert np.array_equal(solo.kernel, scores.kernel)


class TestAutogradOracle:
    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize(
        "use_interpretation,use_relevance,use_gradient,use_bias", ABLATIONS)
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_scores_match_autograd_oracle(self, single_kernel, n_models,
                                          use_interpretation, use_relevance,
                                          use_gradient, use_bias):
        models, configs, window_sets = fleet(single_kernel=single_kernel,
                                             n_models=n_models)
        detectors = [
            DecompositionCausalityDetector(
                model, config, use_interpretation=use_interpretation,
                use_relevance=use_relevance, use_gradient=use_gradient,
                use_bias=use_bias)
            for model, config in zip(models, configs)]
        group = compute_scores_group(detectors, window_sets)
        for detector, windows, scores in zip(detectors, window_sets, group):
            reference = autograd_scores(detector, windows)
            assert np.array_equal(reference.attention, scores.attention)
            assert np.array_equal(reference.kernel, scores.kernel)

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_stacked_relevance_matches_solo_propagation(self, single_kernel,
                                                        use_bias):
        models, _configs, window_sets = fleet(single_kernel=single_kernel)
        forward = StackedInferenceEngine(models).interpretation_forward(
            window_sets)
        targets = list(range(models[0].config.n_series))
        stacked = StackedRelevancePropagation(
            models, use_bias=use_bias).propagate_targets(
                forward, targets, include_values=True)
        for model, windows, rows in zip(models, window_sets, stacked):
            reference = RegressionRelevancePropagation(
                model, use_bias=use_bias).propagate_targets(
                    autograd_cache(model, windows), targets)
            for got, want in zip(rows, reference):
                assert got.target == want.target
                assert np.array_equal(got.output_relevance,
                                      want.output_relevance)
                for head_got, head_want in zip(got.heads, want.heads):
                    assert np.array_equal(head_got.attention,
                                          head_want.attention)
                    assert np.array_equal(head_got.values, head_want.values)
                    assert np.array_equal(head_got.kernel, head_want.kernel)


class TestGroupScoringValidation:
    def test_rejects_mismatched_flags(self):
        models, configs, window_sets = fleet(n_models=2)
        detectors = [
            DecompositionCausalityDetector(models[0], configs[0]),
            DecompositionCausalityDetector(models[1], configs[1],
                                           use_gradient=False)]
        with pytest.raises(ValueError, match="identical detector flags"):
            compute_scores_group(detectors, window_sets[:2])

    def test_rejects_mismatched_window_shapes(self):
        models, configs, window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        with pytest.raises(ValueError, match="same-shape"):
            compute_scores_group(detectors,
                                 [window_sets[0], window_sets[1][:2]])

    def test_rejects_wrong_series_count(self):
        models, configs, _window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        bad = np.zeros((2, 3, 10))
        with pytest.raises(ValueError, match="do not match"):
            compute_scores_group(detectors, [bad, bad])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one"):
            compute_scores_group([], [])

    def test_resyncs_after_weight_change(self):
        """The float64 twins must track the live models on every group call."""
        models, configs, window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        compute_scores_group(detectors, window_sets[:2])
        for model in models:
            for parameter in model.parameters():
                parameter.data[...] = parameter.data * 0.5
        group = compute_scores_group(detectors, window_sets[:2])
        for detector, windows, scores in zip(detectors, window_sets, group):
            solo = detector.compute_scores(windows)
            assert np.array_equal(solo.attention, scores.attention)


class TestGroupScoringEpsilonGuard:
    def test_rejects_mismatched_relevance_epsilon(self):
        from dataclasses import replace

        models, configs, window_sets = fleet(n_models=2)
        other = replace(configs[1], relevance_epsilon=1e-6)
        detectors = [
            DecompositionCausalityDetector(models[0], configs[0]),
            DecompositionCausalityDetector(models[1], other)]
        with pytest.raises(ValueError, match="relevance_epsilon"):
            compute_scores_group(detectors, window_sets[:2])
