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

from repro.core.config import CausalFormerConfig, fast_preset
from repro.core.detector import (CausalScores, DecompositionCausalityDetector,
                                 compute_scores_group, gradient_modulation)
from repro.core.relevance import (RegressionRelevancePropagation,
                                  StackedRelevancePropagation)
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import StackedInferenceEngine
from repro.nn.tensor import Tensor, no_grad


def fleet(single_kernel=False, n_models=3, seed_base=0, n_series=4,
          batch=4, preset=None):
    """``n_models`` models and one window set each; ``preset`` (a config
    factory such as ``fast_preset``) replaces the default small widths."""
    def config(seed):
        if preset is not None:
            return preset(n_series=n_series, seed=seed,
                          single_kernel=single_kernel)
        return CausalFormerConfig(n_series=n_series, window=10, d_model=12,
                                  d_qk=12, d_ffn=12, n_heads=2, seed=seed,
                                  single_kernel=single_kernel)

    configs = [config(seed_base + seed) for seed in range(n_models)]
    models = [CausalityAwareTransformer(config) for config in configs]
    rng = np.random.default_rng(17)
    window_sets = [rng.normal(size=(batch, n_series, configs[0].window))
                   for _ in models]
    return models, configs, window_sets


#: ``(n_series, windows, models)`` of the two production interpretation
#: calls under ``fast_preset``: a solo ``discover --dataset lorenz96``
#: (``max_detector_windows`` = 64) and a group of a synthetic sweep.
PRODUCTION_SHAPES = {"discover_lorenz96": (10, 64, 1),
                     "synthetic_sweep": (3, 64, 3)}


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
    config = model.config
    n_series, window, n_heads = config.n_series, config.window, config.n_heads
    propagation = RegressionRelevancePropagation(
        model, use_bias=detector.use_bias,
        epsilon=detector.config.relevance_epsilon)
    # Assemble S(A)[i]_{i,:} (row ``i`` of every attention map) and
    # S(K)[i]_{:,i,:} (column ``i`` of every kernel map) of each target i.
    attention_grads = np.zeros((1, n_heads, len(windows), n_series, n_series))
    kernel_grads = np.zeros((1, 1 if config.single_kernel else n_series,
                             n_series, window))
    attention_relevance = np.zeros_like(attention_grads)
    kernel_relevance = np.zeros((1, n_heads, n_series, n_series, window))
    for target in range(n_series):
        if detector.use_gradient:
            model.zero_grad()
            prediction, graph = model(Tensor(windows.copy()),
                                      return_cache=True)
            one_hot = np.zeros_like(prediction.data)
            one_hot[:, target, :] = 1.0
            (prediction * Tensor(one_hot)).sum().backward()
            for head, head_cache in enumerate(graph.head_caches):
                attention_grads[0, head, :, target] = \
                    head_cache.attention.grad[:, target]
            grad = model.convolution.kernel.grad
            kernel_grads[0, :, target] = grad[:, 0] if config.single_kernel \
                else grad[:, target]
        if detector.use_relevance:
            heads = propagation.propagate(cache, target).heads
            for head, relevance in enumerate(heads):
                attention_relevance[0, head, :, target] = \
                    relevance.attention[:, target]
                kernel_relevance[0, head, :, target] = \
                    relevance.kernel[:, target]
    gradients = (attention_grads, kernel_grads) if detector.use_gradient \
        else (None, None)
    relevance = (attention_relevance, kernel_relevance) \
        if detector.use_relevance else (None, None)
    attention, kernel = gradient_modulation(*gradients, *relevance)
    return CausalScores(attention=attention[0],
                        kernel=kernel[0].transpose(1, 0, 2))


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

    @pytest.mark.parametrize("single_kernel", [False, True])
    @pytest.mark.parametrize("shape", sorted(PRODUCTION_SHAPES))
    def test_scores_match_autograd_oracle_at_production_shape(
            self, shape, single_kernel):
        """Einsum picks its inner loop, hence its summation order, from
        sizes and strides, so the contract is pinned at the shapes the
        benchmarked workloads interpret, not only at the small fleet."""
        n_series, batch, n_models = PRODUCTION_SHAPES[shape]
        models, configs, window_sets = fleet(
            single_kernel=single_kernel, n_models=n_models,
            n_series=n_series, batch=batch, preset=fast_preset)
        detectors = [DecompositionCausalityDetector(model, config)
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
        """Each target's stacked attention row and kernel column equal the
        same row and column of its solo full maps, which are zero
        elsewhere."""
        models, _configs, window_sets = fleet(single_kernel=single_kernel)
        forward = StackedInferenceEngine(models).interpretation_forward(
            window_sets)
        targets = list(range(models[0].config.n_series))
        attention, kernel = StackedRelevancePropagation(
            models, use_bias=use_bias).propagate_targets(forward)
        for model, windows, model_attention, model_kernel in zip(
                models, window_sets, attention, kernel):
            reference = RegressionRelevancePropagation(
                model, use_bias=use_bias).propagate_targets(
                    autograd_cache(model, windows), targets)
            for target, want in zip(targets, reference):
                assert want.target == target
                for head, head_want in enumerate(want.heads):
                    assert np.array_equal(model_attention[head, :, target],
                                          head_want.attention[:, target])
                    assert np.array_equal(model_kernel[head, :, target],
                                          head_want.kernel[:, target])
                    assert not np.delete(head_want.attention, target,
                                         axis=1).any()
                    assert not np.delete(head_want.kernel, target,
                                         axis=1).any()


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
