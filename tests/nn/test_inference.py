"""Parity and arena-reuse tests for the fused no-autograd inference engine.

The engine's contract is strict: in float64 it must reproduce the autograd
paths bit for bit (same operation sequence), and in float32 it must agree
within tolerance; the detector-facing stacked cache forward and
hand-derived multi-target gradients must be bit-identical to autograd in
both dtypes, at one model and at several (the detector always interprets
through the float64 twin, and the gradient transcription replays the exact
autograd ops).  Steady-state evaluation must reuse its scratch buffers
instead of allocating.
"""

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import (InferenceEngine, ScratchArena,
                                StackedInferenceEngine)
from repro.nn.tensor import Tensor, default_dtype, no_grad


def build(dtype, n_series=5, window=12, n_heads=3, seed=0, **overrides):
    with default_dtype(dtype):
        config = CausalFormerConfig(
            n_series=n_series, window=window, d_model=18, d_qk=18, d_ffn=18,
            n_heads=n_heads, batch_size=4, seed=seed, **overrides)
        model = CausalityAwareTransformer(config)
    return model, config


def fleet(dtype, n_models=3, batch=9, **overrides):
    """``n_models`` same-architecture models and one window set each."""
    models = [build(dtype, seed=seed, **overrides)[0]
              for seed in range(n_models)]
    config = models[0].config
    rng = np.random.default_rng(7)
    window_sets = [np.ascontiguousarray(
        rng.normal(size=(batch, config.n_series, config.window)),
        dtype=models[0].embedding.weight.data.dtype)
        for _ in models]
    return models, window_sets


def window_batch(model, batch=7, seed=1):
    config = model.config
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(batch, config.n_series, config.window))
    return np.ascontiguousarray(data, dtype=model.embedding.weight.data.dtype)


class TestScratchArena:
    def test_take_reuses_buffer(self):
        arena = ScratchArena()
        first = arena.take("x", (4, 4), np.float64)
        second = arena.take("x", (4, 4), np.float64)
        assert first is second

    def test_take_reallocates_on_shape_change(self):
        arena = ScratchArena()
        first = arena.take("x", (4, 4), np.float64)
        second = arena.take("x", (2, 4), np.float64)
        assert first is not second
        assert second.shape == (2, 4)

    def test_buffers_zero_filled_on_allocation(self):
        arena = ScratchArena()
        assert not arena.take("x", (8,), np.float64).any()

    def test_space_caches_views(self):
        arena = ScratchArena()
        space = arena.space(("test", (3,)))
        buffer = space.take("b", (6,), np.float64)
        view = space.view("b2", lambda: buffer.reshape(2, 3))
        assert space.view("b2", lambda: None) is view
        assert arena.space(("test", (3,))) is space

    def test_nbytes_counts_spaces(self):
        arena = ScratchArena()
        arena.take("a", (8,), np.float64)
        arena.space(("s",)).take("b", (8,), np.float64)
        assert arena.nbytes == 2 * 8 * 8
        assert len(arena) == 2


class TestForwardParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_autograd_fast_path(self, dtype):
        model, _config = build(dtype)
        x = window_batch(model)
        with no_grad():
            reference, _ = model(Tensor(x.copy()))
        prediction = InferenceEngine(model).forward(x)
        if dtype is np.float64:
            assert np.array_equal(reference.data, prediction)
        else:
            np.testing.assert_allclose(reference.data, prediction,
                                       rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_loss_matches_autograd(self, dtype):
        model, _config = build(dtype)
        x = window_batch(model)
        with no_grad():
            prediction, _ = model(Tensor(x.copy()))
            reference = float(model.loss(prediction, Tensor(x.copy())).data)
        value = InferenceEngine(model).loss(x)
        if dtype is np.float64:
            assert value == reference
        else:
            assert value == pytest.approx(reference, rel=1e-5)

    def test_convolution_matches_fused_op(self):
        from repro.nn import functional as F

        model, _config = build(np.float64)
        x = window_batch(model)
        engine = InferenceEngine(model)
        stage = engine._stage()
        space = engine.arena.space(("test", x.shape))
        values, _flat = engine._convolution(space, x, stage)
        with no_grad():
            reference = F.causal_conv(Tensor(x.copy()),
                                      model.convolution.effective_kernel(),
                                      model.convolution._scale_array,
                                      right_shift=True)
        assert np.array_equal(reference.data, values)

    def test_attention_probs_match_fused_op(self):
        from repro.nn import functional as F

        model, _config = build(np.float64)
        attention = model.attention
        x = window_batch(model)
        engine = InferenceEngine(model)
        stage = engine._stage()
        space = engine.arena.space(("test", x.shape))
        probs = engine._attention_probs(space, x, stage)
        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        with no_grad():
            reference = F.causal_attention_probs(
                Tensor(x.copy()), attention.query_weights,
                attention.query_biases, attention.key_weights,
                attention.key_biases, attention.mask_parameters, scale,
                embed_weight=model.embedding.weight,
                embed_bias=model.embedding.bias)
        assert np.array_equal(reference.data, probs)

    def test_mlp_tail_matches_fused_op(self):
        """Conv+attention already verified; the end-to-end equality of
        ``forward`` on top of them pins the combine + MLP + output tail."""
        model, _config = build(np.float64, n_heads=1)
        x = window_batch(model, batch=3)
        with no_grad():
            reference, _ = model(Tensor(x.copy()))
        assert np.array_equal(reference.data, InferenceEngine(model).forward(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_evaluate_matches_chunked_autograd(self, dtype):
        """Bit-for-bit against the historical chunked no_grad validation."""
        model, config = build(dtype, window=10)
        trainer = Trainer(model, config)
        windows = np.ascontiguousarray(
            np.random.default_rng(2).normal(size=(23, config.n_series, 10)),
            dtype=dtype)

        total = 0.0
        count = 0
        with no_grad():
            for start in range(0, windows.shape[0], config.batch_size):
                chunk = Tensor(windows[start:start + config.batch_size])
                prediction, _ = model(chunk)
                total += float(model.loss(prediction, chunk).data) * len(chunk)
                count += len(chunk)
        reference = total / count
        assert trainer._evaluate(windows) == reference

    def test_evaluate_chunked_fallback_matches_full_batch(self):
        model, config = build(np.float64, window=10)
        engine = InferenceEngine(model)
        windows = np.random.default_rng(3).normal(size=(17, config.n_series, 10))
        full = engine.evaluate(windows, config.batch_size)
        engine.FULL_BATCH_ELEMENT_LIMIT = 1   # force the chunk loop
        try:
            assert engine.evaluate(windows, config.batch_size) == full
        finally:
            del engine.FULL_BATCH_ELEMENT_LIMIT

    def test_predict_matches_forward_and_owns_result(self):
        model, _config = build(np.float64)
        x = window_batch(model, batch=2)
        first = model.predict(x)
        second = model.predict(np.zeros_like(x))
        assert not np.array_equal(first, second)   # no buffer aliasing
        with no_grad():
            reference, _ = model(Tensor(x.copy()))
        assert np.array_equal(model.predict(x), reference.data)

    def test_predict_accepts_2d_window(self):
        model, config = build(np.float64)
        x = window_batch(model, batch=1)
        assert model.predict(x[0]).shape == (config.n_series, config.window)


class TestCachePathParity:
    """The detector's interpretation path against the autograd oracle.

    Row ``m`` of the stacked cache forward must equal model ``m``'s autograd
    cache (``model(Tensor(x), return_cache=True)``), and row ``m`` of the
    stacked multi-target gradients one autograd ``backward()`` per target —
    at ``M = 1`` (how a solo detector scores) and ``M = 3`` (a sweep group).
    """

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_interpretation_forward_matches_autograd_cache(
            self, n_models, dtype, single_kernel):
        models, window_sets = fleet(dtype, n_models,
                                    single_kernel=single_kernel)
        forward = StackedInferenceEngine(models).interpretation_forward(
            window_sets)
        assert forward.n_models == n_models
        for model, windows, cache in zip(models, window_sets, forward.caches):
            with no_grad():
                _prediction, reference = model(Tensor(windows.copy()),
                                               return_cache=True)
            for name in ("inputs", "embedding", "values", "values_pre_shift",
                         "conv_windows", "attention_combined", "ffn_hidden",
                         "ffn_activated", "ffn_output", "output"):
                assert np.array_equal(np.asarray(getattr(reference, name)),
                                      np.asarray(getattr(cache, name))), name
            for head_ref, head in zip(reference.head_caches,
                                      cache.head_caches):
                assert np.array_equal(head_ref.attention_data,
                                      head.attention_data)
                assert np.array_equal(head_ref.head_output_data,
                                      head.head_output_data)
                assert np.array_equal(head_ref.scores_data, head.scores_data)

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_interpretation_gradients_match_autograd(self, n_models, dtype,
                                                     single_kernel):
        models, window_sets = fleet(dtype, n_models, batch=4,
                                    single_kernel=single_kernel)
        targets = list(range(models[0].config.n_series))
        engine = StackedInferenceEngine(models)
        attention_grads, kernel_grads = engine.interpretation_gradients(
            engine.interpretation_forward(window_sets))
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            for target in targets:
                model.zero_grad()
                prediction, cache = model(Tensor(windows.copy()),
                                          return_cache=True)
                one_hot = np.zeros_like(prediction.data)
                one_hot[:, target, :] = 1.0
                (prediction * Tensor(one_hot)).sum().backward()
                # Row ``target`` of the engine's attention maps and column
                # ``target`` of its kernel map hold this target's gradient;
                # autograd's full maps are zero outside them.
                for head, head_cache in enumerate(cache.head_caches):
                    grad = head_cache.attention.grad
                    assert np.array_equal(
                        grad[:, target], attention_grads[row, head, :, target])
                    assert not np.delete(grad, target, axis=1).any()
                grad = model.convolution.kernel.grad
                if single_kernel:
                    assert np.array_equal(grad[:, 0],
                                          kernel_grads[row, :, target])
                else:
                    assert np.array_equal(grad[:, target],
                                          kernel_grads[row, :, target])
                    assert not np.delete(grad, target, axis=1).any()


class TestSteadyStateReuse:
    def test_evaluate_allocates_no_new_buffers_after_warmup(self):
        model, config = build(np.float64)
        engine = InferenceEngine(model)
        windows = np.random.default_rng(4).normal(
            size=(13, config.n_series, config.window))
        engine.evaluate(windows, config.batch_size)
        identifiers = engine.arena.buffer_ids()
        for _ in range(3):
            engine.evaluate(windows, config.batch_size)
        assert engine.arena.buffer_ids() == identifiers

    def test_interpretation_forward_reuses_buffers(self):
        models, window_sets = fleet(np.float64, n_models=2, batch=4)
        engine = StackedInferenceEngine(models)
        engine.interpretation_forward(window_sets)
        identifiers = engine.arena.buffer_ids()
        engine.interpretation_forward(window_sets)
        assert engine.arena.buffer_ids() == identifiers

    def test_training_backward_arena_reused_across_steps(self):
        from repro.nn.functional import _backward_arena

        model, config = build(np.float32, window=10)
        trainer = Trainer(model, config)
        values = np.random.default_rng(6).normal(size=(config.n_series, 120))
        windows = np.ascontiguousarray(trainer.make_windows(values),
                                       dtype=np.float32)
        trainer._run_epoch(windows, np.random.default_rng(0))
        identifiers = _backward_arena().buffer_ids()
        trainer._run_epoch(windows, np.random.default_rng(1))
        assert _backward_arena().buffer_ids() == identifiers


class TestStackedEngine:
    """StackedInferenceEngine: per-model results bit-identical to the
    single-model engine, in float64 and float32 alike (the stacked buffers
    dispatch the same per-slice GEMMs and reductions)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_evaluate_matches_per_model(self, dtype):
        models, window_sets = fleet(dtype)
        stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
        single = [InferenceEngine(model).evaluate(windows, 4)
                  for model, windows in zip(models, window_sets)]
        assert stacked == single

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunked_evaluate_matches_per_model(self, dtype, monkeypatch):
        monkeypatch.setattr(InferenceEngine, "FULL_BATCH_ELEMENT_LIMIT", 1)
        models, window_sets = fleet(dtype)
        stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
        single = [InferenceEngine(model).evaluate(windows, 4)
                  for model, windows in zip(models, window_sets)]
        assert stacked == single

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_per_model(self, dtype):
        models, window_sets = fleet(dtype)
        stacked = StackedInferenceEngine(models).forward(window_sets)
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            # predict() replays the same Tensor-construction cast chain the
            # stacked batch staging uses, so the comparison holds whatever
            # the ambient session dtype is.
            single = InferenceEngine(model).predict(windows)
            assert np.array_equal(stacked[row], single)

    def test_rejects_mismatched_architectures(self):
        model_a, _ = build(np.float64)
        model_b, _ = build(np.float64, window=16)
        with pytest.raises(ValueError, match="same-architecture"):
            StackedInferenceEngine([model_a, model_b])

    def test_rejects_mismatched_window_shapes(self):
        models, window_sets = fleet(np.float64, n_models=2)
        with pytest.raises(ValueError, match="same-shape"):
            StackedInferenceEngine(models).evaluate(
                [window_sets[0], window_sets[1][:4]], 4)

    def test_steady_state_reuses_buffers(self):
        models, window_sets = fleet(np.float64)
        engine = StackedInferenceEngine(models)
        first = engine.evaluate(window_sets, 4)
        identifiers = engine.arena.buffer_ids()
        second = engine.evaluate(window_sets, 4)
        assert engine.arena.buffer_ids() == identifiers
        assert first == second


class TestStackedEngineValidation:
    def test_rejects_mismatched_temperature(self):
        model_a, _ = build(np.float64)
        model_b, _ = build(np.float64, seed=1)
        model_b.attention.temperature = 2.0
        with pytest.raises(ValueError, match="temperature"):
            StackedInferenceEngine([model_a, model_b])

    def test_full_batch_budget_scales_with_fleet_size(self):
        """The stacked full-batch branch divides the element budget by the
        fleet size; whichever branch each side takes, the per-model results
        stay bit-identical."""
        from repro.nn.inference import InferenceEngine, StackedInferenceEngine

        models = [build(np.float64, seed=seed)[0] for seed in range(3)]
        rng = np.random.default_rng(3)
        window_sets = [np.ascontiguousarray(
            rng.normal(size=(9, models[0].config.n_series,
                             models[0].config.window)))
            for _ in models]
        per_model_elements = 9 * models[0].config.n_series ** 2 \
            * models[0].config.window
        # A limit between the per-model and the stacked footprint: the
        # single engines run full-batch, the stacked engine chunks.
        import repro.nn.inference as inference_module
        original = InferenceEngine.FULL_BATCH_ELEMENT_LIMIT
        InferenceEngine.FULL_BATCH_ELEMENT_LIMIT = 2 * per_model_elements
        try:
            stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
            single = [InferenceEngine(model).evaluate(windows, 4)
                      for model, windows in zip(models, window_sets)]
        finally:
            InferenceEngine.FULL_BATCH_ELEMENT_LIMIT = original
        assert stacked == single
