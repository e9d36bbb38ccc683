"""The causality-aware transformer (paper Sec. 4.1, Fig. 3a).

The model is trained on a one-step-ahead prediction task over sliding windows
of the input time series.  Its forward pass produces, alongside the
prediction, a :class:`TransformerCache` holding every intermediate the
decomposition-based causality detector needs: the per-head attention
matrices, the causal-convolution values (pre- and post- self-shift) and the
feed-forward activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.attention import AttentionHeadCache, MultiVariateCausalAttention
from repro.core.config import CausalFormerConfig
from repro.core.convolution import MultiKernelCausalConvolution
from repro.core.embedding import TimeSeriesEmbedding
from repro.core.feedforward import FeedForward, OutputLayer
from repro.nn import functional as F
from repro.nn import init
from repro.nn.inference import InferenceEngine, ScratchArena
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass
class TransformerCache:
    """Every intermediate needed by regression relevance propagation."""

    inputs: np.ndarray                       # (B, N, T)
    embedding: np.ndarray                    # (B, N, d)
    values_pre_shift: np.ndarray             # (B, N, N, T) before the diagonal shift
    values: np.ndarray                       # (B, N, N, T) after the diagonal shift
    conv_windows: np.ndarray                 # (B, N, T, T) padded history windows
    head_caches: List[AttentionHeadCache] = field(default_factory=list)
    attention_combined: np.ndarray = None    # (B, N, T)
    ffn_hidden: np.ndarray = None            # (B, N, d_ffn) pre-activation
    ffn_activated: np.ndarray = None         # (B, N, d_ffn)
    ffn_output: np.ndarray = None            # (B, N, T)
    output: np.ndarray = None                # (B, N, T)
    values_tensor: object = None             # live Tensor for gradient access


class CausalityAwareTransformer(Module):
    """Embedding → multi-kernel causal convolution → causal attention → FFN → output."""

    def __init__(self, config: CausalFormerConfig) -> None:
        super().__init__()
        if config.n_series is None:
            raise ValueError("config.n_series must be set before building the model")
        self.config = config
        rng = init.default_rng(config.seed)
        n, t = config.n_series, config.window
        self.embedding = TimeSeriesEmbedding(t, config.d_model, rng=rng)
        self.convolution = MultiKernelCausalConvolution(
            n, t, single_kernel=config.single_kernel, rng=rng)
        self.attention = MultiVariateCausalAttention(
            n, config.d_model, config.d_qk, config.n_heads, config.temperature, rng=rng)
        self.feed_forward = FeedForward(t, config.d_ffn, rng=rng)
        self.output_layer = OutputLayer(t, rng=rng)
        self._arena: Optional[ScratchArena] = None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor, return_cache: bool = False
                ) -> Tuple[Tensor, Optional[TransformerCache]]:
        """Predict each series over the window.

        Parameters
        ----------
        x:
            ``(batch, N, T)`` window batch.
        return_cache:
            When true, also return the :class:`TransformerCache` of
            intermediates needed by the causality detector.
        """
        dtype = self.embedding.weight.data.dtype
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=dtype))
        elif x.data.dtype != dtype and not x.requires_grad:
            # Keep the whole graph in the engine dtype (float32 by default):
            # mixed-precision inputs would silently promote every op to
            # float64 and forfeit the fast path.
            x = Tensor(x.data.astype(dtype))
        if x.ndim == 2:
            x = x.unsqueeze(0)
        values = self.convolution(x)
        if return_cache:
            embedding = self.embedding(x)
            # Only the causality detector reads values.grad; training steps
            # skip the retained-gradient copy and the per-head cache nodes.
            values.retain_grad()
            combined, head_caches = self.attention(embedding, values,
                                                   collect_caches=True)
        else:
            # Training fast path: embedding, Q/K projection and the masked
            # softmax fuse into one node; application + head combination
            # into a second.
            attention = self.attention
            scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
            probabilities = F.causal_attention_probs(
                x, attention.query_weights, attention.query_biases,
                attention.key_weights, attention.key_biases,
                attention.mask_parameters, scale,
                embed_weight=self.embedding.weight,
                embed_bias=self.embedding.bias)
            combined = F.attention_combine(probabilities, values, attention.w_output)
            head_caches = []
        if return_cache:
            ffn_hidden = F.linear(combined, self.feed_forward.w1, self.feed_forward.b1)
            ffn_activated = F.leaky_relu(ffn_hidden, self.feed_forward.negative_slope)
            ffn_output = F.linear(ffn_activated, self.feed_forward.w2, self.feed_forward.b2)
            prediction = self.output_layer(ffn_output)
        else:
            # Training fast path: the FFN + output tail runs as one fused
            # node (the cache path above keeps the individual intermediates
            # relevance propagation reads).
            prediction = F.mlp_chain(
                combined, self.feed_forward.w1, self.feed_forward.b1,
                self.feed_forward.w2, self.feed_forward.b2,
                self.output_layer.weight, self.output_layer.bias,
                self.feed_forward.negative_slope)

        cache: Optional[TransformerCache] = None
        if return_cache:
            # Recompute the pre-shift convolution values in numpy (cheap) so
            # relevance propagation has the un-shifted denominators.
            conv_windows = self.convolution.convolution_windows(x.data)
            kernel = self.convolution.effective_kernel().data
            scale = self.convolution._scale_array
            values_pre = np.einsum("bitk,ijk->bijt", conv_windows, kernel) * scale
            cache = TransformerCache(
                inputs=x.data,
                embedding=embedding.data,
                values_pre_shift=values_pre,
                values=values.data,
                conv_windows=conv_windows,
                head_caches=head_caches,
                attention_combined=combined.data,
                ffn_hidden=ffn_hidden.data,
                ffn_activated=ffn_activated.data,
                ffn_output=ffn_output.data,
                output=prediction.data,
                values_tensor=values,
            )
        return prediction, cache

    def inference_engine(self) -> InferenceEngine:
        """A fused no-autograd inference engine over the model's scratch arena.

        The model keeps only the (lazily built) arena and hands out a fresh
        engine per call: an engine points back at its model, so caching it
        here would form a model → engine → model cycle that holds every
        trained model and its buffers until the cycle collector runs.
        """
        if self._arena is None:
            self._arena = ScratchArena()
        return InferenceEngine(self, arena=self._arena)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out prediction without building the autograd graph.

        Runs on the fused inference engine — bit-identical to the previous
        ``no_grad()`` autograd forward, with zero steady-state allocation.
        """
        return self.inference_engine().predict(x)

    # ------------------------------------------------------------------ #
    # Loss (paper Eq. 9)
    # ------------------------------------------------------------------ #
    def loss(self, prediction: Tensor, target: Tensor) -> Tensor:
        """MSE over slots ``2..T`` plus the L1 kernel/mask penalties."""
        if not isinstance(target, Tensor):
            target = Tensor(np.asarray(target, dtype=prediction.data.dtype))
        elif target.data.dtype != prediction.data.dtype and not target.requires_grad:
            target = Tensor(target.data.astype(prediction.data.dtype))
        penalties = []
        if self.config.lambda_kernel > 0:
            penalties.append((self.config.lambda_kernel, self.convolution.kernel))
        if self.config.lambda_mask > 0:
            penalties.extend((self.config.lambda_mask, head.mask)
                             for head in self.attention.heads)
        return F.prediction_loss_with_l1(prediction, target, penalties,
                                         start_slot=1)

    def prediction_error(self, x: np.ndarray) -> float:
        """Plain MSE (no penalties) of the model on a batch of windows."""
        prediction = self.predict(x)
        return float(np.mean((prediction[:, :, 1:] - np.asarray(x)[:, :, 1:]) ** 2))
