"""Regression relevance propagation (RRP), paper Sec. 4.2.1.

RRP extends layer-wise relevance propagation (LRP) to regression models.  The
between-layer rule (Eq. 17) is

.. math::

    R^{(l)}_i = \\sum_j x_i \\; \\frac{\\partial f^{(l)}(x)_j}{\\partial x_i}
                \\; \\frac{R^{(l+1)}_j}{f^{(l)}(x)_j}

and non-parametric operations (matrix products) propagate relevance through
both operands with the two-operand variant (Eq. 18).  The bias term is kept
in the denominator (Eq. 15–16) so that the relevance the bias would claim is
subtracted from the inputs' relevance — removing it is the "w/o bias"
ablation of Table 3.

The propagation implemented here starts at the model output (initialised with
a one-hot relevance selecting the target series, Fig. 6a) and walks back
through the output layer, the feed-forward layer, the head-concatenation
weight, the attention application, and the causal convolution, stopping at
the attention matrix ``A`` and the convolution kernel ``K`` — exactly the
two tensors the causal-graph construction reads (Sec. 4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.transformer import CausalityAwareTransformer, TransformerCache


def stabilize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Add a sign-preserving epsilon so divisions by activations are safe."""
    signs = np.where(values >= 0, 1.0, -1.0)
    return values + signs * epsilon


@dataclass
class HeadRelevance:
    """Relevance scores reaching one attention head."""

    attention: np.ndarray   # (B, N, N) — relevance of the attention matrix
    values: np.ndarray      # (B, N, N, T) — relevance of the convolution output
    kernel: np.ndarray      # (N, N, T) — relevance of the convolution kernel


@dataclass
class RelevanceResult:
    """Relevance of the interpretable tensors for one target series."""

    target: int
    heads: List[HeadRelevance]
    output_relevance: np.ndarray  # the one-hot initialisation (B, N, T)


@dataclass
class PreparedPropagation:
    """Target-independent precomputation shared by every propagated target.

    Every denominator of the RRP rules (Eq. 15–18) depends only on the
    forward activations, not on the target series — stabilising them once
    per cache (instead of once per target per head) removes most of the
    per-target overhead when the detector sweeps all ``N`` targets.
    """

    cache: TransformerCache
    d_output: np.ndarray            # stabilised output-layer denominator
    d_ffn_output: np.ndarray        # stabilised second-linear denominator
    d_hidden: np.ndarray            # stabilised first-linear denominator
    d_combined: np.ndarray          # stabilised head-combination denominator
    d_heads: List[np.ndarray]       # stabilised per-head application denominators
    d_values_pre: np.ndarray        # stabilised pre-shift convolution values
    weighted_heads: List[np.ndarray]  # head_output · W_O[h] numerators
    kernel: np.ndarray
    scaled_windows: np.ndarray


class RegressionRelevancePropagation:
    """Backward relevance decomposition of a trained causality-aware transformer.

    Parameters
    ----------
    model:
        The trained transformer.
    use_bias:
        Keep the bias term in the denominators (Eq. 15).  ``False``
        reproduces the "w/o bias" ablation (z-rule denominators, Eq. 14).
    epsilon:
        Stabiliser for divisions by activations.
    """

    def __init__(self, model: CausalityAwareTransformer, use_bias: bool = True,
                 epsilon: float = 1e-9) -> None:
        self.model = model
        self.use_bias = use_bias
        self.epsilon = epsilon

    # ------------------------------------------------------------------ #
    # Elementary propagation rules
    # ------------------------------------------------------------------ #
    def _linear_relevance(self, inputs: np.ndarray, weight: np.ndarray,
                          bias: Optional[np.ndarray], outputs: np.ndarray,
                          relevance_out: np.ndarray) -> np.ndarray:
        """Relevance through ``outputs = inputs @ weight + bias`` (Eq. 15/17)."""
        denominator = outputs if (self.use_bias or bias is None) else outputs - bias
        ratio = relevance_out / stabilize(denominator, self.epsilon)
        return inputs * (ratio @ weight.T)

    def _scale_relevance(self, operand: np.ndarray, scale: float,
                         outputs: np.ndarray, relevance_out: np.ndarray) -> np.ndarray:
        """Relevance through an element-wise scaling ``outputs = scale * operand``."""
        return operand * scale * relevance_out / stabilize(outputs, self.epsilon)

    # ------------------------------------------------------------------ #
    # Full propagation
    # ------------------------------------------------------------------ #
    def one_hot_relevance(self, cache: TransformerCache, target: int) -> np.ndarray:
        """Initial relevance: ones on the target series' output row (Fig. 6a)."""
        batch, n_series, window = cache.output.shape
        if not (0 <= target < n_series):
            raise IndexError(f"target series {target} out of range [0, {n_series})")
        relevance = np.zeros((batch, n_series, window))
        relevance[:, target, :] = 1.0
        return relevance

    def prepare(self, cache: TransformerCache) -> PreparedPropagation:
        """Precompute everything that does not depend on the target series."""
        model = self.model
        window = model.config.window
        scale = 1.0 / np.arange(1, window + 1, dtype=float)

        def denominator(outputs: np.ndarray, bias: Optional[np.ndarray]) -> np.ndarray:
            base = outputs if (self.use_bias or bias is None) else outputs - bias
            return stabilize(base, self.epsilon)

        w_output = model.attention.w_output.data
        return PreparedPropagation(
            cache=cache,
            d_output=denominator(cache.output, model.output_layer.bias.data),
            d_ffn_output=denominator(cache.ffn_output, model.feed_forward.b2.data),
            d_hidden=denominator(cache.ffn_hidden, model.feed_forward.b1.data),
            d_combined=stabilize(cache.attention_combined, self.epsilon),
            d_heads=[stabilize(head.head_output_data, self.epsilon)
                     for head in cache.head_caches],
            d_values_pre=stabilize(cache.values_pre_shift, self.epsilon),
            weighted_heads=[head.head_output_data * w_output[index]
                            for index, head in enumerate(cache.head_caches)],
            kernel=model.convolution.effective_kernel().data,
            scaled_windows=cache.conv_windows * scale[None, None, :, None],
        )

    def propagate(self, cache: TransformerCache, target: int) -> RelevanceResult:
        """Propagate relevance from the output of series ``target`` to A and K."""
        return self.propagate_targets(cache, [target])[0]

    def propagate_targets(self, cache: TransformerCache,
                          targets: Sequence[int]) -> List[RelevanceResult]:
        """Propagate several target series in one vectorised pass.

        Relevance propagation is linear in the output relevance, so the
        targets stack as a leading axis: the between-layer matmuls run as
        batched per-``(target, batch)`` GEMM slices and the Eq. 18 einsums
        gain a leading target subscript — both produce, slice for slice, the
        same floating-point results as one pass per target (the contraction
        order over the summed indices is unchanged), so ``propagate`` stays
        bit-identical to the historical per-target implementation.
        """
        prepared = self.prepare(cache)
        batch, n_series, window = cache.output.shape
        for target in targets:
            if not (0 <= target < n_series):
                raise IndexError(
                    f"target series {target} out of range [0, {n_series})")
        n_targets = len(targets)
        diag = np.arange(n_series)

        relevance_output = np.zeros((n_targets, batch, n_series, window))
        for index, target in enumerate(targets):
            relevance_output[index, :, target, :] = 1.0

        model = self.model
        # Output layer → feed-forward second linear → (pass-through leaky
        # ReLU) → feed-forward first linear (Eq. 15/17).
        relevance_ffn_out = cache.ffn_output * (
            (relevance_output / prepared.d_output)
            @ model.output_layer.weight.data.T)
        relevance_activated = cache.ffn_activated * (
            (relevance_ffn_out / prepared.d_ffn_output)
            @ model.feed_forward.w2.data.T)
        relevance_attention_combined = cache.attention_combined * (
            (relevance_activated / prepared.d_hidden)
            @ model.feed_forward.w1.data.T)

        values = cache.values
        per_head_attention: List[np.ndarray] = []
        per_head_values: List[np.ndarray] = []
        per_head_kernel: List[np.ndarray] = []
        for head_index, head_cache in enumerate(cache.head_caches):
            # Head concatenation: combined = Σ_h W_O[h] · head_output_h.
            relevance_head = (prepared.weighted_heads[head_index]
                              * relevance_attention_combined
                              / prepared.d_combined)

            # Attention application (two-operand rule, Eq. 18):
            #   head_output[b, i, t] = Σ_j attention[b, i, j] · values[b, j, i, t]
            attention = head_cache.attention_data
            ratio = relevance_head / prepared.d_heads[head_index]
            relevance_attention = attention * np.einsum(
                "bjit,gbit->gbij", values, ratio)
            relevance_values = np.einsum(
                "bij,bjit,gbit->gbjit", attention, values, ratio)

            # Undo the diagonal right-shift before touching the kernel: the
            # post-shift value at slot t+1 came from the pre-shift value at t.
            relevance_pre_shift = relevance_values.copy()
            relevance_pre_shift[:, :, diag, diag, :-1] = \
                relevance_values[:, :, diag, diag, 1:]
            relevance_pre_shift[:, :, diag, diag, -1] = 0.0

            # Convolution (two-operand rule): values_pre[b, i, j, t] =
            #   Σ_τ kernel[i, j, τ] · windows[b, i, t, τ] / (t + 1)
            ratio_values = relevance_pre_shift / prepared.d_values_pre
            relevance_kernel = prepared.kernel * np.einsum(
                "bitk,gbijt->gijk", prepared.scaled_windows, ratio_values)

            per_head_attention.append(relevance_attention)
            per_head_values.append(relevance_values)
            per_head_kernel.append(relevance_kernel)

        results: List[RelevanceResult] = []
        for index, target in enumerate(targets):
            heads = [
                HeadRelevance(
                    attention=per_head_attention[head_index][index],
                    values=per_head_values[head_index][index],
                    kernel=per_head_kernel[head_index][index],
                )
                for head_index in range(len(cache.head_caches))
            ]
            results.append(RelevanceResult(
                target=target, heads=heads,
                output_relevance=relevance_output[index]))
        return results

    # ------------------------------------------------------------------ #
    # Diagnostics used by tests
    # ------------------------------------------------------------------ #
    def conservation_gap(self, cache: TransformerCache, target: int) -> float:
        """Relative gap between output relevance and the relevance reaching A.

        Exact LRP conserves relevance layer by layer (Eq. 10); RRP's bias
        relevance deliberately breaks strict conservation (Sec. 4.2.1), so
        this returns the relative difference — useful to verify that the
        propagation neither explodes nor vanishes.
        """
        result = self.propagate(cache, target)
        total_out = float(result.output_relevance.sum())
        total_attention = float(sum(head.attention.sum() for head in result.heads))
        if total_out == 0:
            return 0.0
        return abs(total_out - total_attention) / abs(total_out)


@dataclass
class PreparedStackedPropagation:
    """Target-independent precomputation for a *stack* of models.

    The model-axis analogue of :class:`PreparedPropagation`: every array
    gains a leading ``M`` (model) axis, and the per-head lists collapse into
    one stacked array with the head axis second.  Stabilisation is
    elementwise, so each row is bit-identical to preparing that model alone.
    """

    d_output: np.ndarray            # (M, B, N, T)
    d_ffn_output: np.ndarray        # (M, B, N, T)
    d_hidden: np.ndarray            # (M, B, N, d_ffn)
    d_combined: np.ndarray          # (M, B, N, T)
    d_heads: np.ndarray             # (M, h, B, N, T)
    d_values_pre: np.ndarray        # (M, B, N, N, T)
    weighted_heads: np.ndarray      # (M, h, B, N, T)
    kernel: np.ndarray              # (M, N, N, T)
    scaled_windows: np.ndarray      # (M, B, N, T, K)
    w_output: np.ndarray            # (M, T, T)   output-layer weights
    w2: np.ndarray                  # (M, d_ffn, T)
    w1: np.ndarray                  # (M, T, d_ffn)


class StackedRelevancePropagation:
    """RRP with a leading model axis over a stacked interpretation forward.

    Propagates relevance for ``M`` same-architecture models (a batched
    sweep group) and every target series in one vectorised pass, computing
    only what the detector reads: target ``i``'s attention row
    ``S(A)[i]_{i,:}`` and kernel column ``S(K)[i]_{:,i,:}`` (Sec. 4.2.3),
    assembled into one map per head instead of ``N`` per-target full maps.
    Batched matmuls dispatch the same per-slice GEMMs and every einsum
    keeps its per-element contraction order, so each returned row and
    column is **bit-identical** to the same row and column of
    :class:`RegressionRelevancePropagation` on model ``m`` alone (the
    stacked-interpretation tests assert exactly this, across all Table 3
    ablations and at the production shapes).
    """

    def __init__(self, models: Sequence[CausalityAwareTransformer],
                 use_bias: bool = True, epsilon: float = 1e-9) -> None:
        if not models:
            raise ValueError("need at least one model")
        self.models = list(models)
        self.use_bias = use_bias
        self.epsilon = epsilon

    def prepare(self, forward) -> PreparedStackedPropagation:
        """Precompute everything that does not depend on the target series.

        ``forward`` is a
        :class:`~repro.nn.inference.StackedInterpretationForward`.
        """
        models = self.models
        window = models[0].config.window
        scale = 1.0 / np.arange(1, window + 1, dtype=float)

        def denominator(outputs: np.ndarray, biases: np.ndarray,
                        expand) -> np.ndarray:
            base = outputs if self.use_bias else outputs - biases[expand]
            return stabilize(base, self.epsilon)

        output_bias = np.stack([model.output_layer.bias.data
                                for model in models])
        b2 = np.stack([model.feed_forward.b2.data for model in models])
        b1 = np.stack([model.feed_forward.b1.data for model in models])
        w_out = np.stack([model.attention.w_output.data for model in models])
        channel = (slice(None), None, None, slice(None))
        return PreparedStackedPropagation(
            d_output=denominator(forward.output, output_bias, channel),
            d_ffn_output=denominator(forward.ffn_output, b2, channel),
            d_hidden=denominator(forward.hidden, b1, channel),
            d_combined=stabilize(forward.combined, self.epsilon),
            d_heads=stabilize(forward.head_outputs, self.epsilon),
            d_values_pre=stabilize(forward.values_pre, self.epsilon),
            weighted_heads=forward.head_outputs
            * w_out[:, :, None, None, None],
            kernel=np.stack([model.convolution.effective_kernel().data
                             for model in models]),
            scaled_windows=forward.conv_windows
            * scale[None, None, None, :, None],
            w_output=np.stack([model.output_layer.weight.data
                               for model in models]),
            w2=np.stack([model.feed_forward.w2.data for model in models]),
            w1=np.stack([model.feed_forward.w1.data for model in models]),
        )

    def propagate_targets(self, forward) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate every target series at once, each on its own row.

        Returns ``(attention, kernel)`` of shapes ``(M, h, B, N, N)`` and
        ``(M, h, N, N, K)``: attention row ``[:, i, :]`` and kernel column
        ``[:, i, :]`` hold target ``i``'s relevance.  Every layer above the
        attention application acts series by series, and the attention
        application and convolution keep target ``i``'s terms in that row
        and column, so seeding each target's one-hot on its own output row
        propagates all of them without interference.
        """
        prepared = self.prepare(forward)
        diag = np.arange(forward.output.shape[2])
        relevance_output = np.ones(forward.output.shape)

        # Output layer → feed-forward second linear → (pass-through leaky
        # ReLU) → feed-forward first linear (Eq. 15/17), model axis leading.
        relevance_ffn_out = forward.ffn_output * (
            (relevance_output / prepared.d_output)
            @ prepared.w_output.transpose(0, 2, 1)[:, None])
        relevance_activated = forward.activated * (
            (relevance_ffn_out / prepared.d_ffn_output)
            @ prepared.w2.transpose(0, 2, 1)[:, None])
        relevance_attention_combined = forward.combined * (
            (relevance_activated / prepared.d_hidden)
            @ prepared.w1.transpose(0, 2, 1)[:, None])

        values = forward.values
        attention_relevance: List[np.ndarray] = []
        kernel_relevance: List[np.ndarray] = []
        for head_index in range(forward.attention_probs.shape[1]):
            relevance_head = (prepared.weighted_heads[:, head_index]
                              * relevance_attention_combined
                              / prepared.d_combined)

            # Attention application (two-operand rule, Eq. 18):
            #   head_output[b, i, t] = Σ_j attention[b, i, j] · values[b, j, i, t]
            attention = forward.attention_probs[:, head_index]
            ratio = relevance_head / prepared.d_heads[:, head_index]
            attention_relevance.append(attention * np.einsum(
                "mbjit,mbit->mbij", values, ratio))
            relevance_values = np.einsum(
                "mbij,mbjit,mbit->mbjit", attention, values, ratio)

            # Undo the diagonal right-shift before touching the kernel: the
            # post-shift value at slot t+1 came from the pre-shift value at t.
            relevance_values[:, :, diag, diag, :-1] = \
                relevance_values[:, :, diag, diag, 1:]
            relevance_values[:, :, diag, diag, -1] = 0.0

            # Convolution (two-operand rule): values_pre[b, i, j, t] =
            #   Σ_τ kernel[i, j, τ] · windows[b, i, t, τ] / (t + 1)
            ratio_values = relevance_values / prepared.d_values_pre
            kernel_relevance.append(prepared.kernel * np.einsum(
                "mbitk,mbijt->mijk", prepared.scaled_windows, ratio_values))
        return (np.stack(attention_relevance, axis=1),
                np.stack(kernel_relevance, axis=1))
