"""Decomposition-based causality detector (paper Sec. 4.2, Fig. 6).

Given a trained causality-aware transformer, the detector:

1. runs the model on a batch of windows, recording the gradients of the
   per-head attention matrices and of the causal convolution kernel with
   respect to the summed prediction of the target series (Fig. 6b);
2. runs regression relevance propagation from a one-hot output relevance to
   the attention matrices and kernel (Fig. 6a);
3. combines them with gradient modulation, ``S = E_h[|∇f| ⊙ R]⁺`` (Eq. 19);
4. clusters the attention causal scores with k-means and keeps the top
   clusters as causes, reading each cause's delay from the kernel causal
   scores (Sec. 4.2.3, Eq. 20).

The constructor flags reproduce the paper's Table 3 ablations:
``use_interpretation=False`` reads the raw attention/kernel weights instead
of interpreting the model; ``use_relevance=False`` keeps only gradients;
``use_gradient=False`` keeps only relevance; ``use_bias=False`` removes the
bias term from the RRP denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import select_top_scores
from repro.core.config import CausalFormerConfig
from repro.core.relevance import StackedRelevancePropagation
from repro.core.transformer import CausalityAwareTransformer, TransformerCache
from repro.graph.causal_graph import TemporalCausalGraph
from repro.nn.inference import StackedInferenceEngine


@dataclass
class CausalScores:
    """Causal scores for every (target, source) pair.

    ``attention[i, j]`` scores the relation "series ``j`` causes series
    ``i``"; ``kernel[i, j, τ]`` scores kernel position ``τ`` of that relation
    and is used only to read off the causal delay.
    """

    attention: np.ndarray   # (N, N): [target, source]
    kernel: np.ndarray      # (N, N, T): [target, source, kernel position]

    @property
    def n_series(self) -> int:
        return self.attention.shape[0]

    @property
    def window(self) -> int:
        return self.kernel.shape[-1]


class DecompositionCausalityDetector:
    """Interpret a trained causality-aware transformer into causal scores."""

    def __init__(self, model: CausalityAwareTransformer,
                 config: Optional[CausalFormerConfig] = None,
                 use_interpretation: bool = True,
                 use_relevance: bool = True,
                 use_gradient: bool = True,
                 use_bias: bool = True) -> None:
        self._source_model = model
        self.model = self._interpretation_model(model)
        self.config = config or model.config
        self.use_interpretation = use_interpretation
        self.use_relevance = use_relevance
        self.use_gradient = use_gradient
        self.use_bias = use_bias
        if not use_relevance and not use_gradient:
            raise ValueError("at least one of relevance or gradients must be used")

    @staticmethod
    def _interpretation_model(model: CausalityAwareTransformer
                              ) -> CausalityAwareTransformer:
        """A float64 view of the trained model for interpretation.

        Training runs in float32 (the engine default), but the detector's
        gradient-modulated relevance scores divide by stabilised activations
        (Eq. 15–18) — float32 noise there measurably shifts Table 2/3
        scores, and interpretation cost is bounded by
        ``max_detector_windows``, so precision is cheap here.  The trained
        weights are copied into a float64 twin; a model that is already
        float64 is used as-is.
        """
        parameter = next(iter(model.parameters()))
        if parameter.data.dtype == np.float64:
            return model
        from repro.nn.tensor import default_dtype

        with default_dtype(np.float64):
            twin = CausalityAwareTransformer(model.config)
        twin.load_state_dict(model.state_dict())
        return twin

    def _sync_interpretation_model(self) -> None:
        """Copy the source model's current weights into the float64 twin.

        The twin must track the live model — the detector may be constructed
        before (or between) training runs, so weights are re-synced on every
        scoring call rather than frozen at construction time.
        """
        if self.model is self._source_model:
            return
        for twin_param, source_param in zip(self.model.parameters(),
                                            self._source_model.parameters()):
            twin_param.data = source_param.data.astype(twin_param.data.dtype)

    # ------------------------------------------------------------------ #
    # Causal scores
    # ------------------------------------------------------------------ #
    def compute_scores(self, windows: np.ndarray) -> CausalScores:
        """Causal scores of every potential relation from a batch of windows.

        Runs :func:`compute_scores_group` with this detector as a group of
        one: the stacked engine at ``M = 1`` is the only interpretation
        path.
        """
        return compute_scores_group([self], [windows])[0]

    def _raw_weight_scores(self, cache: TransformerCache) -> CausalScores:
        """The "w/o interpretation" ablation: read model weights directly."""
        # Mean attention over heads and batch; attention[b, i, j] already has
        # target as the row index, matching CausalScores' convention.
        attention = np.mean(
            [head.attention_data for head in cache.head_caches], axis=0).mean(axis=0)
        kernel = np.abs(self.model.convolution.effective_kernel().data)
        # kernel[source, target, τ] → scores[target, source, τ]
        kernel_scores = np.transpose(kernel, (1, 0, 2))
        return CausalScores(attention=attention, kernel=kernel_scores)

    # ------------------------------------------------------------------ #
    # Causal graph construction (Sec. 4.2.3)
    # ------------------------------------------------------------------ #
    def build_graph(self, scores: CausalScores,
                    series_names: Optional[list] = None) -> TemporalCausalGraph:
        """Cluster the causal scores and assemble the temporal causal graph."""
        n_series = scores.n_series
        window = scores.window
        rng = np.random.default_rng(self.config.seed)
        graph = TemporalCausalGraph(n_series, names=series_names)
        for target in range(n_series):
            row = scores.attention[target]
            keep = select_top_scores(row, self.config.n_clusters,
                                     self.config.top_clusters, rng=rng)
            for source in np.flatnonzero(keep):
                source = int(source)
                kernel_profile = scores.kernel[target, source]
                position = int(np.argmax(kernel_profile))
                delay = (window - 1) - position
                if source == target:
                    # The self-convolution is right-shifted by one slot, so
                    # kernel position T-1 corresponds to a delay of 1.
                    delay += 1
                    delay = max(delay, 1)
                else:
                    delay = max(delay, 0)
                graph.add_edge(source, target, delay)
        return graph

    def detect(self, windows: np.ndarray,
               series_names: Optional[list] = None
               ) -> Tuple[TemporalCausalGraph, CausalScores]:
        """Convenience: compute scores and build the causal graph."""
        scores = self.compute_scores(windows)
        graph = self.build_graph(scores, series_names=series_names)
        return graph, scores


def compute_scores_group(detectors: Sequence[DecompositionCausalityDetector],
                         windows_list: Sequence[np.ndarray],
                         arena=None) -> List[CausalScores]:
    """Causal scores for a whole group of same-architecture detectors at once.

    The detector's one interpretation path (a solo
    :meth:`DecompositionCausalityDetector.compute_scores` is this function
    at ``M = 1``): one stacked cache forward shared by every model *and*
    target, one stacked hand-derived backward for the Fig. 6b gradients and
    one model-axis relevance propagation — no autograd graph.  Target ``i``
    reads only attention row ``[:, i, :]`` and kernel column ``[:, i, :]``
    (Sec. 4.2.3), so the backward and the propagation seed every target on
    its own output row and compute just those rows, one ``N × N`` map for
    all ``N`` targets instead of one per target; :func:`gradient_modulation`
    combines them.  Every returned :class:`CausalScores` is
    **bit-identical** to scoring ``detectors[m]`` in a group of its own,
    across all Table 3 ablations (the detectors must share their ablation
    flags and configuration; the window sets must share one shape).

    ``arena`` optionally hands the stacked engine an existing
    :class:`~repro.nn.inference.ScratchArena` — the batched sweep passes its
    trainer's engine arena so training, validation and interpretation share
    one buffer pool.  Safe because the phases run sequentially and every
    call site fully overwrites the buffers it reads before reading them
    (arena buffers are keyed by name and shape; a same-key take with a new
    dtype replaces the buffer, so interleaving phases mid-call is not
    supported).
    """
    detectors = list(detectors)
    if not detectors:
        raise ValueError("need at least one detector")
    if len(detectors) != len(windows_list):
        raise ValueError("one window set per detector required")
    first = detectors[0]
    flags = (first.use_interpretation, first.use_relevance,
             first.use_gradient, first.use_bias)
    for detector in detectors[1:]:
        if (detector.use_interpretation, detector.use_relevance,
                detector.use_gradient, detector.use_bias) != flags:
            raise ValueError(
                "grouped interpretation requires identical detector flags")
        # The stabiliser is read from the first detector only; a silent
        # mismatch would compute every other detector's relevance with the
        # wrong epsilon (non-bit-identical to its own compute_scores).
        if detector.config.relevance_epsilon \
                != first.config.relevance_epsilon:
            raise ValueError(
                "grouped interpretation requires one relevance_epsilon")

    prepared_windows: List[np.ndarray] = []
    for detector, windows in zip(detectors, windows_list):
        windows = np.asarray(windows, dtype=float)
        if windows.ndim == 2:
            windows = windows[None, :, :]
        n_series, window = windows.shape[1], windows.shape[2]
        if n_series != detector.config.n_series \
                or window != detector.config.window:
            raise ValueError(
                f"windows of shape {windows.shape[1:]} do not match the model "
                f"({detector.config.n_series} series, window "
                f"{detector.config.window})")
        prepared_windows.append(windows)
    if len({windows.shape for windows in prepared_windows}) != 1:
        raise ValueError(
            "grouped interpretation requires same-shape window sets")

    for detector in detectors:
        detector._sync_interpretation_model()
    models = [detector.model for detector in detectors]
    engine = StackedInferenceEngine(models, arena=arena)
    forward = engine.interpretation_forward(prepared_windows)
    if not first.use_interpretation:
        return [detector._raw_weight_scores(cache)
                for detector, cache in zip(detectors, forward.caches)]

    gradients = relevance = (None, None)
    if first.use_gradient:
        gradients = engine.interpretation_gradients(forward)
    if first.use_relevance:
        relevance = StackedRelevancePropagation(
            models, use_bias=first.use_bias,
            epsilon=first.config.relevance_epsilon).propagate_targets(forward)
    attention, kernel = gradient_modulation(*gradients, *relevance)
    # kernel[m, source, target, τ] → scores[target, source, τ]
    kernel = np.ascontiguousarray(kernel.transpose(0, 2, 1, 3))
    return [CausalScores(attention=attention[row], kernel=kernel[row])
            for row in range(len(detectors))]


def gradient_modulation(attention_grads: Optional[np.ndarray],
                        kernel_grads: Optional[np.ndarray],
                        attention_relevance: Optional[np.ndarray],
                        kernel_relevance: Optional[np.ndarray]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient modulation ``S = E_h[|∇f| ⊙ R]⁺`` (Eq. 19), all targets.

    Takes, stacked over models ``M``, attention maps ``(M, h, B, N, N)``
    whose row ``[:, i, :]`` is target ``i``'s and kernel maps
    ``(M, h, N, N, K)`` whose column ``[:, i, :]`` is target ``i``'s, for
    the relevance and the gradients (the kernel gradient has no head axis:
    ``(M, N, N, K)``, or ``(M, 1, N, K)`` for a single kernel).  The
    ablated factor is ``None``.  Returns ``S(A)`` ``(M, N, N)``, whose row
    ``i`` is ``S(A)[i]_{i,:}`` (target ``i``'s causes), and ``S(K)``
    ``(M, N, N, K)``, whose column ``i`` is ``S(K)[i]_{:,i,:}`` (its
    sources' kernel positions).
    """
    heads = attention_relevance if attention_grads is None else attention_grads
    m, n_heads, _batch, n_series, _ = heads.shape
    if kernel_grads is not None:
        kernel_grads = np.broadcast_to(np.abs(kernel_grads),
                                       (m, n_series) + kernel_grads.shape[2:])
    attention = kernel = 0.0
    for head in range(n_heads):
        if attention_grads is None:
            attention_term = attention_relevance[:, head]
            kernel_term = kernel_relevance[:, head]
        elif attention_relevance is None:
            attention_term = np.abs(attention_grads[:, head])
            kernel_term = kernel_grads
        else:
            attention_term = np.abs(attention_grads[:, head]) \
                * attention_relevance[:, head]
            kernel_term = kernel_grads * kernel_relevance[:, head]
        attention = attention + attention_term.mean(axis=1)
        kernel = kernel + kernel_term
    return (np.maximum(attention / n_heads, 0.0),
            np.maximum(kernel / n_heads, 0.0))
