"""Fused no-autograd inference engine for the CausalFormer pipeline.

Every non-gradient pass of this reproduction — ``Trainer._evaluate``
validation scoring, experiment-table evaluation, ``predict`` and the
causality detector's interpretation forward — used to walk the full autograd
:class:`~repro.nn.tensor.Tensor` machinery under ``no_grad()``, allocating
fresh node objects and temporaries for every window chunk.  This module
evaluates the same pipeline — causal convolution (stride-trick windows +
batched GEMM with the Eq. 4 right-shift folded in), embedding + Q/K
projection + masked tempered softmax (Eq. 5), attention combination
(Eq. 6–7), the MLP tail (Eq. 8) and the Eq. 9 loss — in pure numpy, writing
every intermediate into a reusable :class:`ScratchArena` so steady-state
evaluation performs no per-call heap allocation of large temporaries.

Numerical contract: for a given model the fused forward replays the *exact*
operation sequence of the autograd fast path (same GEMM shapes, same
reduction orders), so its results are bit-for-bit identical in float64 and
within BLAS noise in float32.  With ``set_engine_threads(n)`` (see
:mod:`repro.nn.parallel`) the dominant ops chunk their independent leading
axes — the ``(b, i)`` convolution/attention batches — across a shared
worker pool; each chunk performs exactly the per-slice work of the serial
op on disjoint output slices, so threaded results stay bit-identical in
both dtypes.

The causality detector interprets through :class:`StackedInferenceEngine`
only (a single detector is a stack of one):
:meth:`StackedInferenceEngine.interpretation_forward` replays the autograd
*cache* path (per-head outputs, 3-D linears, einsum head combination),
whose operation sequence differs slightly from the fast path, and
:meth:`StackedInferenceEngine.interpretation_gradients` hand-evaluates the
exact backward of that graph for every target series at once, each on its
own row — the detector needs no autograd graph at all.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.contracts import hot_path
from .parallel import get_engine_threads, parallel_for, slice_axis

if TYPE_CHECKING:
    from repro.core.transformer import TransformerCache


class ScratchSpace:
    """One namespace of scratch buffers and derived views.

    A space belongs to a fixed workload shape (one ``(B, N, T, dtype)``
    combination), so buffer names map to stable arrays and the strided
    views derived from them (window views, transposes, reshapes) can be
    constructed once and replayed — view construction is pure Python
    overhead on a hot path this small.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._views: Dict[str, np.ndarray] = {}

    # repro: allow(dtype-purity): scratch default is the f64 reference dtype
    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.zeros(shape, dtype=dtype)
            self._views.clear()
        return buffer

    def view(self, name: str, factory) -> np.ndarray:
        """A cached derived view (``factory`` builds it on first use)."""
        cached = self._views.get(name)
        if cached is None:
            cached = self._views[name] = factory()
        return cached

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def buffers(self):
        return self._buffers.values()


class ScratchArena:
    """A pool of reusable scratch buffers, grouped into namespaces.

    ``take`` serves one-off keys; ``space`` returns a :class:`ScratchSpace`
    for a workload shape, where buffers *and* their derived strided views
    are cached.  Buffers are allocated zero-filled and are dirty afterwards
    — each call site owns its keys and fully overwrites what it reads —
    with one deliberate exception: left-padding buffers rely on the
    allocation zero-fill and the call site never writing the pad region, so
    the zeros persist across reuses.
    """

    __slots__ = ("_buffers", "_spaces", "__weakref__")

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._spaces: Dict[tuple, ScratchSpace] = {}

    # repro: allow(dtype-purity): scratch default is the f64 reference dtype
    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (name, shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.dtype != dtype:
            buffer = self._buffers[key] = np.zeros(shape, dtype=dtype)
        return buffer

    def space(self, key: tuple) -> ScratchSpace:
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = ScratchSpace()
        return space

    def __len__(self) -> int:
        return len(self._buffers) + sum(
            len(space._buffers) for space in self._spaces.values())

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values()) + \
            sum(space.nbytes for space in self._spaces.values())

    def buffer_ids(self) -> Tuple[int, ...]:
        """Identities of the held buffers (tests assert steady-state reuse)."""
        identifiers = [id(buffer) for buffer in self._buffers.values()]
        for space in self._spaces.values():
            identifiers.extend(id(buffer) for buffer in space.buffers())
        return tuple(sorted(identifiers))

    def clear(self) -> None:
        self._buffers.clear()
        self._spaces.clear()


@hot_path
def max_last_keepdims(values: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis max (keepdims) — chained over columns for short rows.

    The maximum is exact whichever way it is reduced, so short rows use one
    vectorised ``np.maximum`` per column instead of numpy's per-row
    reduction machinery (~6× faster at this project's row lengths), with
    bit-identical output.  Shared by the inference softmax and the stacked
    trainer so the threshold lives in exactly one place.
    """
    n = values.shape[-1]
    if out is None:
        # repro: allow(hot-path-alloc): cold fallback; engines always pass out=
        out = np.empty(values.shape[:-1] + (1,), dtype=values.dtype)
    if 1 < n <= 16:
        flat = out[..., 0]
        np.maximum(values[..., 0], values[..., 1], out=flat)
        for column in range(2, n):
            np.maximum(flat, values[..., column], out=flat)
    else:
        np.max(values, axis=-1, keepdims=True, out=out)
    return out


@hot_path
def sum_last_keepdims(values: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis sum (keepdims) matching numpy's summation order bit for bit.

    numpy reduces rows of fewer than eight elements sequentially, which a
    left-to-right chained ``np.add`` over the columns replicates exactly;
    from eight elements on it switches to pairwise blocking, so longer rows
    keep ``np.sum``.  If a numpy release ever moves that threshold, this is
    the single place to track it.
    """
    n = values.shape[-1]
    if out is None:
        # repro: allow(hot-path-alloc): cold fallback; engines always pass out=
        out = np.empty(values.shape[:-1] + (1,), dtype=values.dtype)
    if 1 < n < 8:
        flat = out[..., 0]
        np.add(values[..., 0], values[..., 1], out=flat)
        for column in range(2, n):
            np.add(flat, values[..., column], out=flat)
    else:
        np.sum(values, axis=-1, keepdims=True, out=out)
    return out


@hot_path
def _leaky_slope(space: ScratchSpace, name: str, pre_activation: np.ndarray,
                 negative_slope: float) -> np.ndarray:
    """``np.where(x > 0, 1, negative_slope)`` without temporaries.

    The constants are written exactly (``copyto`` with a mask), matching the
    autograd path's ``np.where`` selection bit for bit.
    """
    dtype = pre_activation.dtype
    slope = space.take(name, pre_activation.shape, dtype)
    mask = space.take(name + ".mask", pre_activation.shape, np.bool_)
    np.greater(pre_activation, 0, out=mask)
    slope.fill(dtype.type(negative_slope))
    np.copyto(slope, dtype.type(1.0), where=mask)
    return slope


def _loss_penalty_terms(model, arena: ScratchArena,
                        prefix: str = "") -> List[float]:
    """One model's Eq. 9 L1 penalty contributions (see ``_penalty_terms``).

    ``prefix`` namespaces the arena keys so several models (the stacked
    engine evaluates ``K`` of them against one arena) never share penalty
    scratch buffers of coincidentally equal size.
    """
    config = model.config
    pairs = []
    if config.lambda_kernel > 0:
        pairs.append((config.lambda_kernel, model.convolution.kernel))
    if config.lambda_mask > 0:
        pairs.extend((config.lambda_mask, head.mask)
                     for head in model.attention.heads)
    groups: Dict[float, List[np.ndarray]] = {}
    for coefficient, tensor in pairs:
        groups.setdefault(coefficient, []).append(tensor.data.ravel())
    terms: List[float] = []
    for group_index, (coefficient, arrays) in enumerate(groups.items()):
        if len(arrays) == 1:
            flat = arrays[0]
        else:
            total = sum(array.size for array in arrays)
            flat = arena.take(f"{prefix}loss.penalty{group_index}", (total,),
                              arrays[0].dtype)
            offset = 0
            for array in arrays:
                flat[offset:offset + array.size] = array
                offset += array.size
        magnitude = arena.take(f"{prefix}loss.abs{group_index}", flat.shape,
                               flat.dtype)
        np.abs(flat, out=magnitude)
        terms.append(coefficient * float(magnitude.sum()))
    return terms


def _timed_op(op: str, method: Callable, owner: "weakref.ref",
              hook: Callable) -> Callable:
    """Wrap an op method so each call reports its wall time to ``hook``.

    The wrapper lives in its engine's ``__dict__`` and reaches the engine
    through the ``owner`` weakref: closing over a bound method instead
    would form an engine → wrapper → engine cycle that keeps a profiled
    engine, its model and its arena alive until the cycle collector runs.

    The clock runs on the *dispatching* thread: ops that fan work out
    through :func:`repro.nn.parallel.parallel_for` block the caller until
    every chunk drains, so the recorded wall time spans the op's full
    (possibly parallel) execution and per-op timings stay meaningful at any
    engine thread count.
    """
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = method(owner(), *args, **kwargs)
        hook(op, time.perf_counter() - start)
        return result
    return wrapper


def profiling_hook(telemetry) -> Callable[[str, float], None]:
    """A per-op wall-time hook recording ``engine.<op>_seconds`` histograms.

    Resolves each op's :class:`~repro.telemetry.metrics.Histogram` once and
    caches it, so a steady-state observation is one dict probe plus the
    histogram's own lock-protected update — no per-call f-string
    formatting or registry round-trip.  Histogram state is guarded by the
    registry lock, so one hook instance can safely serve several engines
    and trainer threads concurrently.
    """
    cache: Dict[str, object] = {}

    def hook(op: str, seconds: float) -> None:
        histogram = cache.get(op)
        if histogram is None:
            # repro: allow(telemetry-guard): cold path; resolved once, cached
            histogram = cache[op] = telemetry.histogram(
                f"engine.{op}_seconds")
        histogram.observe(seconds)

    return hook


class ProfilingSeam:
    """Optional per-op wall-time hook over an engine's fused building blocks.

    ``enable_profiling(hook)`` shadows each method named in ``_PROFILED_OPS``
    with an instance-attribute wrapper that calls
    ``hook(op_name, seconds)`` after every invocation;
    ``disable_profiling()`` pops the shadows so the *class* methods run
    again.  Because the hook lives entirely in the instance ``__dict__``,
    an engine that never enables profiling pays nothing — not even an
    ``if``— on the hot path.

    Hooks must be safe to call from any thread that drives the engine:
    :func:`profiling_hook` (cached histograms over the lock-protected
    metrics registry) is the canonical implementation.  Threaded ops are
    timed on the dispatching thread (see :func:`_timed_op`), so a wrapper
    never fires concurrently with itself for a single engine instance.
    """

    _PROFILED_OPS: Tuple[str, ...] = ()

    def enable_profiling(self, hook: Callable[[str, float], None]) -> None:
        self.disable_profiling()
        owner = weakref.ref(self)
        for name in self._PROFILED_OPS:
            setattr(self, name, _timed_op(name.lstrip("_"),
                                          getattr(type(self), name), owner,
                                          hook))

    def disable_profiling(self) -> None:
        for name in self._PROFILED_OPS:
            self.__dict__.pop(name, None)

    @property
    def profiling_enabled(self) -> bool:
        return any(name in self.__dict__ for name in self._PROFILED_OPS)


class InferenceEngine(ProfilingSeam):
    """Forward-only CausalFormer evaluator over a scratch-buffer arena.

    Parameters
    ----------
    model:
        A :class:`~repro.core.transformer.CausalityAwareTransformer` (or any
        object with the same ``embedding`` / ``convolution`` / ``attention``
        / ``feed_forward`` / ``output_layer`` / ``config`` attributes).
    arena:
        Optional shared :class:`ScratchArena`; a private one is created when
        omitted.

    The engine re-reads the model's parameters on every public call (they
    change between validation passes during training), staging the fused
    weight layouts (concatenated Q/K projections, scaled mask modulation,
    broadcast single-kernel) into arena buffers.
    """

    _PROFILED_OPS = ("_causal_windows", "_convolution", "_attention_probs",
                     "_combine_layout")

    def __init__(self, model, arena: Optional[ScratchArena] = None) -> None:
        self.model = model
        self.arena = arena if arena is not None else ScratchArena()

    # ------------------------------------------------------------------ #
    # Weight staging
    # ------------------------------------------------------------------ #
    @property
    def dtype(self):
        return self.model.embedding.weight.data.dtype

    def _stage(self) -> dict:
        """Stage the fused weight layouts for the current parameter values."""
        model = self.model
        arena = self.arena
        attention = model.attention
        dtype = self.dtype
        n_heads = attention.n_heads
        d_qk = attention.query_weights[0].data.shape[-1]
        d_model = model.embedding.weight.data.shape[-1]

        weights = attention.query_weights + attention.key_weights
        biases = attention.query_biases + attention.key_biases
        weight_flat = arena.take("stage.weight_flat",
                                 (d_model, 2 * n_heads * d_qk), dtype)
        bias_flat = arena.take("stage.bias_flat", (2 * n_heads * d_qk,), dtype)
        for index, (weight, bias) in enumerate(zip(weights, biases)):
            columns = slice(index * d_qk, (index + 1) * d_qk)
            weight_flat[:, columns] = weight.data
            bias_flat[columns] = bias.data

        # ``scale`` is a float64 numpy scalar, so the autograd path's
        # ``mask_stack * scale`` promotes the modulation — and everything
        # downstream of the attention scores — to float64 even under the
        # float32 engine.  Replicate that promotion exactly.
        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        n = model.convolution.n_series
        modulation = arena.take("stage.modulation", (n_heads, 1, n, n),
                                np.float64)
        for index, mask in enumerate(attention.mask_parameters):
            modulation[index, 0] = mask.data
        modulation *= scale

        convolution = model.convolution
        if convolution.single_kernel:
            kernel_eff = arena.take("stage.kernel",
                                    (n, n, convolution.window), dtype)
            np.multiply(convolution.kernel.data, convolution._ones_broadcast.data,
                        out=kernel_eff)
        else:
            kernel_eff = convolution.kernel.data

        return {
            "dtype": dtype,
            "n_heads": n_heads,
            "d_qk": d_qk,
            "weight_flat": weight_flat,
            "bias_flat": bias_flat,
            "modulation": modulation,
            "kernel_eff": kernel_eff,
            "scale_array": convolution._scale_array,
            "embed_weight": model.embedding.weight.data,
            "embed_bias": model.embedding.bias.data,
            "w1": model.feed_forward.w1.data, "b1": model.feed_forward.b1.data,
            "w2": model.feed_forward.w2.data, "b2": model.feed_forward.b2.data,
            "w3": model.output_layer.weight.data, "b3": model.output_layer.bias.data,
            "negative_slope": model.feed_forward.negative_slope,
            "w_output": attention.w_output.data,
        }

    # ------------------------------------------------------------------ #
    # Fused building blocks (fast-path operation order)
    # ------------------------------------------------------------------ #
    @hot_path
    def _causal_windows(self, space: ScratchSpace, x: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Left-zero-pad ``x`` and return ``(padded, windows_flat)``.

        ``windows_flat`` is the ``(N, B·T, K)`` contiguous GEMM layout of
        the causal window view (the exact array the fused autograd
        ``causal_conv`` builds).
        """
        batch, n, window = x.shape
        padded = space.take("conv.pad", (batch, n, 2 * window), x.dtype)
        padded[..., window:] = x
        flat = space.take("conv.windows_flat", (n, batch * window, window),
                          x.dtype)
        source = space.view("conv.window_view", lambda: np.lib.stride_tricks
                            .sliding_window_view(padded, window, axis=-1)
                            [..., 1:, :].transpose(1, 0, 2, 3))
        target = space.view("conv.windows_flat.4d",
                            lambda: flat.reshape(n, batch, window, window))

        def body(lo: int, hi: int) -> None:
            np.copyto(target[lo:hi], source[lo:hi])

        parallel_for(body, n, outputs=((target, 0),))
        return padded, flat

    @hot_path
    def _convolution(self, space: ScratchSpace, x: np.ndarray, stage: dict
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused causal convolution with the Eq. 4 right-shift (fast path).

        Returns ``(values, windows_flat)`` — the convolution output and the
        ``(N, B·T, K)`` window layout (reused by the training backward).
        """
        batch, n, window = x.shape
        kernel = stage["kernel_eff"]
        cdtype = np.result_type(x.dtype, kernel.dtype)
        _padded, flat = self._causal_windows(space, x)
        k_out = kernel.shape[1]
        raw = space.take("conv.raw", (n, batch * window, k_out), cdtype)
        kernel_t = kernel.transpose(0, 2, 1)

        def matmul_body(lo: int, hi: int) -> None:
            np.matmul(flat[lo:hi], kernel_t[lo:hi], out=raw[lo:hi])

        parallel_for(matmul_body, n, outputs=((raw, 0),))
        values = space.take("conv.values", (batch, n, k_out, window), cdtype)
        raw_t = space.view("conv.raw.t",
                           lambda: raw.reshape(n, batch, window, k_out)
                           .transpose(1, 0, 3, 2))
        scale_array = stage["scale_array"]

        def scale_body(lo: int, hi: int) -> None:
            np.multiply(raw_t[lo:hi], scale_array, out=values[lo:hi])

        parallel_for(scale_body, batch, outputs=((values, 0),))
        # Diagonal right-shift (Eq. 4), matching diagonal-copy-then-assign.
        shift = space.take("conv.shift", (batch, window), cdtype)
        for index in range(n):
            np.copyto(shift, values[:, index, index, :])
            values[:, index, index, 1:] = shift[:, :-1]
            values[:, index, index, 0] = 0.0
        return values, flat

    @hot_path
    def _attention_probs(self, space: ScratchSpace, x: np.ndarray, stage: dict
                         ) -> np.ndarray:
        """Embedding → all-head Q/K projection → masked tempered softmax.

        Returns the ``(h, B, N, N)`` attention probabilities.
        """
        batch, n, window = x.shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        d_model = stage["embed_weight"].shape[-1]
        cdtype = np.result_type(x.dtype, stage["embed_weight"].dtype)
        x2d = x.reshape(batch * n, window)
        emb = space.take("att.emb", (batch * n, d_model), cdtype)
        np.matmul(x2d, stage["embed_weight"], out=emb)
        emb += stage["embed_bias"]
        proj = space.take("att.proj", (batch * n, 2 * n_heads * d_qk), cdtype)
        np.matmul(emb, stage["weight_flat"], out=proj)
        proj += stage["bias_flat"]
        qk = space.take("att.qk", (2 * n_heads, batch, n, d_qk), cdtype)
        proj_t = space.view("att.proj.t",
                            lambda: proj.reshape(batch, n, 2 * n_heads, d_qk)
                            .transpose(2, 0, 1, 3))
        raw = space.take("att.raw", (n_heads, batch, n, n), cdtype)
        k_t = space.view("att.k.t",
                         lambda: qk[n_heads:].transpose(0, 1, 3, 2))
        # float64 from here on (see the modulation note in ``_stage``).
        probs = space.take("att.probs", (n_heads, batch, n, n), np.float64)
        query = qk[:n_heads]
        modulation = stage["modulation"]

        # One round over the batch axis: the layout copy, per-(h, b) score
        # GEMMs, and the modulation multiply all chunk along axis 1
        # (``modulation`` broadcasts over it and stays unsliced).
        def body(lo: int, hi: int) -> None:
            np.copyto(qk[:, lo:hi], proj_t[:, lo:hi])
            np.matmul(query[:, lo:hi], k_t[:, lo:hi], out=raw[:, lo:hi])
            np.multiply(raw[:, lo:hi], modulation, out=probs[:, lo:hi])

        parallel_for(body, batch, outputs=((qk, 1), (raw, 1), (probs, 1)))
        self._softmax_inplace(space, probs)
        return probs

    @hot_path
    def _softmax_inplace(self, space: ScratchSpace, probs: np.ndarray) -> None:
        """Tempered-softmax normalisation along the last axis, in place.

        Bit-identical to ``x -= x.max(…); exp; x /= x.sum(…)`` — see
        :func:`max_last_keepdims` / :func:`sum_last_keepdims` for why the
        chained reductions are exact replicas.  Normalisation is row-wise,
        so the leading axes chunk freely: ``probs`` is always a contiguous
        arena buffer, letting the rows flatten to one parallel axis.
        """
        extreme = space.take("att.max", probs.shape[:-1] + (1,), probs.dtype)
        total = space.take("att.sum", probs.shape[:-1] + (1,), probs.dtype)
        flat = probs.reshape((-1,) + probs.shape[-2:])
        ext = extreme.reshape((-1,) + extreme.shape[-2:])
        tot = total.reshape((-1,) + total.shape[-2:])

        def body(lo: int, hi: int) -> None:
            rows = flat[lo:hi]
            rows -= max_last_keepdims(rows, out=ext[lo:hi])
            np.exp(rows, out=rows)
            rows /= sum_last_keepdims(rows, out=tot[lo:hi])

        parallel_for(body, flat.shape[0],
                     outputs=((flat, 0), (ext, 0), (tot, 0)))

    @hot_path
    def _combine_layout(self, space: ScratchSpace, probs: np.ndarray,
                        values: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous GEMM layouts + per-head application (Eq. 6)."""
        n_heads, batch, n, _ = probs.shape
        window = values.shape[-1]
        out_dtype = np.result_type(probs.dtype, values.dtype)
        a_bihj = space.take("comb.a", (batch, n, n_heads, n), probs.dtype)
        probs_t = space.view("comb.probs.t",
                             lambda: probs.transpose(1, 2, 0, 3))
        # The autograd path multiplies float64 attention with model-dtype
        # values, which numpy resolves by casting the values up internally
        # on every call; staging the cast copy once is bit-identical and
        # skips the hidden per-call buffer.
        v_bijt = space.take("comb.v", (batch, n, n, window), out_dtype)
        values_t = space.view("comb.values.t",
                              lambda: values.transpose(0, 2, 1, 3))
        head_outputs = space.take("comb.ho", (batch, n, n_heads, window),
                                  out_dtype)

        def body(lo: int, hi: int) -> None:
            np.copyto(a_bihj[lo:hi], probs_t[lo:hi])
            np.copyto(v_bijt[lo:hi], values_t[lo:hi])
            np.matmul(a_bihj[lo:hi], v_bijt[lo:hi], out=head_outputs[lo:hi])

        parallel_for(body, batch,
                     outputs=((a_bihj, 0), (v_bijt, 0), (head_outputs, 0)))
        return a_bihj, v_bijt, head_outputs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Fused forward pass; returns the ``(B, N, T)`` prediction buffer.

        ``x`` must already be C-contiguous in the model dtype.  The returned
        array is an arena view, valid until the next engine call.
        """
        stage = self._stage()
        return self._forward(x, stage)

    @hot_path
    def _forward(self, x: np.ndarray, stage: dict) -> np.ndarray:
        batch, n, window = x.shape
        space = self.arena.space(("eval", x.shape, x.dtype.str))
        values, _flat = self._convolution(space, x, stage)
        probs = self._attention_probs(space, x, stage)
        _a, _v, head_outputs = self._combine_layout(space, probs, values)
        # Head combination replays np.tensordot(head_outputs, w_output,
        # axes=([2], [0])): transpose-copy to (B·N·T, h), then one GEMV-dot.
        n_heads = stage["n_heads"]
        dtype = head_outputs.dtype
        at = space.take("comb.at", (batch, n, window, n_heads), dtype)
        ho_t = space.view("comb.ho.t",
                          lambda: head_outputs.transpose(0, 1, 3, 2))
        parallel_for(lambda lo, hi: np.copyto(at[lo:hi], ho_t[lo:hi]), batch,
                     outputs=((at, 0),))
        combined = space.take("comb.out", (batch * n * window, 1), dtype)
        np.dot(space.view("comb.at.2d", lambda: at.reshape(-1, n_heads)),
               stage["w_output"].reshape(n_heads, 1).astype(dtype, copy=False),
               out=combined)
        # Fused MLP tail (Eq. 8 + output layer), fast-path 2-D layout.
        x2d = space.view("comb.out.2d",
                         lambda: combined.reshape(batch * n, window))
        d_ffn = stage["w1"].shape[-1]
        hidden = space.take("mlp.hidden", (batch * n, d_ffn), dtype)
        np.matmul(x2d, stage["w1"], out=hidden)
        hidden += stage["b1"]
        slope = _leaky_slope(space, "mlp.slope", hidden, stage["negative_slope"])
        hidden *= slope
        ffn = space.take("mlp.ffn", (batch * n, window), dtype)
        np.matmul(hidden, stage["w2"], out=ffn)
        ffn += stage["b2"]
        out2d = space.take("mlp.out", (batch * n, window), dtype)
        np.matmul(ffn, stage["w3"], out=out2d)
        out2d += stage["b3"]
        return space.view("mlp.out.3d",
                          lambda: out2d.reshape(batch, n, window))

    # ------------------------------------------------------------------ #
    # Loss (paper Eq. 9) and evaluation
    # ------------------------------------------------------------------ #
    def _penalty_terms(self) -> List[float]:
        """The loss's L1 penalty contributions, one float per coefficient group.

        Groups equal-coefficient penalties exactly like the autograd loss
        node (insertion order: kernel first, then the per-head masks), so
        adding the returned floats in order reproduces its accumulation
        sequence bit for bit.
        """
        return _loss_penalty_terms(self.model, self.arena)

    @hot_path
    def _windowed_diff(self, prediction: np.ndarray, target: np.ndarray,
                       start_slot: int = 1) -> np.ndarray:
        diff_shape = prediction.shape[:-1] + (prediction.shape[-1] - start_slot,)
        diff = self.arena.take("loss.diff", diff_shape, prediction.dtype)
        np.subtract(prediction[..., start_slot:], target[..., start_slot:],
                    out=diff)
        return diff

    @staticmethod
    def _mse_plus_penalties(diff: np.ndarray, penalties: List[float]) -> float:
        flat = diff.reshape(-1)
        value = np.dot(flat, flat) / diff.size
        for term in penalties:
            value = value + term
        return float(np.asarray(value, dtype=diff.dtype))

    def _loss_value(self, prediction: np.ndarray, target: np.ndarray,
                    start_slot: int = 1) -> float:
        """Windowed MSE + grouped L1 penalties, replaying the fused loss node."""
        diff = self._windowed_diff(prediction, target, start_slot)
        return self._mse_plus_penalties(diff, self._penalty_terms())

    def _as_model_batch(self, windows: np.ndarray) -> np.ndarray:
        """Replay the Tensor-construction casts of the autograd path.

        The autograd forward first builds ``Tensor(x)`` (casting to the
        *engine default* dtype), then — when that differs from the model
        dtype — rebuilds ``Tensor(x.astype(model_dtype))``, whose
        constructor casts **back** to the default dtype.  Net effect: the
        batch always carries the default dtype, with values rounded through
        the model dtype when that is the narrower type.  The fused ops then
        run in ``result_type(batch, parameter)`` like numpy's promotion
        does; replicating the exact chain keeps mixed-dtype configurations
        (e.g. a float32 model probed under a float64 session) bit-identical.
        """
        from repro.nn import tensor as T

        default = T.get_default_dtype()
        arr = np.asarray(windows, dtype=default)
        dtype = self.dtype
        if arr.dtype != dtype:
            arr = np.asarray(arr.astype(dtype), dtype=default)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        return np.ascontiguousarray(arr)

    def loss(self, windows: np.ndarray) -> float:
        """Eq. 9 training loss of the model on a batch of windows."""
        stage = self._stage()
        batch = self._as_model_batch(windows)
        return self._loss_value(self._forward(batch, stage), batch)

    #: largest ``B·N²·T`` intermediate (elements) evaluated as one batch;
    #: larger window sets fall back to the chunk-by-chunk loop to keep peak
    #: memory proportional to the batch size.
    FULL_BATCH_ELEMENT_LIMIT = 4_000_000

    def evaluate(self, windows: np.ndarray, batch_size: int) -> float:
        """Window-weighted mean loss over ``batch_size`` chunks.

        Bit-for-bit equivalent to the chunked autograd ``Trainer._evaluate``
        it replaces, at zero steady-state allocation.  When the ``(B, N, N,
        T)`` convolution intermediate fits the memory budget, the whole
        window set runs as one forward pass — identical rows, one GEMM
        dispatch instead of one per chunk — and the chunk losses are then
        read off slices of the shared windowed-difference buffer, preserving
        the chunk-weighted mean exactly.
        """
        stage = self._stage()
        windows = np.asarray(windows)
        if windows.ndim == 3 and windows.shape[0] and (
                windows.shape[0] * windows.shape[1] ** 2 * windows.shape[2]
                <= self.FULL_BATCH_ELEMENT_LIMIT):
            batch = self._as_model_batch(windows)
            diff = self._windowed_diff(self._forward(batch, stage), batch)
            penalties = self._penalty_terms()
            total = 0.0
            count = 0
            for start in range(0, len(batch), batch_size):
                chunk = diff[start:start + batch_size]
                total += self._mse_plus_penalties(chunk, penalties) * len(chunk)
                count += len(chunk)
            return total / count
        total = 0.0
        count = 0
        for start in range(0, windows.shape[0], batch_size):
            chunk = self._as_model_batch(windows[start:start + batch_size])
            loss = self._loss_value(self._forward(chunk, stage), chunk)
            total += loss * len(chunk)
            count += len(chunk)
        return total / count if count else float("nan")

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out prediction (returns an owned copy)."""
        stage = self._stage()
        squeeze = np.ndim(windows) == 2
        # repro: allow(dtype-purity): ingestion cast to the f64 reference
        batch = self._as_model_batch(np.asarray(windows, dtype=float))
        prediction = self._forward(batch, stage)
        return prediction[0].copy() if squeeze else prediction.copy()


@dataclass
class StackedInterpretationForward:
    """One fused cache forward for ``M`` same-architecture models at once.

    ``caches[m]`` is an ordinary
    :class:`~repro.core.transformer.TransformerCache` whose arrays are
    row-``m`` views of the stacked buffers below, so every per-model
    consumer (gradient modulation, raw-weight ablation) reads exactly what
    the autograd cache path would record for model ``m``.  The stacked
    arrays feed the model-axis gradient backward and relevance propagation.
    All arrays are arena views — valid until the next engine call.
    """

    caches: List["TransformerCache"]
    inputs: np.ndarray                 # (M, B, N, T)
    output: np.ndarray                 # (M, B, N, T)
    values: np.ndarray                 # (M, B, N, N, T) legacy (source-major) layout
    values_pre: np.ndarray             # (M, B, N, N, T) pre-shift, float64
    conv_windows: np.ndarray           # (M, B, N, T, K) strided float64 view
    attention_probs: np.ndarray        # (M, h, B, N, N)
    head_outputs: np.ndarray           # (M, h, B, N, T)
    combined: np.ndarray               # (M, B, N, T)
    hidden: np.ndarray                 # (M, B, N, d_ffn) pre-activation
    activated: np.ndarray              # (M, B, N, d_ffn)
    ffn_output: np.ndarray             # (M, B, N, T)
    slope: np.ndarray                  # (M, B, N, d_ffn)
    a_bihj: np.ndarray                 # (M, B, i, h, j)
    v_bijt: np.ndarray                 # (M, B, i, j, t)
    windows_flat: np.ndarray           # (M, N, B·T, K)
    extras: dict = field(default_factory=dict)

    @property
    def n_models(self) -> int:
        return len(self.caches)


class StackedInferenceEngine(ProfilingSeam):
    """Forward-only evaluator for ``M`` same-architecture models at once.

    A batched sweep trains ``K`` same-shape models in lockstep
    (:class:`repro.core.batched.StackedCausalFormerTrainer`), but validation
    passes and detector interpretation used to drop back to one
    :class:`InferenceEngine` call per model.  This engine adds a leading
    model axis to every stacked buffer so the whole fleet's evaluation (and
    its interpretation forward/backward) runs through one set of numpy
    calls.

    Numerical contract: batched matmuls dispatch one GEMM per 2-D slice and
    every reduction keeps its per-model order (per-row ``np.dot`` for the
    head combination, per-model loss accumulation), so each model's results
    are **bit-identical** to running it alone through
    :class:`InferenceEngine` — in float64 and float32 alike.  The stacked
    buffers replicate the single-model engine's memory layouts exactly
    (including the legacy source-major convolution layout), because einsum
    summation order — hence detector bit-identity — depends on operand
    strides.
    """

    _PROFILED_OPS = ("_causal_windows", "_convolution", "_attention_probs",
                     "_combine_layout")

    #: Which axis stacked ops chunk across under ``set_engine_threads``:
    #: ``True`` → the model axis ``K``, ``False`` → the widest per-model
    #: inner axis, ``None`` (default) → whichever offers more lanes for the
    #: configured thread count.  The batching layer
    #: (:class:`repro.core.batched.StackedCausalFormerTrainer`) sets this
    #: per group.  Either choice is bit-identical — chunking any leading
    #: axis of a batched matmul / element-wise op preserves the per-slice
    #: work exactly — so this is purely a load-balance knob.
    parallel_model_axis: Optional[bool] = None

    def _model_axis_first(self, m: int, inner: int) -> bool:
        """Chunk over the model axis (True) or the inner axis (False)?"""
        if inner <= 1:
            return True
        if m <= 1:
            return False
        prefer = self.parallel_model_axis
        if prefer is None:
            prefer = m >= get_engine_threads() or m >= inner
        return bool(prefer)

    def __init__(self, models: Sequence, arena: Optional[ScratchArena] = None) -> None:
        if not models:
            raise ValueError("need at least one model")
        self.models = list(models)
        reference = [(name, parameter.data.shape, parameter.data.dtype)
                     for name, parameter in self.models[0].named_parameters()]
        for model in self.models[1:]:
            shapes = [(name, parameter.data.shape, parameter.data.dtype)
                      for name, parameter in model.named_parameters()]
            if shapes != reference:
                raise ValueError(
                    "stacked inference requires same-architecture models "
                    "(matching parameter names, shapes and dtypes)")
            if model.convolution.single_kernel != \
                    self.models[0].convolution.single_kernel:
                raise ValueError("models disagree on single_kernel")
            # The staging below reads these scalars from the first model
            # only — a silent mismatch would misprice every other model.
            if model.attention.temperature != \
                    self.models[0].attention.temperature:
                raise ValueError("models disagree on attention temperature")
            if model.feed_forward.negative_slope != \
                    self.models[0].feed_forward.negative_slope:
                raise ValueError("models disagree on the leaky-ReLU slope")
        self.arena = arena if arena is not None else ScratchArena()

    @property
    def dtype(self):
        return self.models[0].embedding.weight.data.dtype

    # ------------------------------------------------------------------ #
    # Weight staging (stacked replica of InferenceEngine._stage)
    # ------------------------------------------------------------------ #
    def _stage(self) -> dict:
        arena = self.arena
        models = self.models
        m = len(models)
        first = models[0]
        attention = first.attention
        dtype = self.dtype
        n_heads = attention.n_heads
        d_qk = attention.query_weights[0].data.shape[-1]
        d_model = first.embedding.weight.data.shape[-1]
        n = first.convolution.n_series
        window = first.convolution.window

        weight_flat = arena.take("stack.weight_flat",
                                 (m, d_model, 2 * n_heads * d_qk), dtype)
        bias_flat = arena.take("stack.bias_flat", (m, 2 * n_heads * d_qk), dtype)
        for row, model in enumerate(models):
            weights = model.attention.query_weights + model.attention.key_weights
            biases = model.attention.query_biases + model.attention.key_biases
            for index, (weight, bias) in enumerate(zip(weights, biases)):
                columns = slice(index * d_qk, (index + 1) * d_qk)
                weight_flat[row, :, columns] = weight.data
                bias_flat[row, columns] = bias.data

        # float64 modulation — see the promotion note in
        # ``InferenceEngine._stage`` (replicated per model, exactly).
        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        modulation = arena.take("stack.modulation", (m, n_heads, 1, n, n),
                                np.float64)
        for row, model in enumerate(models):
            for index, mask in enumerate(model.attention.mask_parameters):
                modulation[row, index, 0] = mask.data
        modulation *= scale

        kernel_eff = arena.take("stack.kernel", (m, n, n, window), dtype)
        for row, model in enumerate(models):
            convolution = model.convolution
            if convolution.single_kernel:
                np.multiply(convolution.kernel.data,
                            convolution._ones_broadcast.data,
                            out=kernel_eff[row])
            else:
                kernel_eff[row] = convolution.kernel.data

        def stacked_copy(name: str, arrays: List[np.ndarray]) -> np.ndarray:
            buffer = arena.take(name, (m,) + arrays[0].shape, arrays[0].dtype)
            for row, array in enumerate(arrays):
                buffer[row] = array
            return buffer

        return {
            "dtype": dtype,
            "n_heads": n_heads,
            "d_qk": d_qk,
            "weight_flat": weight_flat,
            "bias_flat": bias_flat,
            "modulation": modulation,
            "kernel_eff": kernel_eff,
            "scale_array": first.convolution._scale_array,
            "embed_weight": stacked_copy(
                "stack.embed_w", [model.embedding.weight.data for model in models]),
            "embed_bias": stacked_copy(
                "stack.embed_b", [model.embedding.bias.data for model in models]),
            "w1": stacked_copy("stack.w1", [model.feed_forward.w1.data for model in models]),
            "b1": stacked_copy("stack.b1", [model.feed_forward.b1.data for model in models]),
            "w2": stacked_copy("stack.w2", [model.feed_forward.w2.data for model in models]),
            "b2": stacked_copy("stack.b2", [model.feed_forward.b2.data for model in models]),
            "w3": stacked_copy("stack.w3", [model.output_layer.weight.data for model in models]),
            "b3": stacked_copy("stack.b3", [model.output_layer.bias.data for model in models]),
            "negative_slope": first.feed_forward.negative_slope,
            "w_output": stacked_copy(
                "stack.w_out", [model.attention.w_output.data for model in models]),
        }

    # ------------------------------------------------------------------ #
    # Fused building blocks (leading model axis, same per-slice ops)
    # ------------------------------------------------------------------ #
    @hot_path
    def _causal_windows(self, space: ScratchSpace, x: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        m, batch, n, window = x.shape
        padded = space.take("conv.pad", (m, batch, n, 2 * window), x.dtype)
        padded[..., window:] = x
        flat = space.take("conv.windows_flat",
                          (m, n, batch * window, window), x.dtype)
        source = space.view("conv.window_view", lambda: np.lib.stride_tricks
                            .sliding_window_view(padded, window, axis=-1)
                            [..., 1:, :].transpose(0, 2, 1, 3, 4))
        target = space.view("conv.windows_flat.5d",
                            lambda: flat.reshape(m, n, batch, window, window))
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(target, axis, lo, hi),
                      slice_axis(source, axis, lo, hi))

        parallel_for(body, target.shape[axis], outputs=((target, axis),))
        return padded, flat

    @hot_path
    def _convolution(self, space: ScratchSpace, x: np.ndarray, stage: dict,
                     legacy_layout: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray]:
        m, batch, n, window = x.shape
        kernel = stage["kernel_eff"]
        cdtype = np.result_type(x.dtype, kernel.dtype)
        _padded, flat = self._causal_windows(space, x)
        k_out = kernel.shape[2]
        raw = space.take("conv.raw", (m, n, batch * window, k_out), cdtype)
        kernel_t = kernel.transpose(0, 1, 3, 2)
        axis = 0 if self._model_axis_first(m, n) else 1

        def matmul_body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(flat, axis, lo, hi),
                      slice_axis(kernel_t, axis, lo, hi),
                      out=slice_axis(raw, axis, lo, hi))

        parallel_for(matmul_body, raw.shape[axis], outputs=((raw, axis),))
        if legacy_layout:
            buffer = space.take("conv.values", (m, n, batch, window, k_out),
                                cdtype)
            values = space.view("conv.values.t",
                                lambda: buffer.transpose(0, 2, 1, 4, 3))
        else:
            values = space.take("conv.values", (m, batch, n, k_out, window),
                                cdtype)
        raw_t = space.view("conv.raw.t",
                           lambda: raw.reshape(m, n, batch, window, k_out)
                           .transpose(0, 2, 1, 4, 3))
        scale_array = stage["scale_array"]
        scale_axis = 0 if self._model_axis_first(m, batch) else 1

        def scale_body(lo: int, hi: int) -> None:
            np.multiply(slice_axis(raw_t, scale_axis, lo, hi), scale_array,
                        out=slice_axis(values, scale_axis, lo, hi))

        parallel_for(scale_body, values.shape[scale_axis],
                     outputs=((values, scale_axis),))
        shift = space.take("conv.shift", (m, batch, window), cdtype)
        for index in range(n):
            np.copyto(shift, values[:, :, index, index, :])
            values[:, :, index, index, 1:] = shift[..., :-1]
            values[:, :, index, index, 0] = 0.0
        return values, flat

    @hot_path
    def _softmax_inplace(self, space: ScratchSpace, probs: np.ndarray) -> None:
        # Row-wise normalisation over a contiguous arena buffer: flatten the
        # (model, head, batch) leading axes into one parallel axis — see the
        # single-engine ``_softmax_inplace`` for the bit-identity argument.
        extreme = space.take("att.max", probs.shape[:-1] + (1,), probs.dtype)
        total = space.take("att.sum", probs.shape[:-1] + (1,), probs.dtype)
        flat = probs.reshape((-1,) + probs.shape[-2:])
        ext = extreme.reshape((-1,) + extreme.shape[-2:])
        tot = total.reshape((-1,) + total.shape[-2:])

        def body(lo: int, hi: int) -> None:
            rows = flat[lo:hi]
            rows -= max_last_keepdims(rows, out=ext[lo:hi])
            np.exp(rows, out=rows)
            rows /= sum_last_keepdims(rows, out=tot[lo:hi])

        parallel_for(body, flat.shape[0],
                     outputs=((flat, 0), (ext, 0), (tot, 0)))

    @hot_path
    def _attention_probs(self, space: ScratchSpace, x: np.ndarray, stage: dict
                         ) -> np.ndarray:
        m, batch, n, window = x.shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        d_model = stage["embed_weight"].shape[-1]
        cdtype = np.result_type(x.dtype, stage["embed_weight"].dtype)
        x2d = x.reshape(m, batch * n, window)
        emb = space.take("att.emb", (m, batch * n, d_model), cdtype)
        proj = space.take("att.proj", (m, batch * n, 2 * n_heads * d_qk), cdtype)
        embed_weight, embed_bias = stage["embed_weight"], stage["embed_bias"]
        weight_flat, bias_flat = stage["weight_flat"], stage["bias_flat"]

        # The embedding/projection GEMMs are batched over the model axis
        # only (per-model weights), so they always chunk across models.
        def project_body(lo: int, hi: int) -> None:
            np.matmul(x2d[lo:hi], embed_weight[lo:hi], out=emb[lo:hi])
            emb[lo:hi] += embed_bias[lo:hi, None, :]
            np.matmul(emb[lo:hi], weight_flat[lo:hi], out=proj[lo:hi])
            proj[lo:hi] += bias_flat[lo:hi, None, :]

        parallel_for(project_body, m, outputs=((emb, 0), (proj, 0)))
        qk = space.take("att.qk", (m, 2 * n_heads, batch, n, d_qk), cdtype)
        proj_t = space.view("att.proj.t",
                            lambda: proj.reshape(m, batch, n, 2 * n_heads, d_qk)
                            .transpose(0, 3, 1, 2, 4))
        raw = space.take("att.raw", (m, n_heads, batch, n, n), cdtype)
        k_t = space.view("att.k.t",
                         lambda: qk[:, n_heads:].transpose(0, 1, 2, 4, 3))
        probs = space.take("att.probs", (m, n_heads, batch, n, n), np.float64)
        query = qk[:, :n_heads]
        modulation = stage["modulation"]
        # Layout copy + per-(m, h, b) score GEMMs + modulation multiply in
        # one round: the batch axis sits at index 2 of every operand, the
        # model axis at 0.  ``modulation`` is (m, h, 1, n, n): sliced along
        # the model axis, broadcast (unsliced) along the batch axis.
        axis = 0 if self._model_axis_first(m, batch) else 2

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(qk, axis, lo, hi),
                      slice_axis(proj_t, axis, lo, hi))
            np.matmul(slice_axis(query, axis, lo, hi),
                      slice_axis(k_t, axis, lo, hi),
                      out=slice_axis(raw, axis, lo, hi))
            np.multiply(slice_axis(raw, axis, lo, hi),
                        modulation[lo:hi] if axis == 0 else modulation,
                        out=slice_axis(probs, axis, lo, hi))

        parallel_for(body, raw.shape[axis],
                     outputs=((qk, axis), (raw, axis), (probs, axis)))
        self._softmax_inplace(space, probs)
        return probs

    @hot_path
    def _combine_layout(self, space: ScratchSpace, probs: np.ndarray,
                        values: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, n_heads, batch, n, _ = probs.shape
        window = values.shape[-1]
        out_dtype = np.result_type(probs.dtype, values.dtype)
        a_bihj = space.take("comb.a", (m, batch, n, n_heads, n), probs.dtype)
        probs_t = space.view("comb.probs.t",
                             lambda: probs.transpose(0, 2, 3, 1, 4))
        v_bijt = space.take("comb.v", (m, batch, n, n, window), out_dtype)
        values_t = space.view("comb.values.t",
                              lambda: values.transpose(0, 1, 3, 2, 4))
        head_outputs = space.take("comb.ho", (m, batch, n, n_heads, window),
                                  out_dtype)
        axis = 0 if self._model_axis_first(m, batch) else 1

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(a_bihj, axis, lo, hi),
                      slice_axis(probs_t, axis, lo, hi))
            np.copyto(slice_axis(v_bijt, axis, lo, hi),
                      slice_axis(values_t, axis, lo, hi))
            np.matmul(slice_axis(a_bihj, axis, lo, hi),
                      slice_axis(v_bijt, axis, lo, hi),
                      out=slice_axis(head_outputs, axis, lo, hi))

        parallel_for(body, head_outputs.shape[axis],
                     outputs=((a_bihj, axis), (v_bijt, axis),
                              (head_outputs, axis)))
        return a_bihj, v_bijt, head_outputs

    @hot_path
    def _forward(self, x: np.ndarray, stage: dict) -> np.ndarray:
        m, batch, n, window = x.shape
        space = self.arena.space(("stack.eval", x.shape, x.dtype.str))
        values, _flat = self._convolution(space, x, stage)
        probs = self._attention_probs(space, x, stage)
        _a, _v, head_outputs = self._combine_layout(space, probs, values)
        n_heads = stage["n_heads"]
        dtype = head_outputs.dtype
        at = space.take("comb.at", (m, batch, n, window, n_heads), dtype)
        ho_t = space.view("comb.ho.t",
                          lambda: head_outputs.transpose(0, 1, 2, 4, 3))
        at_axis = 0 if self._model_axis_first(m, batch) else 1

        def at_body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(at, at_axis, lo, hi),
                      slice_axis(ho_t, at_axis, lo, hi))

        parallel_for(at_body, at.shape[at_axis], outputs=((at, at_axis),))
        combined = space.take("comb.out", (m, batch * n * window, 1), dtype)
        at2d = space.view("comb.at.2d",
                          lambda: at.reshape(m, batch * n * window, n_heads))
        w_output = stage["w_output"]

        # Per-row np.dot, replicating the single engine's GEMV-dot exactly;
        # each row writes only its own ``combined[row]``, so the row loop
        # chunks across models.
        def dot_body(lo: int, hi: int) -> None:
            for row in range(lo, hi):
                np.dot(at2d[row],
                       w_output[row].reshape(n_heads, 1)
                       .astype(dtype, copy=False),
                       out=combined[row])

        parallel_for(dot_body, m, outputs=((combined, 0),))
        x2d = space.view("comb.out.2d",
                         lambda: combined.reshape(m, batch * n, window))
        d_ffn = stage["w1"].shape[-1]
        hidden = space.take("mlp.hidden", (m, batch * n, d_ffn), dtype)
        ffn = space.take("mlp.ffn", (m, batch * n, window), dtype)
        out2d = space.take("mlp.out", (m, batch * n, window), dtype)
        slope = space.take("mlp.slope", hidden.shape, dtype)
        mask = space.take("mlp.slope.mask", hidden.shape, np.bool_)
        w1, b1 = stage["w1"], stage["b1"]
        w2, b2 = stage["w2"], stage["b2"]
        w3, b3 = stage["w3"], stage["b3"]
        low = dtype.type(stage["negative_slope"])
        one = dtype.type(1.0)

        # The MLP tail's GEMMs are batched over the model axis (per-model
        # weights), so the whole tail — including the inlined
        # ``_leaky_slope`` selection, same buffers, same ops — chunks
        # across models.
        def mlp_body(lo: int, hi: int) -> None:
            np.matmul(x2d[lo:hi], w1[lo:hi], out=hidden[lo:hi])
            hidden[lo:hi] += b1[lo:hi, None, :]
            np.greater(hidden[lo:hi], 0, out=mask[lo:hi])
            slope[lo:hi].fill(low)
            np.copyto(slope[lo:hi], one, where=mask[lo:hi])
            hidden[lo:hi] *= slope[lo:hi]
            np.matmul(hidden[lo:hi], w2[lo:hi], out=ffn[lo:hi])
            ffn[lo:hi] += b2[lo:hi, None, :]
            np.matmul(ffn[lo:hi], w3[lo:hi], out=out2d[lo:hi])
            out2d[lo:hi] += b3[lo:hi, None, :]

        parallel_for(mlp_body, m,
                     outputs=((hidden, 0), (ffn, 0), (out2d, 0), (slope, 0),
                              (mask, 0)))
        return space.view("mlp.out.4d",
                          lambda: out2d.reshape(m, batch, n, window))

    # ------------------------------------------------------------------ #
    # Batch staging and evaluation
    # ------------------------------------------------------------------ #
    def _as_model_batch(self, windows_list: Sequence[np.ndarray]) -> np.ndarray:
        """Stack ``M`` window sets, replaying ``InferenceEngine._as_model_batch``
        per model (identical Tensor-construction cast chain, then one
        contiguous ``(M, B, N, T)`` arena buffer)."""
        from repro.nn import tensor as T

        default = np.dtype(T.get_default_dtype())
        dtype = self.dtype
        cast: List[np.ndarray] = []
        for windows in windows_list:
            arr = np.asarray(windows, dtype=default)
            if arr.dtype != dtype:
                arr = np.asarray(arr.astype(dtype), dtype=default)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            cast.append(arr)
        shapes = {arr.shape for arr in cast}
        if len(shapes) != 1:
            raise ValueError("stacked evaluation requires same-shape window sets")
        batch = self.arena.take("stack.batch", (len(cast),) + cast[0].shape,
                                default)
        for row, arr in enumerate(cast):
            batch[row] = arr
        return batch

    @hot_path
    def _windowed_diff(self, prediction: np.ndarray, target: np.ndarray,
                       start_slot: int = 1) -> np.ndarray:
        diff_shape = prediction.shape[:-1] + (prediction.shape[-1] - start_slot,)
        diff = self.arena.take("stack.loss.diff", diff_shape, prediction.dtype)
        np.subtract(prediction[..., start_slot:], target[..., start_slot:],
                    out=diff)
        return diff

    def forward(self, windows_list: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked fused forward; returns the ``(M, B, N, T)`` prediction view."""
        stage = self._stage()
        return self._forward(self._as_model_batch(windows_list), stage)

    def evaluate(self, windows_list: Sequence[np.ndarray],
                 batch_size: int) -> List[float]:
        """Per-model window-weighted mean losses, one stacked pass per chunk.

        Returns one float per model, each bit-identical to
        ``InferenceEngine.evaluate`` on that model's window set alone (same
        full-batch-vs-chunked branch, same chunk-weighted accumulation).
        """
        stage = self._stage()
        arrays = [np.asarray(windows) for windows in windows_list]
        if len(arrays) != len(self.models):
            raise ValueError("one window set per model required")
        shapes = {arr.shape for arr in arrays}
        if len(shapes) != 1:
            raise ValueError("stacked evaluation requires same-shape window sets")
        shape = arrays[0].shape
        m = len(self.models)
        penalties = [_loss_penalty_terms(model, self.arena, prefix=f"m{row}.")
                     for row, model in enumerate(self.models)]
        # The element budget bounds the *total* scratch footprint, and the
        # stacked buffers carry a leading model axis — so each model's share
        # is the per-model limit divided by the fleet size.  The full-batch
        # and chunked paths are bit-identical per model, so this only moves
        # the memory/speed trade-off, never the results.
        if len(shape) == 3 and shape[0] and (
                shape[0] * shape[1] ** 2 * shape[2]
                <= InferenceEngine.FULL_BATCH_ELEMENT_LIMIT // m):
            batch = self._as_model_batch(arrays)
            diff = self._windowed_diff(self._forward(batch, stage), batch)
            results: List[float] = []
            for row in range(m):
                total = 0.0
                count = 0
                for start in range(0, shape[0], batch_size):
                    chunk = diff[row, start:start + batch_size]
                    total += InferenceEngine._mse_plus_penalties(
                        chunk, penalties[row]) * len(chunk)
                    count += len(chunk)
                results.append(total / count)
            return results
        totals = [0.0] * m
        count = 0
        for start in range(0, shape[0], batch_size):
            chunk = self._as_model_batch(
                [arr[start:start + batch_size] for arr in arrays])
            diff = self._windowed_diff(self._forward(chunk, stage), chunk)
            for row in range(m):
                totals[row] += InferenceEngine._mse_plus_penalties(
                    diff[row], penalties[row]) * chunk.shape[1]
            count += chunk.shape[1]
        return [total / count if count else float("nan") for total in totals]

    def evaluate_grouped(self, window_sets: Sequence[Optional[np.ndarray]],
                         batch_size: int,
                         cache: Optional[dict] = None
                         ) -> List[Optional[float]]:
        """Per-model losses when the fleet's window sets differ in count.

        The heterogeneous stacked trainer validates lanes whose datasets
        carry different window counts (pad-and-mask bucketing).  Padding a
        model's own batch axis is off the table — the solo engine never sees
        the padded rows, and a different GEMM ``M`` dimension may pick a
        different BLAS kernel — so instead the rows are grouped by shape and
        each group runs the *existing* stacked (or solo) evaluation at its
        exact shape:

        * all rows share one shape → ``self.evaluate`` (the lockstep path,
          staged straight off this engine's views);
        * a multi-row group → a sub-fleet :class:`StackedInferenceEngine`
          over the same arena (staging copies the group's weights, the
          per-row arithmetic is the proven stacked contract);
        * a single row → a solo :class:`InferenceEngine` over the same
          arena, which *is* the reference path.

        ``None`` entries (lanes without a validation split) are skipped and
        returned as ``None``.  Every returned loss is bit-identical to
        ``InferenceEngine.evaluate`` on that model's windows alone.

        ``cache`` (optional) is a caller-owned dict that keeps the sub-fleet
        and solo engines alive across calls — validation groups are stable
        between epochs, so a trainer passes one dict per lane era and the
        engines (with their staged buffers) rebuild only when membership
        changes.  The caller must discard it whenever ``self.models``
        changes, because the cached engines hold references to the models
        by row.
        """
        m = len(self.models)
        if len(window_sets) != m:
            raise ValueError("one window set per model required")
        results: List[Optional[float]] = [None] * m
        groups: Dict[tuple, List[tuple]] = {}
        for row, windows in enumerate(window_sets):
            if windows is None:
                continue
            arr = np.asarray(windows)
            groups.setdefault(arr.shape, []).append((row, arr))
        for members in groups.values():
            rows = [row for row, _arr in members]
            arrays = [arr for _row, arr in members]
            if len(rows) == m:
                losses = self.evaluate(arrays, batch_size)
            elif len(rows) == 1:
                key = (rows[0],)
                solo = cache.get(key) if cache is not None else None
                if solo is None:
                    solo = InferenceEngine(self.models[rows[0]],
                                           arena=self.arena)
                    if cache is not None:
                        cache[key] = solo
                losses = [solo.evaluate(arrays[0], batch_size)]
            else:
                key = tuple(rows)
                sub = cache.get(key) if cache is not None else None
                if sub is None:
                    sub = StackedInferenceEngine(
                        [self.models[row] for row in rows], arena=self.arena)
                    sub.parallel_model_axis = self.parallel_model_axis
                    if cache is not None:
                        cache[key] = sub
                losses = sub.evaluate(arrays, batch_size)
            for row, loss in zip(rows, losses):
                results[row] = loss
        return results

    # ------------------------------------------------------------------ #
    # Detector support: stacked cache forward + multi-target backward
    # ------------------------------------------------------------------ #
    def interpretation_forward(self, windows_list: Sequence[np.ndarray]
                               ) -> StackedInterpretationForward:
        """One stacked cache-path forward shared by every model and target."""
        from repro.core.attention import AttentionHeadCache
        from repro.core.transformer import TransformerCache

        arena = self.arena
        stage = self._stage()
        # repro: allow(dtype-purity): ingestion cast to the f64 reference
        x = self._as_model_batch([np.asarray(w, dtype=float)
                                  for w in windows_list])
        m, batch, n, window = x.shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        space = arena.space(("stack.cache", x.shape, x.dtype.str))

        values, windows_flat = self._convolution(space, x, stage,
                                                 legacy_layout=True)
        cdtype = np.result_type(x.dtype, stage["embed_weight"].dtype)
        d_model = stage["embed_weight"].shape[-1]
        emb3d = arena.take("stack.cache.emb", (m, batch, n, d_model), cdtype)
        np.matmul(x, stage["embed_weight"][:, None], out=emb3d)
        emb3d += stage["embed_bias"][:, None, None, :]
        proj = arena.take("stack.att.proj", (m, batch * n, 2 * n_heads * d_qk),
                          cdtype)
        np.matmul(emb3d.reshape(m, batch * n, d_model), stage["weight_flat"],
                  out=proj)
        proj += stage["bias_flat"][:, None, :]
        qk = arena.take("stack.att.qk", (m, 2 * n_heads, batch, n, d_qk), cdtype)
        np.copyto(qk, proj.reshape(m, batch, n, 2 * n_heads, d_qk)
                  .transpose(0, 3, 1, 2, 4))
        q_data, k_data = qk[:, :n_heads], qk[:, n_heads:]
        raw = arena.take("stack.att.raw", (m, n_heads, batch, n, n), cdtype)
        np.matmul(q_data, k_data.transpose(0, 1, 2, 4, 3), out=raw)
        probs = arena.take("stack.att.probs", (m, n_heads, batch, n, n),
                           np.float64)
        np.multiply(raw, stage["modulation"], out=probs)
        scores = arena.take("stack.att.scores", (m, n_heads, batch, n, n),
                            np.float64)
        np.copyto(scores, probs)
        self._softmax_inplace(space, probs)

        a_bihj, v_bijt, head_outputs = self._combine_layout(space, probs,
                                                            values)
        dtype = head_outputs.dtype
        ho_hbit = arena.take("stack.cache.ho", (m, n_heads, batch, n, window),
                             dtype)
        np.copyto(ho_hbit, head_outputs.transpose(0, 3, 1, 2, 4))
        combined = arena.take("stack.cache.combined", (m, batch, n, window),
                              dtype)
        np.einsum("mhbit,mh->mbit", ho_hbit,
                  stage["w_output"].astype(dtype, copy=False), out=combined)

        d_ffn = stage["w1"].shape[-1]
        hidden = arena.take("stack.cache.hidden", (m, batch, n, d_ffn), dtype)
        np.matmul(combined, stage["w1"][:, None], out=hidden)
        hidden += stage["b1"][:, None, None, :]
        slope = _leaky_slope(space, "cache.slope", hidden,
                             stage["negative_slope"])
        activated = arena.take("stack.cache.activated", (m, batch, n, d_ffn),
                               dtype)
        np.multiply(hidden, slope, out=activated)
        ffn_output = arena.take("stack.cache.ffn", (m, batch, n, window), dtype)
        np.matmul(activated, stage["w2"][:, None], out=ffn_output)
        ffn_output += stage["b2"][:, None, None, :]
        prediction = arena.take("stack.cache.out", (m, batch, n, window), dtype)
        np.matmul(ffn_output, stage["w3"][:, None], out=prediction)
        prediction += stage["b3"][:, None, None, :]

        # repro: allow(dtype-purity): relevance propagation is f64 by spec
        x64 = np.asarray(x, dtype=float)
        padded64 = arena.take("stack.cache.pad64", (m, batch, n, 2 * window),
                              np.float64)
        padded64[..., window:] = x64
        view64 = np.lib.stride_tricks.sliding_window_view(
            padded64, window, axis=-1)[..., 1:, :]         # (M, B, N, T, K)
        values_pre = arena.take("stack.cache.values_pre",
                                (m, batch, n, n, window),
                                np.result_type(np.float64, x.dtype))
        np.einsum("mbitk,mijk->mbijt", view64, stage["kernel_eff"],
                  out=values_pre)
        values_pre *= stage["scale_array"]

        caches: List[TransformerCache] = []
        for row in range(m):
            head_caches = [
                AttentionHeadCache(
                    attention=None, head_output=None,
                    attention_data=probs[row, index],
                    head_output_data=ho_hbit[row, index],
                    scores_data=scores[row, index],
                )
                for index in range(n_heads)
            ]
            caches.append(TransformerCache(
                inputs=x[row],
                embedding=emb3d[row],
                values_pre_shift=values_pre[row],
                values=values[row],
                conv_windows=view64[row],
                head_caches=head_caches,
                attention_combined=combined[row],
                ffn_hidden=hidden[row],
                ffn_activated=activated[row],
                ffn_output=ffn_output[row],
                output=prediction[row],
                values_tensor=None,
            ))
        return StackedInterpretationForward(
            caches=caches, inputs=x, output=prediction, values=values,
            values_pre=values_pre, conv_windows=view64,
            attention_probs=probs, head_outputs=ho_hbit, combined=combined,
            hidden=hidden, activated=activated, ffn_output=ffn_output,
            slope=slope, a_bihj=a_bihj, v_bijt=v_bijt,
            windows_flat=windows_flat, extras={"stage": stage},
        )

    def interpretation_gradients(self, forward: StackedInterpretationForward
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``Σ_t prediction[:, i, :]`` for every target series
        ``i`` at once, each on its own row.

        Returns ``(attention_grads, kernel_grads)`` of shapes
        ``(M, h, B, N, N)`` and ``(M, N, N, K)`` (``(M, 1, N, K)`` for the
        single-kernel ablation): attention row ``[:, i, :]`` of every head
        and kernel column ``[:, i, :]`` hold target ``i``'s gradient.  Every
        layer above the attention application acts series by series, so one
        backward seeded with ones on every output row carries each target's
        gradient in its own row.  Hand-evaluates the exact backward of the
        cache-path graph with the same per-slice GEMMs as one autograd
        ``backward()`` per target on model ``m``, so every row read is
        bit-identical to it.
        """
        stage = forward.extras["stage"]
        m, batch, n, window = forward.output.shape
        diag = np.arange(n)

        grad_pred = np.ones(forward.output.shape, dtype=forward.output.dtype)
        grad_ffn = grad_pred @ stage["w3"].transpose(0, 2, 1)[:, None]
        grad_hidden = grad_ffn @ stage["w2"].transpose(0, 2, 1)[:, None]
        grad_hidden *= forward.slope
        grad_combined = grad_hidden \
            @ stage["w1"].transpose(0, 2, 1)[:, None]          # (M,B,N,T)

        grad_biht = np.einsum("mbit,mh->mbiht", grad_combined,
                              stage["w_output"])
        grad_a = grad_biht @ forward.v_bijt.transpose(0, 1, 2, 4, 3)
        attention_grads = grad_a.transpose(0, 3, 1, 2, 4)      # (M,h,B,i,j)
        grad_v = forward.a_bihj.transpose(0, 1, 2, 4, 3) @ grad_biht
        grad_v = grad_v.astype(forward.values.dtype, copy=False)  # (M,B,i,j,t)

        grad_v[:, :, diag, diag, :-1] = grad_v[:, :, diag, diag, 1:]
        grad_v[:, :, diag, diag, -1] = 0.0
        grad_v = grad_v * stage["scale_array"]
        flat = np.ascontiguousarray(grad_v.transpose(0, 3, 2, 1, 4)) \
            .reshape(m, n, n, batch * window)
        kernel_grads = flat @ forward.windows_flat             # (M,j,i,K)
        kernel_dtype = self.models[0].convolution.kernel.data.dtype
        if kernel_grads.dtype != kernel_dtype:
            kernel_grads = np.asarray(kernel_grads, dtype=kernel_dtype)
        if self.models[0].convolution.single_kernel:
            kernel_grads = kernel_grads.sum(axis=1, keepdims=True)
        return attention_grads, kernel_grads
