"""The layer table and the span tracer behind the benchmark's traced run.

Every per-layer metric comes from :data:`LAYERS`.  Each entry names one
public function of a ``repro`` module, the span it is timed under, and the
end-to-end metric and workload a change to that layer should move.  The
tracer times a layer from outside the program: :func:`traced` swaps each
function for a wrapper that records an in-memory span (name, start, end,
parent span, op id) around the original call, and puts the original back on
exit.  Nothing under ``src/`` is edited.

A function is looked up where its callers find it at call time: methods on
their class, module functions on their module (the executor and the batched
scheduler import theirs inside the calling function, and the benchmark
itself calls ``build_dataset`` and ``fingerprint_dataset`` through their
modules).

Per-layer metrics are per timed op: ``<span>_s`` is the seconds spent inside
the layer's spans, ``*_calls`` a call count.  The fused engines' per-op
times (``engine.op.*_s``) come from the engines' own profiling seam, read
through ``repro.telemetry.capture(engine_profiling=True)``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Layer:
    """One timed public function."""

    span: str  #: span name, and the prefix of the layer's metric names
    module: str  #: module that owns the function
    target: str  #: ``function`` or ``Class.method`` inside ``module``
    moves: str  #: the end-to-end metric and workload it should move
    calls: bool = False  #: also report ``<span>_calls``
    #: reads extra span attributes from ``(args, result)`` after the call
    note: Optional[Callable[[Sequence[Any], Any], Dict[str, Any]]] = None


def _cache_hit(_args, payload) -> Dict[str, Any]:
    return {"hit": payload is not None}


def _epochs(_args, history) -> Dict[str, Any]:
    return {"epochs": history.n_epochs}


def _padding(args, _history) -> Dict[str, Any]:
    return {"padded_window_fraction": args[0].padded_window_fraction}


LAYERS = (
    Layer("data.build", "repro.service.registry", "build_dataset",
          "op_p50_s, jobs_per_s on discover_lorenz96 and sweep_lorenz96_warm",
          calls=True),
    Layer("jobs.fingerprint", "repro.service.jobs", "fingerprint_dataset",
          "op_p50_s on sweep_lorenz96_warm"),
    Layer("cache.get", "repro.service.cache", "ResultCache.get",
          "op_p50_s on sweep_lorenz96_warm (hit_ratio, gets_per_job too)",
          note=_cache_hit),
    Layer("cache.put", "repro.service.cache", "ResultCache.put",
          "jobs_per_s on sweep_synthetic_cold", calls=True),
    Layer("executor.run", "repro.service.executor", "JobExecutor.run",
          "op_p50_s on every workload"),
    Layer("batched.execute", "repro.service.batched", "execute_batched_jobs",
          "jobs_per_s on sweep_synthetic_cold"),
    Layer("stacked.fit", "repro.core.batched",
          "StackedCausalFormerTrainer.fit",
          "jobs_per_s on sweep_synthetic_cold", note=_padding),
    Layer("training.fit", "repro.core.training", "Trainer.fit",
          "op_p50_s on discover_lorenz96", note=_epochs),
    # Once solo fits run as the stacked engine at K=1, discover_lorenz96's
    # step time moves to engine.stacked_train_step_s; its jobs_per_s must
    # not drop.
    Layer("engine.train_step", "repro.nn.training_engine",
          "TrainingEngine.train_step", "op_p50_s on discover_lorenz96",
          calls=True),
    Layer("engine.evaluate", "repro.nn.inference", "InferenceEngine.evaluate",
          "op_p50_s on discover_lorenz96"),
    Layer("optim.adam_step", "repro.nn.optim", "Adam.step_flat",
          "op_p50_s on discover_lorenz96"),
    Layer("engine.stacked_train_step", "repro.nn.training_engine",
          "StackedTrainingEngine.train_step",
          "jobs_per_s on sweep_synthetic_cold", calls=True),
    Layer("engine.evaluate_grouped", "repro.nn.inference",
          "StackedInferenceEngine.evaluate_grouped",
          "jobs_per_s on sweep_synthetic_cold"),
    Layer("optim.stacked_adam_step", "repro.nn.optim", "StackedAdam.step_rows",
          "jobs_per_s on sweep_synthetic_cold"),
    Layer("detector.compute_scores", "repro.core.detector",
          "DecompositionCausalityDetector.compute_scores",
          "op_p50_s on discover_lorenz96"),
    Layer("detector.compute_scores_group", "repro.core.detector",
          "compute_scores_group", "jobs_per_s on sweep_synthetic_cold"),
    Layer("graph.evaluate", "repro.graph.metrics", "evaluate_discovery",
          "negligible on every workload"),
)

#: the fused engines' profiled building blocks; solo and stacked share the
#: names, so they move discover_lorenz96 and sweep_synthetic_cold alike
ENGINE_OPS = ("causal_windows", "convolution", "attention_probs",
              "combine_layout", "backward")

#: per-layer metric name -> unit, in the order the traced run reports them
LAYER_METRICS: Dict[str, str] = {}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer.span}_s"] = "s/op"
    if _layer.calls:
        LAYER_METRICS[f"{_layer.span}_calls"] = "calls/op"
LAYER_METRICS.update({
    "executor.self_s": "s/op",
    "cache.hit_ratio": "ratio",
    "cache.gets_per_job": "gets/job",
    "batched.groups": "groups/op",
    "stacked.padded_window_fraction": "ratio",
    "training.epochs": "epochs/op",
})
for _op in ENGINE_OPS:
    LAYER_METRICS[f"engine.op.{_op}_s"] = "s/op"
LAYER_METRICS["trace.overhead_frac"] = "ratio"


class SpanRecorder:
    """In-memory spans of the traced ops; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        #: id of the op in progress, stamped on every span it opens
        self.op: Optional[int] = None

    def begin(self, name: str) -> Dict[str, Any]:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else None,
                "op": self.op}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()


def _owner(layer: Layer):
    """The module or class whose attribute is replaced, and the attribute."""
    owner = importlib.import_module(layer.module)
    *path, attr = layer.target.split(".")
    for name in path:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        # An inherited or re-exported name would be wrapped where no caller
        # looks it up, and the layer would silently read zero.
        raise LookupError(f"{layer.module}.{layer.target} is not defined there")
    return owner, attr


def _wrap(function, layer: Layer, recorder: SpanRecorder):
    def wrapper(*args, **kwargs):
        span = recorder.begin(layer.span)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(span)
        if layer.note is not None:
            span.update(layer.note(args, result))
        return result

    wrapper.__wrapped__ = function
    return wrapper


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer of :data:`LAYERS` for the duration of the block."""
    replaced = []
    try:
        for layer in LAYERS:
            owner, attr = _owner(layer)
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(original, layer, recorder))
            replaced.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


def engine_op_seconds(telemetry) -> Dict[str, float]:
    """Total seconds per profiled engine op recorded by a capture runtime."""
    histograms = telemetry.metrics.snapshot()["histograms"]
    return {op: histograms.get(f"engine.{op}_seconds", {}).get("total", 0.0)
            for op in ENGINE_OPS}


def layer_metrics(spans: Sequence[Dict[str, Any]], n_ops: int, n_jobs: int,
                  engine_seconds: Dict[str, float],
                  overhead_frac: float) -> Dict[str, float]:
    """Per-op layer metrics from the traced ops' spans.

    A layer's time is the summed duration of its spans.  ``executor.self_s``
    is ``JobExecutor.run`` time minus the time of the spans opened directly
    inside it (cache, batched scheduler, training, scoring).
    """
    busy = {layer.span: 0.0 for layer in LAYERS}
    calls = {layer.span: 0 for layer in LAYERS}
    child_time: Dict[int, float] = {}
    hits = epochs = 0
    padding: List[float] = []
    for span in spans:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration
        hits += span.get("hit", False)
        epochs += span.get("epochs", 0)
        if "padded_window_fraction" in span:
            padding.append(span["padded_window_fraction"])
    executor_self = sum(span["end"] - span["start"] - child_time.get(index, 0.0)
                        for index, span in enumerate(spans)
                        if span["name"] == "executor.run")

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer.span}_s"] = busy[layer.span] / n_ops
        if layer.calls:
            metrics[f"{layer.span}_calls"] = calls[layer.span] / n_ops
    gets = calls["cache.get"]
    metrics.update({
        "executor.self_s": executor_self / n_ops,
        "cache.hit_ratio": hits / gets if gets else 0.0,
        "cache.gets_per_job": gets / n_jobs,
        "batched.groups": calls["batched.execute"] / n_ops,
        "stacked.padded_window_fraction": (sum(padding) / len(padding)
                                           if padding else 0.0),
        "training.epochs": epochs / n_ops,
    })
    for op in ENGINE_OPS:
        metrics[f"engine.op.{op}_s"] = engine_seconds[op] / n_ops
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
