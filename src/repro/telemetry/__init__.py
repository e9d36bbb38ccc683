"""Observability for the discovery service and the training engines.

Three cooperating pieces:

* **Metrics** — :class:`MetricsRegistry` with counters, gauges and
  fixed-bucket histograms (:mod:`repro.telemetry.metrics`).
* **Tracing** — nested wall-time spans forming a per-run span tree
  (:mod:`repro.telemetry.tracing`).
* **Events** — a structured record bus with pluggable sinks: in-memory ring
  buffer, JSONL file, human-readable stderr
  (:mod:`repro.telemetry.events`).

The process-wide runtime (:mod:`repro.telemetry.runtime`) is a cheap no-op
until :func:`configure` installs a real one, so instrumentation in the hot
training paths costs one attribute check when observability is off.
Telemetry collected inside pool workers ships back to the parent attached
to the job result (``export``/``absorb``).  ``python -m repro report``
renders a JSONL trace via :mod:`repro.telemetry.report`.

Typical use::

    from repro import telemetry

    telemetry.configure("jsonl:trace.jsonl")
    with telemetry.trace("train_epoch", epoch=3):
        ...
    telemetry.event("early_stop", epoch=7)
    telemetry.get_telemetry().counter("cache.hits").inc()
"""

from repro.telemetry.events import (JsonlSink, RingBufferSink, Sink,
                                    StderrSink, format_record)
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.report import load_trace, render_report, render_trace
from repro.telemetry.runtime import (NULL_TELEMETRY, NullTelemetry,
                                     Telemetry, capture, configure,
                                     get_telemetry, install, install_null,
                                     reset, telemetry_from_spec,
                                     verbose_telemetry)
from repro.telemetry.tracing import Span, Tracer, build_span_tree


def trace(name: str, **attrs):
    """Span context manager on the active runtime (no-op when disabled)."""
    return get_telemetry().trace(name, **attrs)


def event(name: str, **attrs) -> None:
    """Emit a structured event on the active runtime (no-op when disabled)."""
    get_telemetry().event(name, **attrs)


__all__ = [
    "Counter", "Gauge", "Histogram", "JsonlSink", "MetricsRegistry",
    "NULL_TELEMETRY", "NullTelemetry", "RingBufferSink", "Sink", "Span",
    "StderrSink", "Telemetry", "Tracer", "build_span_tree", "capture",
    "configure", "event", "format_record", "get_telemetry", "install",
    "install_null", "load_trace", "render_report", "render_trace", "reset",
    "telemetry_from_spec", "trace", "verbose_telemetry",
]
