"""Render a human-readable run summary from a JSONL telemetry trace.

``python -m repro report trace.jsonl`` loads the records a
:class:`~repro.telemetry.events.JsonlSink` wrote and renders:

* the span tree with wall times (repeated same-name siblings collapsed into
  one ``×N`` line with total/mean, so a 100-epoch fit stays readable),
* a training section — per-epoch losses grouped by the job each training
  run belongs to, with best/final/early-stop status,
* cache hit/miss counts,
* the top counters, gauges and histogram summaries from the final metrics
  snapshot.

``render_report`` takes the records themselves, so an in-process caller
can render what a :class:`~repro.telemetry.events.RingBufferSink` captured
without writing a file first.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.tracing import build_span_tree

#: collapse same-name sibling spans into one line above this count
COLLAPSE_THRESHOLD = 3


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace; malformed lines are skipped, not fatal."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _format_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000.0:.1f} ms"


def _span_label(node: Dict[str, Any]) -> str:
    attrs = node.get("attrs") or {}
    label = str(node.get("name"))
    for key in ("job_id", "method", "dataset", "payload", "subcommand"):
        if key in attrs:
            label += f" {key}={attrs[key]}"
    if node.get("status") == "error":
        label += " [error]"
    return label


def render_span_tree(roots: List[Dict[str, Any]], indent: str = "  ",
                     max_depth: int = 12) -> List[str]:
    """Indented tree lines; bursts of same-name siblings collapse to ×N."""
    lines: List[str] = []

    def walk(nodes: List[Dict[str, Any]], depth: int) -> None:
        if depth >= max_depth:
            return
        groups: List[Tuple[str, List[Dict[str, Any]]]] = []
        for node in nodes:
            name = str(node.get("name"))
            if groups and groups[-1][0] == name:
                groups[-1][1].append(node)
            else:
                groups.append((name, [node]))
        for name, members in groups:
            if len(members) > COLLAPSE_THRESHOLD:
                durations = [m.get("duration") or 0.0 for m in members]
                total = sum(durations)
                lines.append(
                    f"{indent * depth}{name} ×{len(members)} "
                    f"(total {_format_ms(total)}, "
                    f"mean {_format_ms(total / len(members))})")
                merged: List[Dict[str, Any]] = []
                for member in members:
                    merged.extend(member.get("children") or ())
                walk(merged, depth + 1)
            else:
                for member in members:
                    lines.append(
                        f"{indent * depth}{_span_label(member)} "
                        f"({_format_ms(member.get('duration'))})")
                    walk(member.get("children") or [], depth + 1)

    walk(roots, 0)
    return lines


def _job_of_span(span_id: Optional[str],
                 spans_by_id: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """Walk ancestors to the enclosing ``job``/``job_group`` span's label."""
    seen = set()
    while span_id and span_id not in seen:
        seen.add(span_id)
        span = spans_by_id.get(span_id)
        if span is None:
            return None
        if span.get("name") in ("job", "job_group"):
            attrs = span.get("attrs") or {}
            return str(attrs.get("job_id") or attrs.get("jobs")
                       or span["span_id"])
        span_id = span.get("parent_id")
    return None


def training_summary(records: List[Dict[str, Any]]) -> List[str]:
    """Per-run loss trajectories from ``train_epoch`` events."""
    spans_by_id = {record["span_id"]: record for record in records
                   if record.get("kind") == "span" and "span_id" in record}
    runs: Dict[Tuple[Optional[str], Any], List[Dict[str, Any]]] = {}
    extras: Dict[Tuple[Optional[str], Any], List[str]] = {}
    for record in records:
        if record.get("kind") != "event":
            continue
        attrs = record.get("attrs") or {}
        job = _job_of_span(record.get("span_id"), spans_by_id)
        key = (job, attrs.get("model"))
        if record.get("name") == "train_epoch":
            runs.setdefault(key, []).append(attrs)
        elif record.get("name") in ("early_stop", "train_diverged"):
            extras.setdefault(key, []).append(str(record["name"]))
    lines: List[str] = []
    for key in runs:
        epochs = runs[key]
        job, model = key
        label = job or "training run"
        if model is not None:
            label += f" model={model}"
        last = epochs[-1]
        best = min((e.get("validation_loss") for e in epochs
                    if e.get("validation_loss") is not None),
                   default=None)
        line = (f"{label}: {len(epochs)} epochs, "
                f"final loss {last.get('loss', float('nan')):.5g}")
        if last.get("validation_loss") is not None:
            line += f", val {last['validation_loss']:.5g}"
        if best is not None:
            line += f", best val {best:.5g}"
        flags = extras.get(key)
        if flags:
            line += f" [{', '.join(sorted(set(flags)))}]"
        lines.append(line)
    return lines


def _last_metrics(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    for record in records:
        if record.get("kind") == "metrics":
            metrics = record.get("metrics") or {}
    return metrics


def cache_summary(metrics: Dict[str, Any]) -> Optional[str]:
    counters = metrics.get("counters") or {}
    hits = counters.get("cache.hits")
    misses = counters.get("cache.misses")
    if hits is None and misses is None:
        return None
    hits = hits or 0
    misses = misses or 0
    total = hits + misses
    rate = f" ({hits / total:.0%} hit rate)" if total else ""
    return f"hits {hits:g}, misses {misses:g}{rate}"


def metrics_summary(metrics: Dict[str, Any], top: int = 12) -> List[str]:
    lines: List[str] = []
    counters = sorted((metrics.get("counters") or {}).items(),
                      key=lambda item: -item[1])
    for name, value in counters[:top]:
        lines.append(f"counter   {name} = {value:g}")
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        lines.append(f"gauge     {name} = {value:g}")
    for name, payload in sorted((metrics.get("histograms") or {}).items()):
        count = payload.get("count", 0)
        if not count:
            continue
        mean = payload.get("total", 0.0) / count
        lines.append(
            f"histogram {name}: count {count}, mean {_format_ms(mean)}, "
            f"min {_format_ms(payload.get('min'))}, "
            f"max {_format_ms(payload.get('max'))}")
    return lines


def event_summary(records: List[Dict[str, Any]],
                  skip: Tuple[str, ...] = ("train_epoch",)) -> List[str]:
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "event" and record.get("name") not in skip:
            name = str(record.get("name"))
            counts[name] = counts.get(name, 0) + 1
    return [f"{name} ×{count}"
            for name, count in sorted(counts.items(), key=lambda i: -i[1])]


def render_report(records: List[Dict[str, Any]],
                  title: str = "telemetry report") -> str:
    """The full ``python -m repro report`` rendering."""
    sections: List[str] = [title]
    n_spans = sum(1 for r in records if r.get("kind") == "span")
    n_events = sum(1 for r in records if r.get("kind") == "event")
    sections.append(f"{len(records)} records "
                    f"({n_spans} spans, {n_events} events)")

    roots = build_span_tree(records)
    if roots:
        sections.append("\n== span tree ==")
        sections.extend(render_span_tree(roots))

    training = training_summary(records)
    if training:
        sections.append("\n== training ==")
        sections.extend(training)

    metrics = _last_metrics(records)
    cache = cache_summary(metrics)
    if cache:
        sections.append("\n== cache ==")
        sections.append(cache)

    lines = metrics_summary(metrics)
    if lines:
        sections.append("\n== metrics ==")
        sections.extend(lines)

    events = event_summary(records)
    if events:
        sections.append("\n== events ==")
        sections.extend(events)

    return "\n".join(sections)


def render_trace(path: str) -> str:
    return render_report(load_trace(path), title=f"telemetry report: {path}")
