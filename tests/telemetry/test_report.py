"""Trace reporting: loading, span-tree rendering, summaries."""

import json

from repro.telemetry.report import (cache_summary, event_summary, load_trace,
                                    metrics_summary, render_report,
                                    render_span_tree, render_trace,
                                    training_summary)
from repro.telemetry.runtime import Telemetry


def span(name, span_id, parent_id=None, time=0.0, duration=0.1, attrs=None):
    return {"kind": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "time": time, "duration": duration,
            "status": "ok", "attrs": attrs or {}}


def event(name, span_id=None, **attrs):
    return {"kind": "event", "name": name, "span_id": span_id,
            "time": 0.0, "attrs": attrs}


class TestLoadTrace:
    def test_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "event", "name": "ok"}\n'
                        "not json\n"
                        "\n"
                        "[1, 2]\n"
                        '{"kind": "span", "name": "s"}\n')
        records = load_trace(str(path))
        assert [record["name"] for record in records] == ["ok", "s"]


class TestRenderSpanTree:
    def test_nested_rendering_with_attrs(self):
        roots = [dict(span("job", "a", attrs={"job_id": "j1"}),
                      children=[dict(span("train", "b", "a"), children=[])])]
        lines = render_span_tree(roots)
        assert lines[0].startswith("job job_id=j1")
        assert lines[1].startswith("  train")

    def test_bursts_of_siblings_collapse(self):
        children = [dict(span("epoch", f"e{i}", "r", time=float(i),
                              duration=0.5), children=[])
                    for i in range(10)]
        roots = [dict(span("fit", "r", duration=5.0), children=children)]
        lines = render_span_tree(roots)
        assert len(lines) == 2
        assert "epoch ×10" in lines[1]
        assert "total 5.00 s" in lines[1]
        assert "mean 500.0 ms" in lines[1]

    def test_few_siblings_stay_expanded(self):
        children = [dict(span("epoch", f"e{i}", "r"), children=[])
                    for i in range(3)]
        roots = [dict(span("fit", "r"), children=children)]
        assert len(render_span_tree(roots)) == 4


class TestSummaries:
    def test_training_summary_groups_by_job_and_model(self):
        records = [
            span("job", "j", attrs={"job_id": "abc123"}),
            event("train_epoch", span_id="j", epoch=0, loss=1.0,
                  validation_loss=0.9),
            event("train_epoch", span_id="j", epoch=1, loss=0.5,
                  validation_loss=0.4),
            event("early_stop", span_id="j"),
        ]
        lines = training_summary(records)
        assert len(lines) == 1
        assert lines[0].startswith("abc123: 2 epochs, final loss 0.5")
        assert "best val 0.4" in lines[0]
        assert "[early_stop]" in lines[0]

    def test_cache_summary(self):
        metrics = {"counters": {"cache.hits": 3, "cache.misses": 1}}
        assert cache_summary(metrics) == "hits 3, misses 1 (75% hit rate)"
        assert cache_summary({"counters": {}}) is None

    def test_metrics_summary_lines(self):
        metrics = {
            "counters": {"jobs": 4},
            "gauges": {"depth": 2},
            "histograms": {"lat": {"count": 2, "total": 0.2,
                                   "min": 0.05, "max": 0.15}},
        }
        lines = metrics_summary(metrics)
        assert "counter   jobs = 4" in lines
        assert "gauge     depth = 2" in lines
        assert any(line.startswith("histogram lat: count 2, mean 100.0 ms")
                   for line in lines)

    def test_event_summary_skips_train_epoch(self):
        records = [event("train_epoch"), event("pool_fallback"),
                   event("pool_fallback")]
        assert event_summary(records) == ["pool_fallback ×2"]


class TestEndToEnd:
    def test_render_trace_from_a_real_runtime(self, tmp_path):
        from repro.telemetry.events import JsonlSink

        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sinks=[JsonlSink(str(path))])
        with telemetry.trace("job", job_id="deadbeef"):
            telemetry.event("train_epoch", epoch=0, loss=0.25, model=0)
            telemetry.counter("cache.hits").inc()
            telemetry.counter("cache.misses").inc()
        telemetry.close()

        text = render_trace(str(path))
        assert text.startswith(f"telemetry report: {path}")
        assert "== span tree ==" in text
        assert "job job_id=deadbeef" in text
        assert "== training ==" in text
        assert "deadbeef model=0: 1 epochs" in text
        assert "== cache ==" in text
        assert "hits 1, misses 1 (50% hit rate)" in text
        assert "== metrics ==" in text

    def test_render_report_from_the_in_process_buffer(self):
        telemetry = Telemetry()
        with telemetry.trace("job", job_id="cafe"):
            telemetry.event("train_epoch", epoch=0, loss=0.5, model=0)
            telemetry.event("train_epoch", epoch=1, loss=0.25, model=0)

        text = render_report(telemetry.records())
        assert text.startswith("telemetry report\n3 records (1 spans, 2 events)")
        assert "job job_id=cafe" in text
        assert "cafe model=0: 2 epochs" in text

    def test_render_report_on_empty_records(self):
        text = render_report([])
        assert "0 records" in text
        assert "span tree" not in text
