"""Unit tests for the telemetry core: tracer, metrics, exporters, progress.

The golden-file check pins the on-disk JSONL schema: any change to the
record shape must bump ``TRACE_SCHEMA_VERSION`` *and* update
``golden_trace_schema.json`` deliberately, in the same commit.
"""

import doctest
import io
import json
from pathlib import Path

import pytest

import repro
from repro.core.supervisor import RecoveryLog
from repro.obs import (
    NULL,
    MetricsRegistry,
    NullTracer,
    ProgressReporter,
    Tracer,
    chrome_trace,
    current,
    load_trace,
    render_report,
    summarize_trace,
    tracing,
    write_trace,
    zeroed_metrics,
    zeroed_recovery,
)
from repro.obs.export import normalized_events
from repro.obs.metrics import METRIC_COUNTERS, METRIC_GAUGES, METRIC_HISTOGRAMS
from repro.obs.trace import TRACE_SCHEMA_VERSION

GOLDEN = Path(__file__).parent / "golden_trace_schema.json"


class TestTracer:
    def test_span_records_complete_event(self):
        tr = Tracer()
        with tr.span("work", cat="test", layer=3):
            pass
        (ev,) = tr.raw_events()
        assert ev["ph"] == "X"
        assert ev["name"] == "work"
        assert ev["cat"] == "test"
        assert ev["t1"] >= ev["t0"]
        assert ev["args"] == {"layer": 3}

    def test_instant_and_counter(self):
        tr = Tracer()
        tr.instant("tick", cat="test", n=1)
        tr.counter("gauge", 7.5)
        phases = [ev["ph"] for ev in tr.raw_events()]
        assert phases == ["i", "C"]
        assert tr.raw_events()[1]["args"] == {"value": 7.5}

    def test_complete_merges_extra_args(self):
        tr = Tracer()
        tr.complete("s", "test", 1.0, 2.0, args={"a": 1}, b=2)
        assert tr.raw_events()[0]["args"] == {"a": 1, "b": 2}

    def test_cap_counts_drops(self):
        tr = Tracer(max_events=2)
        for _ in range(5):
            tr.instant("e")
        assert len(tr) == 2
        assert tr.dropped == 3

    def test_ingest_respects_cap(self):
        src = Tracer()
        for _ in range(4):
            src.instant("e")
        dst = Tracer(max_events=3)
        accepted = dst.ingest(src.raw_events())
        assert accepted == 3
        assert dst.dropped == 1
        assert dst.ingest([]) == 0

    def test_null_tracer_is_inert(self):
        assert not NULL.collecting
        with NULL.span("x"):
            pass
        NULL.instant("x")
        NULL.complete("x", "c", 0.0, 1.0)
        assert NULL.raw_events() == []
        assert len(NULL) == 0
        assert isinstance(NULL, NullTracer)

    def test_ambient_activation_restores(self):
        assert current() is NULL
        tr = Tracer()
        with tracing(tr):
            assert current() is tr
            with tracing(None):
                assert current() is NULL
            assert current() is tr
        assert current() is NULL


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.inc("c")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 2.0)
        reg.observe("h", 4.0)
        d = reg.as_dict()
        assert d["c"] == 3
        assert d["g"] == 1.5
        assert d["h"]["count"] == 2
        assert d["h"]["min"] == 2.0
        assert d["h"]["max"] == 4.0
        assert d["h"]["mean"] == 3.0

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError):
            reg.observe("x", 1.0)

    def test_as_dict_includes_all_standard_keys_zeroed(self):
        d = MetricsRegistry().as_dict()
        for name in METRIC_COUNTERS:
            assert d[name] == 0, name
        for name in METRIC_GAUGES:
            assert d[name] == 0.0, name
        for name in METRIC_HISTOGRAMS:
            assert d[name]["count"] == 0, name

    def test_zeroed_recovery_matches_recovery_log_shape(self):
        # The single-process stub must stay field-for-field in sync with
        # what the supervised engine actually reports.
        stub = zeroed_recovery()
        live = RecoveryLog().as_dict()
        assert set(stub) == set(live)
        assert stub == live

    def test_zeroed_metrics_covers_registry(self):
        assert set(zeroed_metrics()) == set(MetricsRegistry().as_dict())


def _sample_tracer() -> Tracer:
    tr = Tracer()
    tr.complete("layer", "layer", tr.epoch + 0.001, tr.epoch + 0.002,
                layer=1, masks=4, shards=1, mode="parent")
    tr.complete("shard", "shard", tr.epoch + 0.001, tr.epoch + 0.0015,
                layer=1, shard=0, attempt=0, masks=4)
    tr.complete("store.commit", "store", tr.epoch + 0.002, tr.epoch + 0.003,
                layer=1, bytes=64)
    tr.instant("fault.slow", cat="fault", layer=1)
    tr.instant("retry", cat="recovery", layer=1)
    tr.counter("rss", 12.0)
    return tr


class TestExport:
    def test_jsonl_golden_schema(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        assert golden["schema"] == TRACE_SCHEMA_VERSION, (
            "schema version changed: update golden_trace_schema.json "
            "in the same commit"
        )
        path = tmp_path / "t.jsonl"
        write_trace(path, _sample_tracer())
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        meta, events = lines[0], lines[1:]
        assert meta["type"] == "meta"
        assert sorted(meta) == sorted(golden["meta_keys"])
        assert meta["schema"] == golden["schema"]
        assert meta["clock"] == golden["clock"]
        assert meta["unit"] == golden["unit"]
        assert events, "sample trace exported no events"
        for ev in events:
            assert sorted(ev) == sorted(golden["event_keys"])
            assert ev["ph"] in golden["phases"]
            assert isinstance(ev["ts"], int)
            assert ev["dur"] is None or isinstance(ev["dur"], int)

    def test_chrome_trace_shape(self):
        doc = chrome_trace(_sample_tracer(), meta={"solver": "dp"})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["solver"] == "dp"
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert "dur" in ev
            if ev["ph"] == "i":
                assert ev["s"] == "p"

    def test_load_roundtrip_both_formats(self, tmp_path):
        tr = _sample_tracer()
        jl, ch = tmp_path / "t.jsonl", tmp_path / "t.json"
        write_trace(jl, tr, meta={"k": 3})
        write_trace(ch, tr, meta={"k": 3})
        meta_j, ev_j = load_trace(jl)
        meta_c, ev_c = load_trace(ch)
        assert meta_j["k"] == meta_c["k"] == 3
        assert ev_j == ev_c == normalized_events(tr)

    def test_events_sorted_by_start(self):
        tr = Tracer()
        tr.complete("b", "x", tr.epoch + 0.2, tr.epoch + 0.3)
        tr.complete("a", "x", tr.epoch + 0.1, tr.epoch + 0.4)
        ts = [e["ts"] for e in normalized_events(tr)]
        assert ts == sorted(ts)

    def test_summarize_and_render(self, tmp_path):
        _, events = (lambda p: (write_trace(p, _sample_tracer()), load_trace(p))[1])(
            tmp_path / "t.jsonl"
        )
        s = summarize_trace(events)
        (row,) = s["layers"]
        assert row["layer"] == 1
        assert row["masks"] == 4
        assert row["shard_spans"] == 1
        assert row["commit_bytes"] == 64
        assert row["faults"] == 1
        assert row["recovery"] == 1
        text = render_report(s)
        assert "layer" in text and "commit_MB" in text
        assert "total:" in text

    def test_barrier_idle_is_wall_past_the_longest_shard(self):
        def span(name, cat, ts, dur, pid, **args):
            return {"type": "event", "ph": "X", "name": name, "cat": cat,
                    "ts": ts, "dur": dur, "pid": pid, "tid": 1, "args": args}

        events = [
            span("layer", "layer", 0, 10_000, 1, layer=3, masks=20, shards=2,
                 mode="pool"),
            span("shard", "shard", 500, 7_000, 2, layer=3, shard=0),
            span("parent-slice", "shard", 200, 4_000, 1, layer=3, masks=10),
            # A shard outlasting its layer span (clock skew) floors at 0.
            span("layer", "layer", 10_000, 1_000, 1, layer=4, masks=6, shards=2,
                 mode="pool"),
            span("shard", "shard", 10_000, 1_500, 2, layer=4, shard=0),
            # No shard spans: a single-process layer has no barrier.
            span("layer", "layer", 11_000, 2_000, 1, layer=5, mode="numpy"),
        ]
        rows = {r["layer"]: r for r in summarize_trace(events)["layers"]}
        assert rows[3]["shard_max_us"] == 7_000
        assert rows[3]["barrier_idle_us"] == 3_000
        assert rows[3]["workers"] == 2
        assert rows[4]["barrier_idle_us"] == 0
        assert rows[5]["barrier_idle_us"] == 0
        text = render_report(summarize_trace(events))
        assert "idle_ms" in text.splitlines()[0]
        assert "3.00" in text.splitlines()[2]

    def test_render_report_empty_trace(self):
        text = render_report(summarize_trace([]))
        assert "total: 0 events" in text


class TestProgress:
    def test_reports_and_finishes(self):
        buf = io.StringIO()
        rep = ProgressReporter(stream=buf)
        rep.begin(total_layers=4, total_masks=16)
        rep.layer_done(2, 8, spilled_bytes=2 << 20)
        rep.finish()
        text = buf.getvalue()
        assert "layer 2/4" in text
        assert "50.0%" in text
        assert "2 MB" in text
        assert text.endswith("\n")

    def test_broken_stream_never_raises(self):
        class Broken:
            def write(self, s):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        rep = ProgressReporter(stream=Broken())
        rep.begin(2, 4)
        rep.layer_done(1, 2)
        rep.finish()  # must not raise

    def test_silent_before_begin(self):
        buf = io.StringIO()
        rep = ProgressReporter(stream=buf)
        rep.finish()
        assert buf.getvalue() == ""


def test_package_docstring_examples():
    results = doctest.testmod(repro)
    assert results.failed == 0
    assert results.attempted >= 3
