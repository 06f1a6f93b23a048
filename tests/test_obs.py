"""Unit tests for the deterministic observability layer (repro.obs)."""

import io
import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SpanTracer,
    canonical_json,
    export_jsonl,
    get_registry,
    reset_registry,
    set_registry,
    trace_lines,
)


# -- instruments --------------------------------------------------------------

class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_set_add(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.add(-2)
        assert gauge.value == 5
        assert not gauge.nondeterministic

    def test_histogram_buckets(self):
        hist = Histogram("h", bounds=(0, 10, 100))
        for value in (0, 5, 10, 50, 1000):
            hist.observe(value)
        # counts per bound: <=0, <=10, <=100, overflow
        assert hist.counts == [1, 2, 1, 1]
        assert hist.sum == 1065
        assert hist.count == 5

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10, 0))


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_scope_uniquified(self):
        registry = MetricsRegistry()
        first = registry.scope("speculator")
        second = registry.scope("speculator")
        assert first.prefix == "speculator"
        assert second.prefix == "speculator#2"
        first.counter("x").inc()
        second.counter("x").inc(2)
        assert registry.value("speculator.x") == 1
        assert registry.value("speculator#2.x") == 2

    def test_snapshot_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)

    def test_nondeterministic_gauges_quarantined(self):
        registry = MetricsRegistry()
        registry.gauge("wall.seconds", nondeterministic=True).set(1.23)
        registry.counter("work").inc()
        assert "wall.seconds" not in registry.snapshot()
        assert "wall.seconds" in registry.snapshot(
            include_nondeterministic=True)
        # ...and never in an exported trace either.
        lines = trace_lines(registry=registry)
        assert "wall.seconds" not in "\n".join(lines)

    def test_default_registry_swap(self):
        original = get_registry()
        try:
            fresh = MetricsRegistry()
            assert set_registry(fresh) is original
            assert get_registry() is fresh
            reset_registry()
            assert get_registry() is not fresh
        finally:
            set_registry(original)

    def test_render_lists_values(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.histogram("h", bounds=(1,)).observe(1)
        text = registry.render()
        assert "a: 3" in text
        assert "h: count=1 sum=1" in text


# -- spans --------------------------------------------------------------------

class TestSpans:
    def test_nesting_and_completion_order(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", cost=10):
                pass
            outer.add_cost(5)
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]
        inner, outer = tracer.events
        assert inner["parent"] == outer["span"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["cost"] == 5 and inner["cost"] == 10

    def test_attrs_recorded(self):
        tracer = SpanTracer()
        with tracer.span("stage", tx="0x1") as span:
            span.set(outcome="merged")
        assert tracer.events[0]["attrs"] == {
            "tx": "0x1", "outcome": "merged"}

    def test_registry_aggregation(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry)
        with tracer.span("synthesize", cost=100):
            pass
        with tracer.span("synthesize", cost=50):
            pass
        assert registry.value("span.synthesize.count") == 2
        assert registry.value("span.synthesize.cost") == 150

    def test_stage_totals_and_tree(self):
        tracer = SpanTracer()
        with tracer.span("speculate"):
            with tracer.span("pre_execute", cost=7):
                pass
            with tracer.span("merge", cost=3):
                pass
        totals = tracer.stage_totals()
        assert totals["pre_execute"] == {"count": 1, "cost": 7}
        (root,) = [e for e in tracer.events if e["name"] == "speculate"]
        assert root["parent"] is None
        assert [e["name"] for e in tracer.events
                if e["parent"] == root["span"]] == ["pre_execute", "merge"]

    def test_span_survives_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.events[0]["name"] == "boom"
        # The stack unwound: the next span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.events[1]["parent"] is None

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", cost=1) as span:
            span.add_cost(5)
            span.set(a=1)
        assert tracer.events == []
        assert not tracer.enabled
        assert tracer.stage_totals() == {}


# -- exporter -----------------------------------------------------------------

class TestExporter:
    def test_canonical_json_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_escaping_keeps_one_line(self):
        """Newlines, unicode, and control characters must never break
        the one-record-per-line invariant, and must round-trip."""
        nasty = {"text": 'a\nb\t"c"\x00\x1b', "emoji": "é☃"}
        line = canonical_json(nasty)
        assert "\n" not in line
        assert line == line.encode("ascii").decode("ascii")
        assert json.loads(line) == nasty

    def test_coercion_of_exotic_values(self):
        line = canonical_json({
            "raw": b"\x01\x02",
            "keys": {("slot", 3)},
            "pair": (1, 2),
        })
        decoded = json.loads(line)
        assert decoded["raw"] == "0102"
        assert decoded["pair"] == [1, 2]

    def test_trace_lines_layout(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry)
        with tracer.span("stage", cost=9):
            pass
        lines = trace_lines(tracer, registry, meta={"dataset": "L1"})
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == 1
        assert records[0]["dataset"] == "L1"
        assert records[1]["type"] == "span"
        assert records[-1]["type"] == "metrics"
        assert records[-1]["metrics"]["span.stage.cost"]["value"] == 9

    def test_export_jsonl_to_buffer_and_path(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        buffer = io.StringIO()
        count = export_jsonl(buffer, registry=registry)
        assert count == 2
        path = tmp_path / "trace.jsonl"
        export_jsonl(str(path), registry=registry)
        assert path.read_text() == buffer.getvalue()
        assert buffer.getvalue().endswith("\n")
