"""Cost-unit-denominated spans nesting into per-transaction stage trees.

A span covers one pipeline stage of one unit of work::

    with tracer.span("speculate", tx=tx.hash) as sp:
        with tracer.span("pre_execute", cost=target_cost):
            ...
        sp.add_cost(synthesis_cost)

Spans carry *logical cost units* (:mod:`repro.core.costmodel`), never
wall-clock — that is what makes two runs of the same workload produce
identical traces.  Finished spans are appended to ``tracer.events`` in
completion order (deterministic) with start-ordered ids, so the nesting
can be reconstructed (``parent`` references) and exported as JSONL.

:class:`NullTracer` is a drop-in no-op used when the observability
layer is disabled; pipeline results are identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.registry import MetricsRegistry

Number = float  # int | float


class Span:
    """One in-flight (or finished) stage span."""

    __slots__ = ("span_id", "parent_id", "name", "depth", "cost", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 depth: int, cost: Number, attrs: dict) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.cost = cost
        self.attrs = attrs

    def add_cost(self, amount: Number) -> None:
        """Charge ``amount`` cost units to this span."""
        self.cost += amount

    def set(self, **attrs) -> None:
        """Attach (deterministic) attributes to this span."""
        self.attrs.update(attrs)

    def to_event(self) -> dict:
        event = {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "cost": self.cost,
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event


class SpanTracer:
    """Collects spans; optionally aggregates them into a registry.

    When a registry is given, every finished span feeds
    ``span.<name>.count`` and ``span.<name>.cost`` counters, so the
    metrics snapshot carries the stage breakdown even without the full
    trace.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        #: Finished spans, in completion order.
        self.events: List[dict] = []
        self._stack: List[Span] = []
        self._next_id = 1

    @property
    def enabled(self) -> bool:
        return True

    @contextmanager
    def span(self, name: str, cost: Number = 0, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            depth=len(self._stack),
            cost=cost,
            attrs=attrs,
        )
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            self.events.append(record.to_event())
            if self.registry is not None:
                self.registry.counter(f"span.{name}.count").inc()
                self.registry.counter(f"span.{name}.cost").inc(record.cost)

    # -- read side -------------------------------------------------------

    def stage_totals(self) -> Dict[str, dict]:
        """name -> {count, cost} aggregated over all finished spans."""
        totals: Dict[str, dict] = {}
        for event in self.events:
            entry = totals.setdefault(
                event["name"], {"count": 0, "cost": 0})
            entry["count"] += 1
            entry["cost"] += event["cost"]
        return {name: totals[name] for name in sorted(totals)}


class _NullSpan:
    """Inert span: absorbs add_cost/set calls."""

    __slots__ = ()

    def add_cost(self, amount: Number) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: same interface, records nothing."""

    registry = None
    events: List[dict] = []

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, cost: Number = 0, **attrs):
        yield _NULL_SPAN

    def stage_totals(self) -> Dict[str, dict]:
        return {}
