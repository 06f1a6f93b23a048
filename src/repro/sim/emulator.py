"""Emulator: faithful replay of a recorded dataset into evaluation nodes.

Mirrors the paper's emulator (§5.4): "takes a period of recorded traffic
and a copy of the local blockchain database, resets the state to where
the traffic starts, and replays the traffic faithfully, making sure the
relative arrival timings of the transactions and blocks are accurately
respected".

One replay drives a :class:`BaselineNode` and a :class:`ForerunnerNode`
over the identical stream; per-transaction records are joined by hash
into :class:`EvaluationRun`, from which every evaluation table/figure
is computed (:mod:`repro.bench`).

Every replay gets its own :class:`~repro.obs.registry.MetricsRegistry`
and span tracer, so instrument names are stable run-to-run and two
replays of the same dataset produce byte-identical deterministic
snapshots and trace files.  Wall-clock readings (the only
machine-dependent quantity) are quarantined into gauges flagged
``nondeterministic`` — excluded from snapshots and exports by default —
and surface only through the ``wall_seconds_*`` convenience properties.
"""

from __future__ import annotations

import gc as _gc
import heapq
import time as _time
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Dict, List, Optional, Tuple

from repro.core.node import (
    BaselineNode,
    BlockReport,
    ForerunnerConfig,
    ForerunnerNode,
    TxRecord,
)
from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NullTracer, SpanTracer
from repro.sim.recorder import Dataset


@dataclass
class JoinedRecord:
    """Baseline + Forerunner execution of the same transaction."""

    tx_hash: int
    block_number: int
    kind: str
    baseline_cost: int
    forerunner_cost: int
    gas_used: int
    heard: bool
    heard_delay: float
    outcome: str
    ap_ready: bool
    perfect: bool
    first_context_perfect: bool
    speculated_contexts: int
    shortcut_hits: int = 0
    executed_nodes: int = 0
    skipped_nodes: int = 0
    baseline_cpu: int = 0
    baseline_io_units: int = 0
    baseline_io_reads: int = 0

    @property
    def speedup(self) -> float:
        if self.forerunner_cost <= 0:
            return 1.0
        return self.baseline_cost / self.forerunner_cost


def join_record(base: TxRecord, record: TxRecord,
                kinds: Dict[int, str]) -> JoinedRecord:
    """Join the baseline and accelerated records of one transaction."""
    return JoinedRecord(
        tx_hash=record.tx_hash,
        block_number=record.block_number,
        kind=kinds.get(record.tx_hash, "?"),
        baseline_cost=base.cost,
        forerunner_cost=record.cost,
        baseline_cpu=base.cpu_units,
        baseline_io_units=base.io_units,
        baseline_io_reads=base.io_reads,
        gas_used=record.gas_used,
        heard=record.heard,
        heard_delay=record.heard_delay,
        outcome=record.outcome,
        ap_ready=record.ap_ready,
        perfect=record.perfect,
        first_context_perfect=record.first_context_perfect,
        speculated_contexts=record.speculated_contexts,
        shortcut_hits=record.shortcut_hits,
        executed_nodes=record.executed_nodes,
        skipped_nodes=record.skipped_nodes,
    )


#: Event priorities at equal times: gossip < speculation ticks < blocks
#: < requests, so a request arriving exactly at a block boundary sees
#: the committed state.
PRIO_TX, PRIO_TICK, PRIO_BLOCK, PRIO_REQUEST = 0, 1, 2, 3


class Timeline:
    """The merged event heap every driver loop pops: ``(time, priority,
    insertion order)`` keyed, so same-seed runs replay identically."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, str, object]] = []
        self._counter = 0

    def push(self, at: float, priority: int, kind: str,
             payload: object) -> None:
        heapq.heappush(self._heap,
                       (at, priority, self._counter, kind, payload))
        self._counter += 1

    def pop(self) -> Tuple[float, str, object]:
        at, _, _, kind, payload = heapq.heappop(self._heap)
        return at, kind, payload

    def __bool__(self) -> bool:
        return bool(self._heap)


def build_timeline(dataset: Dataset, observer: str, tick: float,
                   requests=()) -> Timeline:
    """``dataset``'s replay timeline as ``observer`` saw it — ``"tx"``
    gossip arrivals, ``"tick"`` speculation ticks every ``tick``
    seconds, ``"block"`` arrivals — merged with the client schedule:
    one ``"request"`` event per entry of ``requests``, payload
    ``(request, attempt, deadline)`` with attempt 1 and no deadline
    yet.  Ticks run up to the last block or the last request,
    whichever is later (a send storm may outlast the dataset)."""
    timeline = Timeline()
    for arrival, tx in dataset.tx_arrivals.get(observer, []):
        timeline.push(arrival, PRIO_TX, "tx", tx)
    horizon = max([dataset.blocks[-1][0] if dataset.blocks else 0.0]
                  + [request.at for request in requests])
    at = tick
    while at < horizon:
        timeline.push(at, PRIO_TICK, "tick", None)
        at += tick
    for arrival, block in dataset.blocks:
        timeline.push(arrival, PRIO_BLOCK, "block", block)
    for request in requests:
        timeline.push(request.at, PRIO_REQUEST, "request",
                      (request, 1, None))
    return timeline


@dataclass
class EvaluationRun:
    """Everything measured during one replay."""

    dataset_name: str
    observer: str
    records: List[JoinedRecord] = field(default_factory=list)
    roots_matched: int = 0
    blocks_executed: int = 0
    speculation_jobs: int = 0
    total_speculation_cost: int = 0
    prefetch_offpath_cost: int = 0
    #: Scheduler payload (``ForerunnerNode.sched_report()``): executor
    #: aggregates, admission counters, per-block schedules.
    sched: dict = field(default_factory=dict)
    forerunner_node: Optional[ForerunnerNode] = None
    #: Per-replay metrics registry (fresh per run: names are stable).
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per-replay span tracer (``NullTracer`` when obs is disabled).
    tracer: object = None
    #: The active :class:`repro.faults.injector.FaultInjector` when the
    #: replay ran under a fault plan, else ``None``.
    fault_injector: object = None

    # Wall clock is quarantined in nondeterministic gauges: it never
    # reaches deterministic snapshots, traces, or report tables.
    @property
    def wall_seconds_baseline(self) -> float:
        return float(self.registry.gauge(
            "wall.baseline_seconds", nondeterministic=True).value)

    @property
    def wall_seconds_forerunner(self) -> float:
        return float(self.registry.gauge(
            "wall.forerunner_seconds", nondeterministic=True).value)

    def metrics(self, include_nondeterministic: bool = False) -> dict:
        """Deterministic metrics snapshot of this replay."""
        return self.registry.snapshot(include_nondeterministic)

    def heard_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.heard for r in self.records) / len(self.records)

    def heard_fraction_weighted(self) -> float:
        total = sum(r.baseline_cost for r in self.records)
        if not total:
            return 0.0
        heard = sum(r.baseline_cost for r in self.records if r.heard)
        return heard / total


def replay(dataset: Dataset, observer: str = "live",
           config: Optional[ForerunnerConfig] = None,
           speculation_tick: float = 2.0,
           fault_plan=None,
           lanes: Optional[int] = None) -> EvaluationRun:
    """Replay ``dataset`` through baseline + Forerunner nodes.

    ``fault_plan`` (a :class:`repro.faults.injector.FaultPlan`) runs
    the Forerunner node under deterministic chaos; gossip-delivery
    faults (drop / duplicate / reorder) are applied here, at the event
    loop, where the message timeline lives.

    ``lanes`` overrides ``config.sched.lanes`` (parallel execution
    lanes for block processing); any value commits byte-identical
    state — only the ``run.sched`` critical-path metrics change.
    """
    if observer not in dataset.tx_arrivals:
        raise SimulationError(
            f"dataset {dataset.name!r} has no observer {observer!r} "
            f"(has {sorted(dataset.tx_arrivals)})")

    config = config or ForerunnerConfig()
    if fault_plan is not None:
        config = _dc_replace(config, fault_plan=fault_plan)
    if lanes is not None:
        config = _dc_replace(
            config, sched=_dc_replace(config.sched, lanes=lanes))
    registry = MetricsRegistry()
    tracer = SpanTracer(registry) if config.enable_obs else NullTracer()
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=registry)
    forerunner = ForerunnerNode(dataset.genesis_world.copy(), config,
                                registry=registry, tracer=tracer)
    forerunner.predictor.observe_block(dataset.genesis_block)
    g_wall_base = registry.gauge("wall.baseline_seconds",
                                 nondeterministic=True)
    g_wall_fore = registry.gauge("wall.forerunner_seconds",
                                 nondeterministic=True)

    timeline = build_timeline(dataset, observer, speculation_tick)

    run = EvaluationRun(dataset_name=dataset.name, observer=observer,
                        registry=registry, tracer=tracer)
    injector = forerunner.fault_injector
    run.fault_injector = injector if injector.enabled else None
    kinds = dataset.kinds
    baseline_records: Dict[int, TxRecord] = {}

    while timeline:
        now, kind, payload = timeline.pop()
        if kind == "tx" or kind == "tx-redelivery":
            if kind == "tx" and injector.enabled:
                rule = injector.evaluate("gossip.deliver",
                                         tx=payload.hash)
                if rule is not None:
                    if rule.kind == "duplicate":
                        # Deliver twice; the pool's dedup absorbs it.
                        forerunner.on_transaction(payload, now)
                    elif rule.kind == "reorder":
                        # Redelivered events are never re-evaluated, so
                        # a 100% reorder rate still terminates.
                        timeline.push(now + rule.reorder_seconds(),
                                      PRIO_TX, "tx-redelivery", payload)
                        continue
                    else:
                        # drop (and any raise-kind rule): the observer
                        # never hears this transaction.
                        continue
            forerunner.on_transaction(payload, now)
        elif kind == "tick":
            run.speculation_jobs += forerunner.run_speculation(now)
        else:
            # One last speculation chance before the block executes
            # (the paper's window spans up to the execution moment).
            run.speculation_jobs += forerunner.run_speculation(now)
            # Drain the speculation phase's garbage before timing: a
            # gen-2 collection triggered by speculation allocations
            # would otherwise land inside whichever node's window
            # allocates next (observed as multi-ms spikes on the
            # Forerunner side, which always runs second).
            _gc.collect()
            started = _time.perf_counter()
            base_report: BlockReport = baseline.process_block(payload)
            mid = _time.perf_counter()
            with tracer.span("block", number=payload.number) as span:
                fore_report = forerunner.process_block(payload, now)
                span.add_cost(sum(r.cost for r in fore_report.records))
            ended = _time.perf_counter()
            g_wall_base.add(mid - started)
            g_wall_fore.add(ended - mid)
            run.blocks_executed += 1
            if base_report.state_root == fore_report.state_root:
                run.roots_matched += 1
            else:  # pragma: no cover - correctness violation
                raise SimulationError(
                    f"root divergence at block {payload.number}")
            for record in base_report.records:
                baseline_records[record.tx_hash] = record
            for record in fore_report.records:
                base = baseline_records.get(record.tx_hash)
                if base is None:
                    continue
                run.records.append(join_record(base, record, kinds))

    # Size of the world's incremental-root memo (hashes kept): bounded
    # by the state, reported so a growth would show.
    registry.gauge("state.root_memo_nodes").set(
        forerunner.world.root_memo_nodes())
    run.total_speculation_cost = forerunner.speculator.total_speculation_cost
    run.prefetch_offpath_cost = forerunner.prefetcher.offpath_cost
    run.sched = forerunner.sched_report()
    run.forerunner_node = forerunner
    return run
