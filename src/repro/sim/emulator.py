"""Emulator: faithful replay of a recorded dataset, and the one event
loop every driver in ``src/`` runs on.

Mirrors the paper's emulator (§5.4): "takes a period of recorded traffic
and a copy of the local blockchain database, resets the state to where
the traffic starts, and replays the traffic faithfully, making sure the
relative arrival timings of the transactions and blocks are accurately
respected".

:func:`drive` is that loop, and the only one: :func:`replay`,
:func:`repro.fleet.serve.fleet_replay`, the two serving drivers and
:class:`repro.recovery.replay.DurableReplay` each build a *system* (a
node or a fleet), for serving a *front*, and say what a block commit
means — the evaluating ones pass :func:`evaluation_step`, which joins
baseline and Forerunner records by hash into :class:`EvaluationRun`,
from which every evaluation table/figure is computed
(:mod:`repro.bench`).  docs/PIPELINE.md ("Drivers") is the prose.

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
from repro.faults.injector import NULL_INJECTOR
from repro.faults.sites import SITE_STORM
from repro.obs.export import canonical_json
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


def commitments(reports) -> list:
    """What a run committed: per-block state roots plus each
    transaction's receipt core.  The byte-identity anchor of every
    equivalence check — speculative vs baseline, faulted vs clean,
    fleet vs node, recovered vs uninterrupted."""
    return [
        {"block": report.block_number,
         "root": report.state_root,
         "receipts": [(record.tx_hash, record.gas_used, record.success)
                      for record in report.records]}
        for report in reports]


#: Event priorities at equal times: gossip < speculation ticks < blocks
#: < requests, so a request arriving exactly at a block boundary sees
#: the committed state.
PRIO_TX, PRIO_TICK, PRIO_BLOCK, PRIO_REQUEST = 0, 1, 2, 3

#: Copies an ``edge.request_storm`` fault delivers beyond the original.
STORM_COPIES = 4


class Timeline:
    """The merged event heap :func:`drive` pops: ``(time, priority,
    insertion order)`` keyed, so same-seed runs replay identically."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, str, object]] = []
        self._counter = 0
        #: Simulated time of the event popped last.
        self.now = 0.0
        #: Events consumed so far.  The order is deterministic, so this
        #: count is a complete resumption point (recovery snapshots
        #: store it as their cursor).
        self.popped = 0

    def push(self, at: float, priority: int, kind: str,
             payload: object) -> None:
        heapq.heappush(self._heap,
                       (at, priority, self._counter, kind, payload))
        self._counter += 1

    def pop(self) -> Tuple[float, str, object]:
        at, _, _, kind, payload = heapq.heappop(self._heap)
        self.now = at
        self.popped += 1
        return at, kind, payload

    def skip(self, events: int) -> None:
        """Discard the next ``events`` events undispatched: a resumed
        run had already consumed that many before it died."""
        for _ in range(events):
            heapq.heappop(self._heap)
        self.popped += events

    def __bool__(self) -> bool:
        return bool(self._heap)


def build_timeline(dataset: Dataset, observer: str, requests=(),
                   tick: float = 2.0) -> Timeline:
    """``dataset``'s replay timeline as ``observer`` saw it — ``"tx"``
    gossip arrivals, ``"tick"`` speculation ticks every ``tick``
    seconds, ``"block"`` arrivals — merged with the client schedule:
    one ``"request"`` event per entry of ``requests``, payload
    ``(request, attempt, deadline)`` with attempt 1 and no deadline
    yet.  Ticks run up to the last block or the last request,
    whichever is later (a send storm may outlast the dataset)."""
    if observer not in dataset.tx_arrivals:
        raise SimulationError(
            f"dataset {dataset.name!r} has no observer {observer!r} "
            f"(has {sorted(dataset.tx_arrivals)})")
    timeline = Timeline()
    for arrival, tx in dataset.tx_arrivals[observer]:
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


def drive(timeline: Timeline, system, run, commit=None, front=None,
          injector=NULL_INJECTOR) -> None:
    """The event loop: pop ``timeline`` to exhaustion, driving ``system``
    — anything answering ``on_transaction / tick / run_speculation /
    process_block / close`` (``ForerunnerNode``, ``FleetSupervisor``).

    * ``"tx"`` — ``system.on_transaction``, unless the ``gossip.deliver``
      chaos site drops, duplicates or reorders the delivery;
    * ``"tick"`` — ``system.tick`` (lifecycle), then a speculation cycle;
    * ``"block"`` — one last speculation cycle (the paper's window
      spans up to the execution moment), then ``commit(block, now) ->
      BlockReport``: by default just ``system.process_block``; the
      evaluating drivers pass :func:`evaluation_step`.  A ``front``
      (``dispatch`` + ``on_block`` + ``close``: ``EdgeServer``,
      ``FleetRouter``) is refreshed with the report;
    * ``"request"`` — ``front.dispatch`` one frame.  The clients' side
      of the protocol lives here: a retryable rejection re-fires later
      *with the original deadline* if ``run.retry_budget`` allows; the
      ``edge.request_storm`` site amplifies a first arrival into copies
      at the same instant (pure interference: a copy neither resolves
      the request nor earns retries); every handled frame is one
      canonical-JSON line of ``run.trace_lines``.

    ``run`` (:class:`EvaluationRun`, or a ``ServingResult`` when there
    is a ``front``) accumulates what the loop observes; ``injector``
    evaluates the two loop-level chaos sites.  System and front are
    closed however the loop ends: a divergence leaks no open journal.
    """
    # Local: ``repro.edge`` imports this module.
    from repro.edge import rpc
    from repro.edge.limits import Deadline

    commit = commit or system.process_block

    def handle(now: float, request, attempt: int, deadline,
               copy: bool = False) -> None:
        if deadline is None:
            deadline = Deadline.from_budget(
                now, request.deadline_units, front.config.service_rate)
        response, outcome, route = front.dispatch(
            request.raw, request.client_id, now,
            weight=request.weight, deadline=deadline, attempt=attempt)
        run.routes.append(route)
        run.trace_lines.append(canonical_json({
            "t": round(now, 6), "id": request.req_id,
            "client": request.client_id, "attempt": attempt,
            "copy": copy, "replica": route.replica, "hops": route.hops,
            "outcome": outcome.as_dict(), "response": response}))
        if copy:
            return
        run.final_status[(request.client_id, request.req_id)] = \
            outcome.status
        if outcome.status == "served":
            run.served_latencies.append(outcome.latency_units)
            if attempt == 1:
                run.retry_budget.on_success()
        elif rpc.is_retryable(outcome.code):
            retry_at = run.retry_budget.next_retry(
                request.client_id, attempt, now, deadline)
            if retry_at is not None:
                run.retries_scheduled += 1
                timeline.push(retry_at, PRIO_REQUEST, "request",
                              (request, attempt + 1, deadline))

    try:
        while timeline:
            now, kind, payload = timeline.pop()
            if kind == "tx" or kind == "tx-redelivery":
                rule = (injector.evaluate("gossip.deliver",
                                          tx=payload.hash)
                        if kind == "tx" else None)
                if rule is not None:
                    if rule.kind == "duplicate":
                        # Deliver twice; the pool's dedup absorbs it.
                        system.on_transaction(payload, now)
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
                system.on_transaction(payload, now)
            elif kind == "tick":
                system.tick(now)
                run.speculation_jobs += system.run_speculation(now)
            elif kind == "block":
                run.speculation_jobs += system.run_speculation(now)
                report = commit(payload, now)
                if front is not None:
                    front.on_block(payload, report)
            else:
                request, attempt, deadline = payload
                if attempt == 1 and injector.evaluate(
                        SITE_STORM, client=request.client_id) is not None:
                    for _ in range(STORM_COPIES):
                        run.storm_copies += 1
                        handle(now, request, attempt, None, copy=True)
                handle(now, request, attempt, deadline)
    finally:
        system.close()
        if front is not None:
            front.close()


@dataclass
class EvaluationRun:
    """Everything measured during one replay, of a node or a fleet."""

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
    #: What was replayed into: the node, or (``fleet_replay``) the
    #: fleet's :class:`~repro.fleet.supervisor.FleetSupervisor`.
    forerunner_node: Optional[ForerunnerNode] = None
    supervisor: object = None
    #: Per-replay metrics registry (fresh per run: names are stable).
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per-replay span tracer (``NullTracer`` when obs is disabled).
    tracer: object = field(default_factory=NullTracer)
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

    @property
    def reports(self) -> List[BlockReport]:
        """The committed block reports (merged ones, for a fleet)."""
        return (self.supervisor or self.forerunner_node).reports

    def commitments(self) -> list:
        return commitments(self.reports)

    def heard_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.heard for r in self.records) / len(self.records)


def evaluation_step(run: EvaluationRun, baseline: BaselineNode, system,
                    kinds: Dict[int, str]):
    """The evaluating commit step, ``commit(block, now)`` for
    :func:`drive`: run the block through ``baseline`` (the speedup
    denominator and the root oracle) and through ``system``, require
    equal state roots, and join the two sides' per-transaction records
    into ``run.records``."""
    g_wall_base = run.registry.gauge("wall.baseline_seconds",
                                     nondeterministic=True)
    g_wall_fore = run.registry.gauge("wall.forerunner_seconds",
                                     nondeterministic=True)

    def commit(block, now: float) -> BlockReport:
        # Drain the speculation phase's garbage before timing: a
        # gen-2 collection triggered by speculation allocations
        # would otherwise land inside whichever node's window
        # allocates next (observed as multi-ms spikes on the
        # Forerunner side, which always runs second).
        _gc.collect()
        started = _time.perf_counter()
        base_report = baseline.process_block(block)
        mid = _time.perf_counter()
        with run.tracer.span("block", number=block.number) as span:
            report = system.process_block(block, now)
            span.add_cost(sum(r.cost for r in report.records))
        ended = _time.perf_counter()
        g_wall_base.add(mid - started)
        g_wall_fore.add(ended - mid)
        run.blocks_executed += 1
        if base_report.state_root != report.state_root:
            raise SimulationError(
                f"root divergence at block {block.number}")
        run.roots_matched += 1
        base_records: Dict[int, TxRecord] = {
            record.tx_hash: record for record in base_report.records}
        for record in report.records:
            run.records.append(join_record(
                base_records[record.tx_hash], record, kinds))
        return report

    return commit


def replay(dataset: Dataset, observer: str = "live",
           config: Optional[ForerunnerConfig] = None,
           fault_plan=None,
           lanes: Optional[int] = None) -> EvaluationRun:
    """Replay ``dataset`` through baseline + Forerunner nodes.

    ``fault_plan`` (a :class:`repro.faults.injector.FaultPlan`) runs
    the Forerunner node under deterministic chaos; gossip-delivery
    faults (drop / duplicate / reorder) are applied at the event loop,
    where the message timeline lives.

    ``lanes`` overrides ``config.lanes`` (parallel execution lanes for
    block processing); any value commits byte-identical state — only
    the ``run.sched`` critical-path metrics change.
    """
    timeline = build_timeline(dataset, observer)
    config = config or ForerunnerConfig()
    if fault_plan is not None:
        config = _dc_replace(config, fault_plan=fault_plan)
    if lanes is not None:
        config = _dc_replace(config, lanes=lanes)
    registry = MetricsRegistry()
    tracer = SpanTracer(registry) if config.enable_obs else NullTracer()
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=registry)
    forerunner = ForerunnerNode(dataset.genesis_world.copy(), config,
                                registry=registry, tracer=tracer)
    forerunner.predictor.observe_block(dataset.genesis_block)
    injector = forerunner.fault_injector
    run = EvaluationRun(dataset_name=dataset.name, observer=observer,
                        forerunner_node=forerunner, registry=registry,
                        tracer=tracer,
                        fault_injector=injector if injector.enabled
                        else None)
    drive(timeline, forerunner, run,
          commit=evaluation_step(run, baseline, forerunner,
                                 dataset.kinds),
          injector=injector)
    # Size of the world's incremental-root memo (hashes kept): bounded
    # by the state, reported so a growth would show.
    registry.gauge("state.root_memo_nodes").set(
        forerunner.world.root_memo_nodes())
    run.total_speculation_cost = forerunner.speculator.c_actual_cost.value
    run.prefetch_offpath_cost = forerunner.prefetcher.c_offpath_cost.value
    run.sched = forerunner.sched_report()
    return run
