"""The serving loop: one node, one edge, one request schedule.

Merges the dataset's replay timeline (transaction gossip, speculation
ticks, block arrivals — the same event-heap discipline as
:func:`repro.sim.emulator.replay`) with the client schedule from
:mod:`repro.edge.clients` and drives everything through one
:class:`~repro.edge.server.EdgeServer` in deterministic time order.

Retries are scheduled here (the clients' side of the protocol): a
retryable rejection consults the shared :class:`~repro.edge.limits.
RetryBudget` and re-fires later *with the original deadline*.  The
``edge.request_storm`` chaos site amplifies an arrival into duplicate
frames at the same instant.

The run's byte-stable artifact is the serving trace: one canonical
JSON line per handled frame (request identity, outcome accounting, and
the full response).  Two runs of the same seed produce byte-identical
traces at every load level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.node import ForerunnerConfig, ForerunnerNode
from repro.edge import rpc
from repro.edge.faults import SITE_STORM, STORM_COPIES
from repro.edge.journal import AcceptedTxLog
from repro.edge.limits import Deadline, RetryBudget, RetryConfig
from repro.edge.server import EdgeConfig, EdgeServer
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.sim.emulator import PRIO_REQUEST, build_timeline


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    dataset_name: str
    offered: int = 0
    good: int = 0
    storm_copies: int = 0
    retries_scheduled: int = 0
    trace_lines: List[str] = field(default_factory=list)
    served_latencies: List[int] = field(default_factory=list)
    final_status: Dict[Tuple[int, str], str] = field(default_factory=dict)
    server: Optional[EdgeServer] = None
    node: Optional[ForerunnerNode] = None
    retry_budget: Optional[RetryBudget] = None
    injector: object = NULL_INJECTOR

    @property
    def goodput(self) -> float:
        return self.good / self.offered if self.offered else 1.0

    def state_roots(self) -> List[int]:
        return [report.state_root for report in self.node.reports]

    def commitments(self) -> list:
        """The plain-semantics commitments (the containment anchor):
        per-block state roots plus each transaction's receipt core."""
        return [
            {"block": report.block_number,
             "root": report.state_root,
             "receipts": [(record.tx_hash, record.gas_used,
                           record.success)
                          for record in report.records]}
            for report in self.node.reports]


def run_serving(dataset, scenario,
                edge_config: Optional[EdgeConfig] = None,
                node_config: Optional[ForerunnerConfig] = None,
                fault_plan=None,
                retry_config: Optional[RetryConfig] = None,
                retry_seed: int = 0,
                observer: str = "live",
                speculation_tick: float = 2.0,
                accepted_log_path: Optional[str] = None,
                registry: Optional[MetricsRegistry] = None
                ) -> ServingResult:
    """Serve ``scenario`` against a node replaying ``dataset``.

    ``fault_plan`` is an *edge* fault plan
    (:func:`repro.edge.faults.edge_fault_plan`); the node itself runs
    clean — edge chaos must never reach node commitments, and the
    containment tests compare exactly that.
    """
    registry = registry or MetricsRegistry()
    node = ForerunnerNode(dataset.genesis_world.copy(),
                          node_config or ForerunnerConfig(),
                          registry=registry)
    node.predictor.observe_block(dataset.genesis_block)
    injector = (FaultInjector(fault_plan, registry=registry)
                if fault_plan is not None else NULL_INJECTOR)
    accepted_log = (AcceptedTxLog(accepted_log_path, obs=registry)
                    if accepted_log_path else None)
    server = EdgeServer(node, edge_config or EdgeConfig(),
                        registry=registry, injector=injector,
                        accepted_log=accepted_log)
    retry_budget = RetryBudget(retry_config, seed=retry_seed)
    result = ServingResult(dataset_name=dataset.name, server=server,
                           node=node, retry_budget=retry_budget,
                           injector=injector)

    timeline = build_timeline(dataset, observer, speculation_tick,
                              scenario)
    result.offered = len(scenario)

    def handle(now: float, request, attempt: int,
               deadline: Optional[Deadline], count: bool = True) -> None:
        if deadline is None:
            deadline = Deadline.from_budget(
                now, request.deadline_units, server.config.service_rate)
        response, outcome = server.handle_raw(
            request.raw, request.client_id, now,
            weight=request.weight, deadline=deadline, attempt=attempt)
        result.trace_lines.append(canonical_json({
            "t": round(now, 6), "id": request.req_id,
            "client": request.client_id, "attempt": attempt,
            "copy": not count,
            "outcome": outcome.as_dict(), "response": response}))
        if not count:
            # A storm copy: pure interference — it neither resolves the
            # original request nor earns its own retries.
            return
        key = (request.client_id, request.req_id)
        result.final_status[key] = outcome.status
        if outcome.status == "served":
            result.served_latencies.append(outcome.latency_units)
            if attempt == 1:
                retry_budget.on_success()
            return
        if rpc.is_retryable(outcome.code):
            retry_at = retry_budget.next_retry(
                request.client_id, attempt, now, deadline)
            if retry_at is not None:
                result.retries_scheduled += 1
                timeline.push(retry_at, PRIO_REQUEST, "request",
                              (request, attempt + 1, deadline))

    while timeline:
        now, kind, payload = timeline.pop()
        if kind == "tx":
            node.on_transaction(payload, now)
        elif kind == "tick":
            node.run_speculation(now)
        elif kind == "block":
            node.run_speculation(now)
            report = node.process_block(payload, now)
            server.on_block(payload, report)
        else:
            request, attempt, deadline = payload
            # Chaos: a request storm amplifies a first arrival into
            # duplicate frames at the same instant (clients count each
            # original once; the copies are pure interference).
            if attempt == 1 and injector.evaluate(
                    SITE_STORM, client=request.client_id) is not None:
                for _ in range(STORM_COPIES):
                    result.storm_copies += 1
                    handle(now, request, attempt, None, count=False)
            handle(now, request, attempt, deadline)

    if accepted_log is not None:
        accepted_log.close()
    result.good = sum(1 for status in result.final_status.values()
                      if status == "served")
    return result
