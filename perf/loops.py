"""perf's own event loops: the program's heap discipline, timed from outside.

The same merged timeline as :func:`repro.sim.emulator.replay`,
:func:`repro.edge.serve.run_serving` (including ``RetryBudget``
retries) and :func:`repro.fleet.serve.run_fleet_serving` — gossip,
2 s speculation ticks, blocks, requests, in ``(time, priority)`` order
— but owned here so ``time.perf_counter_ns`` can bracket every call
into the system under test.  The schedule runs on the simulated clock
(open loop); only the wall time *inside* each call is summed, so the
benchmark never waits and injects no network delay.

``perf/test_perf_smoke.py`` checks that these loops commit the same
roots and reach the same final request statuses as the program's own.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Tuple

from repro.core.node import BaselineNode, ForerunnerConfig, ForerunnerNode
from repro.edge import rpc
from repro.edge.limits import Deadline, RetryBudget
from repro.edge.server import EdgeConfig, EdgeServer
from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.obs.registry import MetricsRegistry

OBSERVER = "live"
SPECULATION_TICK = 2.0

#: Event priorities at equal times, as in the program's loops:
#: gossip < ticks < blocks < requests.
PRIO_TX, PRIO_TICK, PRIO_BLOCK, PRIO_REQUEST = 0, 1, 2, 3

#: Call categories whose wall is summed (``LoopResult.wall_ns`` keys).
HEAR, TICK, SPECULATE, COMMIT, AFTER_BLOCK, REQUEST = (
    "hear", "tick", "speculate", "commit", "after_block", "request")


class _NoTrace:
    """Stands in for :class:`perf.trace.Tracer` on untraced runs."""

    ident = ""


# -- systems under test ---------------------------------------------------


class NodeSystem:
    """One default ``ForerunnerNode``, optionally behind an ``EdgeServer``."""

    def __init__(self, dataset, edge: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.node = ForerunnerNode(dataset.genesis_world.copy(),
                                   ForerunnerConfig(),
                                   registry=self.registry)
        self.node.predictor.observe_block(dataset.genesis_block)
        self.server = (EdgeServer(self.node, EdgeConfig(),
                                  registry=self.registry)
                       if edge else None)
        self.service_rate = (self.server.config.service_rate
                             if edge else 0.0)
        # No fleet parts: see FleetSystem.
        self.lease = self.wire = None
        self.routes = Counter()

    def hear(self, tx, now):
        self.node.on_transaction(tx, now)

    def tick(self, now):
        pass

    def speculate(self, now):
        return self.node.run_speculation(now)

    def commit(self, block, now):
        return self.node.process_block(block, now)

    def after_block(self, block, report):
        if self.server is not None:
            self.server.on_block(block, report)

    def request(self, raw, client_id, now, weight, deadline, attempt):
        response, outcome = self.server.handle_raw(
            raw, client_id, now, weight=weight, deadline=deadline,
            attempt=attempt)
        return rpc.encode(response), outcome

    def reports(self):
        return self.node.reports

    def servers(self):
        return [] if self.server is None else [self.server]

    def registries(self):
        return [self.registry]

    def close(self):
        pass


class FleetSystem:
    """``FleetSupervisor`` + ``FleetRouter`` (wire plane per config)."""

    def __init__(self, dataset, config: FleetConfig) -> None:
        self.registry = MetricsRegistry()
        self.supervisor = FleetSupervisor(
            dataset.genesis_world, dataset.genesis_block, config,
            registry=self.registry)
        self.router = FleetRouter(self.supervisor, EdgeConfig(),
                                  injector=self.supervisor.injector)
        self.service_rate = self.router.config.service_rate
        self.lease = self.supervisor.lease
        self.wire = self.supervisor.wire
        #: Σ hops and frames over every dispatch (``hops_mean``).
        self.routes = Counter()

    def hear(self, tx, now):
        self.supervisor.on_transaction(tx, now)

    def tick(self, now):
        self.supervisor.tick(now)

    def speculate(self, now):
        return self.supervisor.run_speculation(now)

    def commit(self, block, now):
        return self.supervisor.process_block(block, now)

    def after_block(self, block, report):
        self.router.on_block(block, report)

    def request(self, raw, client_id, now, weight, deadline, attempt):
        response, outcome, route = self.router.dispatch(
            raw, client_id, now, weight=weight, deadline=deadline,
            attempt=attempt)
        encoded = rpc.encode(response)
        self.routes["hops"] += route.hops
        self.routes["frames"] += 1
        return encoded, outcome

    def reports(self):
        return self.supervisor.reports

    def servers(self):
        return list(self.router.servers.values())

    def registries(self):
        return [self.registry] + [replica.registry for replica in
                                  self.supervisor.replicas.values()]

    def close(self):
        self.supervisor.close()


# -- results -------------------------------------------------------------


@dataclass
class LoopResult:
    """Everything one pass of the loop measured and committed."""

    wall_ns: Dict[str, int] = field(default_factory=dict)
    #: ``(wall_ns, txs, block_number)`` per committed block.
    blocks: List[Tuple[int, int, int]] = field(default_factory=list)
    #: ``(wall_ns, method, status)`` per handled frame (all attempts).
    frames: List[Tuple[int, str, str]] = field(default_factory=list)
    final_status: Dict[Tuple[int, str], str] = field(default_factory=dict)
    heard: int = 0
    jobs: int = 0
    retries: int = 0

    @property
    def loop_wall_ns(self) -> int:
        return sum(self.wall_ns.values())

    @property
    def committed(self) -> int:
        return sum(txs for _, txs, _ in self.blocks)


def commitments(reports) -> list:
    """Per-block roots and receipt cores — the shape of
    ``ServingResult.commitments()`` — for any node's report list."""
    return [{"block": report.block_number,
             "root": report.state_root,
             "receipts": [(record.tx_hash, record.gas_used,
                           record.success)
                          for record in report.records]}
            for report in reports]


def baseline_commitments(dataset) -> Tuple[list, int]:
    """The oracle: a ``BaselineNode`` over the dataset's blocks.
    Returns its commitments and the wall it spent in ``process_block``
    (reported as a layer metric, never part of any loop wall)."""
    node = BaselineNode(dataset.genesis_world.copy(),
                        registry=MetricsRegistry())
    wall = 0
    for _, block in dataset.blocks:
        gc.collect()
        start = perf_counter_ns()
        node.process_block(block)
        wall += perf_counter_ns() - start
    return commitments(node.reports), wall


# -- the loop ------------------------------------------------------------


def run_loop(system, dataset, scenario=(), heard: bool = True,
             tracer=None) -> LoopResult:
    """Drive ``system`` through ``dataset`` (+ ``scenario`` requests).

    ``heard=False`` is the bypass: only blocks are delivered, so the
    node never hears a transaction or speculates.  ``tracer`` (traced
    runs) is told the shared id of each event before the call.
    """
    tracer = tracer or _NoTrace()
    events: List[tuple] = []
    counter = 0
    horizon = dataset.blocks[-1][0] if dataset.blocks else 0.0
    if heard:
        for arrival, tx in dataset.tx_arrivals[OBSERVER]:
            events.append((arrival, PRIO_TX, counter, "tx", tx))
            counter += 1
        # A storm may outlast the dataset (run_fleet_serving's rule).
        horizon = max([horizon] + [request.at for request in scenario])
        tick = SPECULATION_TICK
        while tick < horizon:
            events.append((tick, PRIO_TICK, counter, "tick", None))
            counter += 1
            tick += SPECULATION_TICK
    for arrival, block in dataset.blocks:
        events.append((arrival, PRIO_BLOCK, counter, "block", block))
        counter += 1
    for request in scenario:
        events.append((request.at, PRIO_REQUEST, counter, "request",
                       (request, 1, None)))
        counter += 1
    heapq.heapify(events)

    result = LoopResult(wall_ns=dict.fromkeys(
        (HEAR, TICK, SPECULATE, COMMIT, AFTER_BLOCK, REQUEST), 0))
    wall = result.wall_ns
    retry_budget = RetryBudget(None, seed=0)
    clock = perf_counter_ns

    while events:
        now, _, _, kind, payload = heapq.heappop(events)
        if kind == "tx":
            tracer.ident = f"tx:{payload.hash:#x}"
            start = clock()
            system.hear(payload, now)
            wall[HEAR] += clock() - start
            result.heard += 1
        elif kind == "tick":
            tracer.ident = f"tick:{now:g}"
            start = clock()
            system.tick(now)
            middle = clock()
            result.jobs += system.speculate(now)
            end = clock()
            wall[TICK] += middle - start
            wall[SPECULATE] += end - middle
        elif kind == "block":
            tracer.ident = f"block:{payload.number}"
            start = clock()
            result.jobs += system.speculate(now)
            wall[SPECULATE] += clock() - start
            # As the emulator does: speculation garbage must not be
            # collected inside the block's timed window.
            gc.collect()
            start = clock()
            report = system.commit(payload, now)
            middle = clock()
            system.after_block(payload, report)
            end = clock()
            wall[COMMIT] += middle - start
            wall[AFTER_BLOCK] += end - middle
            result.blocks.append((middle - start,
                                  len(payload.transactions),
                                  payload.number))
        else:
            request, attempt, deadline = payload
            tracer.ident = f"req:{request.req_id}"
            if deadline is None:
                deadline = Deadline.from_budget(
                    now, request.deadline_units, system.service_rate)
            start = clock()
            _encoded, outcome = system.request(
                request.raw, request.client_id, now, request.weight,
                deadline, attempt)
            elapsed = clock() - start
            wall[REQUEST] += elapsed
            result.frames.append((elapsed, request.method,
                                  outcome.status))
            key = (request.client_id, request.req_id)
            result.final_status[key] = outcome.status
            if outcome.status == "served":
                if attempt == 1:
                    retry_budget.on_success()
            elif rpc.is_retryable(outcome.code):
                retry_at = retry_budget.next_retry(
                    request.client_id, attempt, now, deadline)
                if retry_at is not None:
                    result.retries += 1
                    heapq.heappush(events, (
                        retry_at, PRIO_REQUEST, counter, "request",
                        (request, attempt + 1, deadline)))
                    counter += 1
    system.close()
    return result
