"""Serving runs: a client schedule against a node (or a fleet).

:func:`run_serving` builds one node behind one
:class:`~repro.edge.server.EdgeServer` and hands both, with the
dataset's replay timeline and the client schedule from
:mod:`repro.edge.clients`, to the one event loop
(:func:`repro.sim.emulator.drive`), which owns the clients' side of the
protocol: retries *with the original deadline*, ``edge.request_storm``
amplification, and the serving trace.
:func:`repro.fleet.serve.run_fleet_serving` does the same with a
supervisor behind a router and returns the same :class:`ServingResult`.

The run's byte-stable artifact is the serving trace: one canonical
JSON line per handled frame (request identity, placement, outcome
accounting, and the full response).  Two runs of the same seed produce
byte-identical traces at every load level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.node import BlockReport, ForerunnerConfig, ForerunnerNode
from repro.edge.journal import AcceptedTxLog
from repro.edge.limits import RetryBudget
from repro.edge.server import EdgeConfig, EdgeServer, RouteInfo
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.obs.registry import MetricsRegistry
from repro.sim.emulator import build_timeline, commitments, drive


@dataclass
class ServingResult:
    """Everything one serving run produced, on a node or a fleet."""

    dataset_name: str
    #: Replicas behind the run (1: the single node).
    shards: int = 1
    offered: int = 0
    storm_copies: int = 0
    retries_scheduled: int = 0
    speculation_jobs: int = 0
    trace_lines: List[str] = field(default_factory=list)
    served_latencies: List[int] = field(default_factory=list)
    final_status: Dict[Tuple[int, str], str] = field(default_factory=dict)
    #: Placement of every handled frame, in trace order.
    routes: List[RouteInfo] = field(default_factory=list)
    #: What served: one ``node`` behind one ``server``, or
    #: (``run_fleet_serving``) a ``supervisor`` behind a ``router``.
    node: Optional[ForerunnerNode] = None
    server: Optional[EdgeServer] = None
    supervisor: object = None
    router: object = None
    retry_budget: RetryBudget = field(default_factory=RetryBudget)
    #: The run's fault injector (edge plan, or the fleet's own).
    injector: object = NULL_INJECTOR

    @property
    def good(self) -> int:
        return sum(1 for status in self.final_status.values()
                   if status == "served")

    @property
    def goodput(self) -> float:
        return self.good / self.offered if self.offered else 1.0

    @property
    def servers(self) -> List[EdgeServer]:
        """Every edge server that took frames, in replica order."""
        if self.router is None:
            return [self.server]
        return [server for _, server in sorted(self.router.servers.items())]

    @property
    def accepted_txs(self) -> int:
        return sum(server.c_accepted.value for server in self.servers)

    @property
    def reports(self) -> List[BlockReport]:
        """The committed block reports (merged ones, for a fleet)."""
        return (self.supervisor or self.node).reports

    def commitments(self) -> list:
        """The plain-semantics commitments (the containment and
        equivalence anchor): :func:`repro.sim.emulator.commitments`."""
        return commitments(self.reports)


def run_serving(dataset, scenario,
                edge_config: Optional[EdgeConfig] = None,
                node_config: Optional[ForerunnerConfig] = None,
                fault_plan=None,
                observer: str = "live",
                accepted_log_path: Optional[str] = None
                ) -> ServingResult:
    """Serve ``scenario`` against a node replaying ``dataset``.

    ``fault_plan`` reaches the ``edge`` layer's sites only (the
    server's and the loop's); the node itself runs
    clean — edge chaos must never reach node commitments, and the
    containment tests compare exactly that.
    """
    timeline = build_timeline(dataset, observer, scenario)
    registry = MetricsRegistry()
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
    result = ServingResult(dataset_name=dataset.name,
                           offered=len(scenario), node=node,
                           server=server, injector=injector)
    drive(timeline, node, result, front=server, injector=injector)
    return result
