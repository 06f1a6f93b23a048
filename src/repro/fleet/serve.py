"""Fleet loops: dataset replay and request serving over N replicas.

:func:`fleet_replay` is the fleet analogue of
:func:`repro.sim.emulator.replay` — the same event-heap cadence
(gossip, speculation ticks, blocks), a baseline node for the speedup
denominator, and joined per-transaction records.  Its records, roots,
and Table 2/3 columns are **byte-identical to the single-node replay
at every shard count** (``tests/test_fleet_equivalence.py`` is the
proof); sharding moves the speculation work, never the answers.

:func:`run_fleet_serving` is the fleet analogue of
:func:`repro.edge.serve.run_serving`: a client schedule dispatched
through the :class:`~repro.fleet.router.FleetRouter` into per-replica
edge servers, with retries against a shared budget and a byte-stable
serving trace (now carrying the placement: replica, hops, penalties).
Lifecycle faults (``fleet.replica_crash``) fire on speculation ticks;
restarts replay shard journals mid-run.

All four drivers in ``src/`` (these two, the emulator's and the edge's)
pop one :func:`repro.sim.emulator.build_timeline` heap and join records
with one :func:`repro.sim.emulator.join_record`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.node import BaselineNode, TxRecord
from repro.edge import rpc
from repro.edge.clients import ScheduledRequest
from repro.edge.limits import Deadline, RetryBudget, RetryConfig
from repro.edge.server import EdgeConfig
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.sim.emulator import (
    PRIO_REQUEST,
    JoinedRecord,
    build_timeline,
    join_record,
)
from repro.utils.hashing import hash_words, keccak_int

from .faults import (
    NET_SITES,
    SITE_NET_PARTITION,
    net_fault_plan,
)
from .router import FleetRouter, RouteInfo
from .supervisor import FleetConfig, FleetSupervisor

#: Named network profiles for ``repro serve --net-profile``.
NET_PROFILES = ("clean", "lossy", "partition")


def net_profile_config(profile: str, shards: int = 4, seed: int = 0,
                       journal_dir=None) -> FleetConfig:
    """A :class:`FleetConfig` under the named network profile:

    * ``clean`` — no faults: plain ``FleetConfig(shards=...)``, the
      default fleet;
    * ``lossy`` — 1% drop + duplicate + reorder + delay on every link
      (the at-least-once/exactly-once machinery under steady fire);
    * ``partition`` — periodic coordinator isolation (lease expiry,
      quorum re-election, journal catch-up on heal).
    """
    if profile not in NET_PROFILES:
        raise ValueError(f"unknown net profile {profile!r}; "
                         f"choose from {NET_PROFILES}")
    plan = None
    if profile == "lossy":
        loss_sites = tuple(site for site in NET_SITES
                           if site != SITE_NET_PARTITION)
        plan = net_fault_plan(seed=seed, probability=0.01,
                              sites=loss_sites)
    elif profile == "partition":
        plan = net_fault_plan(seed=seed, probability=0.25,
                              sites=(SITE_NET_PARTITION,))
    return FleetConfig(shards=shards, fault_plan=plan,
                       journal_dir=journal_dir)


@dataclass
class FleetRun:
    """One fleet replay: merged records plus the runtime itself."""

    dataset_name: str
    observer: str
    shards: int
    records: List[JoinedRecord] = field(default_factory=list)
    roots_matched: int = 0
    blocks_executed: int = 0
    speculation_jobs: int = 0
    supervisor: Optional[FleetSupervisor] = None
    registry: Optional[MetricsRegistry] = None

    def state_roots(self) -> List[int]:
        return [report.state_root
                for report in self.supervisor.reports]


def fleet_replay(dataset, observer: str = "live",
                 config: Optional[FleetConfig] = None,
                 speculation_tick: float = 2.0) -> FleetRun:
    """Replay ``dataset`` through a baseline node and the fleet."""
    config = config or FleetConfig()
    registry = MetricsRegistry()
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=MetricsRegistry())
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block, config,
                                 registry=registry)
    run = FleetRun(dataset_name=dataset.name, observer=observer,
                   shards=config.shards, supervisor=supervisor,
                   registry=registry)

    timeline = build_timeline(dataset, observer, speculation_tick)
    kinds = dataset.kinds
    baseline_records: Dict[int, TxRecord] = {}
    while timeline:
        now, kind, payload = timeline.pop()
        if kind == "tx":
            supervisor.on_transaction(payload, now)
        elif kind == "tick":
            supervisor.tick(now)
            run.speculation_jobs += supervisor.run_speculation(now)
        else:
            run.speculation_jobs += supervisor.run_speculation(now)
            base_report = baseline.process_block(payload)
            fleet_report = supervisor.process_block(payload, now)
            run.blocks_executed += 1
            if base_report.state_root == fleet_report.state_root:
                run.roots_matched += 1
            for record in base_report.records:
                baseline_records[record.tx_hash] = record
            for record in fleet_report.records:
                base = baseline_records.get(record.tx_hash)
                if base is None:
                    continue
                run.records.append(join_record(base, record, kinds))
    supervisor.close()
    return run


# -- serving -------------------------------------------------------------


@dataclass
class FleetServingResult:
    """Everything one fleet serving run produced."""

    dataset_name: str
    shards: int
    offered: int = 0
    good: int = 0
    retries_scheduled: int = 0
    trace_lines: List[str] = field(default_factory=list)
    served_latencies: List[int] = field(default_factory=list)
    final_status: Dict[Tuple[int, str], str] = field(default_factory=dict)
    routes: List[RouteInfo] = field(default_factory=list)
    supervisor: Optional[FleetSupervisor] = None
    router: Optional[FleetRouter] = None
    retry_budget: Optional[RetryBudget] = None

    @property
    def goodput(self) -> float:
        return self.good / self.offered if self.offered else 1.0

    @property
    def accepted_txs(self) -> int:
        return sum(server.c_accepted.value
                   for server in self.router.servers.values())

    def commitments(self) -> list:
        """Fleet commitments (the containment + equivalence anchor):
        per-block merged state roots and receipt cores — the same
        shape :meth:`repro.edge.serve.ServingResult.commitments` has."""
        return [
            {"block": report.block_number,
             "root": report.state_root,
             "receipts": [(record.tx_hash, record.gas_used,
                           record.success)
                          for record in report.records]}
            for report in self.supervisor.reports]


def run_fleet_serving(dataset, scenario,
                      fleet_config: Optional[FleetConfig] = None,
                      edge_config: Optional[EdgeConfig] = None,
                      retry_config: Optional[RetryConfig] = None,
                      retry_seed: int = 0,
                      observer: str = "live",
                      speculation_tick: float = 2.0
                      ) -> FleetServingResult:
    """Serve ``scenario`` against a fleet replaying ``dataset``.

    Fleet chaos (``fleet.*`` and ``net.*`` sites) comes from
    ``fleet_config.fault_plan``; the supervisor's injector drives the
    lifecycle/handoff sites, the wire plane's network sites and the
    router's routing sites alike.
    """
    fleet_config = fleet_config or FleetConfig()
    registry = MetricsRegistry()
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block, fleet_config,
                                 registry=registry)
    router = FleetRouter(supervisor, edge_config or EdgeConfig(),
                         injector=supervisor.injector)
    retry_budget = RetryBudget(retry_config, seed=retry_seed)
    result = FleetServingResult(dataset_name=dataset.name,
                                shards=fleet_config.shards,
                                supervisor=supervisor, router=router,
                                retry_budget=retry_budget)

    timeline = build_timeline(dataset, observer, speculation_tick,
                              scenario)
    result.offered = len(scenario)

    def handle(now: float, request, attempt: int,
               deadline: Optional[Deadline]) -> None:
        if deadline is None:
            deadline = Deadline.from_budget(
                now, request.deadline_units, router.config.service_rate)
        response, outcome, route = router.dispatch(
            request.raw, request.client_id, now,
            weight=request.weight, deadline=deadline, attempt=attempt)
        result.routes.append(route)
        result.trace_lines.append(canonical_json({
            "t": round(now, 6), "id": request.req_id,
            "client": request.client_id, "attempt": attempt,
            "replica": route.replica, "hops": route.hops,
            "outcome": outcome.as_dict(), "response": response}))
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
            supervisor.on_transaction(payload, now)
        elif kind == "tick":
            supervisor.tick(now)
            supervisor.run_speculation(now)
        elif kind == "block":
            supervisor.run_speculation(now)
            report = supervisor.process_block(payload, now)
            router.on_block(payload, report)
        else:
            request, attempt, deadline = payload
            handle(now, request, attempt, deadline)

    supervisor.close()
    result.good = sum(1 for status in result.final_status.values()
                      if status == "served")
    return result


# -- synthetic send-storm scenario ---------------------------------------

_STORM_TAG = keccak_int(b"fleet.storm")


def send_storm_scenario(seed: int, rate_per_second: float,
                        duration: float, clients: int = 48,
                        start: float = 0.5) -> List[ScheduledRequest]:
    """An open-loop storm of unique ``eth_sendRawTransaction`` frames.

    Senders are drawn from a seeded per-client stream, so the storm
    spreads uniformly over the consistent-hash ring — the workload the
    accepted-tx throughput scaling gate measures.  Every transaction is
    unique (fresh sender, nonce 0): acceptance is the bottleneck under
    test, not dedup.
    """
    requests: List[ScheduledRequest] = []
    per_client = rate_per_second / max(1, clients)
    for client_id in range(clients):
        rng = random.Random(hash_words((seed, _STORM_TAG, client_id)))
        now = start + rng.random() / max(per_client, 1e-6)
        seq = 0
        while now < start + duration:
            sender = rng.getrandbits(160)
            to = rng.getrandbits(160)
            params = [{"from": f"{sender:#x}", "to": f"{to:#x}",
                       "value": 1, "gasPrice": 1 + rng.randrange(8),
                       "nonce": 0}]
            req_id = f"s{client_id}-{seq}"
            requests.append(ScheduledRequest(
                at=round(now, 6), client_id=client_id, req_id=req_id,
                method="eth_sendRawTransaction", params=params,
                weight=1.0, deadline_units=120_000,
                raw=rpc.make_request("eth_sendRawTransaction", params,
                                     req_id)))
            seq += 1
            now += rng.expovariate(per_client) \
                if per_client > 0 else duration
    requests.sort(key=lambda request: (request.at, request.client_id,
                                       request.req_id))
    return requests
