"""Fleet runs: dataset replay and request serving over N replicas.

:func:`fleet_replay` is the fleet analogue of
:func:`repro.sim.emulator.replay` and :func:`run_fleet_serving` of
:func:`repro.edge.serve.run_serving`: each builds the fleet — a
:class:`~repro.fleet.supervisor.FleetSupervisor`, for serving behind a
:class:`~repro.fleet.router.FleetRouter` — and hands it to the same
event loop (:func:`repro.sim.emulator.drive`), which returns the same
result types.  Lifecycle faults (``fleet.replica_crash``) fire on the
loop's speculation ticks; restarts replay the block store mid-run.

A fleet replay's records, roots, and Table 2/3 columns are
**byte-identical to the single-node replay at every shard count**
(``tests/test_fleet_equivalence.py`` is the proof); sharding moves the
speculation work, never the answers.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.node import BaselineNode
from repro.edge import rpc
from repro.edge.clients import ScheduledRequest
from repro.edge.serve import ServingResult
from repro.edge.server import EdgeConfig
from repro.faults.injector import FaultPlan
from repro.faults.sites import NET_LOSS_SITES, SITE_NET_PARTITION
from repro.obs.registry import MetricsRegistry
from repro.sim.emulator import (
    EvaluationRun,
    build_timeline,
    drive,
    evaluation_step,
)
from repro.utils.hashing import hash_words, keccak_int

from .router import FleetRouter
from .supervisor import FleetConfig, FleetSupervisor

#: Named network profiles for ``repro serve --net-profile``.
NET_PROFILES = ("clean", "lossy", "partition")


def net_profile_config(profile: str, shards: int = 4,
                       seed: int = 0) -> FleetConfig:
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
        plan = FaultPlan.uniform(seed, 0.01, sites=NET_LOSS_SITES)
    elif profile == "partition":
        plan = FaultPlan.uniform(seed, 0.25, sites=(SITE_NET_PARTITION,))
    return FleetConfig(shards=shards, fault_plan=plan)


def fleet_replay(dataset, observer: str = "live",
                 config: Optional[FleetConfig] = None) -> EvaluationRun:
    """Replay ``dataset`` through a baseline node and the fleet."""
    timeline = build_timeline(dataset, observer)
    config = config or FleetConfig()
    registry = MetricsRegistry()
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=MetricsRegistry())
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block, config,
                                 registry=registry)
    run = EvaluationRun(dataset_name=dataset.name, observer=observer,
                        supervisor=supervisor, registry=registry)
    drive(timeline, supervisor, run,
          commit=evaluation_step(run, baseline, supervisor,
                                 dataset.kinds))
    return run


def run_fleet_serving(dataset, scenario,
                      fleet_config: Optional[FleetConfig] = None,
                      edge_config: Optional[EdgeConfig] = None,
                      observer: str = "live") -> ServingResult:
    """Serve ``scenario`` against a fleet replaying ``dataset``.

    Fleet chaos (``fleet.*`` and ``net.*`` sites) comes from
    ``fleet_config.fault_plan``; the supervisor's injector drives the
    lifecycle/handoff sites, the wire plane's network sites and the
    router's routing sites alike.
    """
    timeline = build_timeline(dataset, observer, scenario)
    fleet_config = fleet_config or FleetConfig()
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block, fleet_config,
                                 registry=MetricsRegistry())
    router = FleetRouter(supervisor, edge_config or EdgeConfig(),
                         injector=supervisor.injector)
    result = ServingResult(dataset_name=dataset.name,
                           shards=fleet_config.shards,
                           offered=len(scenario), supervisor=supervisor,
                           router=router, injector=supervisor.injector)
    drive(timeline, supervisor, result, front=router)
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
