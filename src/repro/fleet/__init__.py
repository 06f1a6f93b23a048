"""repro.fleet — deterministic multi-replica runtime.

N node replicas under one simulated cost-unit event loop: a
consistent-hash shard map (:mod:`repro.fleet.shardmap`), a sharded
nonce-aware txpool (:mod:`repro.fleet.shardpool`), a replica lifecycle
supervisor with per-shard accepted-tx logs
(:mod:`repro.fleet.supervisor`), cross-shard edge routing
(:mod:`repro.fleet.router`), the replay/serving loops
(:mod:`repro.fleet.serve`), and the deterministic wire plane
(:mod:`repro.fleet.wire`) that carries every inter-replica
interaction: canonical-JSON framed, sequence-numbered messaging
through a seeded hostile-network simulator, with heartbeat failure
detection and lease-based coordinator election
(:mod:`repro.fleet.lease`).  Fleet commitments are byte-identical to
the single-node serial run at every shard count and under every
network fault plan — docs/FLEET.md has the determinism argument.
"""

from .lease import Lease, LeaseRegistry
from .router import FleetRouter, RouteInfo
from .serve import (
    NET_PROFILES,
    fleet_replay,
    net_profile_config,
    run_fleet_serving,
    send_storm_scenario,
)
from .shardmap import ShardMap, ShardMapSnapshot
from .shardpool import ShardedTxPool
from .supervisor import FleetConfig, FleetSupervisor
from .wire import (
    INGRESS,
    Envelope,
    FailureDetector,
    NetworkSim,
    WarmthTracker,
    WireConfig,
    WirePlane,
)

__all__ = [
    "Envelope",
    "FailureDetector",
    "FleetConfig",
    "FleetRouter",
    "FleetSupervisor",
    "INGRESS",
    "Lease",
    "LeaseRegistry",
    "NET_PROFILES",
    "NetworkSim",
    "RouteInfo",
    "ShardMap",
    "ShardMapSnapshot",
    "ShardedTxPool",
    "WarmthTracker",
    "WireConfig",
    "WirePlane",
    "fleet_replay",
    "net_profile_config",
    "run_fleet_serving",
    "send_storm_scenario",
]
