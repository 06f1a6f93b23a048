"""Cross-shard edge routing: PR-8 edge servers fronting the fleet.

Every replica carries its own :class:`~repro.edge.server.EdgeServer`
(per-method bulkheads, token buckets, brownout ladder — aggregate
serving capacity scales with the replica count).  The router's job is
pure *placement*:

* ``eth_sendRawTransaction`` — parsed for its sender/callee and routed
  to the transaction's **home shard**; on acceptance the server's
  ``on_accept`` hook hands the transaction to the supervisor, which
  journals it to the shard and broadcasts it to every replica;
* ``eth_call`` — routed to the owner of the callee (sender when the
  call creates), whose caches and APs are warmest for that account;
* receipts / traces — routed to the owner of the transaction when the
  fleet has heard of it, else spread by hashing the lookup key onto
  the ring (every replica holds the full committed index, so any
  placement answers identically — placement is load spreading, not
  correctness);
* unparsable frames go to the coordinator, which produces the
  structured parse error.

Deadline propagation is intact: the router builds the request deadline
*before* placement, charges routing-fault penalties against it, and
passes it through — a misrouted request never gets extra time.

Fleet-level brownout: when the owner is down, or its brownout ladder
has reached ``shed`` for a read, the request fails over to the ring
successor (a full replica with identical committed state).  The
``fleet.route_flap`` and ``fleet.stale_shardmap`` chaos sites inject
misroutes and stale-generation decisions; both cost latency, never
correctness.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.chain.transaction import Transaction
from repro.edge import rpc
from repro.edge.brownout import LEVEL_SHED
from repro.edge.limits import Deadline
from repro.edge.server import (
    DEFAULT_DEADLINE_UNITS,
    EdgeConfig,
    EdgeServer,
    RequestOutcome,
    RouteInfo,
)
from repro.faults.injector import NULL_INJECTOR
from repro.faults.sites import SITE_ROUTE_FLAP, SITE_STALE_SHARDMAP

from .supervisor import FleetSupervisor

#: Cost units a misrouted request pays before re-dispatch (one wasted
#: hop to the wrong replica and back).
ROUTE_FLAP_PENALTY_UNITS = 2_000
#: Cost units a stale-map decision pays (the stale owner forwards).
STALE_MAP_PENALTY_UNITS = 1_000

#: Methods the router may fail over to a ring successor (reads — every
#: replica serves them identically from its own full state).
READ_METHODS = ("eth_call", "eth_getTransactionReceipt",
                "debug_traceTransaction")


class FleetRouter:
    """Deterministic request placement over the fleet's edge servers."""

    def __init__(self, supervisor: FleetSupervisor,
                 edge_config: Optional[EdgeConfig] = None,
                 injector=NULL_INJECTOR) -> None:
        self.supervisor = supervisor
        self.config = edge_config or EdgeConfig()
        self.injector = injector
        self.servers: Dict[int, EdgeServer] = {}
        self._live_snapshot = supervisor.shardmap.snapshot()
        self._stale_snapshot = None
        obs = supervisor.registry.scope("fleet.router")
        self.c_dispatched = obs.counter("dispatched")
        self.c_flaps = obs.counter("route_flaps")
        self.c_stale = obs.counter("stale_routes")
        self.c_failover = obs.counter("failovers")
        self.c_warmth = obs.counter("warmth_reroutes")

    # -- server pool -----------------------------------------------------

    def server_for(self, replica_id: int) -> EdgeServer:
        """The replica's edge server (rebound after a restart: a fresh
        node object means fresh serving indexes, rebuilt lazily from
        the replayed reports)."""
        replica = self.supervisor.replicas[replica_id]
        server = self.servers.get(replica_id)
        if server is None or server.node is not replica.node:
            server = EdgeServer(replica.node, self.config,
                                registry=replica.registry)
            server.on_accept = self._on_accept
            self.servers[replica_id] = server
        return server

    def _on_accept(self, tx: Transaction, now: float) -> None:
        self.supervisor.on_transaction(tx, now)

    def on_block(self, block, report) -> None:
        """A block committed fleet-wide: refresh every live server."""
        for replica_id in self.supervisor.live():
            self.server_for(replica_id).on_block(block, report)

    def close(self) -> None:
        for server in self.servers.values():
            server.close()

    # -- placement -------------------------------------------------------

    def _routing_key(self, raw: str) -> Optional[Tuple[str, int,
                                                       Optional[int]]]:
        """``(kind, key, key2)`` for one frame, or ``None`` when the
        frame cannot be routed by content (the coordinator serves it)."""
        try:
            request = rpc.parse_request(raw)
        except rpc.RpcError:
            return None
        method, params = request.method, request.params
        try:
            if method == "eth_sendRawTransaction":
                if len(params) != 1 or not isinstance(params[0], dict):
                    return None
                call = params[0]
                sender = _loose_int(call.get("from"))
                to = _loose_int(call.get("to"))
                if sender is None:
                    return None
                return ("home", sender, to)
            if method == "eth_call":
                if len(params) != 1 or not isinstance(params[0], dict):
                    return None
                call = params[0]
                key = _loose_int(call.get("to"))
                if key is None:
                    key = _loose_int(call.get("from"))
                if key is None:
                    return None
                return ("owner", key, None)
            if method in ("eth_getTransactionReceipt",
                          "debug_traceTransaction"):
                if len(params) != 1 or not isinstance(params[0], str):
                    return None
                return ("tx", int(params[0], 16), None)
        except (ValueError, TypeError):
            return None
        return None

    def _resolve(self, key) -> Tuple[int, str]:
        """Live-map placement for a routing key; returns
        ``(replica_id, method_kind)``."""
        supervisor = self.supervisor
        if key is None:
            return supervisor.coordinator_id, "other"
        kind, primary, secondary = key
        shardmap = supervisor.shardmap
        if kind == "home":
            return shardmap.home_shard(primary, secondary), "send"
        if kind == "tx":
            seen = supervisor.seen.get(primary)
            if seen is not None:
                return supervisor.home_of(seen[0]), "read"
            return shardmap.owner(primary), "read"
        return shardmap.owner(primary), "read"

    def dispatch(self, raw: str, client_id: int, now: float,
                 weight: float = 1.0,
                 deadline_units: Optional[int] = None,
                 deadline: Optional[Deadline] = None,
                 attempt: int = 1
                 ) -> Tuple[dict, RequestOutcome, RouteInfo]:
        """Place and serve one frame; returns
        ``(response, outcome, route)``."""
        supervisor = self.supervisor
        if supervisor.shardmap.generation != self._live_snapshot.generation:
            self._stale_snapshot = self._live_snapshot
            self._live_snapshot = supervisor.shardmap.snapshot()
        key = self._routing_key(raw)
        target, kind = self._resolve(key)
        info = RouteInfo(replica=target)
        # Chaos: the router serves one decision from the previous
        # shard-map generation.  Any replica answers reads correctly
        # and accepted sends are broadcast, so a stale placement costs
        # one forwarding hop of latency, never correctness.
        if (key is not None and self._stale_snapshot is not None
                and self.injector.evaluate(
                    SITE_STALE_SHARDMAP, client=client_id) is not None):
            stale_target = self._stale_snapshot.owner(key[1])
            if stale_target != target and supervisor.is_up(stale_target):
                info.stale = True
                info.hops += 1
                info.penalty_units += STALE_MAP_PENALTY_UNITS
                target = stale_target
                self.c_stale.inc()
        # Chaos: a route flap bounces the request off the wrong replica
        # before the misroute is detected and it lands on the owner.
        if self.injector.evaluate(SITE_ROUTE_FLAP,
                                  client=client_id) is not None:
            wrong = supervisor.shardmap.successor(target)
            if wrong is not None:
                info.hops += 1
                info.penalty_units += ROUTE_FLAP_PENALTY_UNITS
                self.c_flaps.inc()
        # Fleet brownout: down owner, or a shedding owner for a read,
        # fails over to the ring successor.
        if not supervisor.is_up(target):
            successor = supervisor.shardmap.successor(target)
            if successor is None:
                successor = supervisor.live()[0]
            target = successor
            info.failover = True
            self.c_failover.inc()
        elif kind == "read":
            server = self.server_for(target)
            if server.brownout.level >= LEVEL_SHED:
                successor = supervisor.shardmap.successor(target)
                if successor is not None and \
                        self.server_for(successor).brownout.level \
                        < LEVEL_SHED:
                    target = successor
                    info.failover = True
                    self.c_failover.inc()
            else:
                # Warmth-weighted read placement: every replica holds
                # the full committed state, so a read may go to
                # whichever of {owner, ring successor} published the
                # higher cache-warmth EWMA over heartbeats, with ties
                # broken by the lower replica id.  The choice is a pure
                # function of the deterministic heartbeat history.
                warmer = self._warmth_read_target(target)
                if warmer != target:
                    target = warmer
                    info.warmth = True
                    self.c_warmth.inc()
        info.replica = target
        # Deadline built before placement: penalties eat into the
        # budget, a misroute never buys more time.
        if deadline is None:
            budget = deadline_units or DEFAULT_DEADLINE_UNITS
            budget = max(1, budget - info.penalty_units)
            deadline = Deadline.from_budget(now, budget,
                                            self.config.service_rate)
        server = self.server_for(target)
        response, outcome = server.handle_raw(
            raw, client_id, now, weight=weight, deadline=deadline,
            attempt=attempt)
        if info.penalty_units:
            outcome.latency_units += info.penalty_units
        self.c_dispatched.inc()
        return response, outcome, info

    def _warmth_read_target(self, owner: int) -> int:
        """The warmth-weighted placement for a read owned by
        ``owner``: the warmer of the owner and its ring successor,
        skipping down or shedding replicas; equal warmth breaks to the
        lower replica id; no eligible candidate keeps the owner."""
        supervisor = self.supervisor
        candidates = [owner]
        successor = supervisor.shardmap.successor(owner)
        if successor is not None and successor != owner:
            candidates.append(successor)
        eligible = [
            rid for rid in candidates
            if supervisor.is_up(rid)
            and self.server_for(rid).brownout.level < LEVEL_SHED]
        if not eligible:
            return owner
        warmth = supervisor.warmth
        return min(eligible, key=lambda rid: (-warmth.warmth(rid), rid))

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        return {
            "dispatched": self.c_dispatched.value,
            "route_flaps": self.c_flaps.value,
            "stale_routes": self.c_stale.value,
            "failovers": self.c_failover.value,
            "warmth_reroutes": self.c_warmth.value,
            "per_replica": {
                str(replica_id): server.summary()
                for replica_id, server in sorted(self.servers.items())
            },
        }


def _loose_int(value) -> Optional[int]:
    """Best-effort field parse for routing only (the target server's
    strict parser is the authority on validity)."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, int):
        return value if value >= 0 else None
    if isinstance(value, str):
        try:
            parsed = int(value, 16)
        except ValueError:
            return None
        return parsed if parsed >= 0 else None
    return None
