"""Fleet supervisor: replica lifecycle under one deterministic loop.

The fleet runs N full node replicas (chain-replica semantics: every
replica executes every block against its own world copy) but shards the
*expensive* part — Forerunner's speculation — by account locality:

* one **coordinator** replica runs the exact single-node prediction /
  admission cycle (its pool hears all gossip, so the candidate stream
  is identical to a single node's);
* each admitted job is dispatched to the **owning replica**'s
  speculator (`:class:`FleetSpecPlane``); worker-lane clocks stay with
  the coordinator, so every AP's ``ready_at`` — and with it every
  Table 2/3 number — is byte-identical to the single-node run;
* at block time the owners ship each transaction's AP to the ingress
  and every replica executes with that shared snapshot, so all
  replica worlds, caches, and cost trajectories remain identical to
  the single node's (an AP run is read-only until its terminal, and
  a closure charges exactly what the reference walker would);
* prefetches fan out to every replica's cache for the same reason.

Every interaction between replicas — gossip, pool sync, speculation
dispatch, AP snapshots, block commits and their root answers,
heartbeats, lease votes — is a framed message on the wire plane
(:mod:`repro.fleet.wire`), flushed to quiescence before the event loop
advances; on a clean network that is effect-for-effect a direct call.

Lifecycle is *observational*: a replica crash (``fleet.replica_crash``)
only silences the replica and schedules its restart.  The failure
detector turns ``suspect_after`` seconds of heartbeat silence into the
ring leave (deterministic rebalance + handoff through the sharded
pool), a lapsed coordinator lease into a voted election, and the
restarted replica's first heartbeat into the rejoin.  Restart rebuilds
the replica from genesis plus every block of the supervisor's block
store (replayed in order at their recorded clocks), repairs its shard
journal's torn tail, and resyncs the pending pool from a live peer —
converging to a byte-identical world root, which :meth:`process_block`
cross-checks on every subsequent block.  APs are lost in a crash: speculation is pure acceleration, so
commitments are unaffected (the containment contract
``tests/test_fleet_chaos.py`` enforces).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.chain.transaction import (
    Transaction,
    tx_from_wire,
    tx_to_wire,
)
from repro.core.node import BlockReport, ForerunnerNode, LocalSpecPlane
from repro.edge.journal import AcceptedTxLog, recover_accepted
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.faults.sites import SITE_NET_PARTITION, SITE_REPLICA_CRASH
from repro.obs.registry import MetricsRegistry

from .lease import LeaseRegistry
from .shardmap import ShardMap
from .shardpool import ShardedTxPool
from .wire import (
    INGRESS,
    FailureDetector,
    WarmthTracker,
    WireConfig,
    WirePlane,
)

#: Wire-plane channels (one sequence window per (sender, channel)).
CH_GOSSIP = "gossip.tx"
CH_POOL = "pool.sync"
CH_SPEC = "spec.dispatch"
CH_AP = "ap.snapshot"
CH_BLOCK = "block.commit"
CH_ROOT = "block.root"
CH_HEARTBEAT = "net.heartbeat"
CH_VOTE = "lease.request"
CH_GRANT = "lease.grant"


@dataclass
class FleetConfig:
    """Tunables for the multi-replica runtime."""

    #: Replica count (= shard count; each replica owns one shard).
    shards: int = 4
    #: Fleet-level chaos plan (``fleet.*`` / ``net.*`` sites);
    #: ``None`` = no-op.
    fault_plan: object = None
    #: Simulated seconds until a crashed replica restarts.  Below
    #: ``wire.suspect_after`` the replica is back before the failure
    #: detector notices: no ring change, no handoff window.
    restart_delay: float = 10.0
    #: Directory for the per-shard accepted-tx logs (``None`` =
    #: in-memory fleet: torn-handoff repair falls back to the
    #: supervisor's gossip memory).
    journal_dir: Optional[str] = None
    #: Wire-plane tunables.  Every inter-replica interaction crosses
    #: :class:`repro.fleet.wire`: framed gossip/pool-sync/dispatch/AP/
    #: block messages, heartbeat failure detection feeding ring
    #: membership, and lease-based coordinator election.
    wire: WireConfig = field(default_factory=WireConfig)


@dataclass
class Replica:
    """One replica slot: the node, its shard journal (the accepted-tx
    log of the transactions it is home to), and lifecycle state."""

    replica_id: int
    node: ForerunnerNode
    registry: MetricsRegistry
    status: str = "up"
    journal: Optional[AcceptedTxLog] = None
    journal_path: Optional[str] = None
    crashes: int = 0
    restarts: int = 0
    #: Block numbers this node object has applied (the idempotence
    #: guard against at-least-once ``block.commit``).
    applied: set = field(default_factory=set)


class FleetSpecPlane(LocalSpecPlane):
    """Sharded speculation plane (see :class:`repro.core.node.LocalSpecPlane`).

    Installed on every replica: the coordinator's admission cycle uses
    :meth:`components` to dispatch each job to the owning replica, and
    every replica's block execution uses :meth:`ap_for` to read the
    per-block AP snapshot the owners shipped — so all replicas execute
    a block with the *same* APs a single node would.
    """

    __slots__ = ("supervisor",)

    def __init__(self, node: ForerunnerNode,
                 supervisor: "FleetSupervisor") -> None:
        super().__init__(node)
        self.supervisor = supervisor

    def components(self, tx: Transaction):
        sup = self.supervisor
        return sup.dispatch_speculation(tx, sup.home_of(tx))

    def prefetch_targets(self):
        sup = self.supervisor
        return tuple(sup.replicas[rid].node for rid in sup.live()
                     if sup.wire.reachable(INGRESS, rid))

    def ap_for(self, tx_hash: int):
        aps = self.supervisor.block_aps
        if aps is not None:
            return aps.get(tx_hash)
        return None


class FleetSupervisor:
    """Owns the replicas, the shard map/pool, and the block pipeline."""

    def __init__(self, genesis_world, genesis_block: Block,
                 config: Optional[FleetConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config or FleetConfig()
        self.genesis_world = genesis_world
        self.genesis_block = genesis_block
        self.registry = registry or MetricsRegistry()
        plan = self.config.fault_plan
        if plan is not None:
            self.injector = FaultInjector(plan, registry=self.registry)
        else:
            self.injector = NULL_INJECTOR
        self.shardmap = ShardMap(range(self.config.shards))
        self.shardpool = ShardedTxPool(self.shardmap,
                                       registry=self.registry,
                                       injector=self.injector)
        obs = self.registry.scope("fleet")
        self.c_blocks = obs.counter("blocks")
        self.c_txs = obs.counter("transactions")
        self.c_crashes = obs.counter("crashes")
        self.c_restarts = obs.counter("restarts")
        self.c_promotions = obs.counter("promotions")
        self.c_rebalances = obs.counter("rebalances")
        self.c_torn_repaired = obs.counter("torn_repaired")
        self.c_admission_halted = obs.counter("admission_halted")
        self.c_elections = obs.counter("elections")
        self.c_leases = obs.counter("leases_granted")
        self.c_detector_leaves = obs.counter("detector_leaves")
        self.c_detector_joins = obs.counter("detector_joins")
        self._g_live = obs.gauge("live_replicas")
        self.replicas: Dict[int, Replica] = {}
        #: Block bodies + arrival times (the chain store restarts
        #: replay).
        self.block_store: Dict[int, Tuple[Block, float]] = {}
        #: Every transaction the fleet ever heard (gossip memory; the
        #: torn-handoff repair's fallback when journals are off).
        self.seen: Dict[int, Tuple[Transaction, float]] = {}
        #: Per-block AP snapshot (set only while replicas execute a
        #: block; read by :meth:`FleetSpecPlane.ap_for`).
        self.block_aps: Optional[Dict[int, object]] = None
        self.reports: List[BlockReport] = []
        self.pending_restarts: List[Tuple[float, int]] = []
        for replica_id in range(self.config.shards):
            self._spawn(replica_id)
        self.coordinator_id = min(self.replicas)
        # The coordinator's admission controller is adopted as the
        # *fleet* admission ledger: every replica shares it, so
        # speculation counts (Table 2's contexts column) and edge
        # deadlines reach one place, exactly as on a single node.  It
        # survives coordinator crashes — it is fleet state, not
        # replica state.
        self.admission = self.replicas[self.coordinator_id].node.admission
        for replica in self.replicas.values():
            replica.node.admission = self.admission
        self._g_live.set(len(self.replicas))
        #: Last event time the supervisor saw (the wire plane's send
        #: clock; flush micro-clocks never move it).
        self._now = 0.0
        wire_config = self.config.wire
        self.wire = WirePlane(wire_config, injector=self.injector,
                              registry=self.registry)
        self.wire.generation_source = lambda: self.shardmap.generation
        self.detector = FailureDetector(wire_config.suspect_after,
                                        members=tuple(self.replicas))
        self.warmth = WarmthTracker(wire_config.warmth_alpha)
        self.lease = LeaseRegistry(wire_config.lease_seconds)
        #: block number -> tx hash -> AP and block number -> replica ->
        #: report: what ``ap.snapshot`` / ``block.commit`` deliveries
        #: collect, for the block in flight only (its entry is popped
        #: once consumed; deliveries for any other block find none).
        self._pending_aps: Dict[int, Dict[int, object]] = {}
        self._block_reports: Dict[int, Dict[int, BlockReport]] = {}
        #: block number -> reference root (heal catch-ups re-verify).
        self._root_history: Dict[int, int] = {}
        self.wire.register(INGRESS, CH_HEARTBEAT, self._on_heartbeat)
        self.wire.register(INGRESS, CH_AP, self._on_ap_snapshot)
        self.wire.register(INGRESS, CH_ROOT, self._on_block_root)
        for replica_id in self.replicas:
            self._register_replica_channels(replica_id)
        # Bootstrap lease: term 0 is granted to the initial coordinator
        # by every founding member at t=0.
        term = self.lease.open_term()
        for member in self.shardmap.members:
            self.lease.cast_vote(term, member, self.coordinator_id)
            self.lease.record_grant(term, self.coordinator_id, member)
        self.lease.grant(term, self.coordinator_id, 0.0)
        self.c_leases.inc()

    def _register_replica_channels(self, replica_id: int) -> None:
        wire = self.wire

        def on_gossip(payload, attachment, at, rid=replica_id):
            self._on_gossip(rid, payload)

        def on_pool(payload, attachment, at, rid=replica_id):
            self._on_pool_sync(rid, payload)

        def on_spec(payload, attachment, at, rid=replica_id):
            self._on_spec_dispatch(rid, payload)

        def on_block(payload, attachment, at, rid=replica_id):
            self._on_block_commit(rid, payload, attachment, at)

        def on_vote(payload, attachment, at, rid=replica_id):
            self._on_lease_request(rid, payload, at)

        def on_grant(payload, attachment, at, rid=replica_id):
            self.lease.record_grant(int(payload["term"]),
                                    int(payload["candidate"]),
                                    int(payload["member"]))

        wire.register(replica_id, CH_GOSSIP, on_gossip)
        wire.register(replica_id, CH_POOL, on_pool)
        wire.register(replica_id, CH_SPEC, on_spec)
        wire.register(replica_id, CH_BLOCK, on_block)
        wire.register(replica_id, CH_VOTE, on_vote)
        wire.register(replica_id, CH_GRANT, on_grant)

    # -- construction ----------------------------------------------------

    def _journal_path(self, replica_id: int) -> Optional[str]:
        if self.config.journal_dir is None:
            return None
        return os.path.join(self.config.journal_dir,
                            f"shard-{replica_id:02d}.wal")

    def _new_node(self) -> Tuple[ForerunnerNode, MetricsRegistry]:
        # Per-replica registries keep instrument names identical on
        # every replica (no cross-replica scope-suffix drift).
        registry = MetricsRegistry()
        node = ForerunnerNode(self.genesis_world.copy(), registry=registry)
        node.spec_plane = FleetSpecPlane(node, self)
        node.predictor.observe_block(self.genesis_block)
        return node, registry

    def _spawn(self, replica_id: int) -> None:
        node, registry = self._new_node()
        path = self._journal_path(replica_id)
        self.replicas[replica_id] = Replica(
            replica_id=replica_id, node=node, registry=registry,
            journal=AcceptedTxLog(path) if path is not None else None,
            journal_path=path)

    # -- views -----------------------------------------------------------

    def live(self) -> List[int]:
        """Live replica ids, ascending (the deterministic loop order)."""
        return sorted(rid for rid, replica in self.replicas.items()
                      if replica.status == "up")

    def coordinator(self) -> ForerunnerNode:
        return self.replicas[self.coordinator_id].node

    def node(self, replica_id: int) -> ForerunnerNode:
        return self.replicas[replica_id].node

    def home_of(self, tx: Transaction) -> int:
        return self.shardmap.home_shard(tx.sender, tx.to)

    def is_up(self, replica_id: int) -> bool:
        replica = self.replicas.get(replica_id)
        return replica is not None and replica.status == "up"

    # -- wire-plane effects (receiver side) ------------------------------

    def _on_gossip(self, replica_id: int, payload: dict) -> None:
        """Delivered ``gossip.tx``: the replica hears the transaction
        at its *carried* heard time (healed deliveries apply late but
        with the original clock — byte-identical heard columns)."""
        replica = self.replicas.get(replica_id)
        if replica is None or replica.status != "up":
            return  # crashed meanwhile; the restart resyncs from a peer
        tx = tx_from_wire(payload["tx"])
        replica.node.on_transaction(tx, float(payload["heard"]))

    def _on_pool_sync(self, replica_id: int, payload: dict) -> None:
        """Delivered ``pool.sync``: admit to the home shard's pending
        queue unless the chain already executed it (a heal can deliver
        a sync for a transaction committed during the partition)."""
        tx = tx_from_wire(payload["tx"])
        live = self.live()
        peer = self.replicas[live[0]].node if live else None
        if peer is not None and tx.hash in peer.executed:
            return
        self.shardpool.add(tx, float(payload["heard"]))

    def _on_spec_dispatch(self, replica_id: int, payload: dict) -> None:
        """Delivered ``spec.dispatch``: reconstruct the job through the
        plane's deliver seam, which asserts frame fidelity per message."""
        replica = self.replicas.get(replica_id)
        if replica is None or replica.status != "up":
            return
        replica.node.spec_plane.deliver_job(payload)

    def _on_block_commit(self, replica_id: int, payload: dict,
                         attachment, at: float) -> None:
        """Delivered ``block.commit``: execute on the replica at the
        carried clock, once (idempotent under redelivery), and answer
        with the state root for the fleet cross-check."""
        replica = self.replicas.get(replica_id)
        if replica is None or replica.status != "up":
            return  # down replicas replay the block store at restart
        number = int(payload["number"])
        if number in replica.applied:
            return
        block = attachment
        if block is None:
            stored = self.block_store.get(number)
            if stored is None:
                return
            block = stored[0]
        report = replica.node.process_block(block, float(payload["at"]))
        replica.applied.add(number)
        in_flight = self._block_reports.get(number)
        if in_flight is not None:
            in_flight[replica_id] = report
        self.wire.send(replica_id, INGRESS, CH_ROOT,
                       {"number": number, "root": report.state_root,
                        "replica": replica_id}, at)

    def _on_block_root(self, payload: dict, attachment, at: float) -> None:
        """Delivered ``block.root``: cross-check the replica's root
        against the block's reference root (first answer wins; healed
        catch-ups must re-derive the identical root)."""
        number = int(payload["number"])
        root = int(payload["root"])
        expected = self._root_history.get(number)
        if expected is None:
            self._root_history[number] = root
        elif root != expected:  # pragma: no cover
            raise SimulationError(
                f"fleet divergence at block {number}: replica "
                f"{int(payload['replica'])} root {root:#x} != "
                f"{expected:#x}")

    def _on_ap_snapshot(self, payload: dict, attachment, at: float) -> None:
        """Delivered ``ap.snapshot``: an owner shipped one AP for the
        block being executed (stale snapshots for other blocks are
        ignored — APs are pure acceleration)."""
        pending = self._pending_aps.get(int(payload["block"]))
        if pending is not None and attachment is not None:
            pending[int(payload["tx"])] = attachment

    def _on_heartbeat(self, payload: dict, attachment, at: float) -> None:
        self.detector.heard(int(payload["replica"]),
                            float(payload["at"]),
                            int(payload["incarnation"]))
        self.warmth.update(int(payload["replica"]),
                           float(payload["warmth"]))

    def _on_lease_request(self, member_id: int, payload: dict,
                          at: float) -> None:
        """Delivered ``lease.request``: a live member casts at most one
        vote per term; granted votes travel back over the wire."""
        if not self.is_up(member_id):
            return
        term = int(payload["term"])
        candidate = int(payload["candidate"])
        if self.lease.cast_vote(term, member_id, candidate):
            self.wire.send(member_id, candidate, CH_GRANT,
                           {"term": term, "candidate": candidate,
                            "member": member_id}, at)

    # -- wire-plane senders ----------------------------------------------

    def dispatch_speculation(self, tx: Transaction, home: int):
        """Dispatch one speculation job to its owning replica over the
        wire (synchronous RPC: send, flush to ack).  Falls back to the
        coordinator's own speculator when the owner is down or across a
        partition — speculation is acceleration, never correctness."""
        replica = self.replicas.get(home)
        coordinator = self.coordinator()
        if (replica is None or replica.status != "up"
                or not self.wire.reachable(self.coordinator_id, home)):
            return coordinator.speculator, coordinator
        if home != self.coordinator_id:
            self.wire.send(self.coordinator_id, home, CH_SPEC,
                           replica.node.spec_plane.serialize_job(tx),
                           self._now)
            self.wire.flush(self._now)
        return replica.node.speculator, replica.node

    def _warmth_sample(self, node: ForerunnerNode) -> float:
        """The replica's cache-warmth sample carried on heartbeats:
        combined prefix-cache + synthesis-dedup hit rate."""
        speculator = node.speculator
        cache = speculator.prefix_cache
        hits = cache.c_hits.value + speculator.c_dedup_hits.value
        misses = cache.c_misses.value + speculator.c_dedup_misses.value
        total = hits + misses
        return round(hits / total, 9) if total else 0.0

    def _wire_tick(self, now: float) -> None:
        """Wire-plane housekeeping on the supervisor's tick cadence:
        heal due partitions, pump heartbeats, run the failure detector
        (membership follows observed silence), roll the partition
        fault, and maintain the coordinator lease."""
        wire = self.wire
        if wire.sim.partition_until is not None \
                and now >= wire.sim.partition_until:
            wire.heal(now)
            wire.flush(now)
        for replica_id in self.live():
            node = self.replicas[replica_id].node
            wire.send(replica_id, INGRESS, CH_HEARTBEAT,
                      {"replica": replica_id, "at": now,
                       "warmth": self._warmth_sample(node),
                       "incarnation": self.replicas[replica_id].restarts},
                      now, reliable=False)
            wire.c_heartbeats.inc()
        wire.flush(now)
        for replica_id in self.detector.suspects(now,
                                                 self.shardmap.members):
            if len(self.shardmap) == 1:
                break
            if self.shardmap.leave(replica_id):
                self.c_detector_leaves.inc()
                self._rebalance()
        for replica_id in self.live():
            if replica_id in self.shardmap:
                continue
            silence = now - self.detector.last_seen.get(replica_id, 0.0)
            if silence < self.config.wire.suspect_after:
                if self.shardmap.join(replica_id):
                    self.c_detector_joins.inc()
                    self._rebalance()
        if (self.injector.enabled and len(self.shardmap) > 1
                and wire.sim.partition_until is None):
            rule = self.injector.evaluate(SITE_NET_PARTITION,
                                          tick=int(now * 1000))
            if rule is not None:
                seconds = (rule.magnitude
                           or self.config.wire.partition_seconds)
                wire.partition({self.coordinator_id}, now, seconds)
        self._lease_tick(now)

    def _campaign(self, candidate: int, now: float) -> bool:
        """One election round: the candidate asks every ring member for
        a vote over the wire and wins on a member majority."""
        term = self.lease.open_term()
        members = self.shardmap.members
        quorum = len(members) // 2 + 1
        self.c_elections.inc()
        for member in members:
            self.wire.send(candidate, member, CH_VOTE,
                           {"term": term, "candidate": candidate}, now)
        self.wire.flush(now)
        if len(self.lease.tally(term, candidate)) >= quorum:
            self.lease.grant(term, candidate, now)
            self.c_leases.inc()
            return True
        return False

    def _lease_tick(self, now: float) -> None:
        holder = self.coordinator_id
        holder_ok = (self.is_up(holder)
                     and self.wire.reachable(holder, INGRESS))
        if self.lease.valid(holder, now):
            if (holder_ok and self.lease.remaining(now)
                    <= self.config.wire.lease_renew_margin):
                self._campaign(holder, now)
            # A live lease is never revoked: a partitioned holder keeps
            # authority until expiry (and halts the moment it lapses).
            return
        isolated = sorted(rid for rid in self.wire.isolated
                          if self.is_up(rid))
        if isolated:
            # The minority side campaigns first — its requests park at
            # the cut, so it can never assemble a quorum (the halt the
            # partition test asserts).
            self._campaign(isolated[0], now)
        candidates = [rid for rid in self.live()
                      if self.wire.reachable(rid, INGRESS)]
        if not candidates:
            return
        if self._campaign(candidates[0], now):
            if candidates[0] != self.coordinator_id:
                self.coordinator_id = candidates[0]
                self.c_promotions.inc()

    # -- gossip ----------------------------------------------------------

    def on_transaction(self, tx: Transaction, now: float) -> None:
        """A transaction arrived (gossip or edge accept): journal it to
        its home shard, sync it to the home shard's pool, and gossip it
        to every live replica (all replicas hear all gossip — that is
        what keeps the coordinator's candidate stream single-node-
        identical).  Both cross the wire as framed, sequenced messages;
        a flush barrier delivers them before the event loop advances."""
        self._now = now
        payload = {"tx": tx_to_wire(tx), "hash": tx.hash, "heard": now}
        if tx.hash not in self.seen:
            self.seen[tx.hash] = (tx, now)
            home = self.home_of(tx)
            journal = self.replicas[home].journal
            if journal is not None:
                journal.record(tx, now)
            self.wire.send(INGRESS, home, CH_POOL, payload, now)
        for replica_id in self.live():
            self.wire.send(INGRESS, replica_id, CH_GOSSIP, payload, now)
        self.wire.flush(now)

    def requeue(self, tx: Transaction, now: float) -> None:
        """Reorg requeue: back through the owning shard's live queues,
        then into every replica's pending pool."""
        self.seen.setdefault(tx.hash, (tx, now))
        self.shardpool.requeue(tx, now)
        for replica_id in self.live():
            self.replicas[replica_id].node.requeue(tx, now)

    def on_reorg(self) -> None:
        for replica_id in self.live():
            self.replicas[replica_id].node.on_reorg()

    # -- speculation -----------------------------------------------------

    def run_speculation(self, now: float,
                        budget_seconds: Optional[float] = None) -> int:
        """One fleet speculation cycle = the coordinator's cycle (jobs
        land on owning replicas through the plane).

        Admission is **lease-gated**: no valid coordinator lease
        (expired, or the holder is down) means no speculation this
        cycle — the safety half of the no-split-brain argument.
        Speculation is pure acceleration, so a halt never moves
        commitments."""
        self._now = now
        if (not self.lease.valid(self.coordinator_id, now)
                or not self.is_up(self.coordinator_id)):
            self.c_admission_halted.inc()
            return 0
        return self.coordinator().run_speculation(now, budget_seconds)

    # -- the block pipeline ----------------------------------------------

    def process_block(self, block: Block, now: float = 0.0) -> BlockReport:
        """Import one block on every live replica.

        Owners ship AP snapshots to the ingress; the block commit fans
        out as framed messages (parked across a partition — the heal
        replays them at their carried clocks); every root answer is
        cross-checked; and the fleet report is merged from the owning
        replica of each transaction.
        """
        self._now = now
        self.block_store[block.number] = (block, now)
        self._pending_aps[block.number] = {}
        for tx in block.transactions:
            home = self.home_of(tx)
            for candidate in (home, self.coordinator_id):
                replica = self.replicas.get(candidate)
                if replica is None or replica.status != "up":
                    continue
                if not self.wire.reachable(candidate, INGRESS):
                    continue
                ap = replica.node.speculator.get_ap(tx.hash)
                if ap is None:
                    continue
                self.wire.send(candidate, INGRESS, CH_AP,
                               {"tx": tx.hash, "block": block.number},
                               now, attachment=ap)
                break
        self.wire.flush(now)
        self.block_aps = self._pending_aps.pop(block.number)
        self._block_reports[block.number] = {}
        try:
            for replica_id in self.live():
                self.wire.send(INGRESS, replica_id, CH_BLOCK,
                               {"number": block.number, "at": now}, now,
                               attachment=block)
            self.wire.flush(now)
        finally:
            self.block_aps = None
            reports = self._block_reports.pop(block.number)
        root = self._root_history.get(block.number)
        if root is None:  # pragma: no cover
            raise SimulationError(
                f"no reachable replica executed block {block.number}")
        by_owner = {
            replica_id: {record.tx_hash: record
                         for record in report.records}
            for replica_id, report in reports.items()}
        records = []
        for tx in block.transactions:
            source = by_owner.get(self.home_of(tx))
            if source is None or tx.hash not in source:
                # The owner is down or across the partition: every
                # executing replica produced an identical record —
                # merge from the lowest one.
                source = by_owner[min(by_owner)]
            records.append(source[tx.hash])
        return self._finish_block(block, root, records)

    def _finish_block(self, block: Block, root: int,
                      records: List) -> BlockReport:
        self.shardpool.remove_all(tx.hash for tx in block.transactions)
        self.c_blocks.inc()
        self.c_txs.inc(len(records))
        merged = BlockReport(block.number, root, records)
        self.reports.append(merged)
        return merged

    # -- lifecycle -------------------------------------------------------

    def tick(self, now: float) -> None:
        """Lifecycle heartbeat: restart due replicas, run the wire
        plane's housekeeping (heartbeats, failure detection, partition
        roll, lease maintenance), then roll the crash dice for each
        live replica (``fleet.replica_crash``)."""
        self._now = now
        due = [entry for entry in self.pending_restarts
               if entry[0] <= now]
        self.pending_restarts = [entry for entry in self.pending_restarts
                                 if entry[0] > now]
        for _, replica_id in sorted(due):
            self.restart(replica_id, now)
        self._wire_tick(now)
        if not self.injector.enabled:
            return
        for replica_id in self.live():
            if len(self.live()) == 1:
                break  # never crash the last replica
            rule = self.injector.evaluate(
                SITE_REPLICA_CRASH, replica=replica_id,
                tick=int(now * 1000))
            if rule is not None:
                self.crash(replica_id, now)

    def crash(self, replica_id: int, now: float) -> bool:
        """Kill a replica and schedule its restart.  No membership
        changes here: the crash silences the replica's heartbeats, the
        failure detector observes the silence and drives the ring
        leave (+ rebalance), and the lease protocol elects a successor
        coordinator once the lease lapses."""
        replica = self.replicas.get(replica_id)
        if replica is None or replica.status != "up" \
                or len(self.live()) == 1:
            return False
        replica.status = "down"
        replica.crashes += 1
        if replica.journal is not None:
            replica.journal.close()
            replica.journal = None
        self.wire.reset_peer(replica_id)
        self.pending_restarts.append(
            (now + self.config.restart_delay, replica_id))
        self.c_crashes.inc()
        self._g_live.set(len(self.live()))
        return True

    def restart(self, replica_id: int, now: float) -> bool:
        """Rebuild a crashed replica: genesis + every block of the chain
        store replayed in order, pool resync from a peer.  Ring
        membership is untouched (see :meth:`crash`).

        The shard journal holds accepted transactions, not blocks: its
        torn tail is cut and it reopens at its next sequence number.

        The replayed world must be byte-identical — every replayed
        block's ``state_root`` is validated inside ``process_block``,
        and the next fleet block cross-checks all replicas again.
        """
        replica = self.replicas.get(replica_id)
        if replica is None or replica.status != "down":
            return False
        node, registry = self._new_node()
        node.admission = self.admission
        for number in sorted(self.block_store):
            block, at = self.block_store[number]
            node.process_block(block, at)
        # Pool/heard resync from a live peer (all replicas hear all
        # gossip, so any peer's view is the canonical one; the
        # coordinator may itself be down mid-election, so fall back to
        # the lowest live replica).
        if self.is_up(self.coordinator_id):
            peer = self.coordinator()
        else:
            peer = self.replicas[self.live()[0]].node
        node.pool = dict(peer.pool)
        node.heard = dict(peer.heard)
        node.executed = set(peer.executed)
        node._pool_version += 1
        replica.node = node
        replica.registry = registry
        replica.status = "up"
        replica.restarts += 1
        replica.applied = set(self.block_store)
        if replica.journal_path is not None:
            _, _, next_seq = recover_accepted(replica.journal_path)
            replica.journal = AcceptedTxLog(replica.journal_path,
                                            next_seq=next_seq)
        # A replica the detector dropped rejoins the ring when its
        # first heartbeat reaches the failure detector.
        self.c_restarts.inc()
        self._g_live.set(len(self.live()))
        return True

    def _rebalance(self) -> None:
        torn = self.shardpool.rebalance()
        self.c_rebalances.inc()
        if torn:
            self._repair_torn(torn)

    def _repair_torn(self, hashes: List[int]) -> None:
        """Restore transactions lost to a torn handoff.

        Scans the shard journals (the accepted-tx logs, through
        :func:`recover_accepted`) for the missing hashes; the
        supervisor's gossip memory is the fallback for journal-less
        fleets.
        """
        todo = set(hashes)
        entries: Dict[int, Tuple[Transaction, float]] = {}
        for replica in self.replicas.values():
            if replica.journal_path is None:
                continue
            for tx, heard in recover_accepted(replica.journal_path)[0]:
                if tx.hash in todo:
                    entries[tx.hash] = (tx, heard)
        executed = self.coordinator().executed
        for tx_hash in sorted(todo):
            found = entries.get(tx_hash) or self.seen.get(tx_hash)
            if found is None or tx_hash in executed:
                continue
            tx, heard = found
            self.shardpool.add(tx, heard)
            self.c_torn_repaired.inc()

    def close(self) -> None:
        # Final settle: heal any open partition and drain the wire so
        # no reliable message is left undelivered at shutdown.
        if self.wire.sim.isolated or self.wire.sim._parked:
            self.wire.heal(self._now)
        self.wire.flush(self._now)
        for replica in self.replicas.values():
            if replica.journal is not None:
                replica.journal.close()
                replica.journal = None

    # -- reporting -------------------------------------------------------

    def lifecycle_report(self) -> dict:
        return {
            "replicas": {
                str(rid): {
                    "status": replica.status,
                    "crashes": replica.crashes,
                    "restarts": replica.restarts,
                }
                for rid, replica in sorted(self.replicas.items())
            },
            "coordinator": self.coordinator_id,
            "generation": self.shardmap.generation,
            "shard_sizes": {str(k): v for k, v
                            in self.shardpool.shard_sizes().items()},
            "wire": self.wire.summary(),
            "lease": self.lease.summary(),
            "warmth": self.warmth.snapshot(),
        }
