"""Wire-plane integration: the fleet under a hostile network.

* **Clean equivalence** lives in ``tests/test_fleet_equivalence.py``:
  the wire is the fleet's only inter-replica path, so fleet-vs-single-
  node at shards 1/2/4/8 *is* the clean-wire matrix.  Here: the clean
  run really crossed the wire, and the supervisor retains block reports
  only for the block in flight.
* **Chaos containment** — ``net.drop`` / ``net.duplicate`` /
  ``net.reorder`` / ``net.delay`` / ``net.partition`` at 1%, 5% and
  100% (seeds 0-2) leave chain commitments (roots + receipts)
  byte-identical to the clean run, and two same-seed faulted runs
  are byte-identical to each other down to every speculation-quality
  column.  Faults may degrade speculation accuracy (a dropped AP
  snapshot means an older prediction context) — that is the paper's
  contract: speculation quality is best-effort, commitments are not.
* **Partition safety** — isolating the coordinator expires its lease,
  a quorum-side replica is promoted through a voted election, the
  minority assembles no quorum, and the heal replays parked traffic to
  byte-identical state; the lease oracle re-verifies at most one
  holder per term over the whole trace.
* **Observational membership** — a crash becomes a ring leave only
  through heartbeat silence; a replica that restarts faster than
  ``suspect_after`` never leaves the ring at all.
"""

from __future__ import annotations

import pytest

from repro.edge.journal import RECORD_ACCEPT, recover_accepted
from repro.faults.injector import FaultPlan
from repro.faults.sites import (
    NET_LOSS_SITES,
    SITE_NET_PARTITION,
    SITE_REPLICA_CRASH,
)
from repro.fleet import FleetConfig, FleetSupervisor, fleet_replay
from repro.p2p.latency import LatencyModel
from repro.recovery.journal import read_journal
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.conftest import sweep_params


@pytest.fixture(scope="module")
def dataset():
    return record_dataset(DatasetConfig(
        name="wire-fleet",
        traffic=TrafficConfig(duration=8.0, seed=13),
        observers={"live": LatencyModel()},
        seed=13))


@pytest.fixture(scope="module")
def clean_wire_run(dataset):
    return fleet_replay(dataset, config=FleetConfig(shards=4))


# -- the clean wire --------------------------------------------------------


def test_wire_actually_carries_the_traffic(clean_wire_run):
    """Anti-vacuity: the clean run really crossed the wire — framed
    sends, deliveries, acks, heartbeats — and the bootstrap lease held
    (admission was never halted on a clean network)."""
    supervisor = clean_wire_run.supervisor
    wire = supervisor.wire.summary()
    assert wire["sent"] > 0
    assert wire["delivered"] > 0
    assert wire["acks"] > 0
    assert supervisor.wire.c_heartbeats.value > 0
    assert wire["retries"] == 0
    assert supervisor.c_admission_halted.value == 0
    assert supervisor.lease.current is not None
    supervisor.lease.assert_single_holder_per_term()


def test_block_reports_hold_only_the_block_in_flight(dataset):
    """``block.commit`` reports are kept for the block being merged and
    dropped with it; a healed replica's late catch-up deliveries are
    root-checked but never stored."""
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block,
                                 FleetConfig(shards=4))
    held = []
    deliver = supervisor._on_block_commit

    def spy(*args):
        deliver(*args)
        held.append(tuple(supervisor._block_reports))

    supervisor._on_block_commit = spy
    supervisor.wire.partition({3}, now=0.0, seconds=1e9)
    assert len(dataset.blocks) > 1
    for at, block in dataset.blocks:
        supervisor.process_block(block, at)
        assert supervisor._block_reports == {}
    in_flight = len(held)
    assert in_flight == 3 * len(dataset.blocks)
    assert all(keys == (block.number,) for keys, (_, block) in
               zip(held[::3], dataset.blocks))
    supervisor.close()  # heals: replica 3 catches up, late
    assert len(held) == 4 * len(dataset.blocks)
    assert all(keys == () for keys in held[in_flight:])
    assert len(supervisor._root_history) == len(dataset.blocks)


# -- chaos containment ----------------------------------------------------


@pytest.mark.parametrize(**sweep_params("net", seed=0))
def test_net_site_containment_at_full_rate(dataset, clean_wire_run,
                                           site, plan):
    """The ``net`` layer's sweep (every site at p=1.0): the fault fires
    constantly and chain commitments — roots + receipt cores; network
    faults may legitimately shift speculation-quality columns — stay
    byte-identical to the clean wire run."""
    run = fleet_replay(dataset, config=FleetConfig(
        shards=4, fault_plan=plan))
    assert run.supervisor.injector.fired(site) > 0
    assert run.commitments() == clean_wire_run.commitments()
    run.supervisor.lease.assert_single_holder_per_term()


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("probability", (0.01, 0.05))
def test_loss_rates_converge_and_are_deterministic(dataset,
                                                   clean_wire_run,
                                                   probability, seed):
    """Drop+duplicate+reorder+delay together at 1% and 5% (seeds 0-2):
    chain commitments byte-identical to clean, and two same-seed runs
    byte-identical to each other down to every record column."""
    plan = FaultPlan.uniform(seed, probability, sites=NET_LOSS_SITES)
    config = FleetConfig(shards=4, fault_plan=plan)
    first = fleet_replay(dataset, config=config)
    again = fleet_replay(dataset, config=config)
    fired = sum(first.supervisor.injector.fired(site)
                for site in NET_LOSS_SITES)
    assert fired > 0
    assert first.commitments() == clean_wire_run.commitments()
    assert first.commitments() == again.commitments()
    assert first.records == again.records


# -- partition / lease election -------------------------------------------


def test_partition_elects_quorum_side_and_heals(dataset,
                                                clean_wire_run):
    """Repeated coordinator isolation under chaos: leases lapse,
    quorum-side replicas win voted elections (promotions), minority
    campaigns fail, heals replay parked traffic — and the committed
    chain never moves."""
    plan = FaultPlan.uniform(1, 1.0, sites=(SITE_NET_PARTITION,))
    run = fleet_replay(dataset, config=FleetConfig(
        shards=4, fault_plan=plan))
    supervisor = run.supervisor
    assert supervisor.wire.sim.partitions > 0
    assert supervisor.wire.sim.heals > 0
    assert supervisor.c_promotions.value > 0
    # More elections than grants: the doomed minority campaigns.
    assert supervisor.lease.elections > len(supervisor.lease.history)
    assert run.commitments() == clean_wire_run.commitments()
    supervisor.lease.assert_single_holder_per_term()


def test_partitioned_coordinator_halts_and_minority_has_no_quorum(
        dataset):
    """Direct drive of the ISSUE's partition scenario: isolate the
    coordinator, let its lease lapse — admission halts; the minority
    campaign assembles no quorum while the majority promotes; the heal
    re-joins the replica through the failure detector."""
    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block,
                                 FleetConfig(shards=4))
    old = supervisor.coordinator_id
    supervisor.wire.partition({old}, now=0.0, seconds=100.0)
    # Lease (granted at t=0, 6s) has lapsed by t=7; no tick has run an
    # election yet, so admission is gated shut.
    assert supervisor.run_speculation(7.0) == 0
    assert supervisor.c_admission_halted.value == 1
    # The tick pumps heartbeats (the coordinator's parks at the cut),
    # detects its silence, and elects a quorum-side successor.
    supervisor.tick(7.0)
    assert supervisor.coordinator_id != old
    assert supervisor.c_promotions.value == 1
    assert supervisor.c_detector_leaves.value == 1
    assert old not in supervisor.shardmap
    # The minority candidate opened a term but won nothing: strictly
    # more elections than granted leases.
    lease = supervisor.lease
    assert lease.elections > len(lease.history)
    assert lease.current.holder == supervisor.coordinator_id
    # Admission flows again under the new lease.
    assert supervisor.lease.valid(supervisor.coordinator_id, 7.5)
    # Heal: the ex-coordinator's next heartbeat re-joins the ring.
    supervisor.wire.heal(8.0)
    supervisor.tick(8.0)
    assert old in supervisor.shardmap
    assert supervisor.c_detector_joins.value == 1
    lease.assert_single_holder_per_term()
    supervisor.close()


def test_crash_membership_flows_through_detector(dataset):
    """A crash changes no membership directly: the ring leave waits
    for observed heartbeat silence, and the restart re-joins via a
    fresh-incarnation heartbeat."""
    supervisor = FleetSupervisor(
        dataset.genesis_world, dataset.genesis_block,
        FleetConfig(shards=4, restart_delay=10.0))
    supervisor.tick(2.0)  # heartbeats prime the detector
    victim = 2
    generation = supervisor.shardmap.generation
    assert supervisor.crash(victim, 2.5)
    # Still a ring member: no heartbeat silence observed yet.
    assert victim in supervisor.shardmap
    assert supervisor.shardmap.generation == generation
    supervisor.tick(4.0)  # silence 2s < suspect_after
    assert victim in supervisor.shardmap
    supervisor.tick(8.0)  # silence 6s >= 5s: detector drives the leave
    assert victim not in supervisor.shardmap
    assert supervisor.c_detector_leaves.value == 1
    supervisor.tick(13.0)  # restart due at 12.5; fresh incarnation
    assert supervisor.is_up(victim)
    assert victim in supervisor.shardmap
    assert supervisor.c_detector_joins.value == 1
    supervisor.close()


def test_fast_restart_never_leaves_the_ring(dataset, clean_wire_run):
    """``restart_delay < suspect_after``: every crashed replica is
    heartbeating again before the detector's silence threshold, so the
    ring generation never moves, no handoff window opens — and the
    restarts still converge to the clean chain."""
    plan = FaultPlan.uniform(0, 0.5, sites=(SITE_REPLICA_CRASH,))
    config = FleetConfig(shards=4, fault_plan=plan, restart_delay=4.0)
    assert config.restart_delay < config.wire.suspect_after
    run = fleet_replay(dataset, config=config)
    supervisor = run.supervisor
    assert supervisor.c_crashes.value > 0
    assert supervisor.c_restarts.value > 0
    assert supervisor.c_detector_leaves.value == 0
    assert supervisor.c_rebalances.value == 0
    assert supervisor.shardmap.generation == \
        clean_wire_run.supervisor.shardmap.generation
    assert run.commitments() == clean_wire_run.commitments()
    supervisor.lease.assert_single_holder_per_term()


def test_second_restart_replays_blocks_the_first_caught_up(dataset,
                                                           tmp_path):
    """A journaled replica misses block 1 while down and catches it up
    at restart without journaling it; block 2 is journaled; a second
    crash and restart must still rebuild the chain's world (replaying
    the shard journal alone skips block 1: state root mismatch)."""
    supervisor = FleetSupervisor(
        dataset.genesis_world, dataset.genesis_block,
        FleetConfig(shards=4, journal_dir=str(tmp_path)))
    (first_at, first), (second_at, second) = dataset.blocks[:2]
    victim = 2
    assert supervisor.crash(victim, 0.0)
    supervisor.process_block(first, first_at)
    assert supervisor.restart(victim, first_at)
    supervisor.process_block(second, second_at)
    assert supervisor.crash(victim, second_at)
    assert supervisor.restart(victim, second_at)
    assert supervisor.node(victim).world.root() == second.state_root
    supervisor.close()


def test_shard_journals_hold_only_accepted_txs(dataset, clean_wire_run,
                                              tmp_path):
    """A shard journal is the accepted-tx log: one ``edge.accept``
    record per first sighting of a transaction the shard is home to —
    no block records — and journaling moves no commitment."""
    run = fleet_replay(dataset, config=FleetConfig(
        shards=4, journal_dir=str(tmp_path)))
    supervisor = run.supervisor
    types, accepted = set(), []
    for replica in supervisor.replicas.values():
        types |= {record.type
                  for record in read_journal(replica.journal_path).records}
        entries, torn, _ = recover_accepted(replica.journal_path)
        assert torn == 0
        accepted += [tx.hash for tx, _ in entries]
        assert all(supervisor.home_of(tx) == replica.replica_id
                   for tx, _ in entries)
    assert types == {RECORD_ACCEPT}
    assert sorted(accepted) == sorted(supervisor.seen)
    assert run.commitments() == clean_wire_run.commitments()


# -- warmth-weighted read placement ---------------------------------------


def test_warmth_weighted_read_placement(dataset):
    """A measurably warmer ring successor attracts reads; ties keep
    the deterministic lower-id choice."""
    from repro.edge.server import EdgeConfig
    from repro.fleet import FleetRouter

    supervisor = FleetSupervisor(dataset.genesis_world,
                                 dataset.genesis_block,
                                 FleetConfig(shards=4))
    router = FleetRouter(supervisor, EdgeConfig())
    raw = ('{"jsonrpc": "2.0", "id": "r1", "method": "eth_call", '
           '"params": [{"to": "0x1234"}]}')
    key = router._routing_key(raw)
    owner, kind = router._resolve(key)
    assert kind == "read"
    successor = supervisor.shardmap.successor(owner)
    # Cold start: both warmths are 0.0 — the lower replica id wins.
    expected_cold = min(owner, successor)
    assert router._warmth_read_target(owner) == expected_cold
    # Make the successor measurably warmer: reads move to it.
    supervisor.warmth.update(successor, 0.9)
    supervisor.warmth.update(owner, 0.1)
    assert router._warmth_read_target(owner) == successor
    _, _, route = router.dispatch(raw, client_id=0, now=1.0)
    assert route.replica == successor
    assert route.warmth == (successor != owner)
    assert router.c_warmth.value == (1 if successor != owner else 0)
    # Swing warmth back (EWMA, so it takes a few samples each way):
    # the owner reclaims its reads.
    for _ in range(3):
        supervisor.warmth.update(owner, 1.0)
        supervisor.warmth.update(successor, 0.0)
    assert router._warmth_read_target(owner) == owner
    supervisor.close()
