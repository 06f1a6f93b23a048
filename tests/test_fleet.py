"""Fleet subsystem units (:mod:`repro.fleet`).

Covers the consistent-hash shard map (minimal-movement rebalance, home
shard election, snapshots), the sharded nonce-aware txpool (routing,
entangled escalation, cross-shard replace-by-fee, requeue, handoff),
the replica lifecycle supervisor (crash / detector-driven ring leave /
lease-voted promotion / journal-replay restart / heartbeat rejoin), the fleet router (placement, failover, deadline penalties),
and the bounded per-client edge maps the fleet leans on.

The cross-shard ordering guarantees ride on seeded property tests
(hypothesis): commit order follows nonce order regardless of which
shard-map generation admitted each transaction, and a reorg requeues
every affected transaction into its *current* home shard's live queue.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction
from repro.consensus.packing import pack_block
from repro.edge import limits, server
from repro.edge.limits import Deadline, RetryBudget, RetryConfig
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    ShardMap,
    ShardedTxPool,
)
from repro.fleet.shardmap import DEFAULT_VNODES, key_point, ring_point
from repro.obs.registry import MetricsRegistry


def make_tx(sender=0xA1, to=0xB1, nonce=0, gas_price=10, value=1):
    return Transaction(sender=sender, to=to, data=b"", value=value,
                       gas_price=gas_price, gas_limit=100_000,
                       nonce=nonce)


# ---------------------------------------------------------------------------
# shardmap.py


class TestShardMap:
    def test_ownership_is_deterministic(self):
        a = ShardMap(replicas=4)
        b = ShardMap(replicas=4)
        for key in range(200):
            assert a.owner(key) == b.owner(key)

    def test_every_replica_owns_keys(self):
        shardmap = ShardMap(replicas=4)
        owners = {shardmap.owner(key) for key in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_leave_moves_only_the_leavers_keys(self):
        shardmap = ShardMap(replicas=4)
        keys = list(range(400))
        before = {key: shardmap.owner(key) for key in keys}
        assert shardmap.leave(2)
        for key in keys:
            after = shardmap.owner(key)
            if before[key] != 2:
                assert after == before[key], "non-leaver key moved"
            else:
                assert after != 2

    def test_rejoin_restores_ownership_exactly(self):
        shardmap = ShardMap(replicas=4)
        keys = list(range(400))
        before = {key: shardmap.owner(key) for key in keys}
        shardmap.leave(1)
        shardmap.join(1)
        assert {key: shardmap.owner(key) for key in keys} == before

    def test_generation_bumps_on_membership_change_only(self):
        shardmap = ShardMap(replicas=3)
        generation = shardmap.generation
        shardmap.owner(42)
        assert shardmap.generation == generation
        shardmap.leave(0)
        assert shardmap.generation == generation + 1
        assert not shardmap.join(1)  # already a member: no-op
        assert shardmap.generation == generation + 1

    def test_last_member_never_leaves(self):
        shardmap = ShardMap(replicas=2)
        assert shardmap.leave(0)
        assert not shardmap.leave(1)
        assert shardmap.members == (1,)

    def test_home_shard_single_owner_short_circuit(self):
        shardmap = ShardMap(replicas=4)
        key = 7
        assert shardmap.home_shard(key) == shardmap.owner(key)

    def test_home_shard_lowest_ring_position_wins(self):
        shardmap = ShardMap(replicas=4)
        sender, to = 11, 23
        owners = {shardmap.owner(sender), shardmap.owner(to)}
        home = shardmap.home_shard(sender, to)
        assert home in owners
        expected = min(owners, key=lambda rid:
                       (shardmap.ring_position(rid), rid))
        assert home == expected

    def test_snapshot_answers_like_the_live_map_did(self):
        shardmap = ShardMap(replicas=4)
        snapshot = shardmap.snapshot()
        before = {key: shardmap.owner(key) for key in range(200)}
        shardmap.leave(3)
        assert {key: snapshot.owner(key) for key in range(200)} == before

    def test_diff_owners_reports_exact_handoffs(self):
        shardmap = ShardMap(replicas=4)
        keys = list(range(300))
        snapshot = shardmap.snapshot()
        shardmap.leave(2)
        moves = {key: snapshot.owner(key) for key in keys
                 if snapshot.owner(key) != shardmap.owner(key)}
        assert moves, "leave must hand off something"
        # Consistent hashing: only the leaver's keys change owner.
        assert set(moves.values()) == {2}

    def test_ring_points_are_stable_tags(self):
        assert ring_point(0, 0) == ring_point(0, 0)
        assert ring_point(0, 0) != ring_point(0, 1)
        assert key_point(5) != ring_point(5, 0)

    def test_vnode_count_smooths_the_ring(self):
        coarse = ShardMap(replicas=4, vnodes=1)
        fine = ShardMap(replicas=4, vnodes=DEFAULT_VNODES)

        def spread(shardmap):
            counts = {}
            for key in range(2000):
                owner = shardmap.owner(key)
                counts[owner] = counts.get(owner, 0) + 1
            return max(counts.values()) / min(counts.values())

        assert spread(fine) <= spread(coarse)


# ---------------------------------------------------------------------------
# shardpool.py


def make_shardpool(shards=4):
    registry = MetricsRegistry()
    shardmap = ShardMap(replicas=shards)
    return ShardedTxPool(shardmap, registry), shardmap


class TestShardedTxPool:
    def test_routes_to_home_shard(self):
        pool, shardmap = make_shardpool()
        tx = make_tx(sender=3, to=3)
        pool.add(tx, now=1.0)
        home = shardmap.home_shard(tx.sender, tx.to)
        assert tx.hash in pool.pools[home]
        assert pool.shard_of(tx) == home

    def test_entangled_tx_escalates_to_home_shard(self):
        pool, shardmap = make_shardpool()
        tx = None
        for sender in range(64):
            for to in range(64, 128):
                candidate = make_tx(sender=sender, to=to)
                if shardmap.owner(sender) != shardmap.owner(to):
                    tx = candidate
                    break
            if tx is not None:
                break
        assert tx is not None
        assert pool.is_entangled(tx)
        pool.add(tx, now=1.0)
        assert pool.shard_of(tx) == shardmap.home_shard(tx.sender, tx.to)

    def test_cross_shard_replace_by_fee(self):
        pool, shardmap = make_shardpool()
        low = make_tx(sender=9, to=17, nonce=0, gas_price=5)
        high = make_tx(sender=9, to=17, nonce=0, gas_price=9)
        pool.add(low, now=1.0)
        pool.add(high, now=2.0)
        pending = pool.pending()
        assert high.hash in {tx.hash for tx in pending}
        assert low.hash not in {tx.hash for tx in pending}

    def test_requeue_recomputes_home_after_membership_change(self):
        pool, shardmap = make_shardpool()
        tx = make_tx(sender=5, to=5)
        pool.add(tx, now=1.0)
        old_home = pool.shard_of(tx)
        shardmap.leave(old_home)
        pool.requeue(tx, now=2.0)
        new_home = shardmap.home_shard(tx.sender, tx.to)
        assert new_home != old_home
        assert tx.hash in pool.pools[new_home]
        assert tx.hash not in pool.pools[old_home]

    def test_rebalance_moves_exactly_the_handed_off_keys(self):
        pool, shardmap = make_shardpool()
        txs = [make_tx(sender=i, to=i) for i in range(60)]
        for i, tx in enumerate(txs):
            pool.add(tx, float(i))
        homes = {tx.hash: pool.shard_of(tx) for tx in txs}
        leaver = 1
        shardmap.leave(leaver)
        assert pool.rebalance() == []  # nothing torn
        moved = {tx.hash for tx in txs if homes[tx.hash] == leaver}
        assert pool.c_moved.value == len(moved)
        for tx in txs:
            assert tx.hash in pool.pools[pool.shard_of(tx)]
            if tx.hash not in moved:
                assert pool.shard_of(tx) == homes[tx.hash]
        assert sum(pool.shard_sizes().values()) == len(txs)

    def test_price_sorted_merges_across_shards(self):
        pool, _ = make_shardpool()
        txs = [make_tx(sender=i, to=i, gas_price=1 + (i % 7))
               for i in range(40)]
        for i, tx in enumerate(txs):
            pool.add(tx, float(i))
        merged = pack_block(pool.pending(), {})
        assert len(merged) == len(txs)
        prices = [tx.gas_price for tx in merged]
        assert prices == sorted(prices, reverse=True)

    def test_ready_for_walks_the_fleet_wide_nonce_index(self):
        pool, _ = make_shardpool()
        sender = 31
        for nonce in (0, 1, 2):
            pool.add(make_tx(sender=sender, to=100 + nonce,
                             nonce=nonce), float(nonce))
        run = pack_block(pool.pending(), {sender: 0})
        assert [tx.nonce for tx in run] == [0, 1, 2]
        assert [tx.nonce for tx in pack_block(pool.pending(),
                                               {sender: 1})] == [1, 2]
        assert pack_block(pool.pending(), {sender: 5}) == []


# ---------------------------------------------------------------------------
# property tests: cross-shard ordering (satellite: seeded hypothesis)


@st.composite
def nonce_chains(draw):
    """A few senders, each with a contiguous nonce chain, plus a
    schedule of shard-map membership changes interleaved with adds."""
    senders = draw(st.lists(st.integers(1, 2**32), min_size=1,
                            max_size=4, unique=True))
    chains = {sender: draw(st.integers(1, 5)) for sender in senders}
    churn = draw(st.lists(st.sampled_from(["leave", "join"]),
                          max_size=4))
    return senders, chains, churn


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=nonce_chains(), seed=st.integers(0, 2**16))
def test_commit_order_follows_nonce_order_across_generations(data, seed):
    """Adds interleaved with shard-map churn: whatever generation
    admitted each tx, packing the fleet-wide pending view yields every
    sender's chain in nonce order, and no transaction is lost or
    duplicated."""
    senders, chains, churn = data
    rng = random.Random(seed)
    registry = MetricsRegistry()
    shardmap = ShardMap(replicas=4)
    pool = ShardedTxPool(shardmap, registry)
    txs = [make_tx(sender=sender, to=rng.getrandbits(32),
                   nonce=nonce, gas_price=1 + rng.randrange(9))
           for sender in senders
           for nonce in range(chains[sender])]
    rng.shuffle(txs)
    events = txs + [("churn", op) for op in churn]
    rng.shuffle(events)
    now = 0.0
    for event in events:
        now += 0.25
        if isinstance(event, tuple):
            _, op = event
            members = list(shardmap.members)
            if op == "leave" and len(members) > 1:
                shardmap.leave(rng.choice(members))
                pool.rebalance()
            elif op == "join":
                absent = [rid for rid in range(4) if rid not in shardmap]
                if absent:
                    shardmap.join(rng.choice(absent))
                    pool.rebalance()
        else:
            pool.add(event, now)
    assert sum(pool.shard_sizes().values()) == len(txs)
    packed = pack_block(pool.pending(), {}, gas_limit=10**12)
    assert len(packed) == len(txs)
    for sender in senders:
        run = [tx for tx in packed if tx.sender == sender]
        assert [tx.nonce for tx in run] == list(range(chains[sender]))
        homes = {pool.shard_of(tx) for tx in run}
        for tx in run:
            assert tx.hash in pool.pools[pool.shard_of(tx)]
        assert all(home in shardmap for home in homes)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), count=st.integers(1, 12),
       churn=st.booleans())
def test_reorg_requeue_lands_in_owning_shards_live_queue(seed, count,
                                                        churn):
    """Requeued (reorged) transactions re-enter through their *current*
    home shard — including after a membership change between the
    original admission and the reorg."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    shardmap = ShardMap(replicas=4)
    pool = ShardedTxPool(shardmap, registry)
    txs = [make_tx(sender=rng.getrandbits(32), to=rng.getrandbits(32),
                   nonce=0) for _ in range(count)]
    for i, tx in enumerate(txs):
        pool.add(tx, float(i))
    # The block "commits" them...
    pool.remove_all([tx.hash for tx in txs])
    assert sum(pool.shard_sizes().values()) == 0
    if churn and len(shardmap.members) > 1:
        shardmap.leave(rng.choice(list(shardmap.members)))
        pool.rebalance()
    # ...then the reorg throws them back.
    for tx in txs:
        pool.requeue(tx, 100.0)
    for tx in txs:
        home = shardmap.home_shard(tx.sender, tx.to)
        assert tx.hash in pool.pools[home]
        others = [rid for rid in shardmap.members if rid != home]
        assert all(tx.hash not in pool.pools[rid] for rid in others)


# ---------------------------------------------------------------------------
# supervisor.py lifecycle


@pytest.fixture()
def small_fleet(world):
    from repro.chain.block import Block, BlockHeader
    genesis = Block(header=BlockHeader(number=0, timestamp=0,
                                       coinbase=0))
    genesis.state_root = world.copy().root()
    supervisor = FleetSupervisor(world, genesis, FleetConfig(shards=4),
                                 registry=MetricsRegistry())
    yield supervisor
    supervisor.close()


class TestSupervisorLifecycle:
    def test_crash_promotes_and_rebalances(self, small_fleet):
        supervisor = small_fleet
        assert supervisor.coordinator_id == 0
        generation = supervisor.shardmap.generation
        supervisor.tick(now=2.0)  # heartbeats prime the detector
        assert supervisor.crash(0, now=2.5)
        assert supervisor.replicas[0].status == "down"
        # Membership is observational: the crash itself moves nothing.
        assert supervisor.coordinator_id == 0
        assert supervisor.shardmap.generation == generation
        # The bootstrap lease (granted at t=0 for 6 s) cannot be
        # renewed by a dead holder; once it lapses the live majority
        # votes in the lowest live replica.
        supervisor.tick(now=4.0)
        assert supervisor.coordinator_id == 0
        supervisor.tick(now=6.0)
        assert supervisor.coordinator_id == 1
        assert supervisor.c_promotions.value == 1
        assert supervisor.lease.current.holder == 1
        # Heartbeat silence reaches suspect_after: ring leave + rebalance.
        assert 0 in supervisor.shardmap
        supervisor.tick(now=8.0)
        assert 0 not in supervisor.shardmap
        assert supervisor.shardmap.generation == generation + 1
        assert supervisor.c_detector_leaves.value == 1
        assert supervisor.c_rebalances.value == 1
        # All live replicas share the fleet admission ledger.
        for rid in supervisor.live():
            assert supervisor.replicas[rid].node.admission \
                is supervisor.admission
        supervisor.lease.assert_single_holder_per_term()

    def test_crash_never_kills_the_last_replica(self, small_fleet):
        supervisor = small_fleet
        for rid in (0, 1, 2):
            assert supervisor.crash(rid, now=1.0)
        assert not supervisor.crash(3, now=1.0)
        assert supervisor.live() == [3]

    def test_restart_rejoins_and_journal_survives(self, small_fleet,
                                                  world):
        supervisor = small_fleet
        tx = make_tx(sender=0xA1, to=0xB1)
        supervisor.on_transaction(tx, now=0.5)
        victim = supervisor.home_of(tx)
        supervisor.tick(now=2.0)
        supervisor.crash(victim, now=2.5)
        assert victim in supervisor.shardmap
        supervisor.tick(now=8.0)  # silence >= suspect_after: ring leave
        assert victim not in supervisor.shardmap
        # The tx survived the crash in another shard's live queue.
        assert supervisor.home_of(tx) != victim
        assert sum(supervisor.shardpool.shard_sizes().values()) == 1
        supervisor.restart(victim, now=9.0)
        assert supervisor.replicas[victim].status == "up"
        # Restarted node heard the pending tx again via peer resync.
        assert tx.hash in supervisor.replicas[victim].node.pool
        # The restart itself changes no membership; the fresh
        # incarnation's first heartbeat rejoins the ring.
        assert victim not in supervisor.shardmap
        supervisor.tick(now=10.0)
        assert victim in supervisor.shardmap
        assert supervisor.c_detector_joins.value == 1
        assert supervisor.home_of(tx) == victim

    def test_tick_runs_due_restarts(self, small_fleet):
        supervisor = small_fleet
        supervisor.crash(2, now=1.0)
        assert supervisor.pending_restarts
        supervisor.tick(now=1.0 + supervisor.config.restart_delay + 1.0)
        assert not supervisor.pending_restarts
        assert supervisor.replicas[2].status == "up"


# ---------------------------------------------------------------------------
# edge maps are bounded (satellite: LRU eviction regression)


class TestBoundedClientMaps:
    def test_ten_thousand_clients_stay_bounded_and_deterministic(
            self, world, monkeypatch):
        from repro.core.node import ForerunnerNode

        monkeypatch.setattr(server, "CLIENT_STATE_CAPACITY", 256)

        def storm():
            node = ForerunnerNode(world.copy(),
                                  registry=MetricsRegistry())
            edge = server.EdgeServer(node, registry=MetricsRegistry())
            outcomes = []
            for i in range(10_000):
                raw = ('{"jsonrpc":"2.0","id":"c%d","method":"eth_call",'
                       '"params":[{"to":"0x1"}]}' % i)
                _, outcome = edge.handle_raw(raw, client_id=i,
                                             now=0.001 * i)
                outcomes.append(outcome.status)
            return edge, outcomes

        first, outcomes_a = storm()
        second, outcomes_b = storm()
        assert len(first.buckets) <= 256
        assert first.buckets.evictions == 10_000 - 256
        # Deterministic: same eviction points, byte-identical outcomes.
        assert outcomes_a == outcomes_b
        assert list(first.buckets.keys()) == list(second.buckets.keys())

    def test_retry_budget_rng_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(limits, "CLIENT_STATE_CAPACITY", 64)
        budget = RetryBudget(RetryConfig(budget_tokens=1e9,
                                         max_attempts=3), seed=7)
        deadline = Deadline(expires_at=1e9, budget_units=1)
        for client in range(1000):
            budget.next_retry(client, 1, now=0.0, deadline=deadline)
        assert len(budget._rngs) <= 64
        # Evicted client streams restart deterministically.
        first = budget.next_retry(0, 1, now=0.0, deadline=deadline)
        fresh = RetryBudget(RetryConfig(budget_tokens=1e9), seed=7)
        assert first == fresh.next_retry(0, 1, now=0.0,
                                         deadline=deadline)
