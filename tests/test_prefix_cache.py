"""Prefix cache, StateDB forks, synthesis dedup, and cache coherence."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core import prefix_cache, speculator as speculator_module
from repro.core.chainsync import ChainManager
from repro.core.node import BaselineNode, ForerunnerNode
from repro.core.prefix_cache import PrefixCache, PrefixEntry
from repro.core.speculator import FutureContext, Speculator
from repro.state.diskio import WARM_COST
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, BOB, FEED, ROUND, speculate_many
from tests.test_storage_chainsync import (
    fresh_world,
    genesis_block,
    make_block,
    submit_tx,
)

PF = pricefeed()
PRICE_SLOT = PF.slot_of("prices", ROUND)


def oracle_world():
    world = fresh_world()
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), ROUND)
    account.set_storage(PRICE_SLOT, 2000)
    account.set_storage(PF.slot_of("submissionCounts", ROUND), 4)
    return world


def header(ts=3990462):
    return BlockHeader(number=1, timestamp=ts, coinbase=0xBEEF)


# -- StateDB fork chains ------------------------------------------------------

class TestStateDBFork:
    def test_fork_inherits_values_and_warmth(self):
        parent = StateDB(oracle_world())
        parent.set_storage(FEED, PRICE_SLOT, 777)
        child = parent.fork()
        # The child sees the parent's uncommitted write...
        assert child.get_storage(FEED, PRICE_SLOT) == 777
        # ...and pays warm cost for it — exactly what a single
        # sequential StateDB would have charged after the first touch.
        stats = child.disk.stats
        assert stats.cold_account_loads == 0
        assert stats.cold_slot_loads == 0
        assert stats.cost_units == stats.warm_hits * WARM_COST

    def test_fork_freezes_parent(self):
        parent = StateDB(oracle_world())
        parent.fork()
        with pytest.raises(RuntimeError):
            parent.set_storage(FEED, PRICE_SLOT, 1)

    def test_fork_chain_isolation(self):
        parent = StateDB(oracle_world())
        child = parent.fork()
        child.set_storage(FEED, PRICE_SLOT, 888)
        grandchild = child.fork()
        assert grandchild.get_storage(FEED, PRICE_SLOT) == 888
        # Sibling forks of the same parent never see each other.
        sibling = parent.fork()
        assert sibling.get_storage(FEED, PRICE_SLOT) == 2000

    def test_forked_view_cannot_commit(self):
        parent = StateDB(oracle_world())
        child = parent.fork()
        with pytest.raises(RuntimeError):
            child.commit()


# -- PrefixCache mechanics ----------------------------------------------------

class TestPrefixCache:
    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(prefix_cache, "PREFIX_CACHE_CAPACITY", 2)
        cache = PrefixCache()
        world = WorldState()
        for key in ("a", "b", "c"):
            cache.store(key, PrefixEntry(StateDB(world), 0, 0))
        assert len(cache) == 2
        assert cache.c_evictions.value == 1
        assert cache.lookup("a") is None
        assert cache.lookup("c") is not None

    def test_disabled_cache_is_inert(self):
        cache = PrefixCache(enabled=False)
        cache.store("a", PrefixEntry(StateDB(WorldState()), 0, 0))
        assert len(cache) == 0
        assert cache.lookup("a") is None

    def test_invalidate_counts_once(self):
        cache = PrefixCache()
        cache.store("a", PrefixEntry(StateDB(WorldState()), 0, 0))
        assert cache.invalidate("test") == 1
        assert cache.invalidate("test") == 0
        assert cache.c_invalidations.value == 1


# -- shared-prefix reuse across contexts --------------------------------------

def submit(sender, nonce, price):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, price),
                       nonce=nonce)


class TestPrefixReuse:
    def test_shared_prefix_materialized_once(self):
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        preds = (submit(BOB, 0, 2060),)
        speculator.speculate(target, FutureContext(1, header(), preds))
        speculator.speculate(target, FutureContext(2, header(), preds))
        cache = speculator.prefix_cache
        assert cache.c_pred_execs.value == 1
        assert cache.c_pred_execs_avoided.value == 1
        assert cache.c_hits.value == 1 and cache.c_misses.value == 1
        assert speculator.records[-1].preds_cached == 1
        assert speculator.records[-1].preds_executed == 0

    def test_cached_prefix_yields_identical_trace(self):
        """The trace built on a cached prefix must be byte-identical to
        the one a from-scratch speculator produces."""
        target = submit(ALICE, 0, 1980)
        preds = (submit(BOB, 0, 2060),)
        paths = {}
        for enabled in (True, False):
            speculator = Speculator(oracle_world(),
                                    enable_prefix_cache=enabled,
                                    enable_synth_dedup=False)
            speculator.speculate(target, FutureContext(1, header(), preds))
            paths[enabled] = speculator.speculate(
                target, FutureContext(2, header(), preds))
            last = speculator.records[-1]
            assert last.merged
        cached, uncached = paths[True], paths[False]
        assert cached.read_set == uncached.read_set
        assert len(cached.instrs) == len(uncached.instrs)
        assert cached.gas_used == uncached.gas_used

    def test_logical_cost_independent_of_cache(self):
        """Worker scheduling uses the logical cost, which must not
        change when the prefix is served from cache."""
        target = submit(ALICE, 0, 1980)
        preds = (submit(BOB, 0, 2060),)
        totals = {}
        for enabled in (True, False):
            speculator = Speculator(oracle_world(),
                                    enable_prefix_cache=enabled)
            speculator.speculate(target, FutureContext(1, header(), preds))
            speculator.speculate(target, FutureContext(2, header(), preds))
            totals[enabled] = speculator.c_logical_cost.value
            if enabled:
                paid = speculator.c_actual_cost.value
                assert paid < speculator.c_logical_cost.value
        assert totals[True] == totals[False]


# -- synthesis dedup ----------------------------------------------------------

class TestSynthesisDedup:
    def test_identical_trace_deduped(self):
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        first = speculator.speculate(target, FutureContext(1, header()))
        second = speculator.speculate(target, FutureContext(2, header()))
        assert speculator.c_dedup_hits.value == 1
        assert speculator.records[-1].deduped
        assert speculator.records[-1].merged
        # The clone is a fresh path object with its own identity.
        assert second.path_id != first.path_id
        assert second.context_id == 2
        # Dedup pays the check and the replayed I/O, not pre-execution
        # + synthesis.
        assert speculator.records[-1].synthesis_cost < \
            speculator.records[0].synthesis_cost
        assert speculator.records[-1].logical_cost == \
            speculator.records[0].logical_cost
        assert speculator.c_dedup_cost_saved.value > 0

    def test_different_traces_not_deduped(self):
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        speculator.speculate(target, FutureContext(1, header(3990462)))
        speculator.speculate(target, FutureContext(2, header(3990470)))
        assert speculator.c_dedup_hits.value == 0
        assert speculator.c_dedup_misses.value == 2

    def test_dedup_disabled_resynthesizes(self):
        speculator = Speculator(oracle_world(), enable_synth_dedup=False)
        target = submit(ALICE, 0, 1980)
        speculator.speculate(target, FutureContext(1, header()))
        speculator.speculate(target, FutureContext(2, header()))
        assert speculator.c_dedup_hits.value == 0
        assert not any(r.deduped for r in speculator.records)

    def test_drop_clears_fingerprints(self):
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        speculator.speculate(target, FutureContext(1, header()))
        speculator.drop(target.hash)
        speculator.speculate(target, FutureContext(2, header()))
        # After the AP was dropped, the dedup index is gone too:
        # the new speculation synthesizes from scratch.
        assert speculator.c_dedup_hits.value == 0

    def test_speculate_many_counts_only_merged(self, monkeypatch):
        """A batch counts the paths merge_path accepted, not paths
        synthesized."""
        monkeypatch.setattr("repro.core.speculator.merge_path",
                            lambda ap, path, metrics=None: False)
        speculator = Speculator(oracle_world())
        contexts = [FutureContext(i, header(3990462 + i))
                    for i in range(1, 4)]
        merged = speculate_many(speculator, submit(ALICE, 0, 1980),
                                contexts)
        assert merged == 0
        assert all(not r.merged for r in speculator.records)


# -- dedup index lifecycle (bounded, detached, invalidated) -------------------

def dedup_index_size(speculator) -> int:
    """Total known paths currently held across all transactions."""
    return sum(len(entry) for entry in speculator._dedup.values())


class TestDedupLifecycle:
    def test_clone_does_not_alias_cached_path(self):
        """Regression: the dedup index used to store the merged
        path object itself, so mutating a merged path's stats (or read
        set) silently corrupted every later dedup clone."""
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        first = speculator.speculate(target, FutureContext(1, header()))
        second = speculator.speculate(target, FutureContext(2, header()))
        assert speculator.c_dedup_hits.value == 1
        trace_len = second.stats.trace_len
        # Corrupt both previously returned paths...
        first.stats.trace_len += 1000
        second.stats.trace_len += 1000
        first.read_set[("poison", ())] = 1
        # ...and the next clone must be untouched.
        third = speculator.speculate(target, FutureContext(3, header()))
        assert speculator.c_dedup_hits.value == 2
        assert third.stats.trace_len == trace_len
        assert ("poison", ()) not in third.read_set
        assert third.stats is not first.stats
        assert third.stats is not second.stats

    def test_dedup_index_bounded_per_tx(self, monkeypatch):
        """Regression: the dedup index grew without bound.  Distinct
        traces for one transaction now evict LRU past the cap."""
        monkeypatch.setattr(speculator_module, "DEDUP_CAPACITY_PER_TX", 2)
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        for i in range(4):
            # Different timestamps -> different traces -> new entries.
            speculator.speculate(
                target, FutureContext(i + 1, header(3990462 + 8 * i)))
        assert dedup_index_size(speculator) <= 2
        assert speculator.c_dedup_evictions.value == 2

    def test_discard_clears_fingerprints(self):
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        speculator.speculate(target, FutureContext(1, header()))
        assert dedup_index_size(speculator) == 1
        speculator.discard(target.hash)
        assert dedup_index_size(speculator) == 0
        assert speculator.get_ap(target.hash) is None
        speculator.speculate(target, FutureContext(2, header()))
        assert speculator.c_dedup_hits.value == 0

    def test_reorg_clears_fingerprints(self):
        """Regression: a reorg invalidated prefixes but left the
        dedup index pointing at paths synthesized against the
        abandoned branch's state."""
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        speculator.speculate(
            target, FutureContext(1, header(), (submit(BOB, 0, 2060),)))
        assert dedup_index_size(speculator) == 1
        assert len(speculator.prefix_cache) == 1
        speculator.on_reorg()
        assert dedup_index_size(speculator) == 0
        assert len(speculator.prefix_cache) == 0

    def test_node_reorg_reaches_speculator(self):
        node = ForerunnerNode(fresh_world())
        target = submit(ALICE, 0, 1980)
        node.speculator.speculate(target, FutureContext(1, header()))
        assert dedup_index_size(node.speculator) == 1
        node.on_reorg()
        assert dedup_index_size(node.speculator) == 0
        assert node.c_reorgs.value == 1

    def test_merge_failed_path_not_indexed(self, monkeypatch):
        """Only merged paths may be cloned: a rejected path lives in no
        AP, so resurrecting it via dedup would bypass merge entirely."""
        monkeypatch.setattr("repro.core.speculator.merge_path",
                            lambda ap, path, metrics=None: False)
        speculator = Speculator(oracle_world())
        target = submit(ALICE, 0, 1980)
        speculator.speculate(target, FutureContext(1, header()))
        assert dedup_index_size(speculator) == 0
        speculator.speculate(target, FutureContext(2, header()))
        assert speculator.c_dedup_hits.value == 0


# -- cache coherence across heads and reorgs ----------------------------------

class TestCacheCoherence:
    def test_new_head_invalidates_prefixes(self):
        node = ForerunnerNode(fresh_world())
        target = submit(ALICE, 0, 1980)
        preds = (submit(BOB, 0, 2060),)
        node.speculator.speculate(
            target, FutureContext(1, header(), preds))
        assert len(node.speculator.prefix_cache) == 1
        block = make_block(genesis_block(), [submit(ALICE, 0, 2000)])
        node.process_block(block)
        assert len(node.speculator.prefix_cache) == 0
        assert node.speculator.prefix_cache.c_invalidations.value == 1

    def test_reorg_invalidates_and_roots_match(self):
        """Speculate -> reorg -> cache dropped; accelerated execution
        on the winning branch still produces the baseline's roots."""
        node = ForerunnerNode(fresh_world())
        manager = ChainManager(node, genesis_block())
        genesis = manager.chain.genesis

        # Canonical head: Alice's first submission.
        alice0 = submit_tx(ALICE, 0, 2000)
        node.on_transaction(alice0, now=0.0)
        a1 = make_block(genesis, [alice0])
        manager.receive_block(a1, now=1.0)

        # Speculate Alice's next submission behind a Bob predecessor —
        # this materializes a prefix on the a1 head.
        bob0 = submit_tx(BOB, 0, 2100)
        target = submit_tx(ALICE, 1, 1980)
        node.on_transaction(bob0, now=1.1)
        node.on_transaction(target, now=1.2)
        spec_header = BlockHeader(
            number=2, timestamp=a1.header.timestamp + 13, coinbase=0xE0)
        path = node.speculator.speculate(
            target, FutureContext(1, spec_header, (bob0,)))
        assert path is not None
        assert len(node.speculator.prefix_cache) == 1
        version_before = node.world.version

        # Competing branch wins: the prefix state is now meaningless.
        b1 = make_block(genesis, [submit_tx(BOB, 0, 1500)], ts_offset=14)
        b2 = make_block(b1, [])
        assert manager.receive_block(b1, now=2.0) is None
        assert len(node.speculator.prefix_cache) == 1  # losing fork: keep
        assert manager.receive_block(b2, now=2.5) is not None
        assert manager.reorgs == 1
        assert len(node.speculator.prefix_cache) == 0
        assert node.speculator.prefix_cache.c_invalidations.value >= 1
        # The in-place restore bumped the version, so even a stale
        # entry that survived could never be keyed back in.
        assert node.world.version != version_before

        # Execute the speculated transactions on the winning branch —
        # through the accelerator, with the pre-reorg AP still merged.
        assert node.speculator.get_ap(target.hash) is not None
        bob1 = submit_tx(BOB, 1, 2100)
        b3 = make_block(b2, [alice0, bob1, target])
        report = manager.receive_block(b3, now=3.0)
        assert report is not None

        reference = BaselineNode(fresh_world())
        for block in (b1, b2, b3):
            reference.process_block(block)
        assert node.world.root() == reference.world.root()

    def test_speculation_repopulates_after_reorg(self):
        node = ForerunnerNode(fresh_world())
        manager = ChainManager(node, genesis_block())
        genesis = manager.chain.genesis
        a1 = make_block(genesis, [submit_tx(ALICE, 0, 2000)])
        manager.receive_block(a1, now=1.0)
        b1 = make_block(genesis, [submit_tx(BOB, 0, 1500)], ts_offset=14)
        b2 = make_block(b1, [])
        manager.receive_block(b1, now=2.0)
        manager.receive_block(b2, now=2.5)
        # Fresh speculation on the new branch fills the cache again,
        # keyed by the new world version.
        target = submit_tx(ALICE, 0, 1980)
        preds = (submit_tx(BOB, 1, 2100),)
        spec_header = BlockHeader(
            number=3, timestamp=b2.header.timestamp + 13, coinbase=0xE0)
        node.speculator.speculate(
            target, FutureContext(7, spec_header, preds))
        assert len(node.speculator.prefix_cache) == 1
