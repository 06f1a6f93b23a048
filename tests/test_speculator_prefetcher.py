"""Speculator and prefetcher unit tests."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.prefetcher import Prefetcher
from repro.core.speculator import FutureContext, Speculator
from repro.core.stats import SynthesisTally
from repro.state.nodecache import NodeCache
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, BOB, FEED, ROUND, speculate_many

PF = pricefeed()


def fresh_world():
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), ROUND)
    account.set_storage(PF.slot_of("prices", ROUND), 2000)
    account.set_storage(PF.slot_of("submissionCounts", ROUND), 4)
    return world


def tx_e(sender=ALICE, nonce=0, price=1980):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, price),
                       nonce=nonce)


def header(ts=3990462):
    return BlockHeader(number=1, timestamp=ts, coinbase=0xBEEF)


class TestSpeculator:
    def test_speculate_creates_ap(self):
        speculator = Speculator(fresh_world())
        path = speculator.speculate(tx_e(), FutureContext(1, header()))
        assert path is not None
        ap = speculator.get_ap(tx_e().hash)
        assert ap is not None and ap.root is not None

    def test_world_not_mutated_by_speculation(self):
        world = fresh_world()
        root_before = world.root()
        speculator = Speculator(world)
        speculator.speculate(tx_e(), FutureContext(1, header()))
        assert world.root() == root_before

    def test_predecessors_applied_to_context(self):
        """Speculating after a predecessor submission sees its effect
        (the FC2 mechanism of Figure 5)."""
        world = fresh_world()
        speculator = Speculator(world)
        predecessor = tx_e(sender=BOB, price=2060)
        context = FutureContext(2, header(), predecessors=(predecessor,))
        path = speculator.speculate(tx_e(), context)
        assert path is not None
        # The read set saw count=5 (after Bob's submission), not 4.
        key = ("storage", (FEED, PF.slot_of("submissionCounts", ROUND)))
        assert path.read_set[key] == 5

    def test_envelope_failure_skipped(self):
        world = fresh_world()
        speculator = Speculator(world)
        bad = tx_e(nonce=99)
        assert speculator.speculate(bad, FutureContext(1, header())) is None
        assert speculator.get_ap(bad.hash) is None
        assert any("envelope" in (r.error or "")
                   for r in speculator.records)

    def test_speculation_cost_accumulates(self):
        speculator = Speculator(fresh_world())
        speculator.speculate(tx_e(), FutureContext(1, header()))
        cost1 = speculator.c_actual_cost.value
        assert cost1 > 0
        speculator.speculate(tx_e(), FutureContext(2, header(3990470)))
        assert speculator.c_actual_cost.value > cost1

    def test_drop_archives_stats(self):
        speculator = Speculator(fresh_world())
        path = speculator.speculate(tx_e(), FutureContext(1, header()))
        expected = SynthesisTally()
        expected.add(speculator.get_ap(tx_e().hash))
        speculator.drop(tx_e().hash)
        assert speculator.get_ap(tx_e().hash) is None
        assert speculator.tally == expected
        assert expected.aps == expected.paths == 1
        assert expected.totals == path.stats.counts()

    def test_speculate_many(self):
        speculator = Speculator(fresh_world())
        contexts = [FutureContext(i, header(3990462 + i))
                    for i in range(1, 4)]
        merged = speculate_many(speculator, tx_e(), contexts)
        assert merged == 3
        assert len(speculator.get_ap(tx_e().hash).paths) == 3

    def test_speculate_contains_unexpected_stage_bugs(self, monkeypatch):
        """Regression (ISSUE satellite): a genuine bug inside one
        context's speculation is contained per-context — speculate
        returns None, appends a failed record, and never escapes."""
        speculator = Speculator(fresh_world())
        monkeypatch.setattr(
            "repro.core.speculator.trace_transaction",
            lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("stage bug")))
        path = speculator.speculate(tx_e(), FutureContext(1, header()))
        assert path is None
        record = speculator.records[-1]
        assert record.faulted is True
        assert "stage bug" in record.error
        assert speculator.guard.c_unexpected.value == 1

    def test_speculate_many_survives_one_broken_context(self,
                                                        monkeypatch):
        """One broken context never aborts the batch: the other
        contexts still merge and exactly one failed record is kept."""
        from repro.core import speculator as spec_mod

        real_trace = spec_mod.trace_transaction
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("context 2 exploded")
            return real_trace(*args, **kwargs)

        monkeypatch.setattr(spec_mod, "trace_transaction", flaky)
        speculator = Speculator(fresh_world())
        contexts = [FutureContext(i, header(3990462 + i))
                    for i in range(1, 4)]
        merged = speculate_many(speculator, tx_e(), contexts)
        assert merged == 2
        faulted = [r for r in speculator.records if r.faulted]
        assert len(faulted) == 1
        assert faulted[0].context_id == 2


class TestPrefetcher:
    def test_prefetch_warms_node_cache(self):
        world = fresh_world()
        cache = NodeCache()
        prefetcher = Prefetcher(world, cache)
        slot = PF.slot_of("prices", ROUND)
        warmed = prefetcher.prefetch(
            [("storage", (FEED, slot)), ("balance", (ALICE,))],
            tx_sender=ALICE, tx_to=FEED)
        assert warmed >= 2
        state = StateDB(world, node_cache=cache)
        state.get_storage(FEED, slot)
        assert state.disk.stats.cold_slot_loads == 0

    def test_prefetch_cost_accounted_offpath(self):
        world = fresh_world()
        prefetcher = Prefetcher(world, NodeCache())
        prefetcher.prefetch([("storage", (FEED, 0))])
        assert prefetcher.c_offpath_cost.value > 0

    def test_prefetch_turns_cold_reads_into_warm_hits(self):
        """Isolation: after a prefetch, a fresh critical-path StateDB
        performs zero cold trie walks on the prefetched keys — every
        lookup is a warm NodeCache hit at exactly WARM_COST units."""
        from repro.state.diskio import WARM_COST

        world = fresh_world()
        cache = NodeCache()
        slot = PF.slot_of("prices", ROUND)

        # Without prefetching, the same reads walk the trie from disk.
        cold_state = StateDB(world, node_cache=NodeCache())
        cold_state.get_storage(FEED, slot)
        cold_state.get_balance(ALICE)
        assert cold_state.disk.stats.cold_account_loads > 0
        assert cold_state.disk.stats.cold_slot_loads > 0

        prefetcher = Prefetcher(world, cache)
        prefetcher.prefetch(
            [("storage", (FEED, slot)), ("balance", (ALICE,))],
            tx_sender=ALICE, tx_to=FEED)
        # The cold-walk expense was paid off the critical path.
        assert prefetcher.c_offpath_cost.value > 0

        warm_state = StateDB(world, node_cache=cache)
        warm_state.get_storage(FEED, slot)
        warm_state.get_balance(ALICE)
        stats = warm_state.disk.stats
        assert stats.cold_account_loads == 0
        assert stats.cold_slot_loads == 0
        assert stats.warm_hits > 0
        assert stats.cost_units == stats.warm_hits * WARM_COST

    def test_prefetch_idempotent(self):
        world = fresh_world()
        prefetcher = Prefetcher(world, NodeCache())
        keys = [("storage", (FEED, 0))]
        first = prefetcher.prefetch(keys)
        second = prefetcher.prefetch(keys)
        assert first >= 1
        assert second == 0
