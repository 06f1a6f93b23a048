"""Differential conformance for the AP executor, and its tier policy.

The compiled closure must be *observationally identical* to the
reference walker (``tests/ap_walk.py``) — same outcome
fields, same execution statistics, same observed reads, same cost
tally (to the per-bucket sum), same I/O charges, same post state — on
perfect matches, imperfect matches, branch selection, shortcut hits
and misses, and constraint violations (identical exception text and
identical cpu charged up to the abort point).  The tier compiles a
missing or stale closure when the AP first executes, and a tree the
compiler rejects runs plainly.

Randomized cases are seeded (``random.Random``) so failures reproduce.
"""

import random

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.accelerator import OUTCOME_NO_AP, TransactionAccelerator
from repro.core.costmodel import CostTally
from repro.core.speculator import FutureContext, Speculator
from repro.errors import ConstraintViolation
from repro.evm.jit import HOT_OPS, JitTier, SpecializeAbort, compile_ap
from repro.evm.jit import tier as tier_module
from repro.obs.registry import MetricsRegistry
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, FEED, ROUND
from tests.ap_walk import execute_ap

PF = pricefeed()


def fresh_world(active_round=ROUND, price=2000, count=4):
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), active_round)
    if active_round == ROUND:
        account.set_storage(PF.slot_of("prices", ROUND), price)
        account.set_storage(PF.slot_of("submissionCounts", ROUND), count)
    return world


def tx_e(price=1980):
    return Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, price), nonce=0)


def header(ts):
    return BlockHeader(number=1, timestamp=ts, coinbase=0xBEEF)


def build_merged_ap(price=1980, contexts=2):
    """Speculate Tx_e in FC1 (else-branch) and FC4 (if-branch)."""
    world = fresh_world(ROUND)
    spec = Speculator(world)
    spec.speculate(tx_e(price), FutureContext(1, header(3990462)))
    if contexts > 1:
        world.get_account(FEED).set_storage(
            PF.slot_of("activeRoundID"), 3990000)
        spec.speculate(tx_e(price), FutureContext(4, header(3990478)))
    return spec.get_ap(tx_e(price).hash)


def _digest(runner, world, hdr, tx):
    """Run one AP execution strategy and capture everything observable."""
    state = StateDB(world)
    tally = CostTally()
    io_before = state.disk.stats.cost_units
    try:
        outcome = runner(state, hdr, tx, tally)
    except ConstraintViolation as exc:
        return {
            "violation": str(exc),
            "cpu": tally.cpu_units,
            "detail": dict(tally.detail),
            "io": state.disk.stats.cost_units - io_before,
        }
    state.commit()
    return {
        "success": outcome.success,
        "gas_used": outcome.gas_used,
        "return_data": outcome.return_data,
        "terminal": id(outcome.terminal),
        "stats": outcome.stats,
        "observed_reads": dict(outcome.observed_reads),
        "cpu": tally.cpu_units,
        "detail": dict(tally.detail),
        "io": state.disk.stats.cost_units - io_before,
        "logs": [(e.address, e.topics, e.data) for e in state.logs],
        "root": world.root(),
    }


def _walk(ap):
    return lambda state, hdr, tx, tally: execute_ap(
        ap, state, hdr, tally=tally)


def _closure(artifact):
    return lambda state, hdr, tx, tally: artifact.fn(state, hdr, tally)


def _compare(ap, world_factory, hdr, tx):
    artifact = compile_ap(ap)
    walked = _digest(_walk(ap), world_factory(), hdr, tx)
    compiled = _digest(_closure(artifact), world_factory(), hdr, tx)
    assert walked == compiled
    return walked


class TestClosureConformance:
    def test_artifact_shape(self):
        ap = build_merged_ap()
        artifact = compile_ap(ap, version=7)
        assert artifact.version == 7
        assert artifact.node_count > 0
        assert artifact.segment_count > 0
        assert "def _ap(state, header, tally):" in artifact.source

    def test_hot_op_coverage(self):
        assert len(HOT_OPS) >= 20

    def test_perfect_match(self):
        ap = build_merged_ap()
        digest = _compare(ap, lambda: fresh_world(ROUND),
                          header(3990462), tx_e())
        assert digest["success"]
        assert digest["stats"].shortcut_hits > 0
        assert digest["stats"].guards_checked == 0

    def test_imperfect_match_recomputes(self):
        ap = build_merged_ap()
        digest = _compare(
            ap, lambda: fresh_world(ROUND, price=1234, count=9),
            header(3990500), tx_e())
        assert digest["success"]
        assert digest["stats"].shortcut_misses > 0

    def test_branch_selection(self):
        ap = build_merged_ap()
        digest = _compare(ap, lambda: fresh_world(3990000),
                          header(3990478), tx_e())
        assert digest["success"]

    def test_violation_identical(self):
        ap = build_merged_ap()
        walked = _digest(_walk(ap), fresh_world(ROUND),
                         header(ROUND + 700), tx_e())
        compiled = _digest(_closure(compile_ap(ap)), fresh_world(ROUND),
                           header(ROUND + 700), tx_e())
        assert "violation" in walked
        assert walked == compiled

    def test_random_contexts(self):
        """Seeded sweep over contexts: perfect, imperfect, branch,
        violating — every digest field must agree."""
        ap = build_merged_ap()
        artifact = compile_ap(ap)
        rng = random.Random(0xF0)
        violations = successes = 0
        for _ in range(40):
            active = rng.choice([ROUND, 3990000, ROUND + 1])
            price = rng.randrange(1, 5000)
            count = rng.randrange(1, 12)
            ts = rng.choice([3990462, 3990478, 3990500, ROUND + 700])
            hdr = header(ts)
            walked = _digest(
                _walk(ap), fresh_world(active, price, count), hdr, tx_e())
            compiled = _digest(
                _closure(artifact), fresh_world(active, price, count),
                hdr, tx_e())
            assert walked == compiled
            if "violation" in walked:
                violations += 1
            else:
                successes += 1
        assert violations and successes  # the sweep hit both regimes


def _via_tier(tier, ap):
    """The accelerator's order: vouch for a closure, then run it."""
    def run(state, hdr, tx, tally):
        assert tier.ready(ap)
        return tier.execute(ap, state, hdr, tally)
    return run


class TestTierPolicy:
    def test_stale_artifact_is_recompiled(self):
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        hdr, tx = header(3990462), tx_e()
        assert tier.compile(ap) is not None
        before = _digest(_via_tier(tier, ap), fresh_world(ROUND), hdr, tx)
        tier.invalidate("reorg")
        after = _digest(_via_tier(tier, ap), fresh_world(ROUND), hdr, tx)
        assert after == before
        assert tier.c_bailouts.value == 1
        assert tier.c_misses.value == 0
        assert tier.c_compiles.value == 2
        assert ap.jit.version == tier.version == 1

    def test_missing_artifact_is_compiled_at_execute(self):
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        assert ap.jit is None
        digest = _digest(_via_tier(tier, ap), fresh_world(ROUND),
                         header(3990462), tx_e())
        assert digest == _digest(_walk(ap), fresh_world(ROUND),
                                 header(3990462), tx_e())
        assert (tier.c_misses.value, tier.c_compiles.value,
                tier.c_hits.value) == (1, 1, 1)

    def test_compile_abort_runs_plainly(self, monkeypatch):
        def reject(ap, version=0, code_for=None):
            raise SpecializeAbort("forced")

        monkeypatch.setattr(tier_module, "compile_ap", reject)
        tier = JitTier(registry=MetricsRegistry())
        accelerator = TransactionAccelerator(jit=tier)
        ap = build_merged_ap()
        hdr, tx = header(3990462), tx_e()
        plain_world, world = fresh_world(ROUND), fresh_world(ROUND)
        plain_state, state = StateDB(plain_world), StateDB(world)
        plain = accelerator.execute_plain(tx, hdr, plain_state)
        receipt = accelerator.execute(tx, hdr, state, ap)
        assert receipt.outcome == OUTCOME_NO_AP
        assert receipt.tier == "plain"
        assert not receipt.used_ap
        assert receipt.result == plain.result
        assert receipt.tally.total == plain.tally.total
        plain_state.commit()
        state.commit()
        assert world.root() == plain_world.root()
        assert tier.c_compile_aborts.value == 1
        assert tier.c_hits.value == 0

    def test_envelope_ended_tx_is_labelled_jit(self):
        """A tx whose envelope ends before the AP runs (here: a bad
        nonce) still took the AP path, so its tier is "jit"."""
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        tx = Transaction(sender=ALICE, to=FEED,
                         data=PF.calldata("submit", ROUND, 1980), nonce=5)
        receipt = TransactionAccelerator(jit=tier).execute(
            tx, header(3990462), StateDB(fresh_world(ROUND)), ap)
        assert receipt.result.error == "bad nonce"
        assert receipt.used_ap
        assert receipt.tier == "jit"
        assert tier.c_hits.value == 0

    def test_guard_failure_counted(self):
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        assert tier.ready(ap)
        with pytest.raises(ConstraintViolation):
            tier.execute(ap, StateDB(fresh_world(ROUND)),
                         header(ROUND + 700), CostTally())
        assert tier.c_guard_failures.value == 1
        assert tier.c_hits.value == 1


class TestShapeCache:
    """The tier compiles one code object per closure shape; APs of one
    shape differ only in the constants bound to it."""

    @staticmethod
    def _check(ap, price):
        """The AP's closure against the reference walker, in the
        context it was speculated for."""
        hdr, tx = header(3990462), tx_e(price)
        walked = _digest(_walk(ap), fresh_world(ROUND), hdr, tx)
        assert walked["success"]
        assert _digest(_closure(ap.jit), fresh_world(ROUND), hdr, tx) \
            == walked

    def test_one_code_object_per_shape(self):
        tier = JitTier(registry=MetricsRegistry())
        first, second = build_merged_ap(1980), build_merged_ap(2345)
        a, b = tier.compile(first), tier.compile(second)
        assert a.source == b.source
        assert a.literals != b.literals
        assert a.fn.__code__ is b.fn.__code__
        assert tier.c_compiles.value == 2
        assert tier.c_shapes.value == 1
        self._check(first, 1980)
        self._check(second, 2345)

    def test_capacity_one_evicts_and_stays_correct(self, monkeypatch):
        monkeypatch.setattr(tier_module, "SHAPE_CACHE_SIZE", 1)
        tier = JitTier(registry=MetricsRegistry())
        cases = [(build_merged_ap(1980), 1980),
                 (build_merged_ap(777, contexts=1), 777),
                 (build_merged_ap(2345), 2345)]
        cases.append(cases[0])
        for ap, price in cases:
            tier.compile(ap)
            self._check(ap, price)
        # first (A), other (B, evicts A), second (A again), first (hit)
        assert tier.c_compiles.value == 4
        assert tier.c_shapes.value == 3
