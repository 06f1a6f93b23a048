"""Differential conformance for the specialization tier.

The trace-guided specializer's compiled closure must be
*observationally identical* to the interpreted AP walk — same outcome
fields, same execution statistics, same observed reads, same cost
tally (to the per-bucket sum), same I/O charges, same post state — on
perfect matches, imperfect matches, branch selection, shortcut hits
and misses, and constraint violations (identical exception text and
identical cpu charged up to the abort point).

Randomized cases are seeded (``random.Random``) so failures reproduce.
"""

import random

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.ap_exec import execute_ap
from repro.core.costmodel import CostTally
from repro.core.speculator import FutureContext, Speculator
from repro.errors import ConstraintViolation
from repro.evm.jit import HOT_OPS, JitTier, compile_ap
from repro.obs.registry import MetricsRegistry
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, FEED, ROUND

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


def tx_e():
    return Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980), nonce=0)


def header(ts):
    return BlockHeader(number=1, timestamp=ts, coinbase=0xBEEF)


def build_merged_ap():
    """Speculate Tx_e in FC1 (else-branch) and FC4 (if-branch)."""
    world = fresh_world(ROUND)
    spec = Speculator(world)
    spec.speculate(tx_e(), FutureContext(1, header(3990462)))
    world.get_account(FEED).set_storage(
        PF.slot_of("activeRoundID"), 3990000)
    spec.speculate(tx_e(), FutureContext(4, header(3990478)))
    return spec.get_ap(tx_e().hash)


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


class TestTierPolicy:
    def test_stale_version_bails_out_to_walk(self):
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        assert tier.compile(ap) is not None
        tier.invalidate("reorg")
        hdr, tx = header(3990462), tx_e()
        via_tier = _digest(
            lambda state, h, t, tally: tier.execute(
                ap, state, h, tally), fresh_world(ROUND), hdr, tx)
        pure_walk = _digest(_walk(ap), fresh_world(ROUND), hdr, tx)
        assert via_tier == pure_walk
        assert ap.jit is None          # artifact dropped on bailout
        assert tier.c_bailouts.value == 1

    def test_disabled_tier_never_compiles(self):
        tier = JitTier(enabled=False, registry=MetricsRegistry())
        ap = build_merged_ap()
        assert tier.compile(ap) is None
        assert ap.jit is None

    def test_guard_failure_counted(self):
        tier = JitTier(registry=MetricsRegistry())
        ap = build_merged_ap()
        tier.compile(ap)
        with pytest.raises(ConstraintViolation):
            tier.execute(ap, StateDB(fresh_world(ROUND)),
                         header(ROUND + 700), CostTally())
        assert tier.c_guard_failures.value == 1
        assert tier.c_hits.value == 1
