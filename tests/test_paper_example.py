"""Integration test: the paper's running example, end to end.

Reproduces §4.2/§4.3: transaction Tx_e (submit(3990300, 1980) to
PriceFeed) speculated in the four future contexts FC1-FC4 of Figure 5,
synthesized into APs shaped like Figures 8/9, merged like Figure 10,
and executed in actual contexts that exercise perfect matches,
imperfect matches (footnote 13's example), branch selection, shortcut
stitching, and constraint violation.
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.accelerator import TransactionAccelerator
from repro.core.sevm import GuardMode, SKind
from repro.core.speculator import FutureContext, Speculator
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

ALICE = 0xA11CE
BOB = 0xB0B
FEED = 0xFEED
PF = pricefeed()
ROUND = 3990300

# Figure 5's four future contexts: (timestamp, activeRoundID, price,
# count) where activeRoundID < ROUND means the round is fresh (FC4).
FC1 = dict(ts=3990462, active=ROUND, price=2000, count=4)
FC2 = dict(ts=3990462, active=ROUND, price=2010, count=6)
FC3 = dict(ts=3990478, active=ROUND, price=2000, count=4)
FC4 = dict(ts=3990478, active=3990000, price=0, count=0)


def world_for(fc):
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), fc["active"])
    if fc["active"] == ROUND:
        account.set_storage(PF.slot_of("prices", ROUND), fc["price"])
        account.set_storage(
            PF.slot_of("submissionCounts", ROUND), fc["count"])
    return world


def tx_e():
    return Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980), nonce=0)


@pytest.fixture(scope="module")
def merged_ap():
    """Tx_e speculated in FC1..FC4 and merged into one AP."""
    speculator = Speculator(world_for(FC1))
    for i, fc in enumerate((FC1, FC2, FC3, FC4), start=1):
        speculator.world = world_for(fc)
        speculator.speculate(
            tx_e(),
            FutureContext(i, BlockHeader(1, fc["ts"], 0xBEEF)))
    return speculator.get_ap(tx_e().hash)


def run_actual(ap, fc, ts):
    accelerator = TransactionAccelerator()
    world = world_for(fc)
    state = StateDB(world)
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, ts, 0xBEEF), state, ap)
    state.commit()
    return receipt, world


def reference(fc, ts):
    world = world_for(fc)
    state = StateDB(world)
    result = EVM(state, BlockHeader(1, ts, 0xBEEF), tx_e()) \
        .execute_transaction()
    state.commit()
    return result, world


def test_four_contexts_merge_into_two_paths(merged_ap):
    """§5.5's shape: FC1/FC2/FC3 share one path; FC4 brings a second."""
    assert len(merged_ap.paths) == 4
    assert merged_ap.path_count == 2
    assert merged_ap.merge_failures == 0
    assert merged_ap.context_ids == {1, 2, 3, 4}


def test_ap_structure_matches_figure8(merged_ap):
    """The else-branch path has the Figure 8 instruction skeleton."""
    ops = [node.instr.op for node in merged_ap.all_nodes()]
    # Reads: timestamp + three storage loads (activeRoundID, prices,
    # counts); computes include MOD/SUB/EQ/LT/MUL/ADD/DIV; two guards.
    for expected in ("TIMESTAMP", "MOD", "SUB", "EQ", "SLOAD", "LT",
                     "GUARD", "MUL", "ADD", "DIV", "SSTORE"):
        assert expected in ops, f"missing {expected} in AP"


def test_diverging_guard_case_branches(merged_ap):
    """Figure 10: the guard on (activeRoundID < roundID) carries both
    branch keys and routes FC1-3 vs FC4."""
    two_way = [n for n in merged_ap.all_nodes()
               if n.is_guard() and len(n.branches) == 2]
    assert len(two_way) == 1
    guard = two_way[0]
    assert guard.instr.guard_mode is GuardMode.TRUTH
    assert set(guard.branches) == {True, False}


def test_perfect_fc1_all_shortcuts(merged_ap):
    receipt, world = run_actual(merged_ap, FC1, FC1["ts"])
    expected, evm_world = reference(FC1, FC1["ts"])
    assert receipt.outcome == "satisfied"
    assert 1 in receipt.perfect_context_ids
    assert receipt.ap_stats.guards_checked == 0  # memoized away
    assert world.root() == evm_world.root()
    # Paper's FC1 outcome: price 1996, count 5.
    assert world.get_account(FEED).get_storage(
        PF.slot_of("prices", ROUND)) == 1996


def test_perfect_fc4_branch(merged_ap):
    receipt, world = run_actual(merged_ap, FC4, FC4["ts"])
    assert receipt.outcome == "satisfied"
    assert 4 in receipt.perfect_context_ids
    feed = world.get_account(FEED)
    assert feed.get_storage(PF.slot_of("activeRoundID")) == ROUND
    assert feed.get_storage(PF.slot_of("prices", ROUND)) == 1980
    assert feed.get_storage(PF.slot_of("submissionCounts", ROUND)) == 1


def test_footnote13_imperfect_match(merged_ap):
    """v1=3990555 and v5=3990000: m1 takes the else transition but the
    guard still passes -> imperfect prediction, accelerated anyway."""
    receipt, world = run_actual(merged_ap, FC4, 3990555)
    expected, evm_world = reference(FC4, 3990555)
    assert receipt.outcome == "satisfied"
    assert receipt.perfect_context_ids == ()  # no context matched fully
    assert world.root() == evm_world.root()


def test_shortcut_stitching_across_contexts(merged_ap):
    """§4.3: 'the correct parts of several predicted contexts can be
    stitched together' — FC3's timestamp with FC2's storage values."""
    stitched = dict(FC2)
    receipt, world = run_actual(merged_ap, stitched, FC3["ts"])
    expected, evm_world = reference(stitched, FC3["ts"])
    assert receipt.outcome == "satisfied"
    assert receipt.ap_stats.shortcut_hits > 0
    assert world.root() == evm_world.root()


def test_constraint_violation_falls_back(merged_ap):
    """A context outside every constraint set (stale round) triggers
    the fallback, still producing the exact EVM outcome."""
    receipt, world = run_actual(merged_ap, FC1, ROUND + 901)
    expected, evm_world = reference(FC1, ROUND + 901)
    assert receipt.outcome == "violated"
    assert not receipt.result.success
    assert receipt.result.gas_used == expected.gas_used
    assert world.root() == evm_world.root()


def test_imperfect_values_recomputed(merged_ap):
    """Different prices/counts than ANY speculated context: every
    shortcut misses, the fast path recomputes, result is exact."""
    odd = dict(ts=3990470, active=ROUND, price=3333, count=7)
    receipt, world = run_actual(merged_ap, odd, odd["ts"])
    assert receipt.outcome == "satisfied"
    assert world.get_account(FEED).get_storage(
        PF.slot_of("prices", ROUND)) == (3333 * 7 + 1980) // 8


def test_code_reduction_order_of_magnitude(merged_ap):
    """Figure 15: the AP path is a small fraction of the EVM trace."""
    for path in merged_ap.paths:
        stats = path.stats
        assert stats.final_len <= 0.25 * stats.trace_len
