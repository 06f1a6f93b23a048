"""TransactionAccelerator outcome and envelope tests."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.accelerator import (
    OUTCOME_FAULTED,
    OUTCOME_NO_AP,
    OUTCOME_SATISFIED,
    OUTCOME_VIOLATED,
    TransactionAccelerator,
    context_matches,
)
from repro.core.speculator import FutureContext, Speculator
from repro.errors import InjectedFault
from repro.evm.interpreter import EVM
from repro.faults.guard import SpeculationGuard
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


def tx_e(nonce=0):
    return Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980),
                       nonce=nonce)


def make_ap(ts=3990462):
    world = fresh_world()
    speculator = Speculator(world)
    speculator.speculate(
        tx_e(), FutureContext(1, BlockHeader(1, ts, 0xBEEF)))
    return speculator.get_ap(tx_e().hash)


def test_no_ap_falls_through_to_plain():
    accelerator = TransactionAccelerator()
    world = fresh_world()
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, 3990462, 0xBEEF), StateDB(world), None)
    assert receipt.outcome == OUTCOME_NO_AP
    assert receipt.result.success
    assert not receipt.used_ap


def test_satisfied_outcome_and_perfect_flag():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, 3990462, 0xBEEF),
        StateDB(fresh_world()), ap)
    assert receipt.outcome == OUTCOME_SATISFIED
    assert receipt.used_ap
    assert receipt.perfect_context_ids == (1,)


def test_imperfect_satisfied():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, 3990500, 0xBEEF),
        StateDB(fresh_world(price=1500, count=2)), ap)
    assert receipt.outcome == OUTCOME_SATISFIED
    assert receipt.perfect_context_ids == ()


def test_violation_falls_back_with_correct_result():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    world = fresh_world()
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, ROUND + 900, 0xBEEF), StateDB(world), ap)
    assert receipt.outcome == OUTCOME_VIOLATED
    assert not receipt.result.success  # stale round reverts


def test_violation_cost_includes_fallback_work():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    plain_world = fresh_world()
    plain = accelerator.execute_plain(
        tx_e(), BlockHeader(1, ROUND + 900, 0xBEEF), StateDB(plain_world))
    world = fresh_world()
    receipt = accelerator.execute(
        tx_e(), BlockHeader(1, ROUND + 900, 0xBEEF), StateDB(world), ap)
    assert receipt.tally.cpu_units >= plain.tally.cpu_units


def test_bad_nonce_short_circuits():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    world = fresh_world()
    receipt = accelerator.execute(
        tx_e(nonce=7), BlockHeader(1, 3990462, 0xBEEF),
        StateDB(world), ap)
    assert not receipt.result.success
    assert receipt.result.error == "bad nonce"
    assert receipt.result.gas_used == 0


@pytest.mark.parametrize("change", [
    {"gas_limit": 21_000},   # below intrinsic gas: the calldata costs too
    {"gas_price": 10**30},   # cannot afford the gas purchase
    {"value": 10**30},       # the message's value transfer fails
], ids=["intrinsic", "purchase", "value"])
def test_envelope_exits_match_evm(change):
    """A transaction that ends before its AP runs gets the plain EVM's
    result and post-state: both paths run the one envelope."""
    tx = Transaction(sender=ALICE, to=FEED,
                     data=PF.calldata("submit", ROUND, 1980), **change)
    header = BlockHeader(1, 3990462, 0xBEEF)
    evm_world, ap_world = fresh_world(), fresh_world()
    evm_state = StateDB(evm_world)
    expected = EVM(evm_state, header, tx).execute_transaction()
    evm_state.commit()
    ap_state = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, ap_state,
                                               make_ap())
    ap_state.commit()
    assert receipt.outcome == OUTCOME_SATISFIED
    assert receipt.result == expected
    assert ap_world.root() == evm_world.root()


def test_envelope_matches_evm_exactly():
    """Balances (fee + refund + coinbase) after AP execution must equal
    a plain execution's."""
    accelerator = TransactionAccelerator()
    ap = make_ap()
    header = BlockHeader(1, 3990470, 0xBEEF)

    evm_world = fresh_world()
    state = StateDB(evm_world)
    EVM(state, header, tx_e()).execute_transaction()
    state.commit()

    ap_world = fresh_world()
    state2 = StateDB(ap_world)
    accelerator.execute(tx_e(), header, state2, ap)
    state2.commit()

    assert evm_world.get_account(ALICE).balance == \
        ap_world.get_account(ALICE).balance
    assert evm_world.get_account(0xBEEF).balance == \
        ap_world.get_account(0xBEEF).balance
    assert evm_world.root() == ap_world.root()


def test_context_matches_checks_all_kinds():
    world = fresh_world()
    state = StateDB(world)
    header = BlockHeader(1, 3990462, 0xBEEF)
    read_set = {
        ("storage", (FEED, PF.slot_of("activeRoundID"))): ROUND,
        ("header", ("timestamp",)): 3990462,
        ("balance", (ALICE,)): 10**24,
    }
    assert context_matches(read_set, state, header)
    read_set[("header", ("timestamp",))] = 1
    assert not context_matches(read_set, state, header)


def test_cost_satisfied_below_plain():
    accelerator = TransactionAccelerator()
    ap = make_ap()
    header = BlockHeader(1, 3990462, 0xBEEF)
    plain = accelerator.execute_plain(
        tx_e(), header, StateDB(fresh_world()))
    fast = accelerator.execute(tx_e(), header, StateDB(fresh_world()), ap)
    assert fast.tally.total < plain.tally.total


class _RaisingInjector:
    def maybe_raise(self, site, **ctx):
        raise InjectedFault(site)


def test_contained_fault_takes_the_fallback():
    """A fault the guard contains takes the fallback a violation takes:
    the plain result and post-state, outcome "faulted"."""
    header = BlockHeader(1, 3990462, 0xBEEF)
    plain_world, world = fresh_world(), fresh_world()
    plain_state = StateDB(plain_world)
    plain = TransactionAccelerator().execute_plain(tx_e(), header,
                                                   plain_state)
    plain_state.commit()
    guard = SpeculationGuard(registry=MetricsRegistry())
    accelerator = TransactionAccelerator(guard=guard,
                                         injector=_RaisingInjector())
    state = StateDB(world)
    receipt = accelerator.execute(tx_e(), header, state, make_ap())
    state.commit()
    assert receipt.outcome == OUTCOME_FAULTED
    assert receipt.result == plain.result
    assert world.root() == plain_world.root()
    assert guard.c_contained.value == 1
