"""DELEGATECALL / STATICCALL / RETURNDATA semantics, and their
translation through the Forerunner pipeline."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import AGGREGATOR_SOURCE, lending, pricefeed
from repro.core.accelerator import TransactionAccelerator
from repro.core.speculator import FutureContext, Speculator
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.minisol import compile_contract
from repro.state.statedb import StateDB
from repro.state.world import WorldState

SENDER = 0xAA
CALLER_ADDR = 0xCC
CALLEE_ADDR = 0xDD


def build_pair(caller_src, callee_src):
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CALLER_ADDR, code=assemble(caller_src))
    world.create_account(CALLEE_ADDR, code=assemble(callee_src))
    return world


def run(world, data=b"", timestamp=1000):
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CALLER_ADDR, data=data, nonce=0)
    header = BlockHeader(number=1, timestamp=timestamp, coinbase=0xBEEF)
    result = EVM(state, header, tx).execute_transaction()
    return result, state


# Callee writes 7 into slot 5 and returns CALLER.
WRITER_CALLEE = """
    PUSH 7
    PUSH 5
    SSTORE
    CALLER
    PUSH 0
    MSTORE
    PUSH 32
    PUSH 0
    RETURN
"""


def test_delegatecall_uses_caller_storage():
    caller = f"""
        PUSH 32
        PUSH 64
        PUSH 0
        PUSH 0
        PUSH {CALLEE_ADDR}
        GAS
        DELEGATECALL
        POP
        PUSH 64
        MLOAD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    world = build_pair(caller, WRITER_CALLEE)
    result, state = run(world)
    assert result.success
    # The write landed in the CALLER's storage, not the callee's.
    assert state.get_storage(CALLER_ADDR, 5) == 7
    assert state.get_storage(CALLEE_ADDR, 5) == 0
    # CALLER inside the delegate is the ORIGINAL sender.
    assert int.from_bytes(result.return_data, "big") == SENDER


def test_staticcall_blocks_writes():
    # Forward bounded gas: a WriteProtection fault consumes everything
    # forwarded (unlike REVERT), exactly like the real EVM.
    caller = f"""
        PUSH 32
        PUSH 64
        PUSH 0
        PUSH 0
        PUSH {CALLEE_ADDR}
        PUSH 50000
        STATICCALL
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    world = build_pair(caller, WRITER_CALLEE)
    result, state = run(world)
    assert result.success
    # The static frame failed (SSTORE forbidden) -> pushed 0.
    assert int.from_bytes(result.return_data, "big") == 0
    assert state.get_storage(CALLEE_ADDR, 5) == 0


def test_staticcall_allows_reads():
    reader = """
        PUSH 5
        SLOAD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    caller = f"""
        PUSH 32
        PUSH 64
        PUSH 0
        PUSH 0
        PUSH {CALLEE_ADDR}
        GAS
        STATICCALL
        POP
        PUSH 64
        MLOAD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    world = build_pair(caller, reader)
    world.get_account(CALLEE_ADDR).set_storage(5, 1234)
    result, _ = run(world)
    assert result.success
    assert int.from_bytes(result.return_data, "big") == 1234


def test_returndatasize_and_copy():
    callee = """
        PUSH 0xAB
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    caller = f"""
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH {CALLEE_ADDR}
        GAS
        CALL
        POP
        RETURNDATASIZE        ; 32
        PUSH 0
        MSTORE
        PUSH 32               ; size
        PUSH 0                ; src offset
        PUSH 32               ; dest
        RETURNDATACOPY
        PUSH 64
        PUSH 0
        RETURN
    """
    world = build_pair(caller, callee)
    result, _ = run(world)
    assert result.success
    assert int.from_bytes(result.return_data[:32], "big") == 32
    assert int.from_bytes(result.return_data[32:], "big") == 0xAB


def test_returndatacopy_out_of_bounds_fails():
    caller = """
        PUSH 64
        PUSH 0
        PUSH 0
        RETURNDATACOPY
        STOP
    """
    world = build_pair(caller, "STOP")
    result, _ = run(world)
    assert not result.success


# -- pipeline equivalence with the new contracts -----------------------------

ROUND = 3990300
POOL, FA, FB, FC, AGG = 0x100, 0x201, 0x202, 0x203, 0x300


def lending_world(prices=(2000, 2010, 1990), collateral=10**6):
    L, AG, PF = lending(), compile_contract(AGGREGATOR_SOURCE), pricefeed()
    world = WorldState()
    world.create_account(SENDER, balance=10**24)
    world.create_account(POOL, code=L.code)
    for feed, price in zip((FA, FB, FC), prices):
        world.create_account(feed, code=PF.code)
        world.get_account(feed).set_storage(
            PF.slot_of("prices", ROUND), price)
    world.create_account(AGG, code=AG.code)
    agg = world.get_account(AGG)
    agg.set_storage(AG.slot_of("feedA"), FA)
    agg.set_storage(AG.slot_of("feedB"), FB)
    agg.set_storage(AG.slot_of("feedC"), FC)
    pool = world.get_account(POOL)
    pool.set_storage(L.slot_of("priceFeed"), FA)
    pool.set_storage(L.slot_of("activeRound"), ROUND)
    pool.set_storage(L.slot_of("totalSupplied"), 10**12)
    pool.set_storage(L.slot_of("lastAccrual"), 3990000)
    pool.set_storage(L.slot_of("borrowIndex"), 10_000_000)
    pool.set_storage(L.slot_of("totalBorrowed"), 10**9)
    pool.set_storage(L.slot_of("collateral", SENDER), collateral)
    return world


@pytest.mark.parametrize("fn_args", [
    ("accrue",),
    ("borrow", 500_000),
    ("supply", 1000),
])
@pytest.mark.parametrize("actual_ts", [3990462, 3990599])
def test_lending_ap_equivalence(fn_args, actual_ts):
    """Timestamp-dependent interest accrual through the AP pipeline."""
    L = lending()
    tx = Transaction(sender=SENDER, to=POOL,
                     data=L.calldata(fn_args[0], *fn_args[1:]), nonce=0)
    speculator = Speculator(lending_world())
    speculator.speculate(
        tx, FutureContext(1, BlockHeader(1, 3990462, 0xBEEF)))
    ap = speculator.get_ap(tx.hash)
    assert ap is not None and ap.root is not None

    header = BlockHeader(1, actual_ts, 0xBEEF)
    evm_world = lending_world()
    state = StateDB(evm_world)
    expected = EVM(state, header, tx).execute_transaction()
    state.commit()

    ap_world = lending_world()
    state2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, state2, ap)
    state2.commit()
    assert receipt.result.success == expected.success
    assert receipt.result.gas_used == expected.gas_used
    assert ap_world.root() == evm_world.root()


def test_aggregator_median_branches():
    """Different feed orderings take different median branches; each
    synthesizes its own AP path and all merge into one program."""
    AG = compile_contract(AGGREGATOR_SOURCE)
    tx = Transaction(sender=SENDER, to=AGG,
                     data=AG.calldata("update", ROUND), nonce=0)
    orderings = [(2000, 2010, 1990), (1990, 2000, 2010),
                 (2010, 1990, 2000)]
    speculator = Speculator(lending_world(prices=orderings[0]))
    for i, prices in enumerate(orderings):
        speculator.world = lending_world(prices=prices)
        speculator.speculate(
            tx, FutureContext(i + 1, BlockHeader(1, 3990462, 0xBEEF)))
    ap = speculator.get_ap(tx.hash)
    assert ap.path_count >= 2  # distinct median branches

    # Execute in a context following yet another branch combination.
    actual = (2005, 1995, 2001)
    header = BlockHeader(1, 3990470, 0xBEEF)
    evm_world = lending_world(prices=actual)
    state = StateDB(evm_world)
    EVM(state, header, tx).execute_transaction()
    state.commit()
    ap_world = lending_world(prices=actual)
    state2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, state2, ap)
    state2.commit()
    assert ap_world.root() == evm_world.root()
    expected_median = sorted(actual)[1]
    assert ap_world.get_account(AGG).get_storage(
        AG.slot_of("lastMedian")) in (expected_median,)
