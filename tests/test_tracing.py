"""Instrumented-tracing structures: step rows, frames, read order."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed, registry
from repro.core.trace import TxTracer, trace_transaction
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, FEED, REGISTRY_ADDR, ROUND, TOKEN

PF = pricefeed()


def trace_pricefeed(oracle_world, timestamp=3990462):
    tx = Transaction(sender=ALICE, to=FEED,
                     data=PF.calldata("submit", ROUND, 1980), nonce=0)
    header = BlockHeader(1, timestamp, 0xBEEF)
    return trace_transaction(StateDB(oracle_world), header, tx)


def test_steps_are_sequential(oracle_world):
    """One row per counted instruction, and every frame's start/end
    indices fall inside the row list."""
    tx = Transaction(sender=ALICE, to=FEED,
                     data=PF.calldata("submit", ROUND, 1980), nonce=0)
    tracer = TxTracer()
    evm = EVM(StateDB(oracle_world), BlockHeader(1, 3990462, 0xBEEF), tx,
              tracer=tracer)
    assert evm.execute_transaction().success
    steps = tracer.steps
    assert len(steps) == evm.instruction_count > 100
    assert all(type(row) is tuple and len(row) == 10 for row in steps)
    assert tracer.frames
    for event in tracer.frames.values():
        assert 0 <= event.start_index <= event.end_index <= len(steps)
        assert steps[event.start_index][3] == event.frame_id


def test_read_set_keys_and_values(oracle_world):
    trace = trace_pricefeed(oracle_world)
    assert trace.read_set[("header", ("timestamp",))] == 3990462
    active_key = ("storage", (FEED, PF.slot_of("activeRoundID")))
    assert trace.read_set[active_key] == ROUND


def test_write_set_holds_final_values(oracle_world):
    trace = trace_pricefeed(oracle_world)
    counts_key = ("storage", (FEED, PF.slot_of("submissionCounts",
                                               ROUND)))
    assert trace.write_set[counts_key] == 5  # 4 + 1


def test_reads_in_order_keeps_duplicates(oracle_world):
    """The prefetcher wants every read occurrence, first-read values
    deduplicate only in the read set."""
    trace = trace_pricefeed(oracle_world)
    assert len(trace.reads_in_order) >= len(trace.read_set)


def test_frame_events_for_cross_contract_call(world):
    reg = registry()
    from repro.contracts import erc20
    token = erc20()
    account = world.get_account(REGISTRY_ADDR)
    account.set_storage(reg.slot_of("feeToken"), TOKEN)
    account.set_storage(reg.slot_of("feeSink"), 0x511C)
    world.get_account(TOKEN).set_storage(
        token.slot_of("balanceOf", REGISTRY_ADDR), 10)
    tx = Transaction(sender=ALICE, to=REGISTRY_ADDR,
                     data=reg.calldata("registerPaid", 5), nonce=0)
    trace = trace_transaction(
        StateDB(world), BlockHeader(1, 1, 0xB), tx)
    assert trace.result.success
    assert len(trace.frames) == 2  # registry frame + token frame
    depths = sorted(event.depth for event in trace.frames.values())
    assert depths == [0, 1]
    inner = [e for e in trace.frames.values() if e.depth == 1][0]
    assert inner.code_address == TOKEN
    assert inner.success
    assert inner.end_index > inner.start_index


def test_failed_frame_marked(world):
    callee = "PUSH 0\nPUSH 0\nREVERT"
    caller = """
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0xDD
        GAS
        CALL
        POP
        STOP
    """
    w = WorldState()
    w.create_account(ALICE, balance=10**21)
    w.create_account(0xCA, code=assemble(caller))
    w.create_account(0xDD, code=assemble(callee))
    tx = Transaction(sender=ALICE, to=0xCA, nonce=0)
    trace = trace_transaction(StateDB(w), BlockHeader(1, 1, 0xB), tx)
    failed = [e for e in trace.frames.values() if not e.success]
    assert len(failed) == 1


def test_step_extras_for_memory_ops(oracle_world):
    trace = trace_pricefeed(oracle_world)
    sha3_extras = [row[9] for row in trace.steps if row[2] == "SHA3"]
    assert sha3_extras
    for extra in sha3_extras:
        assert "mem_offset" in extra
        assert len(extra["data"]) == extra["mem_size"]


def test_trace_length_property(oracle_world):
    trace = trace_pricefeed(oracle_world)
    assert trace.trace_length == len(trace.steps) > 100
