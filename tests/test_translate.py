"""Trace -> S-EVM translation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import erc20, pricefeed, registry
from repro.core.sevm import GuardMode, Reg, SKind, is_reg
from repro.core.trace import trace_transaction
from repro.evm.assembler import assemble
from repro.core.translate import (
    _SymFrame,
    _piece_len,
    _resolve_pieces,
    _slice_piece,
    translate_trace,
)
from repro.state.statedb import StateDB

from tests.conftest import ALICE, BOB, FEED, REGISTRY_ADDR, ROUND, TOKEN


def trace_and_translate(world, sender, to, data, timestamp=3990462,
                        nonce=0):
    state = StateDB(world)
    tx = Transaction(sender=sender, to=to, data=data, nonce=nonce)
    header = BlockHeader(number=1, timestamp=timestamp, coinbase=0xBEEF)
    trace = trace_transaction(state, header, tx)
    return trace, translate_trace(trace)


def test_stack_ops_eliminated(oracle_world):
    pf = pricefeed()
    trace, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    assert result.stats.eliminated_stack > 0
    assert not any(i.op in ("PUSH1", "DUP1", "SWAP1", "POP")
                   for i in result.instrs)


def test_control_flow_becomes_guards(oracle_world):
    pf = pricefeed()
    _, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    guards = [i for i in result.instrs if i.kind is SKind.GUARD]
    assert guards, "expected control guards"
    assert all(g.guard_mode in (GuardMode.EQ, GuardMode.TRUTH,
                                GuardMode.NEQ) for g in guards)
    assert result.stats.eliminated_control > 0


def test_memory_fully_eliminated(oracle_world):
    pf = pricefeed()
    _, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    assert not any(i.op in ("MLOAD", "MSTORE") for i in result.instrs)
    assert result.stats.eliminated_mem > 0


def test_reads_and_writes_preserved(oracle_world):
    pf = pricefeed()
    _, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    reads = [i for i in result.instrs if i.kind is SKind.READ]
    writes = [i for i in result.instrs if i.kind is SKind.WRITE]
    read_ops = {i.op for i in reads}
    assert "TIMESTAMP" in read_ops and "SLOAD" in read_ops
    assert len(writes) == 2  # counts + prices SSTOREs


def test_concrete_values_recorded(oracle_world):
    pf = pricefeed()
    _, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    for instr in result.instrs:
        if instr.dest is not None:
            assert instr.dest in result.concrete


def test_reverting_path_has_no_writes(oracle_world):
    pf = pricefeed()
    trace, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980),
        timestamp=ROUND + 600)  # stale round -> revert
    assert not trace.result.success
    assert not result.success
    assert not any(i.kind is SKind.WRITE for i in result.instrs)
    # Constraint checking still present.
    assert any(i.kind is SKind.GUARD for i in result.instrs)


def test_cross_contract_call_inlined(world):
    """transferFrom through the AMM would exercise CALL; use registry's
    registerPaid which extcalls the token."""
    reg = registry()
    token = erc20()
    account = world.get_account(REGISTRY_ADDR)
    account.set_storage(reg.slot_of("feeToken"), TOKEN)
    account.set_storage(reg.slot_of("feeSink"), 0x511C)
    world.get_account(TOKEN).set_storage(
        token.slot_of("balanceOf", REGISTRY_ADDR), 10)
    trace, result = trace_and_translate(
        world, ALICE, REGISTRY_ADDR, reg.calldata("registerPaid", 5))
    assert trace.result.success
    # Writes to BOTH contracts appear in one flat path.
    write_addresses = {i.key[0] for i in result.instrs
                       if i.kind is SKind.WRITE}
    assert TOKEN in write_addresses
    assert REGISTRY_ADDR in write_addresses


def test_loop_unrolled(world):
    reg = registry()
    _, result_2 = trace_and_translate(
        world, ALICE, REGISTRY_ADDR, reg.calldata("registerMany", 10, 2))
    _, result_6 = trace_and_translate(
        world, BOB, REGISTRY_ADDR, reg.calldata("registerMany", 50, 6))
    # More iterations -> proportionally more instructions (unrolling).
    assert len(result_6.instrs) > len(result_2.instrs)


def test_return_data_layout(world):
    token = erc20()
    world.get_account(TOKEN).set_storage(
        token.slot_of("balanceOf", ALICE), 100)
    _, result = trace_and_translate(
        world, ALICE, TOKEN, token.calldata("transfer", BOB, 10))
    # transfer returns bool true -> constant piece.
    assert result.return_size == 32


def test_gas_recorded(oracle_world):
    pf = pricefeed()
    trace, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    assert result.gas_used == trace.result.gas_used > 21_000


def test_stats_consistency(oracle_world):
    pf = pricefeed()
    _, result = trace_and_translate(
        oracle_world, ALICE, FEED, pf.calldata("submit", ROUND, 1980))
    stats = result.stats
    # The translated length equals what the bookkeeping predicts.
    assert stats.sevm_unoptimized_len() == len(result.instrs)


def test_pop_drops_its_stack_slot(world):
    """POP removes its slot from the symbolic stack: the SSTORE after
    it stores the value under the popped one, as the EVM does."""
    world.create_account(0xC0DE, code=assemble(
        "PUSH 1\nPUSH 2\nPOP\nPUSH 0\nSSTORE\nSTOP"))
    trace, result = trace_and_translate(world, ALICE, 0xC0DE, b"")
    assert trace.result.success
    (store,) = [i for i in result.instrs if i.op == "SSTORE"]
    assert store.args == (0, 1)


# -- live writes vs the append-only log ---------------------------------------
#
# The translator keeps only the live writes of a frame's memory.  The
# reference below is the log it used to keep: every write appended in
# program order, every read resolved by walking the whole log
# backwards.  A write dropped from the live map was fully shadowed, so
# both must resolve every read to exactly the same pieces.

def _log_payload_slice(payload, payload_abs_off, abs_start, length):
    rel = abs_start - payload_abs_off
    if payload[0] == "bytes":
        return [(abs_start, ("bytes", payload[1][rel:rel + length]))]
    if payload[0] == "word":
        operand = payload[1]
        if is_reg(operand):
            return [(abs_start, ("reg", operand, rel, length))]
        word = operand.to_bytes(32, "big")
        return [(abs_start, ("bytes", word[rel:rel + length]))]
    result = []
    for p_off, piece in payload[1]:
        lo = max(rel, p_off)
        hi = min(rel + length, p_off + _piece_len(piece))
        if lo < hi:
            result.append((payload_abs_off + lo,
                           _slice_piece(piece, lo - p_off, hi - lo)))
    return result


def _log_resolve(log, offset, size):
    """Pieces of [offset, offset+size) from an append-only write log."""
    if size == 0:
        return []
    uncovered = [(offset, offset + size)]
    found = []
    for w_off, w_size, payload in reversed(log):
        if not uncovered:
            break
        next_uncovered = []
        for start, end in uncovered:
            lo, hi = max(start, w_off), min(end, w_off + w_size)
            if lo >= hi:
                next_uncovered.append((start, end))
                continue
            found.extend((abs_off - offset, piece) for abs_off, piece
                         in _log_payload_slice(payload, w_off, lo, hi - lo))
            next_uncovered += [(start, lo)] if start < lo else []
            next_uncovered += [(hi, end)] if hi < end else []
        uncovered = next_uncovered
    found += [(start - offset, ("zero", end - start))
              for start, end in uncovered]
    found.sort(key=lambda item: item[0])
    return found


def _pieces_payload(draw, size):
    """A ("pieces", ...) payload covering [0, size) in random chunks."""
    pieces, offset = [], 0
    while offset < size:
        length = draw(st.integers(1, size - offset))
        kind = draw(st.sampled_from(("bytes", "reg", "zero")))
        if kind == "bytes":
            piece = ("bytes", bytes(draw(st.binary(min_size=length,
                                                   max_size=length))))
        elif kind == "reg":
            start = draw(st.integers(0, 32 - min(length, 32)))
            piece = ("reg", Reg(draw(st.integers(0, 9))), start,
                     min(length, 32 - start))
            length = piece[3]
        else:
            piece = ("zero", length)
        pieces.append((offset, piece))
        offset += length
    return ("pieces", pieces)


@st.composite
def _memory_program(draw):
    """Writes (MSTORE, MSTORE8, copies, return data; overlapping,
    partial, zero-size) interleaved with reads of any extent."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        offset = draw(st.integers(0, 96))
        kind = draw(st.sampled_from(("mstore", "mstore8", "copy",
                                     "pieces", "read")))
        if kind == "mstore":
            value = draw(st.one_of(st.integers(0, 2**256 - 1),
                                   st.builds(Reg, st.integers(0, 9))))
            steps.append(("write", offset, 32, ("word", value)))
        elif kind == "mstore8":
            steps.append(("write", offset, 1,
                          ("bytes", bytes([draw(st.integers(0, 255))]))))
        elif kind == "copy":
            size = draw(st.integers(0, 70))
            steps.append(("write", offset, size,
                          ("bytes", draw(st.binary(min_size=size,
                                                   max_size=size)))))
        elif kind == "pieces":
            size = draw(st.integers(0, 70))
            steps.append(("write", offset, size,
                          _pieces_payload(draw, size)))
        else:
            steps.append(("read", offset, draw(st.integers(0, 70)), None))
    return steps


@settings(max_examples=300, deadline=None)
@given(_memory_program())
def test_live_writes_resolve_like_the_append_only_log(steps):
    frame = _SymFrame(frame_id=0, code_address=0, depth=0,
                      calldata_pieces=[], calldata_size=0)
    log = []
    for action, offset, size, payload in steps:
        if action == "write":
            frame.write(offset, size, payload)
            log.append((offset, size, payload))
        else:
            assert _resolve_pieces(frame.writes, offset, size) == \
                _log_resolve(log, offset, size)
    # Every region is read once more at the end, after all rewrites.
    for offset in range(0, 128, 16):
        assert _resolve_pieces(frame.writes, offset, 48) == \
            _log_resolve(log, offset, 48)
    assert len(frame.writes) <= len({(o, s) for o, s, _ in log})
