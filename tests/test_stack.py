"""EVM operand stack semantics, driven through bytecode.

The interpreter checks each instruction's stack bounds in its loop,
from the decoded program (at least ``pops`` items, at most 1024 after
``pushes``), before the handler runs.  A failed check ends the frame
like any non-revert error: gas 0, state reverted, and no step row
or instruction count for the failing instruction.  Every case runs
untraced and under a step tracer, which must agree.
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.constants import STACK_LIMIT
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.evm.tracing import Tracer
from repro.state.statedb import StateDB
from repro.state.world import WorldState

SENDER = 0xAA
CODE_ADDR = 0xCC
GAS_LIMIT = 200_000

PUSH1, DUP1, DUP16, SWAP16 = 0x60, 0x80, 0x8F, 0x9F
ADD, POP, CALL, REVERT, STOP = 0x01, 0x50, 0xF1, 0xFD, 0x00


class _Steps(Tracer):
    def __init__(self) -> None:
        self.steps = []

    def on_step(self, row) -> None:
        self.steps.append(row)


def _execute(code: bytes, tracer=None):
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CODE_ADDR, code=code)
    tx = Transaction(sender=SENDER, to=CODE_ADDR, nonce=0,
                     gas_limit=GAS_LIMIT)
    evm = EVM(StateDB(world), BlockHeader(number=1, timestamp=1000,
                                          coinbase=0xBEEF), tx,
              tracer=tracer)
    return evm.execute_transaction(), evm


def _pushes(count: int) -> bytes:
    return bytes([PUSH1, 1]) * count


def _returning(code_src: str) -> list:
    """Run ``code_src`` and return the words it RETURNs."""
    result, _ = _execute(assemble(code_src))
    assert result.success, result.error
    data = result.return_data
    return [int.from_bytes(data[i:i + 32], "big")
            for i in range(0, len(data), 32)]


def _assert_fails_at(code: bytes, failing_pc: int, executed: int) -> None:
    """The instruction at ``failing_pc`` fails a bounds check after
    ``executed`` instructions ran: the frame ends with gas 0, and the
    failing instruction gets neither a row nor a count."""
    result, evm = _execute(code)
    tracer = _Steps()
    traced, traced_evm = _execute(code, tracer)
    assert not result.success
    assert result.gas_used == GAS_LIMIT  # the frame kept no gas
    assert traced == result
    assert evm.instruction_count == traced_evm.instruction_count == executed
    assert len(tracer.steps) == executed
    assert all(row[1] != failing_pc for row in tracer.steps)  # row[1]: pc


def test_push_pop_lifo():
    # SUB takes the top (pushed last) as its first operand: 2 - 1.
    assert _returning("PUSH 1\nPUSH 2\nSUB\nPUSH 0\nMSTORE\n"
                      "PUSH 32\nPUSH 0\nRETURN") == [1]


def test_pop_empty_raises():
    _assert_fails_at(bytes([POP]), failing_pc=0, executed=0)


def test_binary_op_on_one_item_underflows():
    _assert_fails_at(_pushes(1) + bytes([ADD]), failing_pc=2, executed=1)


def test_overflow():
    result, evm = _execute(_pushes(STACK_LIMIT) + bytes([STOP]))
    assert result.success
    assert evm.instruction_count == STACK_LIMIT + 1
    _assert_fails_at(_pushes(STACK_LIMIT + 1), failing_pc=2 * STACK_LIMIT,
                     executed=STACK_LIMIT)


def test_dup1_on_full_stack_overflows():
    _assert_fails_at(_pushes(STACK_LIMIT) + bytes([DUP1]),
                     failing_pc=2 * STACK_LIMIT, executed=STACK_LIMIT)


def test_peek():
    # DUP1/DUP2 read below the top without popping.
    assert _returning("PUSH 10\nPUSH 20\nDUP2\nDUP2\n"
                      "PUSH 0\nMSTORE\nPUSH 32\nMSTORE\n"
                      "PUSH 64\nMSTORE\nPUSH 96\nMSTORE\n"
                      "PUSH 128\nPUSH 0\nRETURN") == [20, 10, 20, 10]


def test_peek_underflow():
    _assert_fails_at(bytes([DUP1]), failing_pc=0, executed=0)


def test_dup():
    # DUP16 copies the 16th item: the first one pushed.
    pushes = "".join(f"PUSH {value}\n" for value in range(1, 17))
    assert _returning(pushes + "DUP16\nPUSH 0\nMSTORE\n"
                      "PUSH 32\nPUSH 0\nRETURN") == [1]


def test_dup_underflow():
    _assert_fails_at(_pushes(15) + bytes([DUP16]), failing_pc=30,
                     executed=15)


def test_swap():
    assert _returning("PUSH 1\nPUSH 2\nPUSH 3\nSWAP2\n"
                      "PUSH 0\nMSTORE\nPUSH 32\nMSTORE\nPUSH 64\nMSTORE\n"
                      "PUSH 96\nPUSH 0\nRETURN") == [1, 2, 3]


def test_swap_underflow():
    _assert_fails_at(_pushes(16) + bytes([SWAP16]), failing_pc=32,
                     executed=16)


def test_call_on_six_items_underflows():
    _assert_fails_at(_pushes(6) + bytes([CALL]), failing_pc=12, executed=6)


def test_revert_on_one_item_underflows():
    # A REVERT that fails its bounds is an error, not a revert: it
    # keeps no gas and emits no row before failing.
    _assert_fails_at(_pushes(1) + bytes([REVERT]), failing_pc=2,
                     executed=1)


@pytest.mark.parametrize("depth", [1, 2, 16])
def test_dup_and_swap_at_exact_depth(depth):
    """DUPn needs n items and SWAPn n + 1: exactly that many pass."""
    code = _pushes(depth) + bytes([DUP1 + depth - 1, SWAP16 - 16 + depth,
                                   STOP])
    result, evm = _execute(code)
    assert result.success
    assert evm.instruction_count == depth + 3
