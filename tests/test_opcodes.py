"""Opcode table sanity tests."""

import pytest

from repro.evm import opcodes
from repro.evm.opcodes import Category, Op


def test_table_covers_core_ops():
    for op in (Op.ADD, Op.SHA3, Op.SLOAD, Op.SSTORE, Op.JUMPI,
               Op.CALL, Op.RETURN, Op.REVERT, Op.TIMESTAMP):
        assert int(op) in opcodes.OPCODES


def test_push_metadata():
    for n in range(1, 33):
        code = 0x60 + n - 1
        info = opcodes.OPCODES[code]
        assert info.immediate == n
        assert opcodes.is_push(code)
        assert opcodes.push_size(code) == n
    assert not opcodes.is_push(int(Op.ADD))


def test_dup_swap_ranges():
    assert opcodes.is_dup(0x80) and opcodes.is_dup(0x8F)
    assert not opcodes.is_dup(0x90)
    assert opcodes.is_swap(0x90) and opcodes.is_swap(0x9F)
    assert not opcodes.is_swap(0x8F)


def test_log_range():
    assert opcodes.is_log(0xA0) and opcodes.is_log(0xA4)
    assert not opcodes.is_log(0xA5)


def test_stack_arity_consistency():
    """DUPn pops n and pushes n+1; SWAPn is n+1 in, n+1 out."""
    for n in range(1, 17):
        dup = opcodes.OPCODES[0x80 + n - 1]
        swap = opcodes.OPCODES[0x90 + n - 1]
        assert dup.pushes == dup.pops + 1
        assert swap.pushes == swap.pops


def test_categories():
    assert opcodes.OPCODES[int(Op.ADD)].category is Category.COMPUTE
    assert opcodes.OPCODES[int(Op.SLOAD)].category is Category.CONTEXT_READ
    assert opcodes.OPCODES[int(Op.SSTORE)].category is Category.STATE_WRITE
    assert opcodes.OPCODES[int(Op.JUMP)].category is Category.CONTROL
    assert opcodes.OPCODES[int(Op.MLOAD)].category is Category.MEMORY
    assert opcodes.OPCODES[int(Op.CALLER)].category is Category.TX_CONSTANT


def test_name_lookup():
    assert opcodes.NAME_TO_OP["ADD"] == int(Op.ADD)
    assert opcodes.NAME_TO_OP["PUSH32"] == 0x7F


def test_opcode_info_unknown_raises():
    # The interpreter turns this KeyError into InvalidOpcode.
    with pytest.raises(KeyError):
        opcodes.OPCODES[0xEF]
