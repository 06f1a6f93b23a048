"""EVM execution semantics: control flow, memory, storage, calls,
reverts, gas, and the transaction envelope."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.utils.hashing import keccak_int
from repro.utils.words import int_to_bytes32

SENDER = 0xAA
CODE_ADDR = 0xCC
OTHER = 0xDD
COINBASE = 0xBEEF


def build(code_src: str, extra_accounts=()):
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CODE_ADDR, code=assemble(code_src))
    for address, code_text in extra_accounts:
        world.create_account(address, code=assemble(code_text))
    return world


def run(world, data=b"", value=0, gas_limit=500_000, timestamp=1000):
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CODE_ADDR, data=data, value=value,
                     nonce=0, gas_limit=gas_limit)
    header = BlockHeader(number=7, timestamp=timestamp, coinbase=COINBASE)
    evm = EVM(state, header, tx)
    result = evm.execute_transaction()
    return result, state, evm


def test_jump_and_jumpi():
    result, _, _ = run(build("""
        PUSH 1
        PUSH @yes
        JUMPI
        PUSH 0
        PUSH 0
        REVERT
    yes:
        JUMPDEST
        PUSH 42
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """))
    assert result.success
    assert int.from_bytes(result.return_data, "big") == 42


def test_jumpi_not_taken():
    result, _, _ = run(build("""
        PUSH 0
        PUSH @skip
        JUMPI
        PUSH 7
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    skip:
        JUMPDEST
        STOP
    """))
    assert result.success
    assert int.from_bytes(result.return_data, "big") == 7


def test_invalid_jump_fails_tx():
    result, _, _ = run(build("PUSH 3\nJUMP"))
    assert not result.success
    assert result.gas_used > 0


def test_jump_into_push_immediate_is_invalid():
    """A 0x5b byte inside a PUSH immediate is data, not a JUMPDEST, so a
    jump there fails the transaction: pc only lands on instructions."""
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    # PUSH1 0x5b; POP; PUSH1 1; JUMP -- byte 1 is the immediate 0x5b.
    world.create_account(
        CODE_ADDR, code=bytes([0x60, 0x5B, 0x50, 0x60, 0x01, 0x56]))
    result, _, _ = run(world, gas_limit=100_000)
    assert not result.success
    assert result.gas_used == 100_000


def test_storage_persistence():
    result, state, _ = run(build("""
        PUSH 99
        PUSH 5
        SSTORE
        STOP
    """))
    assert result.success
    assert state.get_storage(CODE_ADDR, 5) == 99


def test_sha3_matches_reference():
    result, _, _ = run(build("""
        PUSH 1
        PUSH 0
        MSTORE
        PUSH 2
        PUSH 32
        MSTORE
        PUSH 64
        PUSH 0
        SHA3
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """))
    expected = keccak_int(int_to_bytes32(1) + int_to_bytes32(2))
    assert int.from_bytes(result.return_data, "big") == expected


def test_calldataload_and_size():
    world = build("""
        PUSH 0
        CALLDATALOAD
        CALLDATASIZE
        ADD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """)
    payload = int_to_bytes32(100)
    result, _, _ = run(world, data=payload)
    assert int.from_bytes(result.return_data, "big") == 100 + 32


def test_calldataload_past_end_zero_pads():
    result, _, _ = run(build("""
        PUSH 100
        CALLDATALOAD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """), data=b"\x01")
    assert int.from_bytes(result.return_data, "big") == 0


def test_env_opcodes():
    result, _, _ = run(build("""
        CALLER
        ADDRESS
        ADD
        TIMESTAMP
        ADD
        NUMBER
        ADD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """), timestamp=1234)
    assert int.from_bytes(result.return_data, "big") == \
        SENDER + CODE_ADDR + 1234 + 7


def test_revert_undoes_storage_but_charges_gas():
    result, state, _ = run(build("""
        PUSH 1
        PUSH 0
        SSTORE
        PUSH 0
        PUSH 0
        REVERT
    """))
    assert not result.success
    assert state.get_storage(CODE_ADDR, 0) == 0
    assert result.gas_used > 21_000


def test_out_of_gas_consumes_everything():
    result, state, _ = run(build("""
    loop:
        JUMPDEST
        PUSH 1
        PUSH 0
        SSTORE
        PUSH @loop
        JUMP
    """), gas_limit=60_000)
    assert not result.success
    assert result.gas_used == 60_000
    assert state.get_storage(CODE_ADDR, 0) == 0


def test_fee_accounting():
    world = build("STOP")
    sender_before = world.get_account(SENDER).balance
    result, state, _ = run(world)
    assert result.success
    fee = result.gas_used * 10**9  # default tx gas price
    assert state.get_balance(SENDER) == sender_before - fee
    assert state.get_balance(COINBASE) == fee


def test_bad_nonce_rejected():
    world = build("STOP")
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CODE_ADDR, nonce=5)
    result = EVM(state, BlockHeader(1, 1, COINBASE), tx) \
        .execute_transaction()
    assert not result.success
    assert result.error == "bad nonce"
    assert result.gas_used == 0


def test_nonce_incremented_even_on_revert():
    world = build("PUSH 0\nPUSH 0\nREVERT")
    result, state, _ = run(world)
    assert not result.success
    assert state.get_nonce(SENDER) == 1


def test_cannot_afford_gas():
    world = WorldState()
    world.create_account(SENDER, balance=10)
    world.create_account(CODE_ADDR, code=assemble("STOP"))
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CODE_ADDR, nonce=0)
    result = EVM(state, BlockHeader(1, 1, COINBASE), tx) \
        .execute_transaction()
    assert not result.success
    assert result.error == "cannot afford gas"


def test_value_transfer_plain():
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CODE_ADDR)  # no code: plain transfer
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CODE_ADDR, nonce=0, value=12345)
    result = EVM(state, BlockHeader(1, 1, COINBASE), tx) \
        .execute_transaction()
    assert result.success
    assert result.gas_used == 21_000
    assert state.get_balance(CODE_ADDR) == 12345


def test_internal_call_and_return_data():
    callee = """
        PUSH 4
        CALLDATALOAD
        PUSH 2
        MUL
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    caller = f"""
        PUSH 21
        PUSH 4
        MSTORE
        PUSH 32    ; ret size
        PUSH 64    ; ret offset
        PUSH 36    ; arg size
        PUSH 0     ; arg offset
        PUSH 0     ; value
        PUSH {OTHER}
        GAS
        CALL
        POP
        PUSH 64
        MLOAD
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    world = build(caller, extra_accounts=[(OTHER, callee)])
    result, _, _ = run(world)
    assert result.success
    assert int.from_bytes(result.return_data, "big") == 42


def test_inner_revert_is_contained():
    callee = "PUSH 0\nPUSH 0\nREVERT"
    caller = f"""
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH {OTHER}
        GAS
        CALL
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    world = build(caller, extra_accounts=[(OTHER, callee)])
    result, _, _ = run(world)
    assert result.success
    # CALL pushed 0 (failure) but the outer frame continues.
    assert int.from_bytes(result.return_data, "big") == 0


def test_logs_collected():
    result, _, _ = run(build("""
        PUSH 77
        PUSH 0
        MSTORE
        PUSH 123      ; topic
        PUSH 32       ; size
        PUSH 0        ; offset
        LOG1
        STOP
    """))
    assert result.success
    assert len(result.logs) == 1
    address, topics, data = result.logs[0]
    assert address == CODE_ADDR
    assert topics == (123,)
    assert int.from_bytes(data, "big") == 77


def test_logs_discarded_on_revert():
    result, _, _ = run(build("""
        PUSH 1
        PUSH 0
        PUSH 0
        LOG1
        PUSH 0
        PUSH 0
        REVERT
    """))
    assert not result.success
    assert result.logs == []


def test_intrinsic_gas_data_pricing():
    tx_zero = Transaction(sender=1, to=2, data=b"\x00" * 10)
    tx_nonzero = Transaction(sender=1, to=2, data=b"\x01" * 10)
    assert tx_zero.intrinsic_gas() == 21_000 + 10 * 4
    assert tx_nonzero.intrinsic_gas() == 21_000 + 10 * 16


def test_balance_opcode():
    result, _, _ = run(build("""
        CALLER
        BALANCE
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """))
    assert result.success
    # Sender balance after fee purchase (gas bought up-front).
    assert int.from_bytes(result.return_data, "big") > 0
