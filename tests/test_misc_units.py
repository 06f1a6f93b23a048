"""Unit tests for remaining corners: empty-trace APs (plain transfers),
bench report helpers, history model, error hierarchy, S-EVM reprs."""

import pytest

from repro.bench.history import saturation_fraction, simulate_block_history
from repro.bench.report import ascii_table
from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core.accelerator import TransactionAccelerator
from repro.core.sevm import GuardMode, Reg, SInstr, SKind, is_reg
from repro.core.speculator import FutureContext, Speculator
from repro.errors import (
    ChainError,
    CompileError,
    EVMError,
    ReproError,
    Revert,
    SpeculationError,
)
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

ALICE, BOB = 0xA1, 0xB2


# -- plain value transfers through the AP machinery -----------------------------

def transfer_world():
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=5)
    return world


def test_plain_transfer_gets_trivial_ap():
    """A code-less transfer traces to zero instructions; its AP is a
    bare terminal handled entirely by the native envelope."""
    tx = Transaction(sender=ALICE, to=BOB, value=1234, nonce=0)
    header = BlockHeader(1, 1000, 0xBEEF)
    speculator = Speculator(transfer_world())
    path = speculator.speculate(tx, FutureContext(1, header))
    assert path is not None
    assert path.instrs == []
    assert path.gas_used == 21_000
    ap = speculator.get_ap(tx.hash)

    evm_world = transfer_world()
    s1 = StateDB(evm_world)
    EVM(s1, header, tx).execute_transaction()
    s1.commit()
    ap_world = transfer_world()
    s2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, s2, ap)
    s2.commit()
    assert receipt.outcome == "satisfied"
    assert receipt.result.gas_used == 21_000
    assert ap_world.root() == evm_world.root()
    assert ap_world.get_account(BOB).balance == 5 + 1234


def test_transfer_insufficient_value_ap_matches_evm():
    """Value exceeding balance fails identically via AP and EVM."""
    tx = Transaction(sender=ALICE, to=BOB, value=10**30, nonce=0)
    header = BlockHeader(1, 1000, 0xBEEF)
    speculator = Speculator(transfer_world())
    speculator.speculate(tx, FutureContext(1, header))
    ap = speculator.get_ap(tx.hash)

    evm_world = transfer_world()
    s1 = StateDB(evm_world)
    expected = EVM(s1, header, tx).execute_transaction()
    s1.commit()
    ap_world = transfer_world()
    s2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, s2, ap)
    s2.commit()
    assert receipt.result.success == expected.success
    assert receipt.result.gas_used == expected.gas_used
    assert ap_world.root() == evm_world.root()


# -- bench helpers -----------------------------------------------------------------

def test_ascii_table_alignment():
    table = ascii_table(["a", "long-header"],
                        [[1, 2], ["wiiiiide", 3]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert len(set(len(line) for line in lines[1:])) <= 2
    assert "long-header" in lines[1]


def test_history_deterministic():
    a = simulate_block_history(30)
    b = simulate_block_history(30)
    assert [(p.gas_limit, p.gas_used) for p in a] == \
        [(p.gas_limit, p.gas_used) for p in b]
    assert 0.0 <= saturation_fraction(a) <= 1.0


def test_history_demand_never_exceeds_limit():
    for point in simulate_block_history(66):
        assert point.gas_used <= point.gas_limit


# -- errors -----------------------------------------------------------------------------

def test_error_hierarchy():
    assert issubclass(EVMError, ReproError)
    assert issubclass(Revert, EVMError)
    assert issubclass(CompileError, ReproError)
    assert issubclass(SpeculationError, ReproError)
    assert issubclass(ChainError, ReproError)


def test_revert_carries_payload():
    exc = Revert(b"abc")
    assert exc.data == b"abc"


def test_compile_error_location():
    exc = CompileError("bad thing", line=7)
    assert "line 7" in str(exc)
    assert CompileError("no line").line == 0


# -- S-EVM basics --------------------------------------------------------------------------

def test_reg_identity():
    assert is_reg(Reg(3))
    assert not is_reg(3)
    assert Reg(3) == 3  # ints for storage, distinct by type


def test_sinstr_reprs():
    compute = SInstr(kind=SKind.COMPUTE, op="ADD", dest=Reg(2),
                     args=(Reg(0), 5))
    guard = SInstr(kind=SKind.GUARD, op="GUARD", args=(Reg(2),),
                   guard_mode=GuardMode.TRUTH, expected=True)
    assert "ADD" in repr(compute)
    assert "GUARD" in repr(guard)
    assert "truth" in repr(guard)


# -- speculation error path ----------------------------------------------------------------

def test_unsupported_trace_yields_no_ap():
    """CALL with a value transfer is outside the supported subset; the
    speculator records the error and the tx simply runs plain."""
    from repro.evm.assembler import assemble
    caller = f"""
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 5       ; value != 0
        PUSH {BOB}
        GAS
        CALL
        STOP
    """
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(0xCA, code=assemble(caller))
    world.create_account(BOB)
    tx = Transaction(sender=ALICE, to=0xCA, nonce=0)
    speculator = Speculator(world)
    path = speculator.speculate(
        tx, FutureContext(1, BlockHeader(1, 1, 0xB)))
    assert path is None
    assert speculator.get_ap(tx.hash) is None  # no usable AP recorded
    assert any("value transfer" in (r.error or "")
               for r in speculator.records)
    # The accelerator treats a missing AP as plain execution.
    receipt = TransactionAccelerator().execute(
        tx, BlockHeader(1, 1, 0xB), StateDB(world),
        speculator.get_ap(tx.hash))
    assert receipt.outcome == "no_ap"
    assert receipt.result.success


def test_describe_ap_empty():
    from repro.core.ap import AcceleratedProgram, describe_ap
    assert describe_ap(AcceleratedProgram(1)) == "<empty AP>"


def test_top_level_api_exports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__
