"""Deep-internal tests: data constraints with computed offsets,
reverted inner frames, MCONCAT resolution, merge/prune edge cases,
shortcut mechanics."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core.accelerator import TransactionAccelerator
from repro.core.ap import (
    AcceleratedProgram,
    APNode,
    Terminal,
    branch_key_for,
    observed_branch_key,
)
from repro.core.memoize import build_shortcuts
from repro.core.merge import merge_path, prune_tree
from repro.core.sevm import GuardMode, Reg, SInstr, SKind
from repro.core.speculator import FutureContext, Speculator, synthesize_path
from repro.core.trace import trace_transaction
from repro.errors import ConstraintViolation
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.evm.jit.specialize import materialize_return
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.ap_walk import execute_ap

SENDER = 0xAA
CODE = 0xCC
OTHER = 0xDD


def run_traced(code_src, extra=(), timestamp=1000, data=b""):
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CODE, code=assemble(code_src))
    for address, src in extra:
        world.create_account(address, code=assemble(src))
    tx = Transaction(sender=SENDER, to=CODE, data=data, nonce=0)
    header = BlockHeader(1, timestamp, 0xBEEF)
    trace = trace_transaction(StateDB(world), header, tx)
    return world, tx, header, trace


# -- data constraints on computed memory offsets --------------------------------

COMPUTED_OFFSET = """
    PUSH 777
    PUSH 96
    MSTORE            ; mem[96] = 777
    TIMESTAMP
    PUSH 32
    MUL               ; offset = 32 * timestamp (context-dependent!)
    MLOAD             ; read at computed offset
    PUSH 0
    MSTORE
    PUSH 32
    PUSH 0
    RETURN
"""


def test_computed_offset_emits_data_guard():
    _, _, _, trace = run_traced(COMPUTED_OFFSET, timestamp=3)
    path = synthesize_path(trace)
    data_guards = [i for i in path.instrs
                   if i.kind is SKind.GUARD and not i.is_control]
    assert data_guards, "expected a data constraint on the MLOAD offset"
    assert path.stats.inserted_data_constraints >= 1


def test_computed_offset_ap_matches_and_violates():
    """Same offset (ts=3 -> 96) satisfies; different offset violates
    the data constraint and falls back."""
    world, tx, header, trace = run_traced(COMPUTED_OFFSET, timestamp=3)
    path = synthesize_path(trace)
    ap = AcceleratedProgram(tx.hash)
    merge_path(ap, path)
    prune_tree(ap)
    build_shortcuts(ap)

    # Satisfied at ts=3 (offset 96 -> reads the stored 777).
    world2 = WorldState()
    world2.create_account(SENDER, balance=10**21)
    world2.create_account(CODE, code=assemble(COMPUTED_OFFSET))
    outcome = execute_ap(ap, StateDB(world2), BlockHeader(1, 3, 0xB))
    assert int.from_bytes(outcome.return_data, "big") == 777

    # Violated at ts=2 (offset 64: the dependency changed).
    with pytest.raises(ConstraintViolation):
        execute_ap(ap, StateDB(world2), BlockHeader(1, 2, 0xB))


# -- reverted inner frames ---------------------------------------------------------

INNER_REVERTS = f"""
    PUSH 0
    PUSH 0
    PUSH 0
    PUSH 0
    PUSH 0
    PUSH {OTHER}
    PUSH 100000
    CALL              ; callee SSTOREs then REVERTs
    PUSH 0
    MSTORE
    PUSH 9
    PUSH 3
    SSTORE            ; outer write survives
    PUSH 32
    PUSH 0
    RETURN
"""

CALLEE_WRITES_THEN_REVERTS = """
    PUSH 5
    PUSH 1
    SSTORE
    PUSH 0
    PUSH 0
    REVERT
"""


def test_reverted_inner_frame_writes_dropped():
    world, tx, header, trace = run_traced(
        INNER_REVERTS, extra=[(OTHER, CALLEE_WRITES_THEN_REVERTS)])
    assert trace.result.success
    path = synthesize_path(trace)
    writes = [i for i in path.instrs if i.kind is SKind.WRITE]
    # Only the outer SSTORE survives; the reverted callee's is dropped.
    assert len(writes) == 1
    assert writes[0].key == (CODE,)


def test_reverted_inner_frame_ap_equivalence():
    world, tx, header, trace = run_traced(
        INNER_REVERTS, extra=[(OTHER, CALLEE_WRITES_THEN_REVERTS)])
    path = synthesize_path(trace)
    ap = AcceleratedProgram(tx.hash)
    merge_path(ap, path)
    prune_tree(ap)

    def build():
        w = WorldState()
        w.create_account(SENDER, balance=10**21)
        w.create_account(CODE, code=assemble(INNER_REVERTS))
        w.create_account(OTHER,
                         code=assemble(CALLEE_WRITES_THEN_REVERTS))
        return w

    evm_world = build()
    s1 = StateDB(evm_world)
    EVM(s1, header, tx).execute_transaction()
    s1.commit()

    ap_world = build()
    s2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, s2, ap)
    s2.commit()
    assert receipt.outcome == "satisfied"
    assert ap_world.root() == evm_world.root()
    assert ap_world.get_account(OTHER).get_storage(1) == 0
    assert ap_world.get_account(CODE).get_storage(3) == 9


# -- MCONCAT through sub-call boundaries ----------------------------------------------

def test_partial_word_calldata_in_callee():
    """The callee reads calldata straddling the caller's selector word
    and an argument word — resolved via MCONCAT at synthesis."""
    callee = """
        PUSH 2
        CALLDATALOAD      ; straddles selector tail + arg word
        PUSH 0
        MSTORE
        PUSH 32
        PUSH 0
        RETURN
    """
    caller = f"""
        TIMESTAMP         ; context-dependent arg
        PUSH 4
        MSTORE
        PUSH 3735928559
        PUSH 224
        SHL
        PUSH 0
        MSTORE            ; selector 0xdeadbeef at [0..4)
        PUSH 32
        PUSH 64
        PUSH 36
        PUSH 0
        PUSH 0
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
    world, tx, header, trace = run_traced(
        caller, extra=[(OTHER, callee)], timestamp=1000)
    assert trace.result.success
    path = synthesize_path(trace)
    mconcats = [i for i in path.instrs if i.op == "MCONCAT"]
    assert mconcats, "expected an MCONCAT for the straddling read"
    # AP execution at a different timestamp recomputes correctly.
    ap = AcceleratedProgram(tx.hash)
    merge_path(ap, path)
    prune_tree(ap)
    build_shortcuts(ap)
    for ts in (1000, 123456):
        w = WorldState()
        w.create_account(SENDER, balance=10**21)
        w.create_account(CODE, code=assemble(caller))
        w.create_account(OTHER, code=assemble(callee))
        evm_w = w.copy()
        s = StateDB(evm_w)
        expected = EVM(s, BlockHeader(1, ts, 0xB), tx) \
            .execute_transaction()
        outcome = execute_ap(ap, StateDB(w), BlockHeader(1, ts, 0xB))
        assert outcome.return_data == expected.return_data, ts


# -- merge / branch-key mechanics ------------------------------------------------------

def test_branch_keys():
    eq_guard = SInstr(kind=SKind.GUARD, op="GUARD", args=(Reg(0),),
                      guard_mode=GuardMode.EQ, expected=42)
    truth_guard = SInstr(kind=SKind.GUARD, op="GUARD", args=(Reg(0),),
                         guard_mode=GuardMode.TRUTH, expected=True)
    neq_guard = SInstr(kind=SKind.GUARD, op="GUARD",
                       args=(Reg(0), Reg(1)),
                       guard_mode=GuardMode.NEQ, expected=True)
    assert branch_key_for(eq_guard) == 42
    assert branch_key_for(truth_guard) is True
    assert branch_key_for(neq_guard) is True
    assert observed_branch_key(eq_guard, (42,)) == 42
    assert observed_branch_key(truth_guard, (7,)) is True
    assert observed_branch_key(truth_guard, (0,)) is False
    assert observed_branch_key(neq_guard, (1, 2)) is True
    assert observed_branch_key(neq_guard, (2, 2)) is None


def test_merge_failure_counted():
    """Structurally incompatible paths (different tx shapes forced
    together) bump merge_failures instead of corrupting the tree."""
    from repro.core.ap import APPath
    from repro.core.translate import SynthStats

    def fake_path(path_id, ops):
        instrs = [SInstr(kind=SKind.COMPUTE, op=op, dest=Reg(i),
                         args=(i,)) for i, op in enumerate(ops)]
        return APPath(
            path_id=path_id, context_id=path_id, instrs=instrs,
            pre_dce_instrs=instrs, concrete={Reg(i): i for i in
                                             range(len(ops))},
            return_pieces=[], return_size=0, success=True,
            gas_used=21000, stats=SynthStats(), read_set={},
            write_set={})

    ap = AcceleratedProgram(1)
    assert merge_path(ap, fake_path(0, ["ADD", "MUL"]))
    assert not merge_path(ap, fake_path(1, ["ADD", "SUB"]))
    assert ap.merge_failures == 1
    assert len(ap.paths) == 1


def test_linear_routes_enumeration(oracle_world):
    from repro.contracts import pricefeed
    from tests.conftest import ALICE, FEED, ROUND
    pf = pricefeed()
    tx = Transaction(sender=ALICE, to=FEED,
                     data=pf.calldata("submit", ROUND, 1980), nonce=0)
    speculator = Speculator(oracle_world)
    speculator.speculate(tx, FutureContext(1, BlockHeader(1, 3990462,
                                                          0xBEEF)))
    ap = speculator.get_ap(tx.hash)
    node = ap.root
    while isinstance(node, APNode):
        if node.branches is None:
            node = node.next
        else:
            (node,) = node.branches.values()  # one context: one route
    assert isinstance(node, Terminal)


def test_materialize_return_mixed_pieces():
    regs = {Reg(0): int.from_bytes(b"\x11" * 32, "big")}
    pieces = [(0, ("bytes", b"\xAA\xBB")),
              (2, ("reg", Reg(0), 30, 2)),
              (4, ("zero", 2))]
    data = materialize_return(pieces, 6, regs)
    assert data == b"\xAA\xBB\x11\x11\x00\x00"
    assert materialize_return([], 0, {}) == b""
