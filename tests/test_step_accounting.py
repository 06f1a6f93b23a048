"""Counts and traces cannot drift: untraced and traced execution agree.

The interpreter builds step rows only for a tracer that overrides
``on_step`` and keeps ``instruction_count`` in its loop.  Both must
describe the same execution: on copies of one pre-state, the untraced
and the traced run give the same :class:`ExecutionResult`, the same
``instruction_count`` and the same state root, and the traced run gets
exactly ``instruction_count`` step rows — over a recorded dataset
and over the exit corners (revert, memory-expansion out-of-gas, invalid
jump, undefined opcode, a nested CALL that reverts, CREATE).

A repr-based reference digest of the same transactions is pinned, so
the traced path stays byte-identical across interpreter changes.
The reference ``trace_fingerprint`` (``tests/fingerprint.py``) must
depend on a trace's content only, never on which objects hold it, and
must see every part of it.
"""

import dataclasses
import hashlib

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.cli import _record
from repro.core.trace import trace_transaction
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.fingerprint import trace_fingerprint

SENDER = 0xAA
CALLER = 0xC0
CALLEE = 0xC1
GAS_LIMIT = 300_000

#: Init code whose runtime code is the single byte 0x00 (STOP).
_INIT = assemble("PUSH 1\nPUSH 0\nRETURN")

CORNERS = {
    "revert": "PUSH 7\nPUSH 0\nSSTORE\nPUSH 7\nPUSH 0\nMSTORE\n"
              "PUSH 32\nPUSH 0\nREVERT",
    "memory_oog": "PUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH 0xFFFFFFFF\nMSTORE",
    "invalid_jump": "PUSH 1\nPUSH 0\nSSTORE\nPUSH 3\nJUMP\nSTOP",
    "undefined_opcode": bytes.fromhex("600160005560010c00"),
    "nested_call_reverts": f"""
        PUSH 0xABCD
        PUSH 1
        PUSH 0
        LOG1
        PUSH 32
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH 0
        PUSH {CALLEE}
        PUSH 100000
        CALL
        PUSH 1
        SSTORE
        RETURNDATASIZE
        PUSH 0
        PUSH 32
        RETURNDATACOPY
        PUSH 64
        PUSH 0
        RETURN
    """,
    "create": f"""
        PUSH {len(_INIT)}
        PUSH 0
        PUSH 0
        CALLDATACOPY
        PUSH {len(_INIT)}
        PUSH 0
        PUSH 0
        CREATE
        PUSH 0
        SSTORE
        STOP
    """,
}


def _world() -> WorldState:
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CALLEE, code=assemble(CORNERS["revert"]))
    return world


def _corner_tx(name: str):
    """``(world, tx)`` for one exit corner; the deploy corner is a
    contract-creation transaction (``to == 0``)."""
    world = _world()
    if name == "deploy":
        return world, Transaction(sender=SENDER, to=0, data=_INIT, nonce=0,
                                  gas_limit=GAS_LIMIT)
    source = CORNERS[name]
    code = source if isinstance(source, bytes) else assemble(source)
    world.create_account(CALLER, code=code)
    data = _INIT if name == "create" else b""
    return world, Transaction(sender=SENDER, to=CALLER, data=data, nonce=0,
                              gas_limit=GAS_LIMIT)


HEADER = BlockHeader(number=5, timestamp=1000, coinbase=0xBEEF)


def _both(world: WorldState, header: BlockHeader, tx: Transaction):
    """Run ``tx`` untraced and traced on two copies of ``world``; check
    they agree and return the trace."""
    plain_world, traced_world = world.copy(), world.copy()
    plain_state = StateDB(plain_world)
    evm = EVM(plain_state, header, tx)
    result = evm.execute_transaction()
    traced_state = StateDB(traced_world)
    trace = trace_transaction(traced_state, header, tx)
    assert trace.result == result
    assert len(trace.steps) == evm.instruction_count
    plain_state.commit()
    traced_state.commit()
    assert plain_world.root() == traced_world.root()
    return trace


@pytest.fixture(scope="module")
def dataset():
    return _record("report", 60.0, 2021)


def _reference_fingerprint(trace) -> str:
    """A repr-based content digest of ``trace``: the outcome, per row
    ``repr(row[:9])`` plus its sorted ``extra`` items when it has any,
    the sorted read and write sets, and the frames in id order.

    This is the encoding ``trace_fingerprint`` used before it hashed
    the rows with one ``marshal`` call; it is slower but spells every
    field out, so :data:`PINNED` keeps its values.
    """
    digest = hashlib.sha256()
    update = digest.update
    result = trace.result
    update(repr((result.success, result.gas_used, result.return_data,
                 result.error, result.logs)).encode())
    for row in trace.steps:
        update(repr(row[:9]).encode())
        extra = row[9]
        if extra:
            update(repr(sorted(extra.items())).encode())
    update(repr(sorted(trace.read_set.items())).encode())
    update(repr(sorted(trace.write_set.items())).encode())
    for frame_id in sorted(trace.frames):
        event = trace.frames[frame_id]
        update(repr((frame_id, event.parent_id, event.code_address,
                     event.depth, event.start_index, event.end_index,
                     event.success, event.return_data)).encode())
    return digest.hexdigest()


def _dataset_fingerprint(dataset) -> str:
    """Replay every block untraced and traced in lockstep; returns the
    digest of the per-transaction reference fingerprints in order."""
    digest = hashlib.sha256()
    plain_world = dataset.genesis_world.copy()
    traced_world = dataset.genesis_world.copy()
    for _, block in dataset.blocks:
        plain_state = StateDB(plain_world)
        traced_state = StateDB(traced_world)
        for tx in block.transactions:
            evm = EVM(plain_state, block.header, tx)
            result = evm.execute_transaction()
            trace = trace_transaction(traced_state, block.header, tx)
            assert trace.result == result
            assert len(trace.steps) == evm.instruction_count
            digest.update(_reference_fingerprint(trace).encode())
        plain_state.commit()
        traced_state.commit()
        assert plain_world.root() == traced_world.root() \
            == block.state_root
    return digest.hexdigest()


#: ``_reference_fingerprint`` values recorded while every step still
#: built its record; the traced path must keep producing them byte for
#: byte.
PINNED = {
    "dataset":
        "4ddcebe8a9ea131c83304fcad7dbed526503860caefeebf3b51bb11e176cf930",
    "revert":
        "354fa3d2760d132e24242620d88add68d44337f20722538ddb62cc9eca2ef7b4",
    "memory_oog":
        "5f375388c9ba36be23d5652b286707de6a8eecbcef6662a220f48c3ea972e29f",
    "invalid_jump":
        "6252ef8e490aa67c0d9faad5a21b7b510620bd707dcb1794da98ea6e307d7e73",
    "undefined_opcode":
        "278ceea47a057e01c7b5868134fd84432425176efc894cd7bf46a97b221482e1",
    "nested_call_reverts":
        "f4e01a402ac8c9c56c7d5d6b93b93284dd4bdb9a597d28a36eef107ef60a7773",
    "create":
        "d7b79a2981837254eb0dd815f7895daf254cb6db78321a7e97a5bf7428c93506",
    "deploy":
        "1af48404f7199a15b22c60fb23b3c36da2f74cca4b0b289669cc451b9573b735",
}


def test_dataset_counts_and_traces_agree(dataset):
    assert dataset.tx_count > 100
    assert _dataset_fingerprint(dataset) == PINNED["dataset"]


@pytest.mark.parametrize("name", [*CORNERS, "deploy"])
def test_exit_corner_counts_and_traces_agree(name):
    world, tx = _corner_tx(name)
    trace = _both(world, HEADER, tx)
    assert _reference_fingerprint(trace) == PINNED[name]


def test_corners_take_their_exit():
    """Each corner really exits the way it is named."""
    outcomes = {}
    for name in [*CORNERS, "deploy"]:
        world, tx = _corner_tx(name)
        outcomes[name] = _both(world, HEADER, tx)
    for name in ("memory_oog", "invalid_jump", "undefined_opcode"):
        assert not outcomes[name].result.success
        assert outcomes[name].result.gas_used == GAS_LIMIT
    revert = outcomes["revert"].result
    assert not revert.success and revert.gas_used < GAS_LIMIT
    assert revert.return_data == (7).to_bytes(32, "big")
    nested = outcomes["nested_call_reverts"]
    assert nested.result.success
    assert [row[2] for row in nested.steps].count("CALL_RESULT") == 1
    assert nested.result.return_data[32:] == (7).to_bytes(32, "big")
    for name in ("create", "deploy"):
        assert outcomes[name].result.success
    assert [row[2] for row in outcomes["create"].steps] \
        .count("CREATE_RESULT") == 1


def _fresh(value):
    """An equal copy of ``value`` built from new objects: ints via
    ``int(str(v))``, strings and bytes re-decoded, so nothing is shared
    with the interpreter's objects and no string is interned."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(str(value))
    if isinstance(value, str):
        return value.encode().decode()
    if isinstance(value, (bytes, bytearray)):
        return type(value)(bytearray(value))
    if isinstance(value, tuple):
        return tuple(_fresh(item) for item in value)
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    assert isinstance(value, dict), type(value)
    return {_fresh(key): _fresh(item) for key, item in value.items()}


def _traced(name: str):
    world, tx = _corner_tx(name)
    return trace_transaction(StateDB(world), HEADER, tx)


@pytest.mark.parametrize("name", [*CORNERS, "deploy"])
def test_fingerprint_ignores_object_identity(name):
    """Equal rows built from fresh objects hash the same: the encoding
    depends on values only, not on shared or interned objects."""
    trace = _traced(name)
    fresh = dataclasses.replace(trace, steps=_fresh(trace.steps))
    assert fresh.steps == trace.steps
    assert _reference_fingerprint(fresh) == _reference_fingerprint(trace)
    assert trace_fingerprint(fresh) == trace_fingerprint(trace)


def test_fingerprint_sees_outputs_extras_and_frames():
    """Changing one row's output, one ``extra`` value or one frame's
    ``success`` changes the digest."""
    trace = _traced("nested_call_reverts")
    base = trace_fingerprint(trace)
    steps = trace.steps

    index = next(i for i, row in enumerate(steps) if row[7] is not None)
    row = steps[index]
    changed = row[:7] + (row[7] + 1,) + row[8:]
    outputs = dataclasses.replace(
        trace, steps=steps[:index] + [changed] + steps[index + 1:])

    index = next(i for i, row in enumerate(steps)
                 if row[9] and "mem_offset" in row[9])
    row = steps[index]
    extra = dict(row[9], mem_offset=row[9]["mem_offset"] + 1)
    extras = dataclasses.replace(
        trace, steps=steps[:index] + [row[:9] + (extra,)]
        + steps[index + 1:])

    failed = next(fid for fid, event in trace.frames.items()
                  if not event.success)
    frames = dict(trace.frames)
    frames[failed] = dataclasses.replace(frames[failed], success=True)
    flipped = dataclasses.replace(trace, frames=frames)

    digests = [trace_fingerprint(t) for t in (outputs, extras, flipped)]
    assert len({base, *digests}) == 4
