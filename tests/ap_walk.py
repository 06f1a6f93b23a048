"""The reference AP walker (paper §4.3): constraint checking, fast
path and shortcuts, interpreted node by node.

The system runs every AP as a compiled closure
(:mod:`repro.evm.jit.specialize`); this walker is the executable
reference semantics the tests check those closures against.  It is
not collected by pytest.

Walks the merged AP tree against the *actual* execution context:

* READ nodes fetch live context values (prefetched, so warm),
* GUARD nodes both check constraints and case-branch between the
  constraint sets of different speculated futures,
* shortcut nodes skip memoized segments when input registers match,
* WRITE nodes are buffered and applied only at the terminal, so a
  constraint violation leaves no state to roll back.

Raises :class:`repro.errors.ConstraintViolation` when no constraint set
is satisfied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chain.block import BlockHeader, blockhash
from repro.core import costmodel
from repro.core.ap import (
    AcceleratedProgram,
    APNode,
    Terminal,
    observed_branch_key,
)
from repro.core.costmodel import CostTally
from repro.core.optimize import evaluate_compute
from repro.core.sevm import Reg, SInstr, SKind, is_reg
from repro.errors import ConstraintViolation
from repro.evm.jit.specialize import (
    APExecStats,
    APOutcome,
    materialize_return,
)
from repro.state.statedb import StateDB
from repro.utils.words import int_to_bytes32


def _read_value(instr: SInstr, regs: Dict[Reg, int], state: StateDB,
                header: BlockHeader) -> Tuple[tuple, int]:
    """Fetch the live context value for a READ node.

    Returns ((kind, key), value) where the key matches the read-set
    convention of :mod:`repro.core.trace`.
    """
    def val(operand) -> int:
        return regs[operand] if is_reg(operand) else operand

    op = instr.op
    if op == "SLOAD":
        slot = val(instr.args[0])
        return (("storage", (instr.key[0], slot)),
                state.get_storage(instr.key[0], slot))
    if op == "BALANCE":
        address = val(instr.args[0])
        return ("balance", (address,)), state.get_balance(address)
    if op == "BLOCKHASH":
        number = val(instr.args[0])
        return ("blockhash", (number,)), blockhash(number)
    if op == "EXTCODESIZE":
        address = val(instr.args[0])
        return (("extcodesize", (address,)),
                len(state.get_code(address)))
    # Header fields: the translator stores the field name as the key,
    # e.g. key=("timestamp",) for TIMESTAMP.
    field_name = instr.key[0]
    return ("header", (field_name,)), getattr(header, field_name)


# pylint: disable=too-many-branches,too-many-statements
def execute_ap(
    ap: AcceleratedProgram,
    state: StateDB,
    header: BlockHeader,
    tally: Optional[CostTally] = None,
) -> APOutcome:
    """Run the AP against the actual context.

    Applies the path's state writes (storage, logs) on success; raises
    :class:`ConstraintViolation` — with no state modified — otherwise.
    The AP is a transaction's top-level message with every tx-derived
    value baked in as a constant: the accelerator runs it inside
    :func:`repro.evm.interpreter.run_envelope`, after the message's
    value transfer.
    """
    if tally is None:
        tally = CostTally()
    stats = APExecStats()
    regs: Dict[Reg, int] = {}
    write_buffer: List[SInstr] = []
    observed_reads: Dict[tuple, int] = {}

    def val(operand) -> int:
        return regs[operand] if is_reg(operand) else operand

    node: object = ap.root
    while isinstance(node, APNode):
        shortcut = node.shortcut
        if shortcut is not None:
            tally.add_cpu(costmodel.SHORTCUT_PROBE, "shortcut")
            try:
                key = tuple(regs[r] for r in shortcut.input_regs)
            except KeyError:
                key = None
            entry = shortcut.entries.get(key) if key is not None else None
            if entry is not None:
                outputs, resume = entry
                regs.update(outputs)
                stats.shortcut_hits += 1
                stats.skipped_nodes += shortcut.length
                node = resume
                continue
            stats.shortcut_misses += 1

        instr = node.instr
        stats.executed_nodes += 1
        kind = instr.kind
        if kind is SKind.COMPUTE:
            tally.add_cpu(costmodel.AP_COMPUTE, "compute")
            regs[instr.dest] = evaluate_compute(
                instr, tuple(val(a) for a in instr.args))
            node = node.next
            continue
        if kind is SKind.READ:
            tally.add_cpu(costmodel.AP_READ, "read")
            context_key, value = _read_value(instr, regs, state, header)
            regs[instr.dest] = value
            observed_reads.setdefault(context_key, value)
            node = node.next
            continue
        if kind is SKind.GUARD:
            tally.add_cpu(costmodel.GUARD, "guard")
            stats.guards_checked += 1
            values = tuple(val(a) for a in instr.args)
            key = observed_branch_key(node.instr, values)
            child = node.branches.get(key) if key is not None else None
            if child is None:
                raise ConstraintViolation(
                    f"guard {instr!r} observed {values}")
            node = child
            continue
        # WRITE: buffer until the terminal (rollback-free execution).
        tally.add_cpu(costmodel.GUARD, "write-buffer")
        write_buffer.append(instr)
        node = node.next

    if not isinstance(node, Terminal):
        raise ConstraintViolation("AP tree ended without a terminal")

    # Commit phase: constraints satisfied, apply the buffered effects.
    for instr in write_buffer:
        tally.add_cpu(costmodel.AP_WRITE, "write")
        if instr.op == "SSTORE":
            state.set_storage(instr.key[0], val(instr.args[0]),
                              val(instr.args[1]))
        else:  # LOG
            topic_count = instr.meta["topic_count"]
            topics = tuple(val(a) for a in instr.args[:topic_count])
            words = [val(a) for a in instr.args[topic_count:]]
            size = instr.meta["data_size"]
            data = b"".join(int_to_bytes32(w) for w in words)[:size]
            state.add_log(instr.key[0], topics, data)

    return_data = materialize_return(
        node.return_pieces, node.return_size, regs)
    return APOutcome(
        success=node.success,
        gas_used=node.gas_used,
        return_data=return_data,
        terminal=node,
        stats=stats,
        observed_reads=observed_reads,
    )
