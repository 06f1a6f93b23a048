"""Instrumented pre-execution: collecting traces and read/write sets.

This is the preparation step of AP synthesis (paper §4.3): run the
transaction on the instrumented EVM in a (predicted or actual) context,
recording the full instruction trace with intermediate results, the read
set (context variables read and their values), and the write set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.evm.interpreter import EVM, ExecutionResult
from repro.evm.tracing import Tracer
from repro.state.statedb import StateDB

#: A read/write-set key: (kind, key-tuple), e.g. ("storage", (addr, slot)).
ContextKey = Tuple[str, tuple]


@dataclass
class FrameEvent:
    """Start/end marker of one call frame inside the flat trace."""

    frame_id: int
    parent_id: Optional[int]
    code_address: int
    depth: int
    start_index: int
    end_index: int = -1
    success: bool = True
    return_data: bytes = b""


class TxTracer(Tracer):
    """Collects the instruction trace and read/write sets of one execution."""

    def __init__(self) -> None:
        #: One row per executed instruction (:meth:`Tracer.on_step`);
        #: a step's index is its position in this list.
        self.steps: List[tuple] = []
        #: First-read value per context key (register promotion keeps the
        #: first read; later reads of the same variable are redundant).
        self.read_set: Dict[ContextKey, int] = {}
        #: Last-written value per key.
        self.write_set: Dict[ContextKey, object] = {}
        #: All reads in order (prefetcher input).
        self.reads_in_order: List[Tuple[str, tuple, int]] = []
        self.frames: Dict[int, FrameEvent] = {}

    def on_step(self, row: tuple) -> None:
        self.steps.append(row)

    def on_call_enter(self, frame_id: int, parent_id: Optional[int],
                      code_address: int, depth: int) -> None:
        self.frames[frame_id] = FrameEvent(
            frame_id=frame_id, parent_id=parent_id,
            code_address=code_address, depth=depth,
            start_index=len(self.steps))

    def on_call_exit(self, frame_id: int, success: bool,
                     return_data: bytes) -> None:
        event = self.frames.get(frame_id)
        if event is not None:
            event.end_index = len(self.steps)
            event.success = success
            event.return_data = return_data

    def on_context_read(self, kind: str, key: tuple, value: int) -> None:
        context_key = (kind, key)
        self.reads_in_order.append((kind, key, value))
        if context_key not in self.read_set:
            self.read_set[context_key] = value

    def on_state_write(self, kind: str, key: tuple, value) -> None:
        self.write_set[(kind, key)] = value


@dataclass
class TraceResult:
    """Everything AP synthesis needs from one pre-execution."""

    tx: Transaction
    header: BlockHeader
    result: ExecutionResult
    steps: List[tuple] = field(default_factory=list)
    read_set: Dict[ContextKey, int] = field(default_factory=dict)
    write_set: Dict[ContextKey, object] = field(default_factory=dict)
    reads_in_order: List[Tuple[str, tuple, int]] = field(default_factory=list)
    frames: Dict[int, FrameEvent] = field(default_factory=dict)
    #: Identifier of the speculated future context (set by the speculator).
    context_id: Optional[int] = None

    @property
    def trace_length(self) -> int:
        """Number of EVM instructions executed."""
        return len(self.steps)


def trace_transaction(
    state: StateDB,
    header: BlockHeader,
    tx: Transaction,
) -> TraceResult:
    """Execute ``tx`` with instrumentation and return the trace.

    The caller owns ``state`` (typically a speculative overlay); this
    function mutates it exactly as a normal execution would.
    """
    tracer = TxTracer()
    evm = EVM(state, header, tx, tracer=tracer)
    result = evm.execute_transaction()
    return TraceResult(
        tx=tx, header=header, result=result,
        steps=tracer.steps,
        read_set=tracer.read_set,
        write_set=tracer.write_set,
        reads_in_order=tracer.reads_in_order,
        frames=tracer.frames,
    )
