"""Tracing hooks for the instrumented EVM (paper §4.3, preparation step).

The speculator runs transactions on an *instrumented EVM* that records:

* the EVM instruction trace (every executed instruction, in order),
* the intermediate results (inputs/outputs of each instruction),
* the read set (context variables read) and write set (variables written).

This module defines the hook protocol and the raw per-step row; the
higher-level trace assembly (read/write set objects, frame structure)
lives in :mod:`repro.core.trace`.
"""

from __future__ import annotations

from typing import Any, Optional


# Context-read / state-write kinds (the keys of read/write sets).
KIND_STORAGE = "storage"        # key: (address, slot)
KIND_BALANCE = "balance"        # key: (address,)
KIND_HEADER = "header"          # key: (field_name,)
KIND_BLOCKHASH = "blockhash"    # key: (block_number,)
KIND_CODESIZE = "extcodesize"   # key: (address,)
KIND_LOG = "log"                # write-only


class Tracer:
    """Base tracer; the default hooks do nothing.

    Subclasses override the hooks they need.  The interpreter invokes
    :meth:`on_step` for every instruction *after* it executes (so the
    row carries concrete inputs and output), and the context hooks
    whenever execution touches the context or writes state.
    """

    def on_step(self, row: tuple) -> None:
        """Called once per executed instruction with one plain tuple
        ``(op, pc, name, frame_id, depth, code_address, inputs, output,
        gas_cost, extra)``: ``inputs`` are the popped operands, top
        first; ``output`` is the pushed result or ``None``; ``extra`` is
        the op's keyword dict (memory ranges, context keys, call
        details), or ``None`` for an op that has none.  A step's index
        is its position in the order of calls."""

    def on_call_enter(self, frame_id: int, parent_id: Optional[int],
                      code_address: int, depth: int) -> None:
        """Called when a new call frame starts executing."""

    def on_call_exit(self, frame_id: int, success: bool,
                     return_data: bytes) -> None:
        """Called when a call frame finishes."""

    def on_context_read(self, kind: str, key: tuple, value: int) -> None:
        """Called when execution reads a context variable (read set)."""

    def on_state_write(self, kind: str, key: tuple, value: Any) -> None:
        """Called when execution writes state (write set)."""
