"""Trace -> S-EVM translation (paper §4.3, "Program specialization").

The four conversion steps, fused into one pass over the EVM trace:

* **Complex instruction decomposition** — SHA3's memory-read half,
  CALL's calldata/returndata marshalling, and CALLDATACOPY are split
  into their memory and compute/register parts; the memory parts are
  then resolved symbolically (and so vanish).
* **Stack-to-register translation** — a symbolic stack maps every EVM
  stack slot to either a constant or an SSA register, so PUSH/DUP/SWAP/
  POP disappear and data dependencies become explicit operands.
* **Register promotion** — a symbolic byte-interval memory per call
  frame resolves every MLOAD to the operands that produced the bytes
  (register, constant, or an MCONCAT of slices), eliminating all memory
  instructions.  Context reads keep their first read; redundant reads
  are removed by the promotion pass in :mod:`repro.core.optimize`.
* **Control-flow elimination** — JUMP/JUMPI/JUMPDEST vanish; every
  context-dependent control decision becomes a guard instruction
  (control constraints), and variable memory offsets become EQ guards
  (data constraints).  Gas-induced control flow needs no runtime guard
  in this reproduction because the simplified gas schedule makes path
  gas a synthesis-time constant (see DESIGN.md).

The output is a single SSA instruction list for one execution path,
together with concrete register values (feeding constant folding and
memoization) and synthesis statistics (Figure 15).

The pass decodes once per opcode, not once per step: the stack-only
opcodes are moved inline by the loop, and every other step is one
lookup in a handler table built at import.  The symbolic memory holds
live writes only, so a loop that stores to one slot keeps one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SpeculationError
from repro.evm import opcodes
from repro.evm.opcodes import Category, Op
from repro.core.sevm import (
    COMPUTE_SHA3,
    GuardMode,
    PURE_OP_NAMES,
    Reg,
    SInstr,
    SKind,
    is_reg,
)
from repro.core.trace import TraceResult
from repro.utils.words import int_to_bytes32


@dataclass
class SynthStats:
    """Per-path synthesis accounting (Figure 15 / §5.5).

    All counts are in instructions.  The category mapping follows the
    paper's Figure 15 labels; see DESIGN.md for the exact conventions.
    """

    trace_len: int = 0
    decomposed_added: int = 0
    eliminated_stack: int = 0
    eliminated_control: int = 0
    eliminated_mem: int = 0
    eliminated_state: int = 0
    inserted_guards: int = 0          # control constraints
    inserted_data_constraints: int = 0
    # Filled by the optimizer:
    eliminated_constant: int = 0
    eliminated_duplicate: int = 0
    eliminated_dead: int = 0
    eliminated_promoted_reads: int = 0
    eliminated_dead_writes: int = 0
    final_len: int = 0
    constraint_section_len: int = 0
    fast_path_len: int = 0
    shortcuts_added: int = 0

    def sevm_unoptimized_len(self) -> int:
        """Instruction count right after translation (second column)."""
        return (self.trace_len + self.decomposed_added
                - self.eliminated_stack - self.eliminated_control
                - self.eliminated_mem - self.eliminated_state
                + self.inserted_guards + self.inserted_data_constraints)

    def counts(self) -> Tuple[int, ...]:
        """Every counter in field order: ``SynthStats(*counts)`` is a
        copy, and element-wise sums of counts are §5.5 totals."""
        return _COUNTS(self)


_COUNTS = attrgetter(*(f.name for f in fields(SynthStats)))


# -- symbolic memory pieces ---------------------------------------------------
#
# A "piece" describes where some bytes come from:
#   ("bytes", b"...")                constant bytes
#   ("reg", Reg, src_start, length)  a slice of a register's 32-byte word
#   ("zero", length)                 untouched (zero) memory

def _piece_len(piece) -> int:
    if piece[0] == "bytes":
        return len(piece[1])
    if piece[0] == "reg":
        return piece[3]
    return piece[1]  # zero


def _slice_piece(piece, start: int, length: int):
    """Sub-slice of a piece (start relative to the piece)."""
    if piece[0] == "bytes":
        return ("bytes", piece[1][start:start + length])
    if piece[0] == "reg":
        return ("reg", piece[1], piece[2] + start, length)
    return ("zero", length)


_FIRST = itemgetter(0)


def _payload_slice(payload, payload_abs_off: int, abs_start: int,
                   length: int) -> List[Tuple[int, tuple]]:
    """Slice [abs_start, abs_start+length) out of one write payload."""
    rel = abs_start - payload_abs_off
    kind = payload[0]
    if kind == "bytes":
        return [(abs_start, ("bytes", payload[1][rel:rel + length]))]
    if kind == "word":
        operand = payload[1]
        if is_reg(operand):
            return [(abs_start, ("reg", operand, rel, length))]
        word = int_to_bytes32(operand)
        return [(abs_start, ("bytes", word[rel:rel + length]))]
    # "pieces": nested piece list with relative offsets.
    result = []
    end = rel + length
    for p_off, piece in payload[1]:
        p_end = p_off + _piece_len(piece)
        lo = rel if rel > p_off else p_off
        hi = end if end < p_end else p_end
        if lo >= hi:
            continue
        result.append((payload_abs_off + lo,
                       _slice_piece(piece, lo - p_off, hi - lo)))
    return result


def _resolve_pieces(writes, offset: int, size: int
                    ) -> List[Tuple[int, tuple]]:
    """Piece list covering [offset, offset+size) of a frame's live writes.

    ``writes`` maps ``(offset, size)`` to a payload in recency order,
    so walking it backwards meets later writes first: they shadow
    earlier ones, and untouched ranges are zero.  Returned offsets are
    relative to ``offset``.
    """
    if size == 0:
        return []
    end = offset + size
    # Uncovered intervals, absolute: list of (start, stop).
    uncovered = [(offset, end)]
    found: List[Tuple[int, tuple]] = []
    for (w_off, w_size), payload in reversed(writes.items()):
        w_end = w_off + w_size
        if w_off >= end or w_end <= offset:
            continue  # misses the whole read
        next_uncovered = []
        for start, stop in uncovered:
            lo = start if start > w_off else w_off
            hi = stop if stop < w_end else w_end
            if lo >= hi:
                next_uncovered.append((start, stop))
                continue
            # [lo, hi) comes from this write.
            for abs_off, piece in _payload_slice(payload, w_off, lo,
                                                 hi - lo):
                found.append((abs_off - offset, piece))
            if start < lo:
                next_uncovered.append((start, lo))
            if hi < stop:
                next_uncovered.append((hi, stop))
        uncovered = next_uncovered
        if not uncovered:
            break
    for start, stop in uncovered:
        found.append((start - offset, ("zero", stop - start)))
    found.sort(key=_FIRST)
    return found


class _SymFrame:
    """Symbolic machine state of one call frame."""

    __slots__ = ("frame_id", "code_address", "stack", "writes",
                 "calldata_pieces", "calldata_size", "depth",
                 "returndata")

    def __init__(self, frame_id: int, code_address: int, depth: int,
                 calldata_pieces, calldata_size: int) -> None:
        self.frame_id = frame_id
        self.code_address = code_address
        self.depth = depth
        self.stack: List[object] = []
        #: Live memory writes: (offset, size) -> payload, in recency
        #: order; payload is ("bytes", b), ("word", operand), or
        #: ("pieces", [(rel_off, piece), ...]).  A rewrite of the same
        #: region drops the entry it shadows, so a loop that stores to
        #: one slot keeps one entry, not one per iteration.
        self.writes: Dict[Tuple[int, int], tuple] = {}
        #: The frame's calldata as a piece list (absolute rel offsets).
        self.calldata_pieces = calldata_pieces
        self.calldata_size = calldata_size
        #: Return data of the frame's most recent completed sub-call
        #: (piece list + actual size), for RETURNDATACOPY.
        self.returndata: Tuple[list, int] = ([], 0)

    def write(self, offset: int, size: int, payload: tuple) -> None:
        """Record a memory write; it becomes the most recent one."""
        if not size:
            return  # covers nothing, shadows nothing
        writes = self.writes
        key = (offset, size)
        if key in writes:
            del writes[key]  # fully shadowed by this rewrite
        writes[key] = payload


@dataclass
class TranslationResult:
    """S-EVM path for one traced execution."""

    instrs: List[SInstr]
    concrete: Dict[Reg, int]
    #: Return-data layout of the top-level call: list of
    #: (rel_off, piece) covering [0, return_size).
    return_pieces: List[Tuple[int, tuple]]
    return_size: int
    success: bool
    gas_used: int
    stats: SynthStats
    read_set: Dict[tuple, int]
    write_set: Dict[tuple, object]
    #: Post-promotion, pre-DCE instruction list (the merge skeleton);
    #: filled in by :func:`repro.core.optimize.optimize_path`.
    pre_dce_instrs: Optional[List[SInstr]] = None


class Translator:
    """One-shot translator for a single :class:`TraceResult`."""

    def __init__(self, trace: TraceResult) -> None:
        self.trace = trace
        self.instrs: List[SInstr] = []
        self.concrete: Dict[Reg, int] = {}
        self.stats = SynthStats(trace_len=len(trace.steps))
        self._next_reg = 0
        self._frames: Dict[int, _SymFrame] = {}
        self._frame_stack: List[_SymFrame] = []
        #: Calldata prepared by a pending CALL for the next entered frame.
        self._pending_calldata: Optional[Tuple[list, int]] = None
        #: Return pieces of the frame that just exited.
        self._last_return: Tuple[list, int] = ([], 0)
        self._top_return: Tuple[list, int] = ([], 0)

    # -- register / instruction helpers ------------------------------------

    def _new_reg(self, concrete_value: int) -> Reg:
        reg = Reg(self._next_reg)
        self._next_reg += 1
        self.concrete[reg] = concrete_value
        return reg

    def _frame_tag(self) -> Tuple[int, ...]:
        return tuple(f.frame_id for f in self._frame_stack)

    def _guard_eq(self, operand, expected: int, is_control: bool) -> None:
        """Guard a register operand against its speculated value."""
        if not isinstance(operand, Reg):
            return
        self.instrs.append(SInstr(
            kind=SKind.GUARD, op="GUARD", args=(operand,),
            guard_mode=GuardMode.EQ, expected=expected,
            is_control=is_control))
        if is_control:
            self.stats.inserted_guards += 1
        else:
            self.stats.inserted_data_constraints += 1

    def _guard_truth(self, operand, taken: bool) -> None:
        if not isinstance(operand, Reg):
            return
        self.instrs.append(SInstr(
            kind=SKind.GUARD, op="GUARD", args=(operand,),
            guard_mode=GuardMode.TRUTH, expected=taken, is_control=True))
        self.stats.inserted_guards += 1

    # -- memory resolution ---------------------------------------------------

    def _pieces_to_operand(self, pieces: List[Tuple[int, tuple]],
                           size: int, concrete_value: int):
        """Collapse a piece list into a single operand.

        Returns a Reg or int constant.  Emits an MCONCAT compute when the
        region mixes register slices with other content (the decomposed
        memory-read made explicit).
        """
        if len(pieces) == 1 and pieces[0][0] == 0:
            piece = pieces[0][1]
            if piece[0] == "reg" and piece[2] == 0 and piece[3] == 32 \
                    and size == 32:
                return piece[1]
        if all(piece[0] != "reg" for _, piece in pieces):
            return concrete_value
        regs = []
        layout = []
        for rel_off, piece in pieces:
            if piece[0] == "reg":
                layout.append(("reg", rel_off, len(regs),
                               piece[2], piece[3]))
                regs.append(piece[1])
            elif piece[0] == "bytes":
                layout.append(("bytes", rel_off, piece[1]))
            else:
                layout.append(("zero", rel_off, piece[1]))
        dest = self._new_reg(concrete_value)
        self.instrs.append(SInstr(
            kind=SKind.COMPUTE, op="MCONCAT", dest=dest, args=tuple(regs),
            meta={"layout": layout, "size": size}))
        return dest

    def _resolve_region_words(self, frame: _SymFrame, offset: int,
                              size: int, concrete_bytes: bytes) -> List:
        """Region as a list of word operands (tail zero-padded)."""
        operands = []
        for word_start in range(0, size, 32):
            word_len = min(32, size - word_start)
            pieces = _resolve_pieces(
                frame.writes, offset + word_start, word_len)
            chunk = concrete_bytes[word_start:word_start + word_len]
            concrete_word = int.from_bytes(
                chunk + b"\x00" * (32 - len(chunk)), "big")
            if word_len < 32:
                pieces = pieces + [(word_len, ("zero", 32 - word_len))]
            operands.append(
                self._pieces_to_operand(pieces, 32, concrete_word))
        return operands

    def _calldata_word(self, frame: _SymFrame, offset: int,
                       concrete_value: int):
        """CALLDATALOAD: 32 bytes of the frame's calldata, zero-padded."""
        pieces = []
        remaining = [(offset, offset + 32)]
        for p_off, piece in frame.calldata_pieces:
            p_end = p_off + _piece_len(piece)
            next_remaining = []
            for start, end in remaining:
                lo = start if start > p_off else p_off
                hi = end if end < p_end else p_end
                if lo >= hi:
                    next_remaining.append((start, end))
                    continue
                pieces.append((lo - offset,
                               _slice_piece(piece, lo - p_off, hi - lo)))
                if start < lo:
                    next_remaining.append((start, lo))
                if hi < end:
                    next_remaining.append((hi, end))
            remaining = next_remaining
        for start, end in remaining:
            pieces.append((start - offset, ("zero", end - start)))
        pieces.sort(key=_FIRST)
        return self._pieces_to_operand(pieces, 32, concrete_value)

    # -- main walk ----------------------------------------------------------------

    def translate(self) -> TranslationResult:
        """Translate the whole trace; raises SpeculationError if the
        trace uses a feature outside the supported subset."""
        trace = self.trace
        tx = trace.tx
        # Top-level frame: calldata is the transaction payload (constant).
        frame = _SymFrame(
            frame_id=0, code_address=tx.to, depth=0,
            calldata_pieces=[(0, ("bytes", tx.data))],
            calldata_size=len(tx.data))
        self._frames[0] = frame
        self._frame_stack = [frame]
        frame_now = 0
        stack = frame.stack
        handlers = _HANDLERS
        # PUSH/DUP/SWAP/POP only move symbolic stack slots; they are
        # decoded here rather than dispatched.
        eliminated_stack = 0

        for (op, _pc, name, frame_id, depth, code_address, inputs, output,
             _gas, extra) in trace.steps:
            if frame_id != frame_now:
                self._sync_frames(frame_id, code_address, depth)
                frame = self._frame_stack[-1]
                frame_now = frame_id
                stack = frame.stack
            if 0x60 <= op <= 0x7F:      # PUSHn
                eliminated_stack += 1
                stack.append(output)
            elif 0x80 <= op <= 0x8F:    # DUPn
                eliminated_stack += 1
                stack.append(stack[0x7F - op])
            elif 0x90 <= op <= 0x9F:    # SWAPn
                eliminated_stack += 1
                n = 0x8E - op
                stack[-1], stack[n] = stack[n], stack[-1]
            elif op == 0x50:            # POP
                eliminated_stack += 1
                stack.pop()
            else:
                handlers[op](self, frame, op, name, inputs, output, extra)

        self.stats.eliminated_stack += eliminated_stack
        self._discard_reverted_writes()
        if not trace.result.success:
            # Top-level failure: every state write was reverted; the AP
            # keeps only reads/computes/guards (constraint checking).
            self.instrs = [i for i in self.instrs if i.kind is not SKind.WRITE]
        return TranslationResult(
            instrs=self.instrs,
            concrete=self.concrete,
            return_pieces=self._top_return[0],
            return_size=self._top_return[1],
            success=trace.result.success,
            gas_used=trace.result.gas_used,
            stats=self.stats,
            read_set=dict(trace.read_set),
            write_set=dict(trace.write_set),
        )

    def _sync_frames(self, frame_id: int, code_address: int,
                     depth: int) -> None:
        """Enter/exit symbolic frames to match a step in ``frame_id``,
        which is not the current frame."""
        if frame_id in self._frames:
            # Returning to an ancestor frame.
            while self._frame_stack[-1].frame_id != frame_id:
                exited = self._frame_stack.pop()
                event = self.trace.frames.get(exited.frame_id)
                if event is not None and not event.success:
                    self._mark_frame_reverted(exited.frame_id)
            return
        # Entering a new frame.
        if self._pending_calldata is None:
            raise SpeculationError(
                f"frame {frame_id} entered without a CALL")
        pieces, size = self._pending_calldata
        self._pending_calldata = None
        frame = _SymFrame(
            frame_id=frame_id, code_address=code_address,
            depth=depth, calldata_pieces=pieces, calldata_size=size)
        self._frames[frame_id] = frame
        self._frame_stack.append(frame)

    _reverted_frames: set = None

    def _mark_frame_reverted(self, frame_id: int) -> None:
        if self._reverted_frames is None:
            self._reverted_frames = set()
        self._reverted_frames.add(frame_id)

    def _discard_reverted_writes(self) -> None:
        """Drop writes made inside frames that ultimately reverted."""
        # Catch frames whose failure we only learn from the trace events.
        for event in self.trace.frames.values():
            if not event.success:
                self._mark_frame_reverted(event.frame_id)
        if not self._reverted_frames:
            return
        reverted = self._reverted_frames
        kept = []
        for instr in self.instrs:
            tag = instr.meta.get("frame_tag")
            if (instr.kind is SKind.WRITE and tag is not None
                    and any(fid in reverted for fid in tag)):
                continue
            kept.append(instr)
        self.instrs = kept


# -- per-opcode translation ---------------------------------------------------
#
# One handler per opcode, registered once at import like the
# interpreter's own table.  A handler gets (translator, frame, op, name,
# inputs, output, extra) for one step row whose frame
# :meth:`Translator.translate` has already synced.

_HANDLERS: Dict[int, Callable] = {}


def _handler(*ops: Op):
    def register(fn):
        for op in ops:
            _HANDLERS[int(op)] = fn
        return fn
    return register


def _pure(op: int, arity: int) -> None:
    """Register a pure computation: one COMPUTE into a new register."""
    sop = PURE_OP_NAMES[op]

    def run(tr, frame, _op, _name, _inputs, output, _extra) -> None:
        stack = frame.stack
        args = tuple(stack[-1:-arity - 1:-1])  # in pop order
        del stack[-arity:]
        dest = tr._new_reg(output)
        tr.instrs.append(SInstr(kind=SKind.COMPUTE, op=sop, dest=dest,
                                args=args))
        stack.append(dest)
    _HANDLERS[op] = run


for _code in PURE_OP_NAMES:
    _pure(_code, opcodes.OPCODES[_code].pops)


def _path_constant(tr, frame, _op, _name, _inputs, output, _extra) -> None:
    """Transaction constants, and GAS/MSIZE: constant along a fixed path
    (flat gas schedule, guarded memory offsets).  None pops."""
    tr.stats.eliminated_state += 1
    frame.stack.append(output)


for _code, _info in opcodes.OPCODES.items():
    if _info.category is Category.TX_CONSTANT and _info.pops == 0:
        _HANDLERS[_code] = _path_constant
_handler(Op.GAS, Op.MSIZE)(_path_constant)


@_handler(Op.CALLDATALOAD)
def _op_calldataload(tr, frame, _op, _name, _inputs, output, extra) -> None:
    offset_op = frame.stack.pop()
    offset = extra["data_offset"]
    tr._guard_eq(offset_op, offset, is_control=False)
    stats = tr.stats
    if frame.depth == 0:
        stats.eliminated_state += 1
        frame.stack.append(output)
    else:
        stats.decomposed_added += 1
        stats.eliminated_mem += 1
        frame.stack.append(tr._calldata_word(frame, offset, output))


# ---- context reads ----------------------------------------------------------

def _header_read(op: Op) -> None:
    sop = opcodes.OPCODES[int(op)].name

    @_handler(op)
    def run(tr, frame, _op, _name, _inputs, output, extra) -> None:
        dest = tr._new_reg(output)
        tr.instrs.append(SInstr(kind=SKind.READ, op=sop, dest=dest,
                                key=extra["read_key"]))
        frame.stack.append(dest)


for _code in (Op.TIMESTAMP, Op.NUMBER, Op.COINBASE, Op.DIFFICULTY,
              Op.GASLIMIT):
    _header_read(_code)


@_handler(Op.SLOAD)
def _op_sload(tr, frame, _op, _name, _inputs, output, _extra) -> None:
    stack = frame.stack
    slot_op = stack.pop()
    dest = tr._new_reg(output)
    tr.instrs.append(SInstr(kind=SKind.READ, op="SLOAD", dest=dest,
                            args=(slot_op,), key=(frame.code_address,)))
    stack.append(dest)


def _account_read(op: Op) -> None:
    sop = opcodes.OPCODES[int(op)].name

    @_handler(op)
    def run(tr, frame, _op, _name, _inputs, output, _extra) -> None:
        stack = frame.stack
        address_op = stack.pop()
        dest = tr._new_reg(output)
        tr.instrs.append(SInstr(kind=SKind.READ, op=sop, dest=dest,
                                args=(address_op,)))
        stack.append(dest)


for _code in (Op.BALANCE, Op.EXTCODESIZE, Op.BLOCKHASH):
    _account_read(_code)


@_handler(Op.SELFBALANCE)
def _op_selfbalance(tr, frame, _op, _name, _inputs, output, _extra) -> None:
    dest = tr._new_reg(output)
    tr.instrs.append(SInstr(kind=SKind.READ, op="BALANCE", dest=dest,
                            args=(frame.code_address,)))
    frame.stack.append(dest)


# ---- memory -----------------------------------------------------------------

@_handler(Op.MLOAD)
def _op_mload(tr, frame, _op, _name, _inputs, output, extra) -> None:
    stack = frame.stack
    offset_op = stack.pop()
    offset = extra["mem_offset"]
    tr._guard_eq(offset_op, offset, is_control=False)
    tr.stats.eliminated_mem += 1
    stack.append(tr._pieces_to_operand(
        _resolve_pieces(frame.writes, offset, 32), 32, output))


@_handler(Op.MSTORE)
def _op_mstore(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    stack = frame.stack
    offset_op = stack.pop()
    value_op = stack.pop()
    offset = extra["mem_offset"]
    tr._guard_eq(offset_op, offset, is_control=False)
    tr.stats.eliminated_mem += 1
    frame.write(offset, 32, ("word", value_op))


@_handler(Op.MSTORE8)
def _op_mstore8(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    stack = frame.stack
    offset_op = stack.pop()
    value_op = stack.pop()
    offset = extra["mem_offset"]
    tr._guard_eq(offset_op, offset, is_control=False)
    tr.stats.eliminated_mem += 1
    if is_reg(value_op):
        raise SpeculationError("MSTORE8 of a register value")
    frame.write(offset, 1, ("bytes", bytes([value_op & 0xFF])))


@_handler(Op.CALLDATACOPY, Op.CODECOPY)
def _op_copy(tr, frame, _op, _name, inputs, _output, extra) -> None:
    # CODECOPY: the executing contract's code is pinned by the
    # call-target guards, so the copied bytes are constants — same
    # treatment as top-level calldata.
    stack = frame.stack
    dest_op = stack.pop()
    offset_op = stack.pop()
    size_op = stack.pop()
    dest = extra["mem_offset"]
    size = extra["mem_size"]
    tr._guard_eq(dest_op, dest, is_control=False)
    tr._guard_eq(offset_op, inputs[1], is_control=False)
    tr._guard_eq(size_op, size, is_control=False)
    stats = tr.stats
    stats.eliminated_mem += 1
    stats.decomposed_added += 1
    frame.write(dest, size, ("bytes", extra["data"]))


# ---- SHA3: decomposed into memory resolution + register hash ----------------

@_handler(Op.SHA3)
def _op_sha3(tr, frame, _op, _name, _inputs, output, extra) -> None:
    stack = frame.stack
    offset_op = stack.pop()
    size_op = stack.pop()
    offset = extra["mem_offset"]
    size = extra["mem_size"]
    tr._guard_eq(offset_op, offset, is_control=False)
    tr._guard_eq(size_op, size, is_control=False)
    stats = tr.stats
    stats.decomposed_added += 1   # the memory-read half
    stats.eliminated_mem += 1     # ...which promotion removes
    words = tr._resolve_region_words(frame, offset, size, extra["data"])
    dest = tr._new_reg(output)
    tr.instrs.append(SInstr(kind=SKind.COMPUTE, op=COMPUTE_SHA3, dest=dest,
                            args=tuple(words), meta={"size": size}))
    stack.append(dest)


# ---- control flow -----------------------------------------------------------

@_handler(Op.JUMPDEST)
def _op_jumpdest(tr, _frame, _op, _name, _inputs, _output, _extra) -> None:
    tr.stats.eliminated_control += 1


@_handler(Op.JUMP)
def _op_jump(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    target_op = frame.stack.pop()
    tr.stats.eliminated_control += 1
    tr._guard_eq(target_op, extra["jump_target"], is_control=True)


@_handler(Op.JUMPI)
def _op_jumpi(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    stack = frame.stack
    target_op = stack.pop()
    cond_op = stack.pop()
    tr.stats.eliminated_control += 1
    tr._guard_eq(target_op, extra["jump_target"], is_control=True)
    tr._guard_truth(cond_op, extra["taken"])


# ---- logging and storage writes ---------------------------------------------

def _log(op: Op) -> None:
    topic_count = int(op) - 0xA0

    @_handler(op)
    def run(tr, frame, _op, _name, _inputs, _output, extra) -> None:
        stack = frame.stack
        offset_op = stack.pop()
        size_op = stack.pop()
        topics = tuple(stack.pop() for _ in range(topic_count))
        offset = extra["mem_offset"]
        size = extra["mem_size"]
        tr._guard_eq(offset_op, offset, is_control=False)
        tr._guard_eq(size_op, size, is_control=False)
        words = tr._resolve_region_words(frame, offset, size, extra["data"])
        tr.instrs.append(SInstr(
            kind=SKind.WRITE, op="LOG", args=topics + tuple(words),
            key=(frame.code_address,),
            meta={"topic_count": topic_count, "data_size": size,
                  "frame_tag": tr._frame_tag()}))


for _code in opcodes.OPCODES:
    if opcodes.is_log(_code):
        _log(Op(_code))


@_handler(Op.SSTORE)
def _op_sstore(tr, frame, _op, _name, _inputs, _output, _extra) -> None:
    stack = frame.stack
    slot_op = stack.pop()
    value_op = stack.pop()
    tr.instrs.append(SInstr(
        kind=SKind.WRITE, op="SSTORE", args=(slot_op, value_op),
        key=(frame.code_address,),
        meta={"frame_tag": tr._frame_tag()}))


# ---- return-data access -----------------------------------------------------

@_handler(Op.RETURNDATASIZE)
def _op_returndatasize(tr, frame, _op, _name, _inputs, output, _extra) -> None:
    # Constant under CD-Equiv: the sub-call's path (hence its RETURN
    # size) is pinned by the guards.
    tr.stats.eliminated_mem += 1
    frame.stack.append(output)


@_handler(Op.RETURNDATACOPY)
def _op_returndatacopy(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    stack = frame.stack
    dest_op = stack.pop()
    offset_op = stack.pop()
    size_op = stack.pop()
    dest = extra["mem_offset"]
    size = extra["mem_size"]
    src = extra["src_offset"]
    tr._guard_eq(dest_op, dest, is_control=False)
    tr._guard_eq(offset_op, src, is_control=False)
    tr._guard_eq(size_op, size, is_control=False)
    tr.stats.eliminated_mem += 1
    pieces, _actual = frame.returndata
    sliced = []
    for p_off, piece in pieces:
        p_len = _piece_len(piece)
        lo = max(p_off, src)
        hi = min(p_off + p_len, src + size)
        if lo < hi:
            sliced.append((lo - src,
                           _slice_piece(piece, lo - p_off, hi - lo)))
    frame.write(dest, size, ("pieces", sliced))


# ---- contract creation: outside the specialized subset ----------------------

@_handler(Op.CREATE)
def _op_create(_tr, _frame, _op, _name, _inputs, _output, _extra) -> None:
    raise SpeculationError(
        "contract creation is not specialized (deployments execute "
        "through the normal path)")


# ---- calls and termination --------------------------------------------------

def _call(op: Op, has_value: bool) -> None:
    @_handler(op)
    def run(tr, frame, _op, name, _inputs, _output, extra) -> None:
        if name == "CALL_RESULT":
            _finish_call(tr, frame, extra)
            return
        stack = frame.stack
        # CALL: gas, to, value, arg_off, arg_size, ret_off, ret_size;
        # DELEGATECALL/STATICCALL omit the value operand.
        _gas_op = stack.pop()
        to_op = stack.pop()
        value_op = stack.pop() if has_value else 0
        arg_off_op = stack.pop()
        arg_size_op = stack.pop()
        ret_off_op = stack.pop()
        ret_size_op = stack.pop()
        stats = tr.stats
        stats.eliminated_control += 1  # the call machinery itself
        stats.decomposed_added += 2    # calldata marshal + ret write
        # CD-Equiv: the callee's identity is a control decision.
        tr._guard_eq(to_op, extra["call_to"], is_control=True)
        if has_value and (is_reg(value_op) or extra["call_value"] != 0):
            raise SpeculationError(
                "CALL with value transfer is outside the supported subset")
        arg_off = extra["mem_offset"]
        arg_size = extra["mem_size"]
        tr._guard_eq(arg_off_op, arg_off, is_control=False)
        tr._guard_eq(arg_size_op, arg_size, is_control=False)
        tr._guard_eq(ret_off_op, extra["ret_offset"], is_control=False)
        tr._guard_eq(ret_size_op, extra["ret_size"], is_control=False)
        tr._pending_calldata = (
            _resolve_pieces(frame.writes, arg_off, arg_size), arg_size)


_call(Op.CALL, True)
_call(Op.DELEGATECALL, False)
_call(Op.STATICCALL, False)


def _finish_call(tr, frame: _SymFrame, extra: dict) -> None:
    """CALL_RESULT: success flag is path-constant; copy return data."""
    ret_size = extra["ret_size"]
    frame.returndata = tr._last_return
    if ret_size:
        pieces, actual = tr._last_return
        sliced = [(off, piece) for off, piece in pieces if off < ret_size]
        if actual < ret_size:
            sliced.append((actual, ("zero", ret_size - actual)))
        frame.write(extra["ret_offset"], ret_size, ("pieces", sliced))
    frame.stack.append(1 if extra["call_success"] else 0)


@_handler(Op.STOP)
def _op_stop(tr, frame, _op, _name, _inputs, _output, _extra) -> None:
    tr.stats.eliminated_control += 1
    _frame_exit(tr, frame, [], 0)


@_handler(Op.RETURN, Op.REVERT)
def _op_return(tr, frame, _op, _name, _inputs, _output, extra) -> None:
    tr.stats.eliminated_control += 1
    size = extra["mem_size"]
    offset = extra["mem_offset"]
    # Operand stack already popped by the interpreter; symbolically:
    off_sym = frame.stack.pop()
    size_sym = frame.stack.pop()
    tr._guard_eq(off_sym, offset, is_control=False)
    tr._guard_eq(size_sym, size, is_control=False)
    _frame_exit(tr, frame, _resolve_pieces(frame.writes, offset, size), size)


def _frame_exit(tr, frame: _SymFrame, pieces: list, size: int) -> None:
    tr._last_return = (pieces, size)
    if frame.depth == 0:
        tr._top_return = (pieces, size)


def _unsupported(_tr, _frame, op, _name, _inputs, _output, _extra) -> None:
    raise SpeculationError(
        f"unsupported opcode in trace: {opcodes.OPCODES[op].name}")


for _code in opcodes.OPCODES:
    if not (opcodes.is_push(_code) or opcodes.is_dup(_code)
            or opcodes.is_swap(_code) or _code == Op.POP):
        # (the stack-only opcodes are decoded inline by the loop)
        _HANDLERS.setdefault(_code, _unsupported)


def translate_trace(trace: TraceResult) -> TranslationResult:
    """Convenience wrapper: translate one trace into S-EVM."""
    return Translator(trace).translate()
