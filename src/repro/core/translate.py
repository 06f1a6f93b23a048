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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

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
        #: Memory writes in program order: (offset, size, payload) where
        #: payload is ("bytes", b), ("word", operand), or
        #: ("pieces", [(rel_off, piece), ...]).
        self.writes: List[Tuple[int, int, tuple]] = []
        #: The frame's calldata as a piece list (absolute rel offsets).
        self.calldata_pieces = calldata_pieces
        self.calldata_size = calldata_size
        #: Return data of the frame's most recent completed sub-call
        #: (piece list + actual size), for RETURNDATACOPY.
        self.returndata: Tuple[list, int] = ([], 0)


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
        #: frame_id -> ancestor id tuple, for discarding reverted writes.
        self._ancestry: Dict[int, Tuple[int, ...]] = {}

    # -- register / instruction helpers ------------------------------------

    def _new_reg(self, concrete_value: int) -> Reg:
        reg = Reg(self._next_reg)
        self._next_reg += 1
        self.concrete[reg] = concrete_value
        return reg

    def _emit(self, instr: SInstr) -> SInstr:
        self.instrs.append(instr)
        return instr

    def _frame_tag(self) -> Tuple[int, ...]:
        return tuple(f.frame_id for f in self._frame_stack)

    def _guard_eq(self, operand, expected: int, is_control: bool) -> None:
        """Guard a register operand against its speculated value."""
        if not is_reg(operand):
            return
        self._emit(SInstr(
            kind=SKind.GUARD, op="GUARD", args=(operand,),
            guard_mode=GuardMode.EQ, expected=expected,
            is_control=is_control))
        if is_control:
            self.stats.inserted_guards += 1
        else:
            self.stats.inserted_data_constraints += 1

    def _guard_truth(self, operand, taken: bool) -> None:
        if not is_reg(operand):
            return
        self._emit(SInstr(
            kind=SKind.GUARD, op="GUARD", args=(operand,),
            guard_mode=GuardMode.TRUTH, expected=taken, is_control=True))
        self.stats.inserted_guards += 1

    # -- memory resolution ---------------------------------------------------

    def _resolve_pieces(self, writes, offset: int, size: int
                        ) -> List[Tuple[int, tuple]]:
        """Piece list covering [offset, offset+size) of a write list.

        Later writes shadow earlier ones; untouched ranges are zero.
        Returned offsets are relative to ``offset``.
        """
        if size == 0:
            return []
        # Uncovered intervals, absolute: list of (start, end).
        uncovered = [(offset, offset + size)]
        found: List[Tuple[int, tuple]] = []
        for w_off, w_size, payload in reversed(writes):
            if not uncovered:
                break
            w_end = w_off + w_size
            next_uncovered = []
            for start, end in uncovered:
                lo = max(start, w_off)
                hi = min(end, w_end)
                if lo >= hi:
                    next_uncovered.append((start, end))
                    continue
                # [lo, hi) comes from this write.
                found.extend(
                    (abs_off - offset, piece)
                    for abs_off, piece in self._payload_slice(
                        payload, w_off, lo, hi - lo))
                if start < lo:
                    next_uncovered.append((start, lo))
                if hi < end:
                    next_uncovered.append((hi, end))
            uncovered = next_uncovered
        for start, end in uncovered:
            found.append((start - offset, ("zero", end - start)))
        found.sort(key=lambda item: item[0])
        return found

    def _payload_slice(self, payload, payload_abs_off: int,
                       abs_start: int, length: int
                       ) -> List[Tuple[int, tuple]]:
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
        for p_off, piece in payload[1]:
            p_len = _piece_len(piece)
            lo = max(rel, p_off)
            hi = min(rel + length, p_off + p_len)
            if lo >= hi:
                continue
            result.append((payload_abs_off + lo,
                           _slice_piece(piece, lo - p_off, hi - lo)))
        return result

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
        if all(piece[0] in ("bytes", "zero") for _, piece in pieces):
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
        self._emit(SInstr(
            kind=SKind.COMPUTE, op="MCONCAT", dest=dest, args=tuple(regs),
            meta={"layout": layout, "size": size}))
        return dest

    def _resolve_word(self, frame: _SymFrame, offset: int,
                      concrete_value: int):
        pieces = self._resolve_pieces(frame.writes, offset, 32)
        return self._pieces_to_operand(pieces, 32, concrete_value)

    def _resolve_region_words(self, frame: _SymFrame, offset: int,
                              size: int, concrete_bytes: bytes) -> List:
        """Region as a list of word operands (tail zero-padded)."""
        operands = []
        for word_start in range(0, size, 32):
            word_len = min(32, size - word_start)
            pieces = self._resolve_pieces(
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
            p_len = _piece_len(piece)
            next_remaining = []
            for start, end in remaining:
                lo = max(start, p_off)
                hi = min(end, p_off + p_len)
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
        pieces.sort(key=lambda item: item[0])
        return self._pieces_to_operand(pieces, 32, concrete_value)

    # -- main walk ----------------------------------------------------------------

    def translate(self) -> TranslationResult:
        """Translate the whole trace; raises SpeculationError if the
        trace uses a feature outside the supported subset."""
        trace = self.trace
        tx = trace.tx
        # Top-level frame: calldata is the transaction payload (constant).
        top = _SymFrame(
            frame_id=0, code_address=tx.to, depth=0,
            calldata_pieces=[(0, ("bytes", tx.data))],
            calldata_size=len(tx.data))
        self._frames[0] = top
        self._frame_stack = [top]
        self._ancestry[0] = (0,)

        for (op, _pc, name, frame_id, depth, code_address, inputs, output,
             _gas, extra) in trace.steps:
            if frame_id != self._frame_stack[-1].frame_id:
                self._sync_frames(frame_id, code_address, depth)
            self._translate_step(op, name, inputs, output, extra)

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
        self._ancestry[frame_id] = self._frame_tag() + (frame_id,)
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

    # -- per-step translation ------------------------------------------------------

    # pylint: disable=too-many-branches,too-many-statements
    def _translate_step(self, op: int, name: str, inputs: tuple,
                        output, extra) -> None:
        """Translate one step row from its op, name, inputs, output and
        extra; :meth:`translate` has already synced the row's frame."""
        frame = self._frame_stack[-1]
        stack = frame.stack
        stats = self.stats

        if name == "CALL_RESULT":
            self._finish_call(extra, frame)
            return

        info = opcodes.OPCODES[op]
        category = info.category

        # ---- stack manipulation: symbolic only --------------------------------
        if category is Category.STACK:
            stats.eliminated_stack += 1
            if opcodes.is_push(op):
                stack.append(output)
            elif opcodes.is_dup(op):
                stack.append(stack[-(op - 0x80 + 1)])
            elif opcodes.is_swap(op):
                n = op - 0x90 + 1
                stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
            return

        if op == int(Op.POP):
            stats.eliminated_stack += 1
            stack.pop()
            return

        # ---- pure computation ----------------------------------------------------
        if op in PURE_OP_NAMES:
            arity = info.pops
            args = tuple(stack.pop() for _ in range(arity))
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.COMPUTE, op=PURE_OP_NAMES[op],
                              dest=dest, args=args))
            stack.append(dest)
            return

        # ---- transaction constants -------------------------------------------------
        if category is Category.TX_CONSTANT and op != int(Op.CALLDATALOAD):
            for _ in range(info.pops):
                stack.pop()
            stats.eliminated_state += 1
            stack.append(output)
            return
        if op == int(Op.GAS) or op == int(Op.MSIZE):
            # Constant along a fixed path (flat gas schedule, guarded
            # memory offsets).
            stats.eliminated_state += 1
            stack.append(output)
            return

        if op == int(Op.CALLDATALOAD):
            offset_op = stack.pop()
            offset = extra["data_offset"]
            self._guard_eq(offset_op, offset, is_control=False)
            if frame.depth == 0:
                stats.eliminated_state += 1
                stack.append(output)
            else:
                stats.decomposed_added += 1
                stats.eliminated_mem += 1
                stack.append(self._calldata_word(frame, offset, output))
            return

        # ---- context reads -------------------------------------------------------------
        if op in (int(Op.TIMESTAMP), int(Op.NUMBER), int(Op.COINBASE),
                  int(Op.DIFFICULTY), int(Op.GASLIMIT)):
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.READ, op=info.name, dest=dest,
                              key=extra["read_key"]))
            stack.append(dest)
            return
        if op == int(Op.SLOAD):
            slot_op = stack.pop()
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.READ, op="SLOAD", dest=dest,
                              args=(slot_op,), key=(frame.code_address,)))
            stack.append(dest)
            return
        if op in (int(Op.BALANCE), int(Op.EXTCODESIZE), int(Op.BLOCKHASH)):
            address_op = stack.pop()
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.READ, op=info.name, dest=dest,
                              args=(address_op,)))
            stack.append(dest)
            return
        if op == int(Op.SELFBALANCE):
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.READ, op="BALANCE", dest=dest,
                              args=(frame.code_address,)))
            stack.append(dest)
            return

        # ---- memory --------------------------------------------------------------------
        if op == int(Op.MLOAD):
            offset_op = stack.pop()
            offset = extra["mem_offset"]
            self._guard_eq(offset_op, offset, is_control=False)
            stats.eliminated_mem += 1
            stack.append(self._resolve_word(frame, offset, output))
            return
        if op == int(Op.MSTORE):
            offset_op = stack.pop()
            value_op = stack.pop()
            offset = extra["mem_offset"]
            self._guard_eq(offset_op, offset, is_control=False)
            stats.eliminated_mem += 1
            frame.writes.append((offset, 32, ("word", value_op)))
            return
        if op == int(Op.MSTORE8):
            offset_op = stack.pop()
            value_op = stack.pop()
            offset = extra["mem_offset"]
            self._guard_eq(offset_op, offset, is_control=False)
            stats.eliminated_mem += 1
            if is_reg(value_op):
                raise SpeculationError("MSTORE8 of a register value")
            frame.writes.append(
                (offset, 1, ("bytes", bytes([value_op & 0xFF]))))
            return
        if op in (int(Op.CALLDATACOPY), int(Op.CODECOPY)):
            # CODECOPY: the executing contract's code is pinned by the
            # call-target guards, so the copied bytes are constants —
            # same treatment as top-level calldata.
            dest_op = stack.pop()
            offset_op = stack.pop()
            size_op = stack.pop()
            dest = extra["mem_offset"]
            size = extra["mem_size"]
            self._guard_eq(dest_op, dest, is_control=False)
            self._guard_eq(offset_op, inputs[1], is_control=False)
            self._guard_eq(size_op, size, is_control=False)
            stats.eliminated_mem += 1
            stats.decomposed_added += 1
            frame.writes.append((dest, size, ("bytes", extra["data"])))
            return

        # ---- SHA3: decomposed into memory resolution + register hash ---------------------
        if op == int(Op.SHA3):
            offset_op = stack.pop()
            size_op = stack.pop()
            offset = extra["mem_offset"]
            size = extra["mem_size"]
            self._guard_eq(offset_op, offset, is_control=False)
            self._guard_eq(size_op, size, is_control=False)
            stats.decomposed_added += 1   # the memory-read half
            stats.eliminated_mem += 1     # ...which promotion removes
            words = self._resolve_region_words(
                frame, offset, size, extra["data"])
            dest = self._new_reg(output)
            self._emit(SInstr(kind=SKind.COMPUTE, op=COMPUTE_SHA3,
                              dest=dest, args=tuple(words),
                              meta={"size": size}))
            stack.append(dest)
            return

        # ---- control flow -----------------------------------------------------------------
        if op == int(Op.JUMPDEST):
            stats.eliminated_control += 1
            return
        if op == int(Op.JUMP):
            target_op = stack.pop()
            stats.eliminated_control += 1
            self._guard_eq(target_op, extra["jump_target"],
                           is_control=True)
            return
        if op == int(Op.JUMPI):
            target_op = stack.pop()
            cond_op = stack.pop()
            stats.eliminated_control += 1
            self._guard_eq(target_op, extra["jump_target"],
                           is_control=True)
            self._guard_truth(cond_op, extra["taken"])
            return

        # ---- logging --------------------------------------------------------------------------
        if opcodes.is_log(op):
            topic_count = op - 0xA0
            offset_op = stack.pop()
            size_op = stack.pop()
            topics = tuple(stack.pop() for _ in range(topic_count))
            offset = extra["mem_offset"]
            size = extra["mem_size"]
            self._guard_eq(offset_op, offset, is_control=False)
            self._guard_eq(size_op, size, is_control=False)
            words = self._resolve_region_words(
                frame, offset, size, extra["data"])
            self._emit(SInstr(
                kind=SKind.WRITE, op="LOG", args=topics + tuple(words),
                key=(frame.code_address,),
                meta={"topic_count": topic_count, "data_size": size,
                      "frame_tag": self._frame_tag()}))
            return

        # ---- storage writes ----------------------------------------------------------------------
        if op == int(Op.SSTORE):
            slot_op = stack.pop()
            value_op = stack.pop()
            self._emit(SInstr(
                kind=SKind.WRITE, op="SSTORE", args=(slot_op, value_op),
                key=(frame.code_address,),
                meta={"frame_tag": self._frame_tag()}))
            return

        # ---- return-data access ---------------------------------------------------------------------
        if op == int(Op.RETURNDATASIZE):
            # Constant under CD-Equiv: the sub-call's path (hence its
            # RETURN size) is pinned by the guards.
            stats.eliminated_mem += 1
            stack.append(output)
            return
        if op == int(Op.RETURNDATACOPY):
            dest_op = stack.pop()
            offset_op = stack.pop()
            size_op = stack.pop()
            dest = extra["mem_offset"]
            size = extra["mem_size"]
            src = extra["src_offset"]
            self._guard_eq(dest_op, dest, is_control=False)
            self._guard_eq(offset_op, src, is_control=False)
            self._guard_eq(size_op, size, is_control=False)
            stats.eliminated_mem += 1
            pieces, _actual = frame.returndata
            sliced = []
            for p_off, piece in pieces:
                p_len = _piece_len(piece)
                lo = max(p_off, src)
                hi = min(p_off + p_len, src + size)
                if lo < hi:
                    sliced.append((lo - src,
                                   _slice_piece(piece, lo - p_off,
                                                hi - lo)))
            frame.writes.append((dest, size, ("pieces", sliced)))
            return

        # ---- contract creation: outside the specialized subset ---------------------------------------
        if op == int(Op.CREATE):
            raise SpeculationError(
                "contract creation is not specialized (deployments "
                "execute through the normal path)")

        # ---- calls and termination ----------------------------------------------------------------
        if op in (int(Op.CALL), int(Op.DELEGATECALL), int(Op.STATICCALL)):
            self._start_call(extra, frame, op)
            return
        if op in (int(Op.STOP), int(Op.RETURN), int(Op.REVERT)):
            self._finish_frame(op, extra, frame)
            return

        raise SpeculationError(f"unsupported opcode in trace: {info.name}")

    # -- call handling -------------------------------------------------------------

    def _start_call(self, extra: dict, frame: _SymFrame, op: int) -> None:
        stack = frame.stack
        # CALL: gas, to, value, arg_off, arg_size, ret_off, ret_size;
        # DELEGATECALL/STATICCALL omit the value operand.
        _gas_op = stack.pop()
        to_op = stack.pop()
        value_op = stack.pop() if op == int(Op.CALL) else 0
        arg_off_op = stack.pop()
        arg_size_op = stack.pop()
        ret_off_op = stack.pop()
        ret_size_op = stack.pop()
        self.stats.eliminated_control += 1  # the call machinery itself
        self.stats.decomposed_added += 2    # calldata marshal + ret write
        to = extra["call_to"]
        value = extra["call_value"]
        # CD-Equiv: the callee's identity is a control decision.
        self._guard_eq(to_op, to, is_control=True)
        if op == int(Op.CALL) and (is_reg(value_op) or value != 0):
            raise SpeculationError(
                "CALL with value transfer is outside the supported subset")
        arg_off = extra["mem_offset"]
        arg_size = extra["mem_size"]
        self._guard_eq(arg_off_op, arg_off, is_control=False)
        self._guard_eq(arg_size_op, arg_size, is_control=False)
        self._guard_eq(ret_off_op, extra["ret_offset"],
                       is_control=False)
        self._guard_eq(ret_size_op, extra["ret_size"],
                       is_control=False)
        pieces = self._resolve_pieces(frame.writes, arg_off, arg_size)
        self._pending_calldata = (pieces, arg_size)

    def _finish_call(self, extra: dict, frame: _SymFrame) -> None:
        """CALL_RESULT: success flag is path-constant; copy return data."""
        success = extra["call_success"]
        ret_off = extra["ret_offset"]
        ret_size = extra["ret_size"]
        frame.returndata = self._last_return
        if ret_size:
            pieces, actual = self._last_return
            sliced = [(off, piece) for off, piece in pieces
                      if off < ret_size]
            if actual < ret_size:
                sliced.append((actual, ("zero", ret_size - actual)))
            frame.writes.append((ret_off, ret_size, ("pieces", sliced)))
        frame.stack.append(1 if success else 0)

    def _finish_frame(self, op: int, extra: dict, frame: _SymFrame) -> None:
        self.stats.eliminated_control += 1
        if op == int(Op.STOP):
            pieces: List[Tuple[int, tuple]] = []
            size = 0
        else:
            size = extra["mem_size"]
            offset = extra["mem_offset"]
            # Operand stack already popped by the interpreter; symbolically:
            off_sym = frame.stack.pop()
            size_sym = frame.stack.pop()
            self._guard_eq(off_sym, offset, is_control=False)
            self._guard_eq(size_sym, size, is_control=False)
            pieces = self._resolve_pieces(frame.writes, offset, size)
        self._last_return = (pieces, size)
        if frame.depth == 0:
            self._top_return = (pieces, size)


def translate_trace(trace: TraceResult) -> TranslationResult:
    """Convenience wrapper: translate one trace into S-EVM."""
    return Translator(trace).translate()
