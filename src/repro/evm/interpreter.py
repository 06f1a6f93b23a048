"""The EVM bytecode interpreter.

A faithful (simplified) stack machine covering the instruction subset
listed in ``repro/evm/opcodes.py``: 256-bit arithmetic, comparisons,
bitwise logic, SHA3, environment/block information, volatile memory,
persistent storage, control flow, logging, internal message calls, and
gas metering with revert semantics.

Simplifications (documented in DESIGN.md): flat SSTORE/EXP costs so that
gas consumed along a fixed control path is context-independent, linear
memory-expansion cost, and no precompiles/CREATE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.chain.block import BlockHeader, blockhash
from repro.chain.transaction import Transaction
from repro.constants import CALL_DEPTH_LIMIT, STACK_LIMIT
from repro.errors import (
    EVMError,
    InsufficientBalance,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    Revert,
    StackOverflow,
    StackUnderflow,
    WriteProtection,
)
from repro.evm import opcodes
from repro.evm.opcodes import Op
from repro.evm.tracing import (
    KIND_BALANCE,
    KIND_BLOCKHASH,
    KIND_CODESIZE,
    KIND_HEADER,
    KIND_LOG,
    KIND_STORAGE,
    Tracer,
)
from repro.state.statedb import StateDB
from repro.utils.hashing import keccak_int
from repro.utils.lru import LruMap
from repro.utils.words import int_to_bytes32, to_signed, to_unsigned, u256

#: Gas charged per 32-byte word of memory expansion (linearized).
MEMORY_WORD_GAS = 3
#: Gas charged per 32-byte word hashed by SHA3.
SHA3_WORD_GAS = 6


@dataclass
class Message:
    """Parameters of one (possibly internal) call.

    ``to`` is the *storage context* (the account whose storage SLOAD/
    SSTORE touch); ``code_address`` is where the executing bytecode
    lives.  They differ only for DELEGATECALL.  ``static`` forbids any
    state modification (STATICCALL semantics).
    """

    sender: int
    to: int
    value: int
    data: bytes
    gas: int
    depth: int = 0
    code_address: Optional[int] = None
    static: bool = False

    @property
    def code_at(self) -> int:
        return self.code_address if self.code_address is not None \
            else self.to


@dataclass
class ExecutionResult:
    """Outcome of a full transaction execution."""

    success: bool
    gas_used: int
    return_data: bytes = b""
    logs: List[Tuple[int, Tuple[int, ...], bytes]] = field(default_factory=list)
    error: str = ""


def transfer(state: StateDB, sender: int, to: int, value: int) -> bool:
    """Move ``value`` from ``sender`` to ``to``; ``False``, with nothing
    moved, when ``sender`` cannot afford it."""
    try:
        state.sub_balance(sender, value)
    except InsufficientBalance:
        return False
    state.add_balance(to, value)
    return True


def run_envelope(state: StateDB, header: BlockHeader, tx: Transaction,
                 message: Callable[[int], Tuple[bool, bytes, int]]
                 ) -> ExecutionResult:
    """The transaction protocol around its top-level message.

    Before the message: intrinsic gas, nonce check, gas purchase, nonce
    increment.  ``message(gas)`` gets the gas left after intrinsic gas
    and returns ``(success, return_data, gas_left)``.  After it: revert
    on failure, refund of the unused gas, the coinbase fee.  The
    interpreter's message runs the callee's code, the accelerator's an
    AP.  An exception from ``message`` propagates with the purchase
    applied, for the caller to revert.
    """
    intrinsic = tx.intrinsic_gas()
    if tx.gas_limit < intrinsic:
        return ExecutionResult(False, 0, error="intrinsic gas too low")
    if state.get_nonce(tx.sender) != tx.nonce:
        return ExecutionResult(False, 0, error="bad nonce")
    try:
        state.sub_balance(tx.sender, tx.gas_limit * tx.gas_price)
    except InsufficientBalance:
        return ExecutionResult(False, 0, error="cannot afford gas")
    state.increment_nonce(tx.sender)

    snap = state.snapshot()
    logs_mark = len(state.logs)
    success, ret, gas_left = message(tx.gas_limit - intrinsic)
    if not success:
        state.revert_to(snap)
    gas_used = tx.gas_limit - gas_left
    # Refund unused gas; pay the miner.
    state.add_balance(tx.sender, gas_left * tx.gas_price)
    state.add_balance(header.coinbase, gas_used * tx.gas_price)
    logs = [
        (entry.address, entry.topics, entry.data)
        for entry in state.logs[logs_mark:]
    ]
    return ExecutionResult(success, gas_used, ret, logs)


class _Frame:
    """Mutable state of one executing call.

    ``stack`` is a plain list of words and ``memory`` a bytearray that
    only :func:`_grow` extends: the loop checks every instruction's
    stack bounds before its handler runs, so handlers index, pop and
    append without checks of their own.
    """

    __slots__ = ("msg", "code", "stack", "memory", "pc", "gas",
                 "jumpdests", "frame_id", "returned", "program")

    def __init__(self, msg: Message, code: bytes, frame_id: int) -> None:
        self.msg = msg
        self.code = code
        self.stack: List[int] = []
        self.memory = bytearray()
        self.pc = 0
        self.gas = msg.gas
        self.frame_id = frame_id
        self.returned = b""
        self.program, self.jumpdests = _decode_program(code)


#: Decoded programs kept per code blob.  Keys are the code bytes
#: themselves, so an entry can never be stale; the bound keeps a long
#: simulation from growing the cache without limit, and recency updates
#: happen at deterministic execution points, so eviction order is a pure
#: function of the workload.
CODE_CACHE_CAPACITY = 4096

_PROGRAM_CACHE = LruMap(CODE_CACHE_CAPACITY)

#: Bumped by :func:`invalidate_code_caches`; exposed for tests and the
#: jit tier, which versions its artifacts in lockstep.
CODE_CACHE_VERSION = 0


def invalidate_code_caches(reason: str = "") -> int:
    """Drop every decoded program and bump the version (contract
    redeploy or reorg: derived artifacts must not outlive the code
    identity assumptions they were built under)."""
    del reason  # descriptive only; kept for call-site readability
    global CODE_CACHE_VERSION
    CODE_CACHE_VERSION += 1
    _PROGRAM_CACHE.clear()
    return CODE_CACHE_VERSION


def _push_entry(op: int, value: int, next_pc: int):
    """Pre-decoded PUSH: the immediate and the landing pc are baked in."""
    def run(evm: "EVM", frame: "_Frame", pc: int, info) -> None:
        frame.stack.append(value)
        frame.pc = next_pc
        if evm.tracing:
            evm._emit(frame, pc, op, info.name, (), value, info.gas)
    return run


def _invalid_entry(message: str):
    def run(evm: "EVM", frame: "_Frame", pc: int, info) -> None:
        raise InvalidOpcode(message)
    return run


def _decode_program(code: bytes):
    """``(program, jumpdests)`` for one code blob, decoded once.

    ``program[pc]`` is the opcode's ``_ENTRIES`` row at every
    instruction start, except that a PUSH gets a handler bound to its
    immediate and landing pc.  Positions inside PUSH immediates stay
    ``None``: no pc ever lands there (see :meth:`EVM._run`).
    ``jumpdests`` holds the JUMPDEST positions the same walk visits, so
    none lies inside an immediate.  The same contracts run over and
    over, so the result is cached per code blob.
    """
    cached = _PROGRAM_CACHE.get(code)
    if cached is not None:
        return cached
    n = len(code)
    program: list = [None] * n
    dests = set()
    entries = _ENTRIES
    i = 0
    while i < n:
        op = code[i]
        entry = entries[op]
        if opcodes.is_push(op):
            size = opcodes.push_size(op)
            value = int.from_bytes(code[i + 1:i + 1 + size], "big")
            program[i] = (_push_entry(op, value, i + 1 + size),) + entry[1:]
            i += 1 + size
            continue
        if op == Op.JUMPDEST:
            dests.add(i)
        program[i] = entry
        i += 1
    result = (program, frozenset(dests))
    _PROGRAM_CACHE.set(code, result)
    return result


def _charge(frame: _Frame, amount: int) -> None:
    if frame.gas < amount:
        frame.gas = 0
        raise OutOfGas(f"need {amount} gas")
    frame.gas -= amount


def _grow(frame: _Frame, offset: int, size: int,
          priced_from: Optional[int] = None) -> bytearray:
    """Charge the expansion gas of a memory access at ``(offset,
    size)`` and grow memory to cover it; returns the memory.

    Expansion is priced per new 32-byte word beyond ``priced_from``
    bytes, the current size by default.  CALL prices its return region
    from the size before its arguments grew memory, so a region the two
    share is charged twice.
    """
    memory = frame.memory
    end = offset + size
    if size:
        if priced_from is None:
            priced_from = len(memory)
        if end > priced_from:
            _charge(frame, ((end + 31) // 32 - priced_from // 32)
                    * MEMORY_WORD_GAS)
            if end > len(memory):
                memory.extend(bytes((end + 31) // 32 * 32 - len(memory)))
    return memory


class EvmMetrics:
    """Optional instrument bundle for interpreter executions.

    Allocated by a caller (e.g. the speculator's predecessor runs) from
    an obs scope; one bundle aggregates over many EVM instances.  The
    interpreter reports into it once per transaction, so the hot
    dispatch loop stays uninstrumented.
    """

    __slots__ = ("transactions", "instructions", "write_ops")

    def __init__(self, scope) -> None:
        self.transactions = scope.counter("transactions")
        self.instructions = scope.counter("instructions")
        self.write_ops = scope.counter("write_ops")

    def record(self, evm: "EVM") -> None:
        self.transactions.inc()
        self.instructions.inc(evm.instruction_count)
        self.write_ops.inc(evm.write_op_count)


class EVM:
    """Executes messages against a StateDB in a block context.

    One EVM instance executes one transaction; create a fresh instance
    (they are cheap) per transaction.
    """

    def __init__(
        self,
        state: StateDB,
        header: BlockHeader,
        tx: Transaction,
        tracer: Optional[Tracer] = None,
        obs: Optional[EvmMetrics] = None,
    ) -> None:
        self.state = state
        self.header = header
        self.tx = tx
        self.tracer = tracer or Tracer()
        self.obs = obs
        #: Whether steps are recorded: only a tracer that overrides
        #: ``on_step`` gets step rows.  Tracers that override only the
        #: context hooks (the witness ``ReadSetRecorder``) do not, since
        #: the read and write handlers call those directly.
        self.tracing = type(self.tracer).on_step is not Tracer.on_step
        self._next_frame_id = 0
        #: Count of executed instructions (cost-model input): one per
        #: step row a step tracer would receive.
        self.instruction_count = 0
        #: Count of state-write operations (SSTORE/LOG): these carry
        #: journaling/commit work beyond plain interpretation.
        self.write_op_count = 0

    # -- transaction entry point -------------------------------------------

    def execute_transaction(self) -> ExecutionResult:
        """Run the full transaction protocol: fee purchase, call, refund."""
        result = run_envelope(self.state, self.header, self.tx,
                              self._message)
        if self.obs is not None:
            self.obs.record(self)
        return result

    def _message(self, gas: int) -> Tuple[bool, bytes, int]:
        """The transaction's top-level message: deploy ``tx.data`` as
        init code when ``tx.to`` is 0, else call ``tx.to``."""
        tx = self.tx
        try:
            if tx.to == 0:
                return self._create(
                    creator=tx.sender, creator_nonce=tx.nonce,
                    value=tx.value, init_code=tx.data, gas=gas, depth=0)
            return self._call(Message(
                sender=tx.sender, to=tx.to, value=tx.value,
                data=tx.data, gas=gas))
        except EVMError:
            return False, b"", 0

    # -- message calls ------------------------------------------------------

    def _call(self, msg: Message) -> Tuple[bool, bytes, int]:
        """Execute one message call; returns (success, return_data, gas_left)."""
        if msg.depth > CALL_DEPTH_LIMIT:
            return False, b"", 0
        snap = self.state.snapshot()
        if msg.value and msg.code_address is None and not transfer(
                self.state, msg.sender, msg.to, msg.value):
            return False, b"", msg.gas
        code = self.state.get_code(msg.code_at)
        if not code:
            # Plain value transfer.
            return True, b"", msg.gas
        frame = _Frame(msg, code, self._next_frame_id)
        parent_id = self._next_frame_id - 1 if self._next_frame_id else None
        self._next_frame_id += 1
        self.tracer.on_call_enter(frame.frame_id, parent_id, msg.to, msg.depth)
        try:
            ret = self._run(frame)
            self.tracer.on_call_exit(frame.frame_id, True, ret)
            return True, ret, frame.gas
        except Revert as exc:
            self.state.revert_to(snap)
            self.tracer.on_call_exit(frame.frame_id, False, exc.data)
            return False, exc.data, frame.gas
        except EVMError:
            self.state.revert_to(snap)
            self.tracer.on_call_exit(frame.frame_id, False, b"")
            return False, b"", 0

    def _create(self, creator: int, creator_nonce: int, value: int,
                init_code: bytes, gas: int, depth: int
                ) -> Tuple[bool, bytes, int]:
        """Deploy a contract: run ``init_code``; its return value
        becomes the new account's runtime code.

        Returns (success, 20-byte-ish address as bytes32, gas_left);
        on failure the address is empty and state reverts.
        """
        new_address = keccak_int(
            int_to_bytes32(creator) + int_to_bytes32(creator_nonce)
        ) % (1 << 160)
        snap = self.state.snapshot()
        if self.state.get_code(new_address):
            return False, b"", 0  # address collision
        self.state.create_account(new_address)
        if value and not transfer(self.state, creator, new_address, value):
            self.state.revert_to(snap)
            return False, b"", gas
        msg = Message(sender=creator, to=new_address, value=value,
                      data=b"", gas=gas, depth=depth,
                      code_address=new_address)
        frame = _Frame(msg, init_code, self._next_frame_id)
        self._next_frame_id += 1
        self.tracer.on_call_enter(frame.frame_id, None, new_address,
                                  depth)
        try:
            runtime = self._run(frame)
            self.state.set_code(new_address, runtime)
            self.tracer.on_call_exit(frame.frame_id, True, runtime)
            return True, int_to_bytes32(new_address), frame.gas
        except Revert as exc:
            self.state.revert_to(snap)
            self.tracer.on_call_exit(frame.frame_id, False, exc.data)
            return False, b"", frame.gas
        except EVMError:
            self.state.revert_to(snap)
            self.tracer.on_call_exit(frame.frame_id, False, b"")
            return False, b"", 0

    # -- main loop ---------------------------------------------------------------

    def _run(self, frame: _Frame) -> bytes:
        """Interpreter loop for one frame; returns the frame's output.

        Per step: one list index into the decoded program, the static
        gas charge, then the stack bounds check, all inline; then the
        handler.  ``pc`` only ever holds an instruction start: the
        default advance and PUSH's landing pc step over immediates, and
        a jump must hit a JUMPDEST, which :func:`_decode_program` never
        finds inside an immediate.

        A step counts once its handler returns.  The steps that record
        without returning count themselves: REVERT, which raises after
        its record, and the CALL_RESULT / CREATE_RESULT pseudo-steps.
        """
        program = frame.program
        stack = frame.stack
        n = len(program)
        count = 0
        try:
            pc = frame.pc
            while pc < n:
                handler, info, gas, low, high = program[pc]
                gas_left = frame.gas - gas
                if gas_left < 0:
                    frame.gas = 0
                    raise OutOfGas(f"need {gas} gas")
                frame.gas = gas_left
                if not low <= len(stack) <= high:
                    if len(stack) < low:
                        raise StackUnderflow(
                            f"{info.name} needs {low} items, "
                            f"stack has {len(stack)}")
                    raise StackOverflow(f"stack limit {STACK_LIMIT} exceeded")
                frame.pc = pc + 1  # default advance; jumps overwrite
                result = handler(self, frame, pc, info)
                count += 1
                if result is not None:
                    return result
                pc = frame.pc
            return b""
        finally:
            self.instruction_count += count

    def _emit(self, frame: _Frame, pc: int, op: int, name: str,
              inputs: Tuple[int, ...], output: Optional[int],
              gas_cost: int, **extra) -> None:
        """Hand the step tracer one executed instruction as a row (see
        :class:`~repro.evm.tracing.Tracer`); handlers call it only when
        :attr:`tracing` is set."""
        msg = frame.msg
        self.tracer.on_step((op, pc, name, frame.frame_id, msg.depth,
                             msg.to, inputs, output, gas_cost,
                             extra or None))


# ---------------------------------------------------------------------------
# Opcode handlers.  Each returns None to continue, or bytes to end the frame.
# ---------------------------------------------------------------------------

_HANDLERS = {}


def _handler(op: Op):
    def register(fn):
        _HANDLERS[int(op)] = fn
        return fn
    return register


def _binary(op: Op, compute):
    """Register a two-operand pure arithmetic/logic handler."""
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        stack = frame.stack
        a = stack.pop()
        b = stack[-1]
        stack[-1] = value = compute(a, b)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (a, b), value,
                      info.gas)
    return run


def _unary(op: Op, compute):
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        stack = frame.stack
        a = stack[-1]
        stack[-1] = value = compute(a)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (a,), value, info.gas)
    return run


def _ternary(op: Op, compute):
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        stack = frame.stack
        a = stack.pop()
        b = stack.pop()
        c = stack[-1]
        stack[-1] = value = compute(a, b, c)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (a, b, c), value,
                      info.gas)
    return run


# Pure computation semantics (shared with constant folding in the
# specializer — repro.core.optimize imports COMPUTE_SEMANTICS).
def _div(a, b):
    return a // b if b else 0


def _sdiv(a, b):
    if b == 0:
        return 0
    sa, sb = to_signed(a), to_signed(b)
    q = abs(sa) // abs(sb)
    return to_unsigned(-q if (sa < 0) != (sb < 0) else q)


def _mod(a, b):
    return a % b if b else 0


def _smod(a, b):
    if b == 0:
        return 0
    sa, sb = to_signed(a), to_signed(b)
    r = abs(sa) % abs(sb)
    return to_unsigned(-r if sa < 0 else r)


def _signextend(size, value):
    if size >= 32:
        return value
    bit = 8 * (size + 1) - 1
    mask = (1 << (bit + 1)) - 1
    if value & (1 << bit):
        return u256(value | ~mask)
    return value & mask


def _byte(pos, value):
    if pos >= 32:
        return 0
    return (value >> (8 * (31 - pos))) & 0xFF


def _sar(shift, value):
    if shift >= 256:
        return u256(-1) if value >= 2**255 else 0
    return to_unsigned(to_signed(value) >> shift)


COMPUTE_SEMANTICS = {
    int(Op.ADD): lambda a, b: u256(a + b),
    int(Op.MUL): lambda a, b: u256(a * b),
    int(Op.SUB): lambda a, b: u256(a - b),
    int(Op.DIV): _div,
    int(Op.SDIV): _sdiv,
    int(Op.MOD): _mod,
    int(Op.SMOD): _smod,
    int(Op.ADDMOD): lambda a, b, m: (a + b) % m if m else 0,
    int(Op.MULMOD): lambda a, b, m: (a * b) % m if m else 0,
    int(Op.EXP): lambda a, b: pow(a, b, 2**256),
    int(Op.SIGNEXTEND): _signextend,
    int(Op.LT): lambda a, b: 1 if a < b else 0,
    int(Op.GT): lambda a, b: 1 if a > b else 0,
    int(Op.SLT): lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    int(Op.SGT): lambda a, b: 1 if to_signed(a) > to_signed(b) else 0,
    int(Op.EQ): lambda a, b: 1 if a == b else 0,
    int(Op.ISZERO): lambda a: 1 if a == 0 else 0,
    int(Op.AND): lambda a, b: a & b,
    int(Op.OR): lambda a, b: a | b,
    int(Op.XOR): lambda a, b: a ^ b,
    int(Op.NOT): lambda a: u256(~a),
    int(Op.BYTE): _byte,
    int(Op.SHL): lambda s, v: u256(v << s) if s < 256 else 0,
    int(Op.SHR): lambda s, v: v >> s if s < 256 else 0,
    int(Op.SAR): _sar,
}

for _code, _fn in COMPUTE_SEMANTICS.items():
    _info = opcodes.OPCODES[_code]
    if _info.pops == 1:
        _unary(Op(_code), _fn)
    elif _info.pops == 2:
        _binary(Op(_code), _fn)
    else:
        _ternary(Op(_code), _fn)


# --- stack manipulation (pre-bound per opcode for the decoded program) -------

def _dup(op_value: int, depth: int):
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        stack = frame.stack
        value = stack[-depth]
        stack.append(value)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (value,), value,
                      info.gas)
    return run


def _swap(op_value: int, depth: int):
    other = -1 - depth

    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        stack = frame.stack
        stack[-1], stack[other] = stack[other], stack[-1]
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (), None, info.gas)
    return run


for _n in range(1, 17):
    _HANDLERS[0x80 + _n - 1] = _dup(0x80 + _n - 1, _n)
    _HANDLERS[0x90 + _n - 1] = _swap(0x90 + _n - 1, _n)


# --- SHA3 -------------------------------------------------------------------

@_handler(Op.SHA3)
def _op_sha3(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack.pop()
    size = stack[-1]
    memory = _grow(frame, offset, size)
    _charge(frame, SHA3_WORD_GAS * ((size + 31) // 32))
    data = bytes(memory[offset:offset + size])
    stack[-1] = value = keccak_int(data)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.SHA3), info.name, (offset, size), value,
                  info.gas, mem_offset=offset, mem_size=size, data=data)


# --- environment / transaction constants --------------------------------------

def _env_const(op: Op, getter):
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        value = getter(evm, frame)
        frame.stack.append(value)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (), value, info.gas)
    return run


_env_const(Op.ADDRESS, lambda evm, f: f.msg.to)
_env_const(Op.ORIGIN, lambda evm, f: evm.tx.sender)
_env_const(Op.CALLER, lambda evm, f: f.msg.sender)
_env_const(Op.CALLVALUE, lambda evm, f: f.msg.value)
_env_const(Op.CALLDATASIZE, lambda evm, f: len(f.msg.data))
_env_const(Op.CODESIZE, lambda evm, f: len(f.code))
_env_const(Op.GASPRICE, lambda evm, f: evm.tx.gas_price)
_env_const(Op.CHAINID, lambda evm, f: evm.header.chain_id)
_env_const(Op.PC, lambda evm, f: f.pc - 1)
_env_const(Op.MSIZE, lambda evm, f: len(f.memory))
_env_const(Op.GAS, lambda evm, f: f.gas)


@_handler(Op.CALLDATALOAD)
def _op_calldataload(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack[-1]
    word = frame.msg.data[offset:offset + 32]
    stack[-1] = value = int.from_bytes(word.ljust(32, b"\x00"), "big")
    if evm.tracing:
        evm._emit(frame, pc, int(Op.CALLDATALOAD), info.name, (offset,),
                  value, info.gas, data_offset=offset)


@_handler(Op.CALLDATACOPY)
def _op_calldatacopy(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    dest = stack.pop()
    offset = stack.pop()
    size = stack.pop()
    memory = _grow(frame, dest, size)
    chunk = frame.msg.data[offset:offset + size]
    chunk += b"\x00" * (size - len(chunk))
    memory[dest:dest + size] = chunk
    if evm.tracing:
        evm._emit(frame, pc, int(Op.CALLDATACOPY), info.name,
                  (dest, offset, size), None, info.gas,
                  mem_offset=dest, mem_size=size, data=chunk)


# --- context reads ---------------------------------------------------------------

def _header_read(op: Op, field_name: str):
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        value = getattr(evm.header, field_name)
        frame.stack.append(value)
        evm.tracer.on_context_read(KIND_HEADER, (field_name,), value)
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name, (), value, info.gas,
                      read_kind=KIND_HEADER, read_key=(field_name,))
    return run


_header_read(Op.TIMESTAMP, "timestamp")
_header_read(Op.NUMBER, "number")
_header_read(Op.COINBASE, "coinbase")
_header_read(Op.DIFFICULTY, "difficulty")
_header_read(Op.GASLIMIT, "gas_limit")


@_handler(Op.BLOCKHASH)
def _op_blockhash(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    number = stack[-1]
    stack[-1] = value = blockhash(number)
    evm.tracer.on_context_read(KIND_BLOCKHASH, (number,), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.BLOCKHASH), info.name, (number,), value,
                  info.gas, read_kind=KIND_BLOCKHASH, read_key=(number,))


@_handler(Op.BALANCE)
def _op_balance(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    address = stack[-1]
    stack[-1] = value = evm.state.get_balance(address)
    evm.tracer.on_context_read(KIND_BALANCE, (address,), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.BALANCE), info.name, (address,), value,
                  info.gas, read_kind=KIND_BALANCE, read_key=(address,))


@_handler(Op.SELFBALANCE)
def _op_selfbalance(evm: EVM, frame: _Frame, pc: int, info) -> None:
    address = frame.msg.to
    value = evm.state.get_balance(address)
    frame.stack.append(value)
    evm.tracer.on_context_read(KIND_BALANCE, (address,), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.SELFBALANCE), info.name, (), value,
                  info.gas, read_kind=KIND_BALANCE, read_key=(address,))


@_handler(Op.EXTCODESIZE)
def _op_extcodesize(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    address = stack[-1]
    stack[-1] = value = len(evm.state.get_code(address))
    evm.tracer.on_context_read(KIND_CODESIZE, (address,), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.EXTCODESIZE), info.name, (address,),
                  value, info.gas, read_kind=KIND_CODESIZE,
                  read_key=(address,))


# --- memory ---------------------------------------------------------------------

@_handler(Op.POP)
def _op_pop(evm: EVM, frame: _Frame, pc: int, info) -> None:
    value = frame.stack.pop()
    if evm.tracing:
        evm._emit(frame, pc, int(Op.POP), info.name, (value,), None, info.gas)


@_handler(Op.MLOAD)
def _op_mload(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack[-1]
    memory = frame.memory
    if offset + 32 > len(memory):
        _grow(frame, offset, 32)
    stack[-1] = value = int.from_bytes(memory[offset:offset + 32], "big")
    if evm.tracing:
        evm._emit(frame, pc, int(Op.MLOAD), info.name, (offset,), value,
                  info.gas, mem_offset=offset, mem_size=32)


@_handler(Op.MSTORE)
def _op_mstore(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack.pop()
    value = stack.pop()
    memory = frame.memory
    if offset + 32 > len(memory):
        _grow(frame, offset, 32)
    memory[offset:offset + 32] = value.to_bytes(32, "big")
    if evm.tracing:
        evm._emit(frame, pc, int(Op.MSTORE), info.name, (offset, value),
                  None, info.gas, mem_offset=offset, mem_size=32)


@_handler(Op.MSTORE8)
def _op_mstore8(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack.pop()
    value = stack.pop()
    _grow(frame, offset, 1)[offset] = value & 0xFF
    if evm.tracing:
        evm._emit(frame, pc, int(Op.MSTORE8), info.name, (offset, value),
                  None, info.gas, mem_offset=offset, mem_size=1)


# --- storage --------------------------------------------------------------------

@_handler(Op.SLOAD)
def _op_sload(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    slot = stack[-1]
    address = frame.msg.to
    stack[-1] = value = evm.state.get_storage(address, slot)
    evm.tracer.on_context_read(KIND_STORAGE, (address, slot), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.SLOAD), info.name, (slot,), value,
                  info.gas, read_kind=KIND_STORAGE, read_key=(address, slot))


@_handler(Op.SSTORE)
def _op_sstore(evm: EVM, frame: _Frame, pc: int, info) -> None:
    if frame.msg.static:
        raise WriteProtection("SSTORE inside STATICCALL")
    stack = frame.stack
    slot = stack.pop()
    value = stack.pop()
    address = frame.msg.to
    evm.state.set_storage(address, slot, value)
    evm.write_op_count += 1
    evm.tracer.on_state_write(KIND_STORAGE, (address, slot), value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.SSTORE), info.name, (slot, value), None,
                  info.gas, write_kind=KIND_STORAGE,
                  write_key=(address, slot))


# --- control flow ------------------------------------------------------------------

@_handler(Op.JUMP)
def _op_jump(evm: EVM, frame: _Frame, pc: int, info) -> None:
    target = frame.stack.pop()
    if target not in frame.jumpdests:
        raise InvalidJump(f"jump to {target}")
    frame.pc = target
    if evm.tracing:
        evm._emit(frame, pc, int(Op.JUMP), info.name, (target,), None,
                  info.gas, jump_target=target)


@_handler(Op.JUMPI)
def _op_jumpi(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    target = stack.pop()
    cond = stack.pop()
    taken = cond != 0
    if taken:
        if target not in frame.jumpdests:
            raise InvalidJump(f"jump to {target}")
        frame.pc = target
    if evm.tracing:
        evm._emit(frame, pc, int(Op.JUMPI), info.name, (target, cond), None,
                  info.gas, jump_target=target, taken=taken)


@_handler(Op.JUMPDEST)
def _op_jumpdest(evm: EVM, frame: _Frame, pc: int, info) -> None:
    if evm.tracing:
        evm._emit(frame, pc, int(Op.JUMPDEST), info.name, (), None, info.gas)


# --- logging ------------------------------------------------------------------------

def _log_handler(op: Op, topic_count: int):
    op_value = int(op)

    @_handler(op)
    def run(evm: EVM, frame: _Frame, pc: int, info) -> None:
        if frame.msg.static:
            raise WriteProtection("LOG inside STATICCALL")
        stack = frame.stack
        offset = stack.pop()
        size = stack.pop()
        topics = tuple(stack.pop() for _ in range(topic_count))
        data = bytes(_grow(frame, offset, size)[offset:offset + size])
        evm.state.add_log(frame.msg.to, topics, data)
        evm.write_op_count += 1
        evm.tracer.on_state_write(KIND_LOG, (frame.msg.to,), (topics, data))
        if evm.tracing:
            evm._emit(frame, pc, op_value, info.name,
                      (offset, size) + topics, None, info.gas,
                      mem_offset=offset, mem_size=size, data=data,
                      topics=topics)
    return run


for _i in range(5):
    _log_handler(Op(0xA0 + _i), _i)


# --- calls and frame termination -------------------------------------------------------

def _do_call(evm: EVM, frame: _Frame, pc: int, info, op: Op) -> None:
    """Shared machinery for CALL / DELEGATECALL / STATICCALL."""
    stack = frame.stack
    gas = stack.pop()
    to = stack.pop()
    value = stack.pop() if op is Op.CALL else 0
    arg_off = stack.pop()
    arg_size = stack.pop()
    ret_off = stack.pop()
    ret_size = stack.pop()
    priced_from = len(frame.memory)
    memory = _grow(frame, arg_off, arg_size)
    _grow(frame, ret_off, ret_size, priced_from)
    args = bytes(memory[arg_off:arg_off + arg_size])
    forwarded = min(gas, frame.gas)
    if op is Op.DELEGATECALL:
        # Callee code runs in the CALLER's storage/value/sender context.
        msg = Message(sender=frame.msg.sender, to=frame.msg.to,
                      value=frame.msg.value, data=args, gas=forwarded,
                      depth=frame.msg.depth + 1, code_address=to,
                      static=frame.msg.static)
    elif op is Op.STATICCALL:
        msg = Message(sender=frame.msg.to, to=to, value=0, data=args,
                      gas=forwarded, depth=frame.msg.depth + 1,
                      static=True)
    else:
        if frame.msg.static and value:
            raise WriteProtection("value transfer inside STATICCALL")
        msg = Message(sender=frame.msg.to, to=to, value=value,
                      data=args, gas=forwarded,
                      depth=frame.msg.depth + 1, static=frame.msg.static)
    # Emit the call step *before* the callee's instructions so the trace
    # order matches execution order (the callee is inlined in the trace).
    if evm.tracing:
        inputs = ((gas, to, value, arg_off, arg_size, ret_off, ret_size)
                  if op is Op.CALL
                  else (gas, to, arg_off, arg_size, ret_off, ret_size))
        evm._emit(frame, pc, int(op), info.name, inputs, None, info.gas,
                  call_to=to, call_value=value, call_args=args,
                  call_kind=info.name, mem_offset=arg_off,
                  mem_size=arg_size, ret_offset=ret_off, ret_size=ret_size)
    success, ret, gas_left = evm._call(msg)
    frame.gas -= (forwarded - gas_left)
    if ret_size:
        memory[ret_off:ret_off + ret_size] = \
            ret[:ret_size].ljust(ret_size, b"\x00")
    frame.returned = ret
    stack.append(1 if success else 0)
    evm.instruction_count += 1  # the CALL_RESULT pseudo-step
    if evm.tracing:
        evm._emit(frame, pc, int(op), "CALL_RESULT", (), 1 if success else 0,
                  0, call_success=success, call_return=ret,
                  ret_offset=ret_off, ret_size=ret_size)


@_handler(Op.CALL)
def _op_call(evm: EVM, frame: _Frame, pc: int, info) -> None:
    _do_call(evm, frame, pc, info, Op.CALL)


@_handler(Op.DELEGATECALL)
def _op_delegatecall(evm: EVM, frame: _Frame, pc: int, info) -> None:
    _do_call(evm, frame, pc, info, Op.DELEGATECALL)


@_handler(Op.STATICCALL)
def _op_staticcall(evm: EVM, frame: _Frame, pc: int, info) -> None:
    _do_call(evm, frame, pc, info, Op.STATICCALL)


@_handler(Op.CODECOPY)
def _op_codecopy(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    dest = stack.pop()
    offset = stack.pop()
    size = stack.pop()
    memory = _grow(frame, dest, size)
    chunk = frame.code[offset:offset + size]
    chunk += b"\x00" * (size - len(chunk))
    memory[dest:dest + size] = chunk
    if evm.tracing:
        evm._emit(frame, pc, int(Op.CODECOPY), info.name,
                  (dest, offset, size), None, info.gas,
                  mem_offset=dest, mem_size=size, data=chunk)


@_handler(Op.CREATE)
def _op_create(evm: EVM, frame: _Frame, pc: int, info) -> None:
    if frame.msg.static:
        raise WriteProtection("CREATE inside STATICCALL")
    stack = frame.stack
    value = stack.pop()
    offset = stack.pop()
    size = stack.pop()
    init_code = bytes(_grow(frame, offset, size)[offset:offset + size])
    creator = frame.msg.to
    nonce = evm.state.get_nonce(creator)
    evm.state.increment_nonce(creator)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.CREATE), info.name,
                  (value, offset, size), None, info.gas,
                  mem_offset=offset, mem_size=size, data=init_code)
    success, address_bytes, gas_left = evm._create(
        creator=creator, creator_nonce=nonce, value=value,
        init_code=init_code, gas=frame.gas,
        depth=frame.msg.depth + 1)
    frame.gas = gas_left if success else min(frame.gas, gas_left)
    address = int.from_bytes(address_bytes, "big") if address_bytes \
        else 0
    stack.append(address)
    evm.instruction_count += 1  # the CREATE_RESULT pseudo-step
    if evm.tracing:
        evm._emit(frame, pc, int(Op.CREATE), "CREATE_RESULT", (), address,
                  0, create_success=success)


@_handler(Op.RETURNDATASIZE)
def _op_returndatasize(evm: EVM, frame: _Frame, pc: int, info) -> None:
    value = len(frame.returned)
    frame.stack.append(value)
    if evm.tracing:
        evm._emit(frame, pc, int(Op.RETURNDATASIZE), info.name, (), value,
                  info.gas)


@_handler(Op.RETURNDATACOPY)
def _op_returndatacopy(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    dest = stack.pop()
    offset = stack.pop()
    size = stack.pop()
    if offset + size > len(frame.returned):
        raise InvalidOpcode("RETURNDATACOPY out of bounds")
    memory = _grow(frame, dest, size)
    chunk = frame.returned[offset:offset + size]
    memory[dest:dest + size] = chunk
    if evm.tracing:
        evm._emit(frame, pc, int(Op.RETURNDATACOPY), info.name,
                  (dest, offset, size), None, info.gas,
                  mem_offset=dest, mem_size=size, data=chunk,
                  src_offset=offset)


@_handler(Op.STOP)
def _op_stop(evm: EVM, frame: _Frame, pc: int, info) -> bytes:
    if evm.tracing:
        evm._emit(frame, pc, int(Op.STOP), info.name, (), None, info.gas)
    return b""


@_handler(Op.RETURN)
def _op_return(evm: EVM, frame: _Frame, pc: int, info) -> bytes:
    stack = frame.stack
    offset = stack.pop()
    size = stack.pop()
    data = bytes(_grow(frame, offset, size)[offset:offset + size])
    if evm.tracing:
        evm._emit(frame, pc, int(Op.RETURN), info.name, (offset, size), None,
                  info.gas, mem_offset=offset, mem_size=size, data=data)
    return data


@_handler(Op.REVERT)
def _op_revert(evm: EVM, frame: _Frame, pc: int, info) -> None:
    stack = frame.stack
    offset = stack.pop()
    size = stack.pop()
    data = bytes(_grow(frame, offset, size)[offset:offset + size])
    evm.instruction_count += 1  # raises instead of returning to the loop
    if evm.tracing:
        evm._emit(frame, pc, int(Op.REVERT), info.name, (offset, size), None,
                  info.gas, mem_offset=offset, mem_size=size, data=data)
    raise Revert(data)


@_handler(Op.INVALID)
def _op_invalid(evm: EVM, frame: _Frame, pc: int, info) -> None:
    raise InvalidOpcode("INVALID opcode executed")


def _entry(op: int) -> tuple:
    """``(handler, info, gas, low, high)`` for one opcode: the static
    gas charge and the stack bounds ``low <= len(stack) <= high`` (at
    least ``pops`` items, and at most ``STACK_LIMIT`` after
    ``pushes``).  An undefined opcode has ``info`` ``None``, no gas and
    no bounds: it fails before any charge."""
    info = opcodes.OPCODES.get(op)
    if info is None:
        return (_invalid_entry(f"undefined opcode {op:#04x}"), None, 0, 0,
                STACK_LIMIT)
    handler = _HANDLERS.get(op) \
        or _invalid_entry(f"unimplemented opcode {info.name}")
    return (handler, info, info.gas, info.pops,
            STACK_LIMIT + info.pops - info.pushes)


#: One program entry per opcode, shared by every decoded program (a
#: PUSH's handler is bound per position by :func:`_decode_program`).
_ENTRIES = [_entry(op) for op in range(256)]
