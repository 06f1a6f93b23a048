"""EVM opcode table.

Each opcode carries the metadata needed by the interpreter (stack arity,
immediate size, base gas cost) and by Forerunner's trace-to-S-EVM
translation (category: which opcodes are pure computation, which read
the execution context, which write state, and which exist only to move
values around the stack/memory and therefore vanish in the register IR —
paper §4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class Category(enum.Enum):
    """Functional classification used by the S-EVM translation."""

    COMPUTE = "compute"       # pure function of its inputs
    CONTEXT_READ = "read"     # reads the execution context (state, header, env)
    STATE_WRITE = "write"     # writes state / emits effects
    STACK = "stack"           # pure stack manipulation (eliminated in S-EVM)
    MEMORY = "memory"         # volatile memory traffic (eliminated by promotion)
    CONTROL = "control"       # control flow (eliminated; becomes guards)
    SYSTEM = "system"         # call/return machinery
    TX_CONSTANT = "txconst"   # constant for a fixed transaction (calldata etc.)


class Op(enum.IntEnum):
    """Opcode values (a faithful subset of the yellow paper encoding)."""

    STOP = 0x00
    ADD = 0x01
    MUL = 0x02
    SUB = 0x03
    DIV = 0x04
    SDIV = 0x05
    MOD = 0x06
    SMOD = 0x07
    ADDMOD = 0x08
    MULMOD = 0x09
    EXP = 0x0A
    SIGNEXTEND = 0x0B

    LT = 0x10
    GT = 0x11
    SLT = 0x12
    SGT = 0x13
    EQ = 0x14
    ISZERO = 0x15
    AND = 0x16
    OR = 0x17
    XOR = 0x18
    NOT = 0x19
    BYTE = 0x1A
    SHL = 0x1B
    SHR = 0x1C
    SAR = 0x1D

    SHA3 = 0x20

    ADDRESS = 0x30
    BALANCE = 0x31
    ORIGIN = 0x32
    CALLER = 0x33
    CALLVALUE = 0x34
    CALLDATALOAD = 0x35
    CALLDATASIZE = 0x36
    CALLDATACOPY = 0x37
    CODESIZE = 0x38
    CODECOPY = 0x39
    GASPRICE = 0x3A
    EXTCODESIZE = 0x3B

    RETURNDATASIZE = 0x3D
    RETURNDATACOPY = 0x3E
    CREATE = 0xF0

    BLOCKHASH = 0x40
    COINBASE = 0x41
    TIMESTAMP = 0x42
    NUMBER = 0x43
    DIFFICULTY = 0x44
    GASLIMIT = 0x45
    CHAINID = 0x46
    SELFBALANCE = 0x47

    POP = 0x50
    MLOAD = 0x51
    MSTORE = 0x52
    MSTORE8 = 0x53
    SLOAD = 0x54
    SSTORE = 0x55
    JUMP = 0x56
    JUMPI = 0x57
    PC = 0x58
    MSIZE = 0x59
    GAS = 0x5A
    JUMPDEST = 0x5B

    PUSH1 = 0x60
    # PUSH2..PUSH32 are 0x61..0x7F
    PUSH32 = 0x7F
    DUP1 = 0x80
    # DUP2..DUP16 are 0x81..0x8F
    DUP16 = 0x8F
    SWAP1 = 0x90
    # SWAP2..SWAP16 are 0x91..0x9F
    SWAP16 = 0x9F

    LOG0 = 0xA0
    LOG1 = 0xA1
    LOG2 = 0xA2
    LOG3 = 0xA3
    LOG4 = 0xA4

    CALL = 0xF1
    RETURN = 0xF3
    DELEGATECALL = 0xF4
    STATICCALL = 0xFA
    REVERT = 0xFD
    INVALID = 0xFE


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    name: str
    value: int
    pops: int
    pushes: int
    gas: int
    category: Category
    immediate: int = 0  # bytes of immediate data following the opcode


def _op(name, value, pops, pushes, gas, category, immediate=0):
    return OpInfo(name, value, pops, pushes, gas, category, immediate)


# Gas costs follow a simplified Istanbul-like schedule.  SLOAD/SSTORE/
# BALANCE use flat (warm-ish) costs; the *I/O* expense of cold state
# access is modelled separately by repro.state.diskio so that the
# prefetcher's effect (paper §4.4) is observable in the cost model.
OPCODES: Dict[int, OpInfo] = {}


def _register(info: OpInfo) -> None:
    OPCODES[info.value] = info


for _info in [
    _op("STOP", Op.STOP, 0, 0, 0, Category.SYSTEM),
    _op("ADD", Op.ADD, 2, 1, 3, Category.COMPUTE),
    _op("MUL", Op.MUL, 2, 1, 5, Category.COMPUTE),
    _op("SUB", Op.SUB, 2, 1, 3, Category.COMPUTE),
    _op("DIV", Op.DIV, 2, 1, 5, Category.COMPUTE),
    _op("SDIV", Op.SDIV, 2, 1, 5, Category.COMPUTE),
    _op("MOD", Op.MOD, 2, 1, 5, Category.COMPUTE),
    _op("SMOD", Op.SMOD, 2, 1, 5, Category.COMPUTE),
    _op("ADDMOD", Op.ADDMOD, 3, 1, 8, Category.COMPUTE),
    _op("MULMOD", Op.MULMOD, 3, 1, 8, Category.COMPUTE),
    _op("EXP", Op.EXP, 2, 1, 10, Category.COMPUTE),
    _op("SIGNEXTEND", Op.SIGNEXTEND, 2, 1, 5, Category.COMPUTE),
    _op("LT", Op.LT, 2, 1, 3, Category.COMPUTE),
    _op("GT", Op.GT, 2, 1, 3, Category.COMPUTE),
    _op("SLT", Op.SLT, 2, 1, 3, Category.COMPUTE),
    _op("SGT", Op.SGT, 2, 1, 3, Category.COMPUTE),
    _op("EQ", Op.EQ, 2, 1, 3, Category.COMPUTE),
    _op("ISZERO", Op.ISZERO, 1, 1, 3, Category.COMPUTE),
    _op("AND", Op.AND, 2, 1, 3, Category.COMPUTE),
    _op("OR", Op.OR, 2, 1, 3, Category.COMPUTE),
    _op("XOR", Op.XOR, 2, 1, 3, Category.COMPUTE),
    _op("NOT", Op.NOT, 1, 1, 3, Category.COMPUTE),
    _op("BYTE", Op.BYTE, 2, 1, 3, Category.COMPUTE),
    _op("SHL", Op.SHL, 2, 1, 3, Category.COMPUTE),
    _op("SHR", Op.SHR, 2, 1, 3, Category.COMPUTE),
    _op("SAR", Op.SAR, 2, 1, 3, Category.COMPUTE),
    _op("SHA3", Op.SHA3, 2, 1, 30, Category.COMPUTE),
    _op("ADDRESS", Op.ADDRESS, 0, 1, 2, Category.TX_CONSTANT),
    _op("BALANCE", Op.BALANCE, 1, 1, 100, Category.CONTEXT_READ),
    _op("ORIGIN", Op.ORIGIN, 0, 1, 2, Category.TX_CONSTANT),
    _op("CALLER", Op.CALLER, 0, 1, 2, Category.TX_CONSTANT),
    _op("CALLVALUE", Op.CALLVALUE, 0, 1, 2, Category.TX_CONSTANT),
    _op("CALLDATALOAD", Op.CALLDATALOAD, 1, 1, 3, Category.TX_CONSTANT),
    _op("CALLDATASIZE", Op.CALLDATASIZE, 0, 1, 2, Category.TX_CONSTANT),
    _op("CALLDATACOPY", Op.CALLDATACOPY, 3, 0, 3, Category.MEMORY),
    _op("CODESIZE", Op.CODESIZE, 0, 1, 2, Category.TX_CONSTANT),
    _op("GASPRICE", Op.GASPRICE, 0, 1, 2, Category.TX_CONSTANT),
    _op("EXTCODESIZE", Op.EXTCODESIZE, 1, 1, 100, Category.CONTEXT_READ),
    _op("BLOCKHASH", Op.BLOCKHASH, 1, 1, 20, Category.CONTEXT_READ),
    _op("COINBASE", Op.COINBASE, 0, 1, 2, Category.CONTEXT_READ),
    _op("TIMESTAMP", Op.TIMESTAMP, 0, 1, 2, Category.CONTEXT_READ),
    _op("NUMBER", Op.NUMBER, 0, 1, 2, Category.CONTEXT_READ),
    _op("DIFFICULTY", Op.DIFFICULTY, 0, 1, 2, Category.CONTEXT_READ),
    _op("GASLIMIT", Op.GASLIMIT, 0, 1, 2, Category.CONTEXT_READ),
    _op("CHAINID", Op.CHAINID, 0, 1, 2, Category.TX_CONSTANT),
    _op("SELFBALANCE", Op.SELFBALANCE, 0, 1, 5, Category.CONTEXT_READ),
    _op("POP", Op.POP, 1, 0, 2, Category.STACK),
    _op("MLOAD", Op.MLOAD, 1, 1, 3, Category.MEMORY),
    _op("MSTORE", Op.MSTORE, 2, 0, 3, Category.MEMORY),
    _op("MSTORE8", Op.MSTORE8, 2, 0, 3, Category.MEMORY),
    _op("SLOAD", Op.SLOAD, 1, 1, 100, Category.CONTEXT_READ),
    _op("SSTORE", Op.SSTORE, 2, 0, 5000, Category.STATE_WRITE),
    _op("JUMP", Op.JUMP, 1, 0, 8, Category.CONTROL),
    _op("JUMPI", Op.JUMPI, 2, 0, 10, Category.CONTROL),
    _op("PC", Op.PC, 0, 1, 2, Category.TX_CONSTANT),
    _op("MSIZE", Op.MSIZE, 0, 1, 2, Category.MEMORY),
    _op("GAS", Op.GAS, 0, 1, 2, Category.CONTEXT_READ),
    _op("JUMPDEST", Op.JUMPDEST, 0, 0, 1, Category.CONTROL),
    _op("LOG0", Op.LOG0, 2, 0, 375, Category.STATE_WRITE),
    _op("LOG1", Op.LOG1, 3, 0, 750, Category.STATE_WRITE),
    _op("LOG2", Op.LOG2, 4, 0, 1125, Category.STATE_WRITE),
    _op("LOG3", Op.LOG3, 5, 0, 1500, Category.STATE_WRITE),
    _op("LOG4", Op.LOG4, 6, 0, 1875, Category.STATE_WRITE),
    _op("RETURNDATASIZE", Op.RETURNDATASIZE, 0, 1, 2, Category.MEMORY),
    _op("RETURNDATACOPY", Op.RETURNDATACOPY, 3, 0, 3, Category.MEMORY),
    _op("CODECOPY", Op.CODECOPY, 3, 0, 3, Category.MEMORY),
    _op("CREATE", Op.CREATE, 3, 1, 32_000, Category.SYSTEM),
    _op("CALL", Op.CALL, 7, 1, 700, Category.SYSTEM),
    _op("DELEGATECALL", Op.DELEGATECALL, 6, 1, 700, Category.SYSTEM),
    _op("STATICCALL", Op.STATICCALL, 6, 1, 700, Category.SYSTEM),
    _op("RETURN", Op.RETURN, 2, 0, 0, Category.SYSTEM),
    _op("REVERT", Op.REVERT, 2, 0, 0, Category.SYSTEM),
    _op("INVALID", Op.INVALID, 0, 0, 0, Category.SYSTEM),
]:
    _register(_info)

# PUSH1..PUSH32
for _n in range(1, 33):
    _register(_op(f"PUSH{_n}", 0x60 + _n - 1, 0, 1, 3, Category.STACK, immediate=_n))
# DUP1..DUP16
for _n in range(1, 17):
    _register(_op(f"DUP{_n}", 0x80 + _n - 1, _n, _n + 1, 3, Category.STACK))
# SWAP1..SWAP16
for _n in range(1, 17):
    _register(_op(f"SWAP{_n}", 0x90 + _n - 1, _n + 1, _n + 1, 3, Category.STACK))

#: Mnemonic → opcode value, for the assembler.
NAME_TO_OP: Dict[str, int] = {info.name: code for code, info in OPCODES.items()}


def is_push(code: int) -> bool:
    """True if ``code`` is PUSH1..PUSH32."""
    return 0x60 <= code <= 0x7F


def push_size(code: int) -> int:
    """Immediate size in bytes for a PUSH opcode."""
    return code - 0x60 + 1


def is_dup(code: int) -> bool:
    """True if ``code`` is DUP1..DUP16."""
    return 0x80 <= code <= 0x8F


def is_swap(code: int) -> bool:
    """True if ``code`` is SWAP1..SWAP16."""
    return 0x90 <= code <= 0x9F


def is_log(code: int) -> bool:
    """True if ``code`` is LOG0..LOG4."""
    return 0xA0 <= code <= 0xA4
