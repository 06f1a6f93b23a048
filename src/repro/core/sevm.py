"""S-EVM: the register-based intermediate representation (paper §4.3).

S-EVM is "a highly simplified register-based version of EVM".  Each
instruction fulfils exactly one of three functionalities — read, write,
or compute — plus the guard instructions that implement constraint
checking.  Instructions are in SSA form: every destination register is
assigned exactly once per path.

Operands are either :class:`Reg` references or plain ``int`` constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.evm.opcodes import Op


class Reg(int):
    """A register reference (SSA id).  Subclass of int for cheap storage,
    but distinct from literal constants via isinstance checks."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"v{int(self)}"


def is_reg(operand) -> bool:
    """True if the operand is a register reference (not a constant)."""
    return isinstance(operand, Reg)


class SKind(enum.Enum):
    """Functional classification of an S-EVM instruction."""

    READ = "read"        # reads the execution context into a register
    COMPUTE = "compute"  # pure function of operands
    WRITE = "write"      # state write / log emission
    GUARD = "guard"      # constraint check (control or data)


class GuardMode(enum.Enum):
    """How a guard compares its observed value against path expectations."""

    #: Exact value equality (jump targets, call targets, data offsets).
    EQ = "eq"
    #: Truthiness equality (JUMPI conditions: taken vs not-taken).
    TRUTH = "truth"
    #: Disequality of two registers (data constraint: two variable
    #: storage slots must stay distinct for register promotion to hold).
    NEQ = "neq"


@dataclass
class SInstr:
    """One S-EVM instruction.

    ``op`` reuses EVM mnemonics where a counterpart exists (the paper
    keeps the same names).  ``args`` mixes Reg and int-constant operands.
    ``key`` carries the context key for reads/writes whose location is
    static (e.g. header field); storage ops carry their address in
    ``key`` and the (possibly register) slot in ``args``.
    """

    kind: SKind
    op: str
    dest: Optional[Reg] = None
    args: Tuple = ()
    key: Optional[tuple] = None
    #: Guard metadata (kind GUARD only).
    guard_mode: Optional[GuardMode] = None
    #: Expected observation for this path: EQ -> constant value;
    #: TRUTH -> bool taken; NEQ -> True (operands observed distinct).
    expected: object = None
    #: Whether this guard asserts control flow (True) or a data
    #: dependency (False).  For Fig. 15 accounting.
    is_control: bool = True
    #: Extra payload for writes: LOG topics/layout, return metadata.
    meta: dict = field(default_factory=dict)

    def operands(self) -> Tuple:
        return self.args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = f"{self.dest} = " if self.dest is not None else ""
        args = ", ".join(repr(a) for a in self.args)
        tail = f" key={self.key}" if self.key else ""
        if self.kind is SKind.GUARD:
            return (f"GUARD[{self.guard_mode.value}]({args}) "
                    f"expect={self.expected}")
        return f"{head}{self.op}({args}){tail}"


# Read-op names (the op field of READ instructions).
READ_SLOAD = "SLOAD"
READ_BALANCE = "BALANCE"
READ_BLOCKHASH = "BLOCKHASH"
READ_EXTCODESIZE = "EXTCODESIZE"
READ_HEADER_OPS = {
    "TIMESTAMP": "timestamp",
    "NUMBER": "number",
    "COINBASE": "coinbase",
    "DIFFICULTY": "difficulty",
    "GASLIMIT": "gas_limit",
}

# Write-op names.
WRITE_SSTORE = "SSTORE"
WRITE_LOG = "LOG"

# Compute-op name for the register-form hash produced by complex
# instruction decomposition of SHA3 (reads its words from registers, not
# memory — the memory read half is eliminated by register promotion).
COMPUTE_SHA3 = "SHA3"

#: Map from EVM opcode int to S-EVM compute mnemonic for the pure ops.
PURE_OP_NAMES = {
    int(Op.ADD): "ADD", int(Op.MUL): "MUL", int(Op.SUB): "SUB",
    int(Op.DIV): "DIV", int(Op.SDIV): "SDIV", int(Op.MOD): "MOD",
    int(Op.SMOD): "SMOD", int(Op.ADDMOD): "ADDMOD",
    int(Op.MULMOD): "MULMOD", int(Op.EXP): "EXP",
    int(Op.SIGNEXTEND): "SIGNEXTEND",
    int(Op.LT): "LT", int(Op.GT): "GT", int(Op.SLT): "SLT",
    int(Op.SGT): "SGT", int(Op.EQ): "EQ", int(Op.ISZERO): "ISZERO",
    int(Op.AND): "AND", int(Op.OR): "OR", int(Op.XOR): "XOR",
    int(Op.NOT): "NOT", int(Op.BYTE): "BYTE",
    int(Op.SHL): "SHL", int(Op.SHR): "SHR", int(Op.SAR): "SAR",
}
