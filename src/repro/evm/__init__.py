"""A from-scratch stack-based Ethereum Virtual Machine.

This package provides the execution substrate the paper's techniques
operate on: a bytecode interpreter with gas metering, revert semantics,
internal message calls, and instrumentation hooks that record the EVM
instruction trace, intermediate values, and read/write sets needed by
Forerunner's speculator (paper §4.3).
"""

from repro.evm.opcodes import Op, OPCODES
from repro.evm.interpreter import EVM, Message, ExecutionResult
from repro.evm.assembler import assemble, disassemble

__all__ = [
    "Op",
    "OPCODES",
    "EVM",
    "Message",
    "ExecutionResult",
    "assemble",
    "disassemble",
]
