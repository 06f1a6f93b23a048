"""Compile tier (ROADMAP open item: closing the wall-clock inversion).

:mod:`repro.evm.jit.specialize` + :mod:`repro.evm.jit.tier` compile hot
AP trees into specialized straight-line Python closures.  See
docs/COMPILER.md.
"""

from repro.evm.jit.specialize import (
    HOT_OPS,
    CompiledAP,
    SpecializeAbort,
    compile_ap,
)
from repro.evm.jit.tier import JitTier

__all__ = [
    "CompiledAP",
    "HOT_OPS",
    "JitTier",
    "SpecializeAbort",
    "compile_ap",
]
