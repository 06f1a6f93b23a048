"""The AP executor.

:mod:`repro.evm.jit.specialize` + :mod:`repro.evm.jit.tier` compile AP
trees into specialized straight-line Python closures, the only way an
AP runs.  See docs/COMPILER.md.
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
