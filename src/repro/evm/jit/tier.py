"""Tiering policy for the AP executor, the compiled closure.

One :class:`JitTier` instance lives on each Forerunner node and is
shared by the speculator (compile side) and the transaction accelerator
(execute side):

* **compile side** — the speculator offers an AP for compilation when
  it finishes it: once per speculation cycle that changed it (or on
  hand-out, if still unfinished), off the critical path, so one compile
  buys commit-time speed.  It is chaos-contained by the speculator, so
  a failed compile only leaves the AP without a closure.
* **execute side** — before the accelerator opens the transaction
  envelope it asks :meth:`ready`.  An AP without a closure (a *miss*)
  or with one from an older version (a reorg/redeploy *bailout*) is
  compiled there and then; an AP the compiler rejects makes the
  transaction run plainly.  :meth:`execute` then only runs the
  closure.

A compile still specializes the tree, but the generated source depends
only on the tree's shape (its values are bound as closure cells), so
:meth:`compile` runs Python's ``compile()`` once per shape: the tier
keeps one bounded map from shape source to code object.

Every decision is counted under the ``jit.*`` obs scope so two-run
determinism checks cover the tier.
"""

from __future__ import annotations

from types import CodeType
from typing import Optional

from repro.core.ap import AcceleratedProgram
from repro.core.costmodel import CostTally
from repro.errors import ConstraintViolation
from repro.evm.interpreter import invalidate_code_caches
from repro.evm.jit.specialize import (
    APOutcome,
    CompiledAP,
    SpecializeAbort,
    compile_ap,
    shape_code,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.utils.lru import LruMap

#: Closure shapes whose code object the tier keeps (a DeFi run has a
#: few dozen; compute trees add a handful more).
SHAPE_CACHE_SIZE = 256


class JitTier:
    """Owns compile policy, artifact validity, and the jit.* counters."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: Bumped by :meth:`invalidate`; artifacts compiled under an
        #: older version are recompiled before they run.
        self.version = 0
        #: Shape source -> code object of its closure factory.
        self._shapes = LruMap(SHAPE_CACHE_SIZE)
        registry = registry or get_registry()
        obs = registry.scope("jit")
        self.c_compiles = obs.counter("compiles")
        self.c_shapes = obs.counter("shapes")
        self.c_compile_aborts = obs.counter("compile_aborts")
        self.c_compiled_nodes = obs.counter("compiled_nodes")
        self.c_hits = obs.counter("hits")
        self.c_misses = obs.counter("misses")
        self.c_bailouts = obs.counter("bailouts")
        self.c_guard_failures = obs.counter("guard_failures")
        self.c_invalidations = obs.counter("invalidations")

    # -- compile side -----------------------------------------------------

    def compile(self, ap: AcceleratedProgram) -> Optional[CompiledAP]:
        """Compile ``ap``.

        Returns the artifact (also stored on ``ap.jit``) or ``None``.
        Raises nothing: a :class:`SpecializeAbort` is counted and the
        AP is left without a closure.
        """
        try:
            artifact = compile_ap(ap, version=self.version,
                                  code_for=self._shape_code)
        except SpecializeAbort:
            self.c_compile_aborts.inc()
            ap.jit = None
            return None
        ap.jit = artifact
        self.c_compiles.inc()
        self.c_compiled_nodes.inc(artifact.node_count)
        return artifact

    def _shape_code(self, source: str) -> CodeType:
        """The code object of one closure shape, compiled on first use."""
        code = self._shapes.get(source)
        if code is None:
            code = shape_code(source)
            self._shapes.set(source, code)
            self.c_shapes.inc()
        return code

    # -- execute side -----------------------------------------------------

    def ready(self, ap: AcceleratedProgram) -> bool:
        """Does ``ap`` hold a current closure, compiling it if needed?

        False only when the compiler rejects the tree; the caller then
        runs the transaction plainly.
        """
        artifact = ap.jit
        if artifact is not None and artifact.version == self.version:
            return True
        if artifact is None:
            self.c_misses.inc()
        else:
            # Stale (reorg/redeploy): recompiled against the new world.
            self.c_bailouts.inc()
        return self.compile(ap) is not None

    def execute(self, ap: AcceleratedProgram, state, header,
                tally: CostTally) -> APOutcome:
        """Run the closure of ``ap`` (which :meth:`ready` vouched for).

        Raises :class:`ConstraintViolation` when no constraint set is
        satisfied; the accelerator then takes its fallback.
        """
        self.c_hits.inc()
        try:
            return ap.jit.fn(state, header, tally)
        except ConstraintViolation:
            self.c_guard_failures.inc()
            raise

    # -- invalidation ------------------------------------------------------

    def invalidate(self, reason: str = "") -> int:
        """Invalidate every outstanding artifact (reorg / redeploy).

        Also versions the interpreter's decoded-program caches: both
        executors forget derived code artifacts at the same points.
        """
        self.version += 1
        self.c_invalidations.inc()
        invalidate_code_caches(reason)
        return self.version
