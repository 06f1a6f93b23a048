"""Tiering policy for the trace-guided specialization compiler.

One :class:`JitTier` instance lives on each Forerunner node and is
shared by the speculator (compile side) and the transaction accelerator
(execute side):

* **compile side** — the speculator offers an AP for compilation when
  it finishes it: once per speculation cycle that changed it (or on
  hand-out, if still unfinished), off the critical path, so one compile
  buys commit-time speed.  It is chaos-contained by the speculator, so
  a failed compile only means the AP stays interpreted.
* **execute side** — the accelerator routes AP execution through
  :meth:`execute`.  A valid artifact runs the specialized closure; a
  version mismatch (reorg / redeploy invalidation) is a *bailout*: the
  artifact is dropped and the general walker runs instead, which is
  byte-identical to never having specialized.

Every decision is counted under the ``jit.*`` obs scope so two-run
determinism checks cover the tier.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ap import AcceleratedProgram
from repro.core.ap_exec import APOutcome, execute_ap
from repro.core.costmodel import CostTally
from repro.errors import ConstraintViolation
from repro.evm.interpreter import invalidate_code_caches
from repro.evm.jit.specialize import CompiledAP, SpecializeAbort, compile_ap
from repro.obs.registry import MetricsRegistry, get_registry


class JitTier:
    """Owns compile policy, artifact validity, and the jit.* counters."""

    def __init__(self, enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.enabled = enabled
        #: Bumped by :meth:`invalidate`; artifacts compiled under an
        #: older version bail out to the interpreted walk.
        self.version = 0
        #: Tier label of the most recent :meth:`execute` call:
        #: "jit" when a valid closure ran, "walk" on any fallback.
        self.last_used = "walk"
        registry = registry or get_registry()
        obs = registry.scope("jit")
        self.c_compiles = obs.counter("compiles")
        self.c_compile_aborts = obs.counter("compile_aborts")
        self.c_compiled_nodes = obs.counter("compiled_nodes")
        self.c_hits = obs.counter("hits")
        self.c_misses = obs.counter("misses")
        self.c_bailouts = obs.counter("bailouts")
        self.c_guard_failures = obs.counter("guard_failures")
        self.c_invalidations = obs.counter("invalidations")

    # -- compile side -----------------------------------------------------

    def compile(self, ap: AcceleratedProgram) -> Optional[CompiledAP]:
        """Compile ``ap`` if the tier is on.

        Returns the artifact (also stored on ``ap.jit``) or ``None``.
        Raises nothing: a :class:`SpecializeAbort` is counted and the
        AP stays on the interpreted tier.
        """
        if not self.enabled:
            return None
        try:
            artifact = compile_ap(ap, version=self.version)
        except SpecializeAbort:
            self.c_compile_aborts.inc()
            ap.jit = None
            return None
        ap.jit = artifact
        self.c_compiles.inc()
        self.c_compiled_nodes.inc(artifact.node_count)
        return artifact

    # -- execute side -----------------------------------------------------

    def execute(self, ap: AcceleratedProgram, state, header,
                tally: CostTally) -> APOutcome:
        """Run ``ap``: specialized closure when valid, walker otherwise.

        Raises :class:`ConstraintViolation` exactly like
        :func:`~repro.core.ap_exec.execute_ap`; the accelerator's
        fallback path is identical either way.
        """
        artifact = ap.jit
        if not self.enabled:
            artifact = None
        elif artifact is None:
            self.c_misses.inc()
        elif artifact.version != self.version:
            # Stale (reorg/redeploy): bail out *before* any side
            # effects, so the run is byte-identical to never having
            # specialized.  The artifact is dropped; the next finalise
            # recompiles against the new world.
            self.c_bailouts.inc()
            ap.jit = artifact = None
        if artifact is None:
            self.last_used = "walk"
            return execute_ap(ap, state, header, tally)
        self.c_hits.inc()
        self.last_used = "jit"
        try:
            return artifact.fn(state, header, tally)
        except ConstraintViolation:
            self.c_guard_failures.inc()
            raise

    # -- invalidation ------------------------------------------------------

    def invalidate(self, reason: str = "") -> int:
        """Invalidate every outstanding artifact (reorg / redeploy).

        Also versions the interpreter's decoded-program caches: both
        tiers forget derived code artifacts at the same points.
        """
        self.version += 1
        self.c_invalidations.inc()
        invalidate_code_caches(reason)
        return self.version
