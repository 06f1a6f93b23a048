"""Brownout ladder: graceful service degradation under overload.

Three levels, driven by deterministic gauges (total bulkhead queue
depth and an EWMA of served-request latency in cost units):

========== =================================================================
``full``    every request served normally
``degraded`` speculative-only / stale-read: requests the pipeline can
            answer cheaply (memoized call results, ready APs, committed
            receipt/witness lookups — including one-head-stale reads)
            are served; requests needing fresh on-demand execution are
            shed, lowest priority first
``shed``    only cheap requests from the highest-priority clients are
            served; everything else is shed immediately
========== =================================================================

Who gets shed first reuses the *scheduler's* admission priority
currency (:mod:`repro.sched.admission`): a request's score is the
per-client EWMA service-likelihood (the same
:class:`~repro.sched.admission.HitLikelihoodEstimator` machinery the
speculation admission uses per contract) times the client's fee weight
— exactly the ``likelihood × gas price`` formula speculation dispatch
ranks by, so edge shedding and speculation admission rank traffic in
the same currency.

Transitions have hysteresis (exit thresholds are a fraction of entry
thresholds) and a minimum dwell time, so the ladder cannot flap; every
transition is recorded with its simulated timestamp and trigger, and
the sequence is part of the byte-stable serving trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.registry import MetricsRegistry, get_registry
from repro.sched.admission import HitLikelihoodEstimator

LEVEL_FULL = 0
LEVEL_DEGRADED = 1
LEVEL_SHED = 2

LEVEL_NAMES = ("full", "degraded", "shed")

# -- entry/exit thresholds of the ladder --------------------------------------
#: Total queued requests (all bulkheads) that enter level 1 / 2.
DEPTH_DEGRADED = 12
DEPTH_SHED = 28
#: EWMA served latency (cost units) that enters level 1 / 2.
LATENCY_DEGRADED = 60_000
LATENCY_SHED = 180_000
#: Exit when both gauges fall below this fraction of the entry
#: thresholds (hysteresis band).
EXIT_FRACTION = 0.5
#: Minimum simulated seconds between transitions (no flapping).
MIN_DWELL_SECONDS = 1.0
#: EWMA smoothing for the latency gauge.
LATENCY_ALPHA = 0.2
#: Score floor a request must clear to be served while at ``shed``
#: (fraction of the highest client weight observed).
SHED_SCORE_FRACTION = 0.5


@dataclass
class BrownoutTransition:
    """One recorded ladder move."""

    at: float
    old_level: int
    new_level: int
    reason: str
    depth: int
    ewma_latency: int

    def as_dict(self) -> dict:
        return {"at": round(self.at, 6),
                "from": LEVEL_NAMES[self.old_level],
                "to": LEVEL_NAMES[self.new_level],
                "reason": self.reason,
                "depth": self.depth,
                "ewma_latency": self.ewma_latency}


class BrownoutController:
    """Owns the ladder state and the shedding decision."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        obs = (registry or get_registry()).scope("edge.brownout")
        self.g_level = obs.gauge("level")
        self.g_ewma = obs.gauge("ewma_latency_units")
        self.c_transitions = obs.counter("transitions")
        self.c_shed = obs.counter("shed")
        self.level = LEVEL_FULL
        self.ewma_latency = 0.0
        self.transitions: List[BrownoutTransition] = []
        self._last_transition_at = float("-inf")
        #: Per-client served-likelihood (the scheduler's estimator
        #: reused verbatim; clients whose requests keep completing keep
        #: scores near 1.0, chronically slow/failing clients decay).
        self.estimator = HitLikelihoodEstimator()
        self._max_weight_seen = 1.0

    # -- scoring (the scheduler's priority currency) ---------------------

    def score(self, client_id: int, weight: float) -> float:
        """Priority = served-likelihood × fee weight, mirroring
        ``AdmissionController.score`` (likelihood × gas price)."""
        self._max_weight_seen = max(self._max_weight_seen, weight)
        return self.estimator.likelihood(client_id) * weight

    def observe_outcome(self, client_id: int, served: bool) -> None:
        self.estimator.observe(client_id, served)

    # -- gauge updates ---------------------------------------------------

    def observe_latency(self, latency_units: float) -> None:
        self.ewma_latency = ((1.0 - LATENCY_ALPHA) * self.ewma_latency
                             + LATENCY_ALPHA * latency_units)
        self.g_ewma.set(int(self.ewma_latency))

    def observe(self, now: float, depth: int) -> int:
        """Re-evaluate the ladder; returns the (possibly new) level."""
        ewma = self.ewma_latency
        if now - self._last_transition_at < MIN_DWELL_SECONDS:
            return self.level
        target = self.level
        if depth >= DEPTH_SHED or ewma >= LATENCY_SHED:
            target = LEVEL_SHED
        elif depth >= DEPTH_DEGRADED or ewma >= LATENCY_DEGRADED:
            target = max(self.level, LEVEL_DEGRADED) \
                if self.level >= LEVEL_DEGRADED else LEVEL_DEGRADED
        else:
            exit_depth = (DEPTH_DEGRADED if self.level ==
                          LEVEL_DEGRADED else DEPTH_SHED)
            exit_latency = (LATENCY_DEGRADED if self.level ==
                            LEVEL_DEGRADED else LATENCY_SHED)
            if (depth < exit_depth * EXIT_FRACTION
                    and ewma < exit_latency * EXIT_FRACTION):
                target = self.level - 1 if self.level > LEVEL_FULL \
                    else LEVEL_FULL
        if target != self.level:
            reason = ("depth" if (depth >= DEPTH_DEGRADED
                                  or target < self.level) else "latency")
            self.transitions.append(BrownoutTransition(
                at=now, old_level=self.level, new_level=target,
                reason=reason, depth=depth, ewma_latency=int(ewma)))
            self.level = target
            self.g_level.set(target)
            self.c_transitions.inc()
            self._last_transition_at = now
        return self.level

    # -- the shedding decision -------------------------------------------

    def admits(self, score: float, cheap: bool) -> bool:
        """May a request with ``score`` be served right now?

        ``cheap`` marks work the pipeline can answer without fresh
        on-demand execution (speculative/memoized/stale reads).
        """
        if self.level == LEVEL_FULL:
            return True
        if self.level == LEVEL_DEGRADED:
            if cheap:
                return True
            self.c_shed.inc()
            return False
        # LEVEL_SHED: cheap requests from top-priority clients only.
        floor = self._max_weight_seen * SHED_SCORE_FRACTION
        if cheap and score >= floor:
            return True
        self.c_shed.inc()
        return False

    def summary(self) -> dict:
        return {
            "level": LEVEL_NAMES[self.level],
            "ewma_latency_units": int(self.ewma_latency),
            "transitions": [t.as_dict() for t in self.transitions],
            "shed": self.c_shed.value,
        }
