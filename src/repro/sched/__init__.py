"""Deterministic speculative-concurrency scheduler.

Forerunner's speedup depends on speculation running concurrently with
non-speculative work on spare cores (paper §2, §6).  This package
reproduces that concurrency *deterministically*: N virtual worker lanes
advance logical-cost clocks merged by a fixed event order, an admission
controller bounds and prioritizes speculation dispatch, and the block
executor runs each block's transactions once, in order.  What
optimistic concurrency on N lanes would have done with the committed
blocks is an offline analysis (:mod:`repro.sched.whatif`, Saraph &
Herlihy's method): it replays them, records their read/write sets and
derives conflicts, aborts and the critical path from those, so no lane
count reaches a committed root, receipt or Table 2/3 column.
"""

from repro.sched.admission import (
    AdmissionController,
    HitLikelihoodEstimator,
    PrefetchRequest,
    SpeculationRequest,
)
from repro.sched.executor import ParallelBlockExecutor, TxOutcome
from repro.sched.lanes import Lane, LaneSet

__all__ = [
    "AdmissionController",
    "HitLikelihoodEstimator",
    "Lane",
    "LaneSet",
    "ParallelBlockExecutor",
    "PrefetchRequest",
    "SpeculationRequest",
    "TxOutcome",
]
