"""Deterministic speculative-concurrency scheduler (ISSUE 4).

Forerunner's speedup depends on speculation running concurrently with
non-speculative work on spare cores (paper §2, §6).  This package
reproduces that concurrency *deterministically*: N virtual worker lanes
advance logical-cost clocks merged by a fixed event order, a block
executor runs each block's transactions once, in order, and derives
from their recorded read/write sets what optimistic concurrency on N
lanes would have done with it (Saraph & Herlihy's method: conflict
detection and serial re-execution of losers are *estimated* from the
sequential replay, never acted out), and an admission controller
bounds and prioritizes speculation dispatch.  Any lane count yields
byte-identical committed roots, receipts and Table 2/3 columns;
parallelism surfaces only in the scheduler's own metrics (critical-path
cost units, lane utilization, conflict/abort rates).
"""

from repro.sched.admission import (
    AdmissionController,
    HitLikelihoodEstimator,
    PrefetchRequest,
    SpeculationRequest,
)
from repro.sched.conflicts import AccessSet
from repro.sched.executor import (
    BlockSchedule,
    ParallelBlockExecutor,
    TxOutcome,
)
from repro.sched.lanes import Lane, LaneSet

__all__ = [
    "AccessSet",
    "AdmissionController",
    "BlockSchedule",
    "HitLikelihoodEstimator",
    "Lane",
    "LaneSet",
    "ParallelBlockExecutor",
    "PrefetchRequest",
    "SpeculationRequest",
    "TxOutcome",
]
