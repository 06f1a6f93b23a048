"""Virtual worker lanes with deterministic logical-cost clocks.

A :class:`LaneSet` models N parallel workers without threads: each lane
owns a monotone clock in whatever deterministic currency the caller
uses (simulated seconds for the speculation worker pool; the lane
what-if's derived schedule applies the same rule to bare cost-unit
clocks).  Dispatch always picks the lane with the
lowest clock, breaking ties by lane id — so scheduling decisions
depend only on the dispatch sequence, never on host concurrency, and
any lane count replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class Lane:
    """One virtual worker: a logical clock plus utilization counters."""

    lane_id: int
    clock: float = 0.0
    busy: float = 0.0
    jobs: int = 0

    def advance(self, start: float, cost: float) -> float:
        """Run one job of ``cost`` at ``start``; returns the finish."""
        finish = start + cost
        self.clock = finish
        self.busy += cost
        self.jobs += 1
        return finish


@dataclass
class Completion:
    """One dispatched job: its lane and simulated start/finish."""

    seq: int
    lane_id: int
    start: float
    finish: float
    cost: float
    payload: object = None


class LaneSet:
    """N deterministic lanes merged by (clock, lane id).

    The same selection rule the legacy scalar worker pool used —
    ``min(availability, index)`` — generalized; the speculation
    worker pool's clocks (float seconds) live here.
    """

    def __init__(self, count: int, start: float = 0.0) -> None:
        if count < 1:
            raise ValueError("a LaneSet needs at least one lane")
        self.lanes: List[Lane] = [Lane(i, clock=start) for i in range(count)]
        self._origin = start
        self._seq = 0

    def __len__(self) -> int:
        return len(self.lanes)

    # -- deterministic selection ----------------------------------------

    def least_loaded(self) -> Lane:
        """Lane with the lowest clock; ties break by lane id."""
        return min(self.lanes, key=lambda lane: (lane.clock, lane.lane_id))

    def dispatch(self, cost: float, not_before: float = 0.0,
                 payload: object = None) -> Completion:
        """Assign one job to the least-loaded lane.

        The job starts at ``max(not_before, lane.clock)`` — exactly the
        legacy worker-pool rule; replaying dispatches replays
        completions.
        """
        lane = self.least_loaded()
        start = max(not_before, lane.clock)
        finish = lane.advance(start, cost)
        completion = Completion(seq=self._seq, lane_id=lane.lane_id,
                                start=start, finish=finish, cost=cost,
                                payload=payload)
        self._seq += 1
        return completion

    # -- aggregate views -------------------------------------------------

    @property
    def clocks(self) -> List[float]:
        return [lane.clock for lane in self.lanes]

    def makespan(self) -> float:
        """Span from the origin to the last lane's clock."""
        return max(lane.clock for lane in self.lanes) - self._origin

    def lane_utilization_permille(self) -> List[int]:
        span = self.makespan()
        if span <= 0:
            return [0] * len(self.lanes)
        return [int(round(1000 * lane.busy / span)) for lane in self.lanes]

    def snapshot(self) -> List[Tuple[int, float, int]]:
        """Deterministic (lane_id, clock, jobs) view for reports."""
        return [(lane.lane_id, lane.clock, lane.jobs)
                for lane in self.lanes]
