"""Admission control and backpressure for speculation dispatch.

Replaces the ad-hoc dispatch loop in ``ForerunnerNode.run_speculation``:
every (transaction, context) pair becomes a :class:`SpeculationRequest`
scored by ``predicted-hit-likelihood × gas price`` (the likelihood is a
per-contract EWMA of past merge outcomes, neutral prior 1.0), ordered
stably by ``(-score, seq)``, and cut against deterministic budgets —
per-(tx, head) and total context caps (moved here from the node), a
per-head job budget and a per-cycle queue capacity.  Overflow is
*deferred* into a bounded carry-over queue (drained first next cycle)
and, beyond that, *dropped*; both outcomes are counted, deterministic,
and reported by ``repro report --sched``.

The same controller owns the bounded prefetch queue (ISSUE satellite):
merge-produced prefetch requests are enqueued, dropped lowest-score
first on overflow, and drained FIFO by the node — so prefetch can no
longer grow unboundedly ahead of the speculator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.consensus.packing import priority_key
from repro.faults.injector import NULL_INJECTOR
from repro.obs.registry import MetricsRegistry, get_registry

#: Hard cap on contexts speculated per transaction across heads.
MAX_TOTAL_CONTEXTS = 16
#: Hard cap on speculation jobs dispatched per head.  Generous (the
#: per-tx context caps bind first in the simulated workloads) but a
#: real bound under tx floods.
MAX_JOBS_PER_HEAD = 4096
#: Requests dispatched in one speculation cycle; overflow is deferred
#: (up to :data:`DEFER_CAPACITY`), then dropped.
QUEUE_CAPACITY = 1024
#: Bounded carry-over queue between cycles.
DEFER_CAPACITY = 2048
#: Bounded prefetch request queue: prefetch cannot grow unboundedly
#: ahead of the speculator.
PREFETCH_QUEUE_CAPACITY = 4096


@dataclass
class SpeculationRequest:
    """One admitted (transaction, context) speculation job."""

    tx: object
    context: object
    seq: int
    score: float
    head: int
    #: Absolute simulated-seconds expiry propagated from the serving
    #: edge (``None`` = no deadline).  Expired requests are cancelled
    #: at dispatch time — the speculation work is never performed.
    deadline: Optional[float] = None

    @property
    def order_key(self) -> Tuple[float, int]:
        return (-self.score, self.seq)


@dataclass
class PrefetchRequest:
    """One queued prefetch (the read-set union of a merged AP path)."""

    keys: tuple
    tx_sender: int
    tx_to: Optional[int]
    seq: int
    score: float


class HitLikelihoodEstimator:
    """Per-contract EWMA of speculation merge outcomes.

    A contract whose speculations keep merging successfully keeps a
    likelihood near 1.0; repeated failures decay it toward the floor
    (never to zero — every contract keeps a probe chance).  Purely
    deterministic: updates depend only on the observation sequence.
    """

    def __init__(self, alpha: float = 0.25, floor: float = 0.05) -> None:
        self.alpha = alpha
        self.floor = floor
        self._scores: Dict[Optional[int], float] = {}

    def likelihood(self, contract: Optional[int]) -> float:
        return self._scores.get(contract, 1.0)

    def observe(self, contract: Optional[int], success: bool) -> None:
        current = self._scores.get(contract, 1.0)
        target = 1.0 if success else 0.0
        updated = (1.0 - self.alpha) * current + self.alpha * target
        self._scores[contract] = max(self.floor, updated)

    def snapshot(self) -> Dict[str, float]:
        return {
            (f"{contract:#x}" if contract is not None else "none"):
                round(score, 6)
            for contract, score in sorted(
                self._scores.items(),
                key=lambda item: (item[0] is None, item[0]))
        }


class AdmissionController:
    """Deterministic budgets + priorities for speculation dispatch."""

    def __init__(self, max_contexts_per_head: int = 4,
                 registry: Optional[MetricsRegistry] = None,
                 injector=None,
                 breaker=None) -> None:
        self.max_contexts_per_head = max_contexts_per_head
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.breaker = breaker
        self.estimator = HitLikelihoodEstimator()
        obs = (registry or get_registry()).scope("admission")
        self.c_cycles = obs.counter("cycles")
        self.c_requested = obs.counter("requested")
        self.c_admitted = obs.counter("admitted")
        self.c_dispatched = obs.counter("dispatched")
        self.c_deferred = obs.counter("deferred")
        self.c_dropped = obs.counter("dropped")
        self.c_capped = obs.counter("capped")
        self.c_expired = obs.counter("expired")
        self.c_breaker_skipped = obs.counter("breaker_skipped")
        self.g_backlog = obs.gauge("backlog")
        self.c_prefetch_queued = obs.counter("prefetch.queued")
        self.c_prefetch_drained = obs.counter("prefetch.drained")
        self.c_prefetch_dropped = obs.counter("prefetch.dropped")
        self.g_prefetch_depth = obs.gauge("prefetch.depth")
        # Speculation caps (moved from the node; the node keeps
        # read-only property views for compatibility).
        self.spec_counts: Dict[Tuple[int, int], int] = {}
        self.total_spec: Dict[int, int] = {}
        self._per_head_dispatched: Dict[int, int] = {}
        self._deferred: List[SpeculationRequest] = []
        self._deferred_head: int = -1
        self._seq = 0
        self._prefetch_queue: List[PrefetchRequest] = []
        self._prefetch_seq = 0
        #: Per-transaction speculation deadlines (absolute simulated
        #: seconds), stamped by the serving edge at acceptance.
        self._deadlines: Dict[int, float] = {}

    # -- scoring ---------------------------------------------------------

    def score(self, tx) -> float:
        """Priority = predicted-hit-likelihood × gas price.

        Uses the packing layer's shared priority currency
        (:func:`repro.consensus.packing.priority_key`) so admission and
        block packing rank fees identically.
        """
        (_, neg_price) = priority_key(tx)
        return self.estimator.likelihood(tx.to) * float(-neg_price)

    def observe(self, contract: Optional[int], success: bool) -> None:
        self.estimator.observe(contract, success)

    # -- deadline propagation (from the serving edge) --------------------

    def set_deadline(self, tx_hash: int, expires_at: float) -> None:
        """Stamp a speculation deadline for ``tx_hash``.

        Requests admitted after this carry the deadline; once it
        passes, :meth:`allows_dispatch` cancels them (counted as
        ``expired``) instead of spending worker time on speculation
        whose requester has already given up.
        """
        self._deadlines[tx_hash] = expires_at

    # -- admission -------------------------------------------------------

    def has_backlog(self) -> bool:
        return bool(self._deferred) or bool(self._prefetch_queue)

    def admit(self, candidates: Sequence[Tuple[object, Sequence[object]]],
              head: int) -> List[SpeculationRequest]:
        """One admission cycle: score, order, and budget the requests.

        ``candidates`` is the prediction's ordered (tx, contexts) list.
        Returns the dispatch list for this cycle; overflow beyond the
        cycle's queue capacity is deferred (bounded) or dropped.
        Raises only when the ``sched.admit`` fault site fires — the
        node contains that with its guard (cycle skipped).
        """
        self.injector.maybe_raise("sched.admit", head=head)
        self.c_cycles.inc()
        requests: List[SpeculationRequest] = []
        # Deferred carry-over is re-admitted first; requests deferred
        # under an older head are stale (their contexts were built for
        # that head's state) and are dropped deterministically.
        if self._deferred:
            if self._deferred_head == head:
                requests.extend(self._deferred)
            else:
                self.c_dropped.inc(len(self._deferred))
            self._deferred = []
        budgeted = self._cap_filter(candidates, head)
        requests.extend(budgeted)
        requests.sort(key=lambda request: request.order_key)
        admitted = requests[:QUEUE_CAPACITY]
        overflow = requests[QUEUE_CAPACITY:]
        self.c_admitted.inc(len(admitted))
        self.defer(overflow, head)
        self.g_backlog.set(len(self._deferred))
        return admitted

    def _cap_filter(self, candidates, head: int
                    ) -> List[SpeculationRequest]:
        """Apply per-(tx, head) / total caps + breaker skips."""
        result: List[SpeculationRequest] = []
        for tx, contexts in candidates:
            head_key = (tx.hash, head)
            done_here = self.spec_counts.get(head_key, 0)
            done_total = self.total_spec.get(tx.hash, 0)
            if done_here >= self.max_contexts_per_head:
                self.c_capped.inc(len(contexts))
                continue
            if done_total >= MAX_TOTAL_CONTEXTS:
                self.c_capped.inc(len(contexts))
                continue
            if self.breaker is not None and not self.breaker.allows(tx.to):
                self.c_breaker_skipped.inc(len(contexts))
                continue
            allowance = self.max_contexts_per_head - done_here
            for context in list(contexts)[:allowance]:
                self.c_requested.inc()
                result.append(SpeculationRequest(
                    tx=tx, context=context, seq=self._seq,
                    score=self.score(tx), head=head,
                    deadline=self._deadlines.get(tx.hash)))
                self._seq += 1
        return result

    def release(self, tx_hash: int) -> int:
        """Forget everything admitted for ``tx_hash`` (reorg requeue).

        Clears the per-(tx, head) and total context caps and purges any
        deferred carry-over requests for the transaction.  Deferred
        entries carry scores computed under the abandoned head's state
        — re-dispatching them would speculate on a stale priority
        snapshot, so the next admission cycle must re-score the
        transaction from its fresh pool entry instead.  Returns the
        number of deferred requests purged.
        """
        self.total_spec.pop(tx_hash, None)
        self._deadlines.pop(tx_hash, None)
        for key in [key for key in self.spec_counts
                    if key[0] == tx_hash]:
            del self.spec_counts[key]
        before = len(self._deferred)
        if before:
            self._deferred = [request for request in self._deferred
                              if request.tx.hash != tx_hash]
            purged = before - len(self._deferred)
            if purged:
                self.c_dropped.inc(purged)
                self.g_backlog.set(len(self._deferred))
            return purged
        return 0

    def defer(self, requests: Iterable[SpeculationRequest],
              head: int) -> None:
        """Carry requests to the next cycle, bounded by
        :data:`DEFER_CAPACITY` (the rest is dropped, counted)."""
        pending = list(requests)
        if not pending:
            return
        room = DEFER_CAPACITY - len(self._deferred)
        keep, drop = pending[:max(room, 0)], pending[max(room, 0):]
        self._deferred.extend(keep)
        self._deferred_head = head
        self.c_deferred.inc(len(keep))
        self.c_dropped.inc(len(drop))
        self.g_backlog.set(len(self._deferred))

    def allows_dispatch(self, request: SpeculationRequest,
                        now: Optional[float] = None) -> bool:
        """Re-check caps at dispatch time (deferred requests were
        admitted a cycle earlier; caps may have filled since).

        With ``now``, an expired edge-propagated deadline cancels the
        request here — the speculation work is never performed.
        """
        if (now is not None and request.deadline is not None
                and now >= request.deadline):
            self.c_expired.inc()
            return False
        head_key = (request.tx.hash, request.head)
        if self.spec_counts.get(head_key, 0) >= self.max_contexts_per_head:
            return False
        if self.total_spec.get(request.tx.hash, 0) >= MAX_TOTAL_CONTEXTS:
            return False
        return not self.head_budget_exhausted(request.head)

    def note_dispatched(self, request: SpeculationRequest) -> None:
        """Record one actually-performed speculation (cap accounting —
        exactly where the legacy node incremented its counters)."""
        head_key = (request.tx.hash, request.head)
        self.spec_counts[head_key] = self.spec_counts.get(head_key, 0) + 1
        self.total_spec[request.tx.hash] = \
            self.total_spec.get(request.tx.hash, 0) + 1
        self._per_head_dispatched[request.head] = \
            self._per_head_dispatched.get(request.head, 0) + 1
        self.c_dispatched.inc()

    def head_budget_exhausted(self, head: int) -> bool:
        return (self._per_head_dispatched.get(head, 0)
                >= MAX_JOBS_PER_HEAD)

    # -- bounded prefetch queue (ISSUE satellite) ------------------------

    def queue_prefetch(self, keys, tx_sender: int, tx_to: Optional[int],
                       score: float) -> bool:
        """Enqueue one prefetch request; on overflow the lowest-score
        (newest-last) entry is dropped deterministically."""
        request = PrefetchRequest(keys=tuple(keys), tx_sender=tx_sender,
                                  tx_to=tx_to, seq=self._prefetch_seq,
                                  score=score)
        self._prefetch_seq += 1
        self._prefetch_queue.append(request)
        self.c_prefetch_queued.inc()
        dropped = False
        if len(self._prefetch_queue) > PREFETCH_QUEUE_CAPACITY:
            victim = max(self._prefetch_queue,
                         key=lambda r: (-r.score, r.seq))
            self._prefetch_queue.remove(victim)
            self.c_prefetch_dropped.inc()
            dropped = victim is request
        self.g_prefetch_depth.set(len(self._prefetch_queue))
        return not dropped

    def drain_prefetches(self) -> List[PrefetchRequest]:
        """Dequeue every queued request in FIFO (arrival) order —
        preserving the legacy prefetcher's cost accounting order."""
        batch = self._prefetch_queue
        self._prefetch_queue = []
        self.c_prefetch_drained.inc(len(batch))
        self.g_prefetch_depth.set(0)
        return batch

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Canonical, deterministic admission report payload."""
        return {
            "cycles": self.c_cycles.value,
            "requested": self.c_requested.value,
            "admitted": self.c_admitted.value,
            "dispatched": self.c_dispatched.value,
            "deferred": self.c_deferred.value,
            "dropped": self.c_dropped.value,
            "capped": self.c_capped.value,
            "expired": self.c_expired.value,
            "breaker_skipped": self.c_breaker_skipped.value,
            "backlog": len(self._deferred),
            "prefetch": {
                "queued": self.c_prefetch_queued.value,
                "drained": self.c_prefetch_drained.value,
                "dropped": self.c_prefetch_dropped.value,
                "depth": len(self._prefetch_queue),
            },
            "likelihood": self.estimator.snapshot(),
        }
