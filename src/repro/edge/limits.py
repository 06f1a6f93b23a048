"""Admission limits for the serving edge: deadlines, rate limits,
bulkheads, and the client retry budget.

Everything is denominated in the reproduction's deterministic
currencies — cost units for work, simulated seconds for time — and
every random draw (retry jitter) comes from seeded per-client RNG
streams, so two runs of the same scenario are byte-identical.

* :class:`Deadline` — a cost-unit budget stamped at admission and
  carried through the request's whole lifetime (queueing, handler
  execution, retries).  Work whose deadline has expired is *cancelled*,
  never executed.
* :class:`TokenBucket` — per-client rate limiting with deterministic
  continuous refill on the simulated clock.
* :class:`Bulkhead` — one bounded single-server queue per method.  The
  queue is resolved lazily in arrival order: the server's availability
  clock advances by each executed request's cost units, so queue wait
  and service latency are exact deterministic quantities, and a full
  queue is an *explicit* backpressure signal rather than unbounded
  memory growth.
* :class:`RetryBudget` — client-side retry discipline: bounded
  attempts, exponential backoff with seeded jitter, and a global retry
  token pool so storms of retries cannot amplify an overload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.utils.hashing import hash_words, keccak_int
from repro.utils.lru import LruMap

#: Bound on live per-client state at the edge — token buckets and
#: retry jitter streams (LRU-evicted beyond it; an evicted client that
#: returns is rebuilt from its seeded initial state).
CLIENT_STATE_CAPACITY = 4096


@dataclass(frozen=True)
class Deadline:
    """A request deadline: absolute simulated-seconds expiry.

    ``budget_units`` records the original cost-unit budget the client
    attached (for reporting); ``expires_at`` is the absolute simulated
    time it translates to at the edge's service rate.  Retries carry
    the *original* deadline — backing off never buys more time.
    """

    expires_at: float
    budget_units: int

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    @classmethod
    def from_budget(cls, now: float, budget_units: int,
                    service_rate: float) -> "Deadline":
        return cls(expires_at=now + budget_units / service_rate,
                   budget_units=budget_units)


class TokenBucket:
    """Deterministic token bucket on the simulated clock."""

    __slots__ = ("capacity", "refill_per_second", "tokens", "updated")

    def __init__(self, capacity: float, refill_per_second: float) -> None:
        self.capacity = capacity
        self.refill_per_second = refill_per_second
        self.tokens = capacity
        self.updated = 0.0

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self.updated) * self.refill_per_second)
            self.updated = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def level(self, now: float) -> float:
        self._refill(now)
        return self.tokens


class Bulkhead:
    """One bounded single-server FIFO queue (per-method isolation).

    The server is modelled by an availability clock in simulated
    seconds; each admitted request occupies it for ``cost / rate``
    seconds.  Because arrivals are processed in global time order, a
    request's start time — and therefore its queue wait, its deadline
    fate, and the queue depth any later arrival observes — is exact at
    admission time.  ``depth(now)`` counts requests whose service has
    not finished by ``now``; admission beyond ``capacity`` is refused
    (the explicit backpressure signal).
    """

    __slots__ = ("method", "capacity", "service_rate", "free_at",
                 "_inflight")

    def __init__(self, method: str, capacity: int,
                 service_rate: float) -> None:
        self.method = method
        self.capacity = capacity
        self.service_rate = service_rate
        #: Simulated time the server becomes idle.
        self.free_at = 0.0
        #: Finish times of queued/in-service requests (ascending).
        self._inflight: List[float] = []

    def depth(self, now: float) -> int:
        """Requests still queued or in service at ``now``."""
        while self._inflight and self._inflight[0] <= now:
            self._inflight.pop(0)
        return len(self._inflight)

    def has_room(self, now: float) -> bool:
        return self.depth(now) < self.capacity

    def start_time(self, now: float) -> float:
        """When a request admitted at ``now`` would begin service."""
        return max(now, self.free_at)

    def occupy(self, now: float, cost_units: float) -> Tuple[float, float]:
        """Admit one request costing ``cost_units``; returns
        ``(start, finish)`` in simulated seconds and advances the
        server clock."""
        start = self.start_time(now)
        finish = start + cost_units / self.service_rate
        self.free_at = finish
        self._inflight.append(finish)
        return start, finish


@dataclass
class RetryConfig:
    """Client retry discipline (deterministic)."""

    max_attempts: int = 3
    #: Simulated seconds before the first retry.
    base_backoff_seconds: float = 0.25
    backoff_factor: float = 2.0
    #: Uniform jitter fraction applied to each backoff (seeded draw).
    jitter_fraction: float = 0.5
    #: Global retry token pool: one token per retry, refilled by a
    #: fraction of each *successful* first-attempt response.  Bounds
    #: total retry amplification under sustained overload.
    budget_tokens: float = 64.0
    budget_refill_per_success: float = 0.1


class RetryBudget:
    """Retry bookkeeping shared by all simulated clients.

    Per-client jitter streams are seeded from ``(seed, client_id)`` so
    a client's draws depend only on its own retry sequence — adding or
    removing another client's traffic never perturbs them.
    """

    def __init__(self, config: Optional[RetryConfig] = None,
                 seed: int = 0) -> None:
        self.config = config or RetryConfig()
        self.seed = seed
        self.tokens = self.config.budget_tokens
        self.spent = 0
        self.denied = 0
        self._rngs = LruMap(CLIENT_STATE_CAPACITY)

    def _rng(self, client_id: int) -> random.Random:
        rng = self._rngs.get(client_id)
        if rng is None:
            rng = random.Random(hash_words(
                (self.seed, keccak_int(b"edge.retry"), client_id)))
            self._rngs.set(client_id, rng)
        return rng

    def on_success(self) -> None:
        self.tokens = min(self.config.budget_tokens,
                          self.tokens + self.config.budget_refill_per_success)

    def next_retry(self, client_id: int, attempt: int,
                   now: float, deadline: Deadline
                   ) -> Optional[float]:
        """Schedule a retry, or None when the budget says stop.

        ``attempt`` is 1-based (the attempt that just failed).  The
        retry fires at ``now + backoff + jitter`` and still carries the
        original ``deadline`` — a retry that could only land after
        expiry is not scheduled at all.
        """
        config = self.config
        if attempt >= config.max_attempts:
            return None
        if self.tokens < 1.0:
            self.denied += 1
            return None
        backoff = (config.base_backoff_seconds
                   * (config.backoff_factor ** (attempt - 1)))
        jitter = self._rng(client_id).uniform(
            0.0, config.jitter_fraction * backoff)
        at = now + backoff + jitter
        if deadline.expired(at):
            return None
        self.tokens -= 1.0
        self.spent += 1
        return at
