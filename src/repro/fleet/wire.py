"""Deterministic wire plane: framed messaging between fleet replicas.

Speculation jobs, AP snapshots, pool syncs, gossip, block commits,
heartbeats and lease votes all travel between fleet replicas through
this module — the fleet's only inter-replica path — as a real message
protocol that stays byte-identical under a hostile network:

* every message is an :class:`Envelope` — canonical-JSON framed,
  per-(sender, destination, channel) sequence-numbered, and stamped
  with the shard-map generation at send time; delivery decodes the
  frame and hands the *decoded* payload to the handler, so the
  serialization seam is exercised on every single message (AP trees and
  block bodies ride as by-reference attachments — the data plane;
  the control plane is what crosses the wire);
* the :class:`NetworkSim` routes every transmission through the
  ``net.*`` fault sites (:mod:`repro.faults.sites`): seeded per-link
  ``drop`` / ``duplicate`` / ``reorder`` / ``delay`` behaviors, plus
  ``partition`` — an isolated replica set whose cross-cut traffic is
  *parked* and delivered on heal (payloads carry their logical
  timestamps, so healed deliveries apply effects at the original
  times);
* reliable channels get **at-least-once** delivery: un-acked messages
  retransmit under deadline-bounded exponential backoff (the edge
  ``RetryBudget`` discipline), and after ``escalate_after`` attempts a
  transmission *escalates* — it bypasses fault evaluation, the
  last-resort path that keeps even a p=1.0 drop sweep convergent;
* receivers turn at-least-once into **exactly-once, order-preserving**
  effects via per-(sender, channel) monotonic sequence windows: stale
  sequences are deduplicated, future sequences wait in a bounded
  hold-back buffer, and effects apply strictly in send order.  The
  in-flight and hold-back maps are bounded with the deterministic
  :class:`~repro.utils.lru.LruMap`, so a lossy link cannot grow
  memory without bound;
* :class:`FailureDetector` consumes the (unreliable) heartbeat channel
  and feeds ring ``leave``/``join`` decisions — membership follows
  *observed* silence, never a crash notification;
* :class:`WarmthTracker` folds the per-replica cache-warmth samples
  carried on heartbeats into an EWMA the router uses for
  warmth-weighted read placement.

Determinism: all fault draws come from the injector's seeded per-site
streams, delivery order is a heap keyed ``(deliver_at, counter)`` (FIFO
on a clean network), and retransmit backoff is a pure function of the
attempt count.  Time inside :meth:`WirePlane.flush` is a *micro-clock*:
it fast-forwards past retransmit backoffs without ever moving the
outer event clock, so a flush-to-quiescence barrier before each
speculation tick and each block leaves heard times, ``ready_at``
clocks, and every Table 2/3 column byte-identical to the single-node
serial run on a clean network.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SimulationError
from repro.faults.injector import NULL_INJECTOR
from repro.faults.sites import (
    SITE_NET_DELAY,
    SITE_NET_DROP,
    SITE_NET_DUPLICATE,
    SITE_NET_REORDER,
)
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.utils.lru import LruMap

#: The supervisor's network endpoint (block feed, gossip ingress,
#: heartbeat sink) — a node id that is never a replica id.
INGRESS = -1

#: Internal channel prefix for acknowledgements (never user-handled).
_ACK_CHANNEL = "#ack"

#: Hard bound on flush work (deliveries + retry rounds) — a pure
#: backstop: escalation guarantees quiescence long before this.
_FLUSH_GUARD = 1_000_000

#: Bounds on the per-link reliability state (LRU-evicted beyond):
#: un-acked envelopes across the plane, and out-of-order envelopes
#: held back per (receiver, sender, channel) window.
INFLIGHT_CAPACITY = 4096
HOLDBACK_CAPACITY = 512


@dataclass
class WireConfig:
    """Tunables for the wire plane (simulated seconds throughout)."""

    #: Heartbeat cadence (heartbeats ride the supervisor's ticks).
    heartbeat_interval: float = 2.0
    #: Silence before the failure detector declares a replica dead.
    suspect_after: float = 5.0
    #: Coordinator lease duration and the remaining-validity margin
    #: below which the holder renews (a fresh quorum round).
    lease_seconds: float = 6.0
    lease_renew_margin: float = 3.0
    #: Reliable-channel retransmit backoff (exponential, deterministic).
    retry_base_seconds: float = 0.25
    retry_factor: float = 2.0
    #: Transmission attempts before a message escalates (bypasses
    #: fault evaluation — the last-resort delivery path).
    escalate_after: int = 4
    #: Default ``net.delay`` latency and ``net.reorder`` displacement
    #: on the flush micro-clock (rule magnitude overrides).
    delay_seconds: float = 0.25
    reorder_seconds: float = 0.5
    #: Default ``net.partition`` duration (rule magnitude overrides).
    partition_seconds: float = 6.0
    #: EWMA factor for heartbeat-carried cache-warmth samples.
    warmth_alpha: float = 0.3


@dataclass
class Envelope:
    """One framed message (the unit every ``net.*`` fault acts on)."""

    src: int
    dst: int
    channel: str
    seq: int
    generation: int
    payload: dict
    frame: str = ""
    #: Data plane by reference: AP trees / block bodies / reports ride
    #: outside the JSON frame (the control plane is what is framed).
    attachment: object = None
    reliable: bool = True
    #: Escalated past fault evaluation (last-resort delivery).
    forced: bool = False

    def framed(self) -> str:
        if not self.frame:
            self.frame = canonical_json({
                "src": self.src, "dst": self.dst,
                "channel": self.channel, "seq": self.seq,
                "generation": self.generation, "payload": self.payload,
            })
        return self.frame


@dataclass
class _Inflight:
    """Sender-side retry state for one un-acked reliable envelope."""

    envelope: Envelope
    order: int
    attempts: int = 1
    next_retry: float = 0.0


class _RecvState:
    """Receiver-side (sender, channel) sequence window."""

    __slots__ = ("next_seq", "holdback")

    def __init__(self) -> None:
        self.next_seq = 0
        self.holdback = LruMap(HOLDBACK_CAPACITY)


class NetworkSim:
    """The seeded hostile network: per-transmission fault evaluation,
    a delivery heap, and partitions that park cross-cut traffic."""

    def __init__(self, config: WireConfig, injector=NULL_INJECTOR,
                 counters: Optional[Dict[str, object]] = None) -> None:
        self.config = config
        self.injector = injector
        self._queue: List[Tuple[float, int, Envelope]] = []
        self._counter = 0
        self._parked: List[Tuple[int, Envelope]] = []
        self.isolated: FrozenSet[int] = frozenset()
        self.partition_until: Optional[float] = None
        self.partitions = 0
        self.heals = 0
        #: Optional obs counters (name -> Counter) bumped per event.
        self.counters = counters or {}

    def _count(self, name: str) -> None:
        counter = self.counters.get(name)
        if counter is not None:
            counter.inc()

    # -- partitions ------------------------------------------------------

    def cut(self, a: int, b: int) -> bool:
        """Is the a<->b link severed by the active partition?"""
        if not self.isolated:
            return False
        return (a in self.isolated) != (b in self.isolated)

    def partition(self, replicas, now: float, seconds: float) -> None:
        self.isolated = frozenset(replicas)
        self.partition_until = now + seconds
        self.partitions += 1

    def heal(self, now: float) -> int:
        """End the partition; parked envelopes re-enter the delivery
        queue in their original send order, at ``now`` — their payloads
        carry the logical timestamps effects are applied at."""
        self.isolated = frozenset()
        self.partition_until = None
        released = 0
        for order, env in sorted(self._parked):
            self._counter += 1
            heapq.heappush(self._queue, (now, self._counter, env))
            released += 1
        self._parked = []
        self.heals += 1
        return released

    # -- transmission ----------------------------------------------------

    def transmit(self, env: Envelope, now: float,
                 stats: Optional[Dict[str, int]] = None) -> None:
        """Put one envelope on the wire (faults evaluated here)."""
        env.framed()
        if self.cut(env.src, env.dst):
            self._counter += 1
            self._parked.append((self._counter, env))
            self._count("parked")
            if stats is not None:
                stats["parked"] = stats.get("parked", 0) + 1
            return
        copies = 1
        extra_delay = 0.0
        if not env.forced and self.injector.enabled:
            ctx = {"channel": env.channel, "src": env.src,
                   "dst": env.dst, "seq": env.seq}
            if self.injector.evaluate(SITE_NET_DROP, **ctx) is not None:
                self._count("dropped")
                if stats is not None:
                    stats["dropped"] = stats.get("dropped", 0) + 1
                return
            if self.injector.evaluate(SITE_NET_DUPLICATE,
                                      **ctx) is not None:
                copies = 2
                self._count("duplicated")
                if stats is not None:
                    stats["duplicated"] = stats.get("duplicated", 0) + 1
            rule = self.injector.evaluate(SITE_NET_REORDER, **ctx)
            if rule is not None:
                extra_delay += (rule.magnitude
                                or self.config.reorder_seconds)
                self._count("reordered")
                if stats is not None:
                    stats["reordered"] = stats.get("reordered", 0) + 1
            rule = self.injector.evaluate(SITE_NET_DELAY, **ctx)
            if rule is not None:
                extra_delay += (rule.magnitude
                                or self.config.delay_seconds)
                self._count("delayed")
                if stats is not None:
                    stats["delayed"] = stats.get("delayed", 0) + 1
        for _ in range(copies):
            self._counter += 1
            heapq.heappush(self._queue,
                           (now + extra_delay, self._counter, env))

    def pop(self) -> Optional[Tuple[float, Envelope]]:
        if not self._queue:
            return None
        deliver_at, _, env = heapq.heappop(self._queue)
        return deliver_at, env

    @property
    def parked_count(self) -> int:
        return len(self._parked)


Handler = Callable[[dict, object, float], None]


class WirePlane:
    """Reliable, idempotent, ordered messaging over the hostile net."""

    def __init__(self, config: Optional[WireConfig] = None,
                 injector=NULL_INJECTOR,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config or WireConfig()
        registry = registry or MetricsRegistry()
        obs = registry.scope("net")
        self.sim = NetworkSim(self.config, injector, counters={
            "dropped": obs.counter("dropped"),
            "duplicated": obs.counter("duplicated"),
            "reordered": obs.counter("reordered"),
            "delayed": obs.counter("delayed"),
            "parked": obs.counter("parked"),
        })
        self.c_sent = obs.counter("sent")
        self.c_delivered = obs.counter("delivered")
        self.c_effects = obs.counter("effects")
        self.c_acks = obs.counter("acks")
        self.c_retries = obs.counter("retries")
        self.c_escalations = obs.counter("escalations")
        self.c_dedup = obs.counter("dedup_dropped")
        self.c_held = obs.counter("holdback_held")
        self.c_heartbeats = obs.counter("heartbeats")
        self._g_inflight = obs.gauge("inflight")
        self._handlers: Dict[Tuple[int, str], Handler] = {}
        self._next_seq: Dict[Tuple[int, int, str], int] = {}
        self._inflight = LruMap(INFLIGHT_CAPACITY)
        self._recv: Dict[Tuple[int, int, str], _RecvState] = {}
        self._order = 0
        #: Largest hold-back window seen (with ``_inflight.high_water``,
        #: the soak regression's evidence that a lossy link cannot grow
        #: memory without bound).
        self.holdback_high_water = 0
        #: Per-link delivery/retry/dedup ledger for reporting.
        self.links: Dict[Tuple[int, int, str], Dict[str, int]] = {}

    # -- registration ----------------------------------------------------

    def register(self, dst: int, channel: str, handler: Handler) -> None:
        self._handlers[(dst, channel)] = handler

    def reset_peer(self, replica_id: int) -> None:
        """A replica restarted: volatile link state on both ends of its
        links is gone.  Sequence windows restart from zero; effects are
        idempotent upstream (pool dedup, applied-block guards), so
        at-least-once redelivery stays safe."""
        self._next_seq = {key: seq for key, seq in self._next_seq.items()
                          if replica_id not in (key[0], key[1])}
        self._recv = {key: state for key, state in self._recv.items()
                      if replica_id not in (key[0], key[1])}
        stale = [key for key in self._inflight.keys()
                 if replica_id in (key[0], key[1])]
        for key in stale:
            self._inflight.pop(key)

    # -- sending ---------------------------------------------------------

    def _link(self, src: int, dst: int, channel: str) -> Dict[str, int]:
        link = self.links.get((src, dst, channel))
        if link is None:
            link = {}
            self.links[(src, dst, channel)] = link
        return link

    def send(self, src: int, dst: int, channel: str, payload: dict,
             now: float, attachment: object = None,
             reliable: bool = True) -> Envelope:
        key = (src, dst, channel)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        env = Envelope(src=src, dst=dst, channel=channel, seq=seq,
                       generation=self._generation(), payload=payload,
                       attachment=attachment, reliable=reliable)
        stats = self._link(src, dst, channel)
        stats["sent"] = stats.get("sent", 0) + 1
        self.c_sent.inc()
        if reliable:
            self._order += 1
            self._inflight.set(
                (src, dst, channel, seq),
                _Inflight(envelope=env, order=self._order,
                          next_retry=now + self.config.retry_base_seconds))
        self.sim.transmit(env, now, stats)
        return env

    #: Hook the supervisor overrides so envelopes carry the live
    #: shard-map generation.
    generation_source: Optional[Callable[[], int]] = None

    def _generation(self) -> int:
        if self.generation_source is not None:
            return self.generation_source()
        return 0

    # -- the flush-to-quiescence barrier ---------------------------------

    def flush(self, now: float) -> float:
        """Deliver everything deliverable, retrying un-acked reliable
        messages until the reachable world is quiescent.

        Returns the final micro-clock.  The micro-clock fast-forwards
        past retransmit backoffs; the caller's event clock is never
        moved — flush is a barrier, not a delay.
        """
        clock = now
        for _ in range(_FLUSH_GUARD):
            item = self.sim.pop()
            if item is not None:
                deliver_at, env = item
                clock = max(clock, deliver_at)
                self._receive(env, clock)
                continue
            due = self._retryable()
            if not due:
                self._g_inflight.set(len(self._inflight))
                return clock
            clock = max(clock, min(rec.next_retry for rec in due))
            for rec in sorted(due, key=lambda r: (r.next_retry, r.order)):
                if rec.next_retry <= clock:
                    self._retransmit(rec, clock)
        raise SimulationError("wire flush did not quiesce")

    def _retryable(self) -> List[_Inflight]:
        return [rec for _, rec in self._inflight.items()
                if not self.sim.cut(rec.envelope.src, rec.envelope.dst)]

    def _retransmit(self, rec: _Inflight, clock: float) -> None:
        rec.attempts += 1
        env = rec.envelope
        if rec.attempts >= self.config.escalate_after and not env.forced:
            env.forced = True
            self.c_escalations.inc()
            stats = self._link(env.src, env.dst, env.channel)
            stats["escalated"] = stats.get("escalated", 0) + 1
        rec.next_retry = clock + (
            self.config.retry_base_seconds
            * (self.config.retry_factor ** (rec.attempts - 1)))
        self.c_retries.inc()
        stats = self._link(env.src, env.dst, env.channel)
        stats["retries"] = stats.get("retries", 0) + 1
        self.sim.transmit(env, clock, stats)

    # -- receiving -------------------------------------------------------

    def _receive(self, env: Envelope, at: float) -> None:
        if env.channel == _ACK_CHANNEL:
            # Ack for (original sender=env.dst, receiver=env.src).
            acked = (env.dst, env.src, env.payload["channel"],
                     env.payload["seq"])
            if self._inflight.pop(acked) is not None:
                self.c_acks.inc()
            return
        state = self._recv.get((env.dst, env.src, env.channel))
        if state is None:
            state = _RecvState()
            self._recv[(env.dst, env.src, env.channel)] = state
        if env.reliable:
            self._ack(env, at)
        stats = self._link(env.src, env.dst, env.channel)
        if not env.reliable:
            # Unreliable window: newest wins, stale copies vanish.
            if env.seq < state.next_seq:
                self.c_dedup.inc()
                stats["dedup"] = stats.get("dedup", 0) + 1
                return
            state.next_seq = env.seq + 1
            self._deliver(env, at)
            return
        if env.seq < state.next_seq or env.seq in state.holdback:
            self.c_dedup.inc()
            stats["dedup"] = stats.get("dedup", 0) + 1
            return
        if env.seq > state.next_seq:
            state.holdback.set(env.seq, env)
            self.c_held.inc()
            self.holdback_high_water = max(self.holdback_high_water,
                                           len(state.holdback))
            return
        self._deliver(env, at)
        state.next_seq += 1
        while True:
            held = state.holdback.pop(state.next_seq)
            if held is None:
                break
            self._deliver(held, at)
            state.next_seq += 1

    def _ack(self, env: Envelope, at: float) -> None:
        ack = Envelope(src=env.dst, dst=env.src, channel=_ACK_CHANNEL,
                       seq=0, generation=env.generation,
                       payload={"channel": env.channel, "seq": env.seq},
                       reliable=False, forced=env.forced)
        self.sim.transmit(ack, at)

    def _deliver(self, env: Envelope, at: float) -> None:
        handler = self._handlers.get((env.dst, env.channel))
        if handler is None:
            raise SimulationError(
                f"no handler for channel {env.channel!r} at node "
                f"{env.dst}")
        # The effect is computed from the *decoded frame* — the
        # serialization seam is exercised on every delivery.
        decoded = json.loads(env.framed())
        self.c_delivered.inc()
        self.c_effects.inc()
        stats = self._link(env.src, env.dst, env.channel)
        stats["delivered"] = stats.get("delivered", 0) + 1
        handler(decoded["payload"], env.attachment, at)

    # -- partitions (supervisor-driven) ----------------------------------

    def partition(self, replicas, now: float, seconds: float) -> None:
        self.sim.partition(replicas, now, seconds)

    def heal(self, now: float) -> int:
        return self.sim.heal(now)

    @property
    def isolated(self) -> FrozenSet[int]:
        return self.sim.isolated

    def reachable(self, a: int, b: int) -> bool:
        return not self.sim.cut(a, b)

    # -- reporting -------------------------------------------------------

    def link_report(self) -> Dict[str, Dict[str, int]]:
        """Per-link delivery/retry/dedup counters, canonical keys."""
        report = {}
        for (src, dst, channel), stats in sorted(self.links.items()):
            report[f"{src}->{dst}:{channel}"] = dict(sorted(stats.items()))
        return report

    def summary(self) -> dict:
        return {
            "sent": self.c_sent.value,
            "delivered": self.c_delivered.value,
            "effects": self.c_effects.value,
            "acks": self.c_acks.value,
            "retries": self.c_retries.value,
            "escalations": self.c_escalations.value,
            "dedup_dropped": self.c_dedup.value,
            "holdback_held": self.c_held.value,
            "partitions": self.sim.partitions,
            "parked": self.sim.parked_count,
            "inflight_high_water": self._inflight.high_water,
            "holdback_high_water": self.holdback_high_water,
        }


class FailureDetector:
    """Heartbeat-silence detector feeding ring membership.

    ``heard`` consumes heartbeat deliveries; ``suspects`` names the
    replicas whose silence has exceeded ``suspect_after`` — membership
    decisions follow *observed* silence over the wire, never a crash
    notification."""

    def __init__(self, suspect_after: float,
                 members: Tuple[int, ...] = ()) -> None:
        self.suspect_after = suspect_after
        self.last_seen: Dict[int, float] = {rid: 0.0 for rid in members}
        self.incarnations: Dict[int, int] = {}

    def heard(self, replica_id: int, at: float,
              incarnation: int = 0) -> bool:
        """Record a heartbeat; returns True on a fresh incarnation
        (a restarted process announcing itself)."""
        fresh = self.incarnations.get(replica_id) != incarnation
        self.incarnations[replica_id] = incarnation
        previous = self.last_seen.get(replica_id)
        if previous is None or at > previous:
            self.last_seen[replica_id] = at
        return fresh

    def suspects(self, now: float, members) -> List[int]:
        return sorted(
            rid for rid in members
            if now - self.last_seen.get(rid, 0.0) >= self.suspect_after)


class WarmthTracker:
    """EWMA of heartbeat-carried cache-warmth samples per replica."""

    def __init__(self, alpha: float = 0.3) -> None:
        self.alpha = alpha
        self._ewma: Dict[int, float] = {}

    def update(self, replica_id: int, sample: float) -> float:
        previous = self._ewma.get(replica_id)
        if previous is None:
            value = sample
        else:
            value = self.alpha * sample + (1.0 - self.alpha) * previous
        self._ewma[replica_id] = value
        return value

    def warmth(self, replica_id: int) -> float:
        return self._ewma.get(replica_id, 0.0)

    def snapshot(self) -> Dict[int, float]:
        return {rid: round(value, 9)
                for rid, value in sorted(self._ewma.items())}
