"""Wire-plane units: exactly-once ordered delivery, retry/escalation,
bounded link state (the 10^4-message soak), partitions, the failure
detector, the warmth tracker, and the lease registry's safety math.

Integration-level proofs live in ``tests/test_fleet_equivalence.py``
(clean byte-identity with the single node) and
``tests/test_fleet_wire.py`` (net chaos containment, partition-driven
lease elections).
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.sites import (
    SITE_NET_DROP,
    SITE_NET_DUPLICATE,
    SITE_NET_REORDER,
)
from repro.fleet import wire
from repro.fleet.lease import LeaseRegistry
from repro.fleet.wire import (
    Envelope,
    FailureDetector,
    WarmthTracker,
    WireConfig,
    WirePlane,
)
from repro.obs.registry import MetricsRegistry


def make_plane(plan=None):
    config = WireConfig()
    if plan is not None:
        injector = FaultInjector(plan, registry=MetricsRegistry())
    else:
        from repro.faults.injector import NULL_INJECTOR
        injector = NULL_INJECTOR
    return WirePlane(config, injector=injector,
                     registry=MetricsRegistry())


def collect(plane, dst, channel):
    """Register a list-appending handler; returns the effect list."""
    effects = []

    def handler(payload, attachment, at):
        effects.append((payload["i"], attachment, at))

    plane.register(dst, channel, handler)
    return effects


class TestCleanDelivery:
    def test_fifo_exactly_once(self):
        plane = make_plane()
        effects = collect(plane, 1, "ch")
        for i in range(10):
            plane.send(0, 1, "ch", {"i": i}, now=float(i))
        plane.flush(10.0)
        assert [e[0] for e in effects] == list(range(10))
        # Every reliable message was acked — no retry state remains.
        assert len(plane._inflight) == 0
        assert plane.c_retries.value == 0
        assert plane.c_dedup.value == 0

    def test_clean_network_zero_latency(self):
        """On a clean network the flush micro-clock never advances:
        effects land at the send-time barrier."""
        plane = make_plane()
        effects = collect(plane, 1, "ch")
        plane.send(0, 1, "ch", {"i": 0}, now=3.5)
        clock = plane.flush(3.5)
        assert clock == 3.5
        assert effects == [(0, None, 3.5)]

    def test_attachment_rides_outside_frame(self):
        """Data plane by reference: the attachment is delivered as-is
        while the control payload round-trips through canonical JSON."""
        plane = make_plane()
        effects = collect(plane, 1, "ch")
        blob = object()
        env = plane.send(0, 1, "ch", {"i": 7}, now=0.0, attachment=blob)
        plane.flush(0.0)
        assert effects[0][1] is blob
        assert '"payload": {"i": 7}' not in env.framed()  # canonical:
        assert '"payload":{"i":7}' in env.framed()  # compact separators

    def test_sequences_are_per_link_and_channel(self):
        plane = make_plane()
        a = plane.send(0, 1, "ch", {"i": 0}, now=0.0)
        b = plane.send(0, 1, "other", {"i": 0}, now=0.0)
        c = plane.send(0, 2, "ch", {"i": 0}, now=0.0)
        d = plane.send(0, 1, "ch", {"i": 1}, now=0.0)
        assert (a.seq, b.seq, c.seq, d.seq) == (0, 0, 0, 1)

    def test_missing_handler_is_an_error(self):
        plane = make_plane()
        plane.send(0, 9, "nowhere", {"i": 0}, now=0.0)
        with pytest.raises(SimulationError):
            plane.flush(0.0)


class TestHostileDelivery:
    def test_full_drop_converges_by_escalation(self):
        """p=1.0 drop: every first transmission is lost; retransmits
        escalate past fault evaluation and the stream still arrives
        exactly once, in order."""
        plan = FaultPlan.uniform(0, 1.0, sites=(SITE_NET_DROP,))
        plane = make_plane(plan)
        effects = collect(plane, 1, "ch")
        for i in range(20):
            plane.send(0, 1, "ch", {"i": i}, now=0.0)
        plane.flush(0.0)
        assert [e[0] for e in effects] == list(range(20))
        assert plane.c_retries.value > 0
        assert plane.c_escalations.value >= 20
        assert len(plane._inflight) == 0

    def test_full_duplication_dedups(self):
        plan = FaultPlan.uniform(0, 1.0, sites=(SITE_NET_DUPLICATE,))
        plane = make_plane(plan)
        effects = collect(plane, 1, "ch")
        for i in range(20):
            plane.send(0, 1, "ch", {"i": i}, now=0.0)
        plane.flush(0.0)
        assert [e[0] for e in effects] == list(range(20))
        assert plane.c_dedup.value > 0

    def test_reorder_holds_back_future_sequences(self):
        plan = FaultPlan.uniform(1, 0.5, sites=(SITE_NET_REORDER,))
        plane = make_plane(plan)
        effects = collect(plane, 1, "ch")
        for i in range(30):
            plane.send(0, 1, "ch", {"i": i}, now=0.0)
        plane.flush(0.0)
        assert [e[0] for e in effects] == list(range(30))
        assert plane.c_held.value > 0
        assert plane.holdback_high_water > 0

    def test_unreliable_newest_wins(self):
        plane = make_plane()
        effects = collect(plane, 1, "hb")
        for i in range(3):
            plane.send(0, 1, "hb", {"i": i}, now=float(i),
                       reliable=False)
        plane.flush(3.0)
        # Forge a stale (already superseded) copy arriving late.
        stale = Envelope(src=0, dst=1, channel="hb", seq=0,
                         generation=0, payload={"i": 0}, reliable=False)
        plane.sim.transmit(stale, 4.0)
        plane.flush(4.0)
        assert [e[0] for e in effects] == [0, 1, 2]
        assert plane.c_dedup.value == 1
        # Unreliable sends never occupy retry state.
        assert len(plane._inflight) == 0

    def test_partition_parks_and_heal_delivers(self):
        plane = make_plane()
        effects = collect(plane, 1, "ch")
        plane.partition({1}, now=0.0, seconds=10.0)
        plane.send(0, 1, "ch", {"i": 0}, now=0.0)
        plane.flush(0.0)
        assert effects == []
        assert plane.sim.parked_count == 1
        # The cut link is excluded from retries — flush quiesces.
        assert plane.c_retries.value == 0
        plane.heal(5.0)
        plane.flush(5.0)
        assert [e[0] for e in effects] == [0]
        assert plane.sim.parked_count == 0

    def test_reset_peer_clears_link_state(self):
        plane = make_plane()
        collect(plane, 1, "ch")
        collect(plane, 2, "ch")
        plane.send(0, 1, "ch", {"i": 0}, now=0.0)
        plane.send(0, 2, "ch", {"i": 0}, now=0.0)
        plane.flush(0.0)
        assert plane._next_seq[(0, 1, "ch")] == 1
        plane.reset_peer(1)
        assert (0, 1, "ch") not in plane._next_seq
        assert (0, 1, "ch") not in plane._recv
        # The untouched peer keeps its window.
        assert plane._next_seq[(0, 2, "ch")] == 1


class TestSoakBounds:
    """Satellite: the per-link in-flight and dedup-window maps are
    LruMap-bounded — a 10^4-message lossy soak cannot grow memory."""

    def test_soak_10k_messages_bounded_and_ordered(self, monkeypatch):
        monkeypatch.setattr(wire, "INFLIGHT_CAPACITY", 256)
        monkeypatch.setattr(wire, "HOLDBACK_CAPACITY", 64)
        plan = FaultPlan.uniform(3, 0.05, sites=(
            SITE_NET_DROP, SITE_NET_DUPLICATE, SITE_NET_REORDER))
        plane = make_plane(plan)
        receivers = {dst: collect(plane, dst, "soak")
                     for dst in range(1, 5)}
        total = 10_000
        for i in range(total):
            dst = 1 + (i % 4)
            plane.send(0, dst, "soak", {"i": i}, now=float(i) * 0.01)
            if i % 50 == 49:
                plane.flush(float(i) * 0.01)
        plane.flush(float(total) * 0.01)
        # Exactly-once, order-preserving per (sender, channel) stream.
        for dst, effects in receivers.items():
            expected = [i for i in range(total) if 1 + (i % 4) == dst]
            assert [e[0] for e in effects] == expected
        # Bounded state: high-water marks respect the LruMap caps and
        # nothing is left in flight after the final settle.
        summary = plane.summary()
        assert summary["inflight_high_water"] <= 256
        assert summary["holdback_high_water"] <= 64
        assert len(plane._inflight) == 0
        assert len(plane._recv) == 4
        assert summary["delivered"] == summary["effects"] == total
        assert summary["retries"] > 0
        assert summary["dedup_dropped"] > 0


class TestFailureDetector:
    def test_silence_makes_suspects(self):
        detector = FailureDetector(suspect_after=5.0, members=(0, 1, 2))
        detector.heard(0, 4.0)
        detector.heard(1, 4.0)
        assert detector.suspects(8.0, (0, 1, 2)) == [2]
        assert detector.suspects(9.5, (0, 1, 2)) == [0, 1, 2]

    def test_fresh_incarnation_flags_restart(self):
        detector = FailureDetector(suspect_after=5.0, members=(0,))
        assert detector.heard(0, 1.0, incarnation=0) is True
        assert detector.heard(0, 2.0, incarnation=0) is False
        assert detector.heard(0, 3.0, incarnation=1) is True

    def test_heard_never_goes_backwards(self):
        detector = FailureDetector(suspect_after=5.0, members=(0,))
        detector.heard(0, 4.0)
        detector.heard(0, 2.0)  # a healed, late heartbeat
        assert detector.last_seen[0] == 4.0


class TestWarmthTracker:
    def test_ewma_and_snapshot(self):
        tracker = WarmthTracker(alpha=0.5)
        assert tracker.warmth(0) == 0.0
        tracker.update(0, 1.0)
        tracker.update(0, 0.0)
        assert tracker.warmth(0) == pytest.approx(0.5)
        tracker.update(1, 0.25)
        assert tracker.snapshot() == {0: 0.5, 1: 0.25}


class TestLeaseRegistry:
    def test_one_vote_per_member_per_term(self):
        lease = LeaseRegistry(lease_seconds=6.0)
        term = lease.open_term()
        assert lease.cast_vote(term, member=0, candidate=1)
        assert not lease.cast_vote(term, member=0, candidate=2)
        assert lease.cast_vote(term, member=0, candidate=1)
        assert lease.denied_votes == 1

    def test_quorum_grant_and_validity(self):
        lease = LeaseRegistry(lease_seconds=6.0)
        term = lease.open_term()
        for member in (0, 1, 2):
            lease.cast_vote(term, member, candidate=1)
            lease.record_grant(term, 1, member)
        granted = lease.grant(term, 1, now=10.0)
        assert granted.votes == (0, 1, 2)
        assert lease.valid(1, 12.0)
        assert not lease.valid(1, 16.0)  # expired
        assert not lease.valid(2, 12.0)  # wrong holder
        assert lease.remaining(12.0) == pytest.approx(4.0)

    def test_split_brain_grant_is_impossible(self):
        lease = LeaseRegistry(lease_seconds=6.0)
        term = lease.open_term()
        lease.grant(term, 1, now=0.0)
        with pytest.raises(SimulationError):
            lease.grant(term, 2, now=0.0)
        # Same-holder re-grant is the idempotent path, not an error.
        assert lease.grant(term, 1, now=1.0).holder == 1
        lease.assert_single_holder_per_term()

    def test_oracle_checks_ledger_backing(self):
        lease = LeaseRegistry(lease_seconds=6.0)
        term = lease.open_term()
        for member in (0, 1):
            lease.cast_vote(term, member, candidate=0)
            lease.record_grant(term, 0, member)
        lease.grant(term, 0, now=0.0)
        lease.assert_single_holder_per_term()
        # Tamper: claim a vote the ledger never recorded.
        lease.votes[term].pop(1)
        with pytest.raises(SimulationError):
            lease.assert_single_holder_per_term()
