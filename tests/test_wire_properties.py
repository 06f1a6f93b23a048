"""Property-based wire-plane validation (hypothesis).

Three universally-quantified claims behind the wire plane:

* **Exactly-once, order-preserving delivery** — for ANY seeded
  hostile-network plan (drop/duplicate/reorder at any rates) and ANY
  interleaving of sends with flush barriers, every (sender, channel)
  stream is delivered to its receiver exactly once, in send order,
  with no retry state left behind.
* **Lease safety** — for ANY sequence of vote/tally/grant operations
  that respects the protocol (grant only on a quorum tally), the
  registry never records two holders for one term.  The one-vote
  ledger makes a second majority impossible by intersection; the
  property test drives randomized elections to hunt for a
  counterexample.
* **Transaction codec round-trip** — for ANY transaction,
  ``tx_from_wire(tx_to_wire(tx))`` through the canonical-JSON frame
  has the same hash: the one codec journals, gossip, pool sync and
  speculation dispatch all share loses nothing the hash covers.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction, tx_from_wire, tx_to_wire
from repro.core.node import ForerunnerNode
from repro.errors import ChainError, SimulationError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.sites import NET_LOSS_SITES
from repro.fleet.lease import LeaseRegistry
from repro.fleet import wire
from repro.fleet.wire import WireConfig, WirePlane
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry


@st.composite
def hostile_plans(draw):
    """A seeded fault plan over a random subset of the loss sites at a
    random rate — from pristine to total loss."""
    sites = tuple(draw(st.sets(st.sampled_from(NET_LOSS_SITES), min_size=1)))
    probability = draw(st.sampled_from((0.05, 0.25, 0.5, 1.0)))
    seed = draw(st.integers(0, 2**16))
    return FaultPlan.uniform(seed, probability, sites=sorted(sites))


@st.composite
def send_scripts(draw):
    """A random interleaving of sends across 2 senders x 2 channels,
    with flush barriers sprinkled between them."""
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        if draw(st.integers(0, 4)) == 0:
            ops.append(("flush",))
        else:
            ops.append(("send", draw(st.integers(0, 1)),
                        draw(st.sampled_from(("a", "b")))))
    return ops


@given(plan=hostile_plans(), script=send_scripts())
@settings(max_examples=60, deadline=None)
def test_exactly_once_order_preserving(plan, script):
    with mock.patch.object(wire, "INFLIGHT_CAPACITY", 128), \
            mock.patch.object(wire, "HOLDBACK_CAPACITY", 32):
        plane = WirePlane(WireConfig(),
                          injector=FaultInjector(plan,
                                                 registry=MetricsRegistry()),
                          registry=MetricsRegistry())
        effects = {}

        def receiver(src, channel):
            effects[(src, channel)] = bucket = []

            def handler(payload, attachment, at):
                bucket.append(payload["n"])

            return handler

        for src in (0, 1):
            for channel in ("a", "b"):
                plane.register(9, channel + str(src), receiver(src, channel))

        sent = {(src, ch): [] for src in (0, 1) for ch in ("a", "b")}
        now = 0.0
        serial = 0
        for op in script:
            now += 0.1
            if op[0] == "flush":
                plane.flush(now)
                continue
            _, src, channel = op
            plane.send(src, 9, channel + str(src), {"n": serial}, now=now)
            sent[(src, channel)].append(serial)
            serial += 1
        plane.flush(now + 1.0)

        for key, expected in sent.items():
            assert effects[key] == expected
        assert len(plane._inflight) == 0
        summary = plane.summary()
        assert summary["effects"] == serial


@st.composite
def elections(draw):
    """A randomized multi-term election: per term, members vote for
    candidates chosen by a (possibly conflicting) preference draw."""
    members = tuple(range(draw(st.integers(2, 7))))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        # Each member independently picks a candidate — adversarial
        # schedules where votes split across many candidates included.
        terms.append([(member, draw(st.sampled_from(members)))
                      for member in members])
    return members, terms


@given(election=elections())
@settings(max_examples=100, deadline=None)
def test_lease_single_holder_per_term(election):
    members, terms = election
    quorum = len(members) // 2 + 1
    lease = LeaseRegistry(lease_seconds=6.0)
    now = 0.0
    for ballots in terms:
        term = lease.open_term()
        tally = {}
        for member, candidate in ballots:
            if lease.cast_vote(term, member, candidate):
                lease.record_grant(term, candidate, member)
                tally[candidate] = tally.get(candidate, 0) + 1
        # Every candidate that believes it won claims the lease; at
        # most one can have a real quorum, and the registry must
        # reject any impostor.
        winners = [c for c in sorted(tally) if tally[c] >= quorum]
        assert len(winners) <= 1
        for candidate in sorted(tally):
            if len(lease.tally(term, candidate)) >= quorum:
                lease.grant(term, candidate, now)
        now += 1.0
    lease.assert_single_holder_per_term()
    # At most one lease per term ever granted.
    assert len(lease.leases) == len(
        {grant.term for grant in lease.history})


@given(election=elections(), forged=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_lease_rejects_grant_without_quorum_intersection(election,
                                                         forged):
    """A candidate that claims a term some other candidate already won
    is always rejected — even when its (minority) tally is non-zero."""
    members, terms = election
    quorum = len(members) // 2 + 1
    lease = LeaseRegistry(lease_seconds=6.0)
    for ballots in terms:
        term = lease.open_term()
        for member, candidate in ballots:
            if lease.cast_vote(term, member, candidate):
                lease.record_grant(term, candidate, member)
        granted = None
        for candidate in sorted(set(c for _, c in ballots)):
            if len(lease.tally(term, candidate)) >= quorum:
                lease.grant(term, candidate, 0.0)
                granted = candidate
                break
        if granted is not None and forged % len(members) != granted:
            with pytest.raises(SimulationError):
                lease.grant(term, forged % len(members), 0.0)
    lease.assert_single_holder_per_term()


# -- the transaction wire codec ---------------------------------------------

_WORD = st.integers(0, 2**256 - 1)
_ADDRESS = st.integers(0, 2**160 - 1)


@settings(max_examples=200, deadline=None)
@given(sender=_ADDRESS, to=_ADDRESS, data=st.binary(max_size=256),
       value=_WORD, gas_price=_WORD, gas_limit=st.integers(0, 2**64),
       nonce=st.integers(0, 2**64))
def test_tx_codec_round_trips_through_the_canonical_frame(
        sender, to, data, value, gas_price, gas_limit, nonce):
    tx = Transaction(sender=sender, to=to, data=data, value=value,
                     gas_price=gas_price, gas_limit=gas_limit,
                     nonce=nonce)
    frame = canonical_json(tx_to_wire(tx))
    decoded = tx_from_wire(json.loads(frame))
    assert decoded.hash == tx.hash
    assert decoded == tx
    assert canonical_json(tx_to_wire(decoded)) == frame


def test_spec_job_delivery_asserts_hash_fidelity():
    """The speculation-dispatch seam both planes share: a job frame
    reconstructs its transaction, and a corrupted frame is refused."""
    plane = ForerunnerNode(registry=MetricsRegistry()).spec_plane
    tx = Transaction(sender=0xA1, to=0xB1, data=b"\x01\x02", nonce=3)
    payload = json.loads(canonical_json(plane.serialize_job(tx)))
    assert plane.deliver_job(payload) == tx
    payload["tx"]["nonce"] += 1
    with pytest.raises(ChainError):
        plane.deliver_job(payload)
