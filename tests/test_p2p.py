"""Gossip / latency model tests."""

import random

from repro.chain.transaction import Transaction
from repro.p2p.gossip import GossipNetwork
from repro.p2p.latency import LatencyModel


def test_latency_positive_and_varied():
    model = LatencyModel()
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(s > 0 for s in samples)
    assert len(set(round(s, 6) for s in samples)) > 100


def test_latency_heavy_tail_present():
    model = LatencyModel(tail_probability=0.2)
    rng = random.Random(2)
    samples = [model.sample(rng) for _ in range(2000)]
    assert max(samples) > 20.0
    median = sorted(samples)[len(samples) // 2]
    assert median < 4.0


def test_gossip_assigns_all_participants():
    network = GossipNetwork(miner_ids=[1, 2, 3], seed=5)
    network.add_observer("live")
    network.add_observer("replay", LatencyModel(median=3.0))
    tx = Transaction(sender=1, to=2, nonce=0)
    d = network.disseminate(tx, born=100.0)
    assert set(d.miner_arrivals) == {1, 2, 3}
    assert set(d.observer_arrivals) == {"live", "replay"}
    assert all(a >= 100.0 for a in d.miner_arrivals.values())


def test_private_tx_reaches_only_origin_miner():
    network = GossipNetwork(miner_ids=[1, 2], seed=5)
    network.add_observer("live")
    tx = Transaction(sender=1, to=2, nonce=0, origin_miner=2)
    d = network.disseminate(tx, born=10.0)
    assert d.miner_arrivals[2] == 10.0
    assert d.miner_arrivals[1] == float("inf")
    assert d.observer_arrivals["live"] == float("inf")


def test_observers_see_different_delays():
    network = GossipNetwork(miner_ids=[1], seed=5)
    network.add_observer("a")
    network.add_observer("b")
    tx = Transaction(sender=1, to=2, nonce=0)
    d = network.disseminate(tx, born=0.0)
    assert d.observer_arrivals["a"] != d.observer_arrivals["b"]


def _pinned_network():
    network = GossipNetwork(miner_ids=[1, 2, 3], seed=5)
    network.add_observer("live")
    return network


def test_arrivals_are_pinned_per_pair():
    """Arrival times are a pure function of (seed, tx, participant)."""
    a = _pinned_network().disseminate(
        Transaction(sender=1, to=2, nonce=0), born=100.0)
    b = _pinned_network().disseminate(
        Transaction(sender=1, to=2, nonce=0), born=100.0)
    assert a.miner_arrivals == b.miner_arrivals
    assert a.observer_arrivals == b.observer_arrivals


def test_adding_observer_does_not_perturb_miners():
    """Regression: with the shared-RNG stream, registering one more
    observer shifted every subsequent draw.  Per-pair seeding keeps
    miner (and existing-observer) arrivals identical."""
    tx = Transaction(sender=1, to=2, nonce=0)
    base = _pinned_network()
    extended = _pinned_network()
    extended.add_observer("extra")
    d_base = base.disseminate(tx, born=0.0)
    d_ext = extended.disseminate(tx, born=0.0)
    assert d_base.miner_arrivals == d_ext.miner_arrivals
    assert (d_base.observer_arrivals["live"]
            == d_ext.observer_arrivals["live"])


def test_private_tx_consumes_no_draws():
    """Regression: a private transaction used to consume zero draws
    while public ones consumed many, so the arrival of any later
    transaction depended on how many private ones preceded it."""
    public = Transaction(sender=3, to=4, nonce=0)
    private = Transaction(sender=5, to=6, nonce=0, origin_miner=2)
    alone = _pinned_network().disseminate(public, born=50.0)
    network = _pinned_network()
    network.disseminate(private, born=10.0)
    after = network.disseminate(public, born=50.0)
    assert alone.miner_arrivals == after.miner_arrivals
    assert alone.observer_arrivals == after.observer_arrivals


def test_dissemination_order_independent():
    """Disseminating transactions in a different order yields the same
    per-transaction arrivals."""
    tx_a = Transaction(sender=1, to=2, nonce=0)
    tx_b = Transaction(sender=2, to=3, nonce=0)
    forward = _pinned_network()
    fa = forward.disseminate(tx_a, born=0.0)
    fb = forward.disseminate(tx_b, born=0.0)
    backward = _pinned_network()
    bb = backward.disseminate(tx_b, born=0.0)
    ba = backward.disseminate(tx_a, born=0.0)
    assert fa.miner_arrivals == ba.miner_arrivals
    assert fb.miner_arrivals == bb.miner_arrivals
