"""Pending pool tests."""

import random

from repro.chain.transaction import Transaction
from repro.consensus.packing import pack_block
from repro.txpool.pool import TxPool


def tx(sender=1, nonce=0, price=100, origin_miner=None):
    return Transaction(sender=sender, to=0xC, nonce=nonce,
                       gas_price=price, origin_miner=origin_miner)


def test_add_and_lookup():
    pool = TxPool()
    t = tx()
    assert pool.add(t, now=1.0)
    assert t.hash in pool
    assert len(pool) == 1
    assert pool.arrival_times[t.hash] == 1.0


def test_same_nonce_replacement_requires_higher_price():
    pool = TxPool()
    low = tx(price=100)
    high = tx(price=200)
    equal = tx(price=200)
    pool.add(low)
    assert pool.add(high)
    assert low.hash not in pool
    assert not pool.add(equal)  # not strictly higher
    assert len(pool) == 1


def test_remove():
    pool = TxPool()
    t = tx()
    pool.add(t)
    assert pool.remove(t.hash) is t
    assert pool.remove(t.hash) is None
    assert len(pool) == 0


def test_remove_all():
    pool = TxPool()
    txs = [tx(nonce=i) for i in range(3)]
    for t in txs:
        pool.add(t)
    assert pool.remove_all(t.hash for t in txs) == 3


def test_price_sorted_descending():
    pool = TxPool()
    for i, price in enumerate([50, 300, 100]):
        pool.add(tx(sender=i + 1, price=price))
    prices = [t.gas_price for t in pack_block(pool.pending(), {})]
    assert prices == [300, 100, 50]


def test_price_sorted_random_tiebreak():
    """Same-price transactions appear in varying orders per rng (the
    geth behaviour the paper's predictor simulates)."""
    pool = TxPool()
    for i in range(8):
        pool.add(tx(sender=i + 1, price=100))
    order_a = [t.hash for t in
               pack_block(pool.pending(), {}, rng=random.Random(1))]
    order_b = [t.hash for t in
               pack_block(pool.pending(), {}, rng=random.Random(2))]
    assert sorted(order_a) == sorted(order_b)
    assert order_a != order_b


def test_miner_self_priority():
    pool = TxPool()
    own = tx(sender=1, price=10, origin_miner=0xE0)
    rich = tx(sender=2, price=10**12)
    pool.add(own)
    pool.add(rich)
    ordered = pack_block(pool.pending(), {}, miner_id=0xE0)
    assert ordered[0] is own


def test_ready_for_consecutive_nonces():
    pool = TxPool()
    for nonce in (0, 1, 3):
        pool.add(tx(nonce=nonce))
    ready = pack_block(pool.pending(), {1: 0})
    assert [t.nonce for t in ready] == [0, 1]  # gap at 2 stops the run
    assert pack_block(pool.pending(), {1: 5}) == []
