"""Multi-future predictor tests."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.core import predictor as predictor_module
from repro.core.predictor import HeaderStats, MultiFuturePredictor


def tx(sender=1, to=0xC, nonce=0, price=100, origin_miner=None):
    return Transaction(sender=sender, to=to, nonce=nonce, gas_price=price,
                       origin_miner=origin_miner)


def block(number, timestamp, coinbase, parent_hash=0):
    return Block(header=BlockHeader(number=number, timestamp=timestamp,
                                    coinbase=coinbase,
                                    parent_hash=parent_hash))


def feed_blocks(predictor, count=5, interval=13, miner=0xE0):
    for i in range(count):
        predictor.observe_block(block(i + 1, 100 + i * interval, miner))


def test_header_stats_interval_and_miners():
    stats = HeaderStats()
    for i in range(4):
        stats.observe(block(i + 1, i * 10, coinbase=0xE0 + (i % 2)))
    assert stats.mean_interval() == pytest.approx(10.0)
    assert set(stats.top_miners(2)) == {0xE0, 0xE1}


def test_predict_headers_follow_observations():
    predictor = MultiFuturePredictor()
    feed_blocks(predictor, count=6, interval=13)
    headers = predictor.predict_headers()
    assert headers
    for header in headers:
        assert header.number == 7
        assert header.timestamp >= 100 + 5 * 13 + 13
        assert header.coinbase == 0xE0


def test_rank_pending_price_priority_and_cap(monkeypatch):
    monkeypatch.setattr(predictor_module, "MAX_CANDIDATES", 3)
    predictor = MultiFuturePredictor()
    pending = [tx(sender=i + 1, price=(i + 1) * 10) for i in range(10)]
    ranked = predictor.rank_pending(pending, block_gas_limit=10**9)
    assert len(ranked) == 3
    assert ranked[0].gas_price >= ranked[-1].gas_price


def test_rank_pending_self_priority():
    predictor = MultiFuturePredictor()
    own = tx(sender=1, price=1, origin_miner=0xE0)
    rich = tx(sender=2, price=10**12)
    ranked = predictor.rank_pending([rich, own], block_gas_limit=10**9)
    assert ranked[0] is own


def test_group_dependencies_by_contract():
    predictor = MultiFuturePredictor()
    a1, a2 = tx(sender=1, to=0xA), tx(sender=2, to=0xA)
    b1 = tx(sender=3, to=0xB)
    groups = predictor.group_dependencies([a1, a2, b1])
    assert {t.hash for t in groups[0xA]} == {a1.hash, a2.hash}
    assert [t.hash for t in groups[0xB]] == [b1.hash]


def test_contexts_capped_and_distinct_ids():
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    target = tx(sender=1)
    group = [target] + [tx(sender=i + 2) for i in range(5)]
    contexts = predictor.contexts_for(target, group)
    assert len(contexts) == 4
    ids = [c.context_id for c in contexts]
    assert len(set(ids)) == 4


def test_contexts_include_empty_ordering():
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    target = tx(sender=1)
    group = [target, tx(sender=2), tx(sender=3)]
    contexts = predictor.contexts_for(target, group)
    assert any(not c.predecessors for c in contexts)


def test_sender_chain_is_mandatory_prefix():
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    earlier = [tx(sender=1, nonce=0), tx(sender=1, nonce=1)]
    target = tx(sender=1, nonce=2)
    contexts = predictor.contexts_for(target, [target],
                                      sender_chain=earlier)
    for context in contexts:
        nonces = [t.nonce for t in context.predecessors[:2]]
        assert nonces == [0, 1]


def test_deep_sender_chain_skipped(monkeypatch):
    monkeypatch.setattr(predictor_module, "MAX_PREDECESSORS", 2)
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    chain = [tx(sender=1, nonce=i) for i in range(10)]
    target = tx(sender=1, nonce=10)
    assert predictor.contexts_for(target, [target],
                                  sender_chain=chain) == []


def test_predict_full_cycle():
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    pending = [tx(sender=i + 1, to=0xA, price=100) for i in range(6)]
    prediction = predictor.predict(pending, block_gas_limit=15_000_000)
    assert prediction.candidates
    for candidate in prediction.candidates:
        assert candidate.hash in prediction.contexts
        assert prediction.contexts[candidate.hash]


def test_ordering_diversity_across_contexts(monkeypatch):
    """Multiple contexts should explore different predecessor orderings
    (the many-future coverage mechanism)."""
    monkeypatch.setattr(predictor_module, "MAX_CONTEXTS_PER_TX", 6)
    predictor = MultiFuturePredictor()
    feed_blocks(predictor)
    target = tx(sender=1, to=0xA)
    group = [target] + [tx(sender=i + 2, to=0xA) for i in range(3)]
    contexts = predictor.contexts_for(target, group)
    orderings = {tuple(t.hash for t in c.predecessors) for c in contexts}
    assert len(orderings) >= 3
