"""BaselineNode / ForerunnerNode tests."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core import node as node_module
from repro.core.node import BaselineNode, ForerunnerConfig, ForerunnerNode
from repro.errors import ChainError
from repro.state.world import WorldState

from tests.conftest import ALICE, BOB, FEED, ROUND

PF = pricefeed()


def fresh_world():
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), ROUND)
    account.set_storage(PF.slot_of("prices", ROUND), 2000)
    account.set_storage(PF.slot_of("submissionCounts", ROUND), 4)
    return world


def make_block(txs, number=1, ts=3990462, parent_hash=0):
    header = BlockHeader(number=number, timestamp=ts, coinbase=0xBEEF,
                         parent_hash=parent_hash)
    return Block(header=header, transactions=txs)


def tx_e(nonce=0, sender=ALICE):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980),
                       nonce=nonce)


def test_baseline_processes_and_commits():
    node = BaselineNode(fresh_world())
    report = node.process_block(make_block([tx_e()]))
    assert len(report.records) == 1
    assert report.records[0].success
    assert report.records[0].cost > 0
    assert node.world.get_account(FEED).get_storage(
        PF.slot_of("submissionCounts", ROUND)) == 5


def test_baseline_io_reads_counted():
    node = BaselineNode(fresh_world())
    report = node.process_block(make_block([tx_e()]))
    assert report.records[0].io_reads > 3


def test_forerunner_equals_baseline_root():
    block = make_block([tx_e(), tx_e(sender=BOB)])
    baseline = BaselineNode(fresh_world())
    fore = ForerunnerNode(fresh_world())
    for tx in block.transactions:
        fore.on_transaction(tx, now=0.0)
    fore.run_speculation(1.0)
    base_report = baseline.process_block(block)
    fore_report = fore.process_block(block, now=5.0)
    assert base_report.state_root == fore_report.state_root


def test_forerunner_accelerates_heard_tx():
    fore = ForerunnerNode(fresh_world())
    # Give the header predictor a recent parent block to extrapolate
    # from (otherwise its timestamp guess lands in the wrong round).
    fore.predictor.observe_block(make_block([], number=0, ts=3990449))
    fore.on_transaction(tx_e(), now=0.0)
    fore.run_speculation(0.5)
    report = fore.process_block(make_block([tx_e()]), now=5.0)
    record = report.records[0]
    assert record.heard
    assert record.ap_ready
    assert record.outcome == "satisfied"
    assert record.heard_delay == pytest.approx(5.0)


def test_forerunner_unheard_tx_marked():
    fore = ForerunnerNode(fresh_world())
    report = fore.process_block(make_block([tx_e()]), now=5.0)
    record = report.records[0]
    assert not record.heard
    assert record.outcome == "no_ap"


def test_ap_not_ready_until_worker_finishes(monkeypatch):
    monkeypatch.setattr(node_module, "WORKERS", 1)
    monkeypatch.setattr(node_module, "WORKER_SPEED", 1.0)  # glacial
    fore = ForerunnerNode(fresh_world())
    fore.on_transaction(tx_e(), now=0.0)
    fore.run_speculation(0.0)
    ap = fore.speculator.get_ap(tx_e().hash)
    assert ap is not None
    assert ap.ready_at > 10.0  # far in the future at 1 unit/s
    report = fore.process_block(make_block([tx_e()]), now=1.0)
    assert not report.records[0].ap_ready


def test_root_mismatch_raises():
    fore = ForerunnerNode(fresh_world())
    block = make_block([tx_e()])
    block.state_root = 0xBAD
    with pytest.raises(ChainError):
        fore.process_block(block, now=1.0)


def test_pool_drained_after_execution():
    fore = ForerunnerNode(fresh_world())
    fore.on_transaction(tx_e(), now=0.0)
    fore.process_block(make_block([tx_e()]), now=1.0)
    assert len(fore.pool) == 0
    # Late gossip of an executed tx is ignored.
    fore.on_transaction(tx_e(), now=2.0)
    assert len(fore.pool) == 0


def test_speculation_cycle_noop_when_nothing_changed():
    fore = ForerunnerNode(fresh_world())
    fore.on_transaction(tx_e(), now=0.0)
    first = fore.run_speculation(0.5)
    second = fore.run_speculation(0.6)
    assert first > 0
    assert second == 0


def test_speculation_caps_per_head():
    config = ForerunnerConfig(max_contexts_per_head=2)
    fore = ForerunnerNode(fresh_world(), config)
    fore.on_transaction(tx_e(), now=0.0)
    fore.run_speculation(0.5)
    assert fore.admission.total_spec[tx_e().hash] <= 2
