"""Speculation worker-pool timing: APs become usable only when their
synthesis would really have finished (the paper's requirement that
"APs must be generated in time to achieve any speedups", §5)."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core import node as node_module
from repro.core.node import ForerunnerNode
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


def tx_e(sender=ALICE, nonce=0):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980),
                       nonce=nonce)


def prime(node):
    node.predictor.observe_block(Block(header=BlockHeader(
        number=0, timestamp=3990449, coinbase=0xE0)))


def workers(monkeypatch, speed, count=None):
    """Patch the simulated worker pool: ``count`` lanes (default: the
    node's) at ``speed`` cost units per second."""
    monkeypatch.setattr(node_module, "WORKER_SPEED", speed)
    if count is not None:
        monkeypatch.setattr(node_module, "WORKERS", count)


def test_fast_workers_ready_immediately(monkeypatch):
    workers(monkeypatch, 1e12)
    node = ForerunnerNode(fresh_world())
    prime(node)
    node.on_transaction(tx_e(), now=0.0)
    node.run_speculation(0.0)
    ap = node.speculator.get_ap(tx_e().hash)
    assert ap is not None
    assert ap.ready_at < 0.01


def test_slow_workers_delay_readiness(monkeypatch):
    workers(monkeypatch, 1e4, count=1)
    node = ForerunnerNode(fresh_world())
    prime(node)
    node.on_transaction(tx_e(), now=0.0)
    node.run_speculation(0.0)
    ap = node.speculator.get_ap(tx_e().hash)
    assert ap is not None
    assert ap.ready_at > 1.0


def test_worker_pool_parallelism(monkeypatch):
    """More workers finish the same job set sooner."""
    def first_ready(count):
        workers(monkeypatch, 2e5, count)
        node = ForerunnerNode(fresh_world())
        prime(node)
        for i, sender in enumerate((ALICE, BOB)):
            node.on_transaction(tx_e(sender=sender), now=0.0)
        node.run_speculation(0.0)
        return max(node._worker_lanes.clocks)

    assert first_ready(8) < first_ready(1)


def test_budget_deadline_limits_jobs(monkeypatch):
    workers(monkeypatch, 1e4, count=1)
    node = ForerunnerNode(fresh_world())
    prime(node)
    for i, sender in enumerate((ALICE, BOB)):
        node.on_transaction(tx_e(sender=sender), now=0.0)
    jobs = node.run_speculation(0.0, budget_seconds=0.5)
    # One worker at 1e4 units/s: the first job already overruns the
    # budget window, so later jobs cannot start inside it.
    assert jobs >= 1
    assert jobs < 8  # capped well below the unconstrained count


def test_speculation_costs_gate_block_usage(monkeypatch):
    workers(monkeypatch, 1e4, count=1)
    node = ForerunnerNode(fresh_world())
    prime(node)
    node.on_transaction(tx_e(), now=0.0)
    node.run_speculation(0.0)
    block = Block(
        header=BlockHeader(number=1, timestamp=3990462, coinbase=0xE0,
                           parent_hash=0),
        transactions=[tx_e()])
    # Block arrives long before synthesis completes -> not accelerated.
    report = node.process_block(block, now=0.5)
    assert not report.records[0].ap_ready
    assert report.records[0].outcome == "no_ap"
