"""Dataset persistence and reorg handling tests."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.chainsync import ChainManager
from repro.core.node import BaselineNode, ForerunnerNode
from repro.errors import ChainError
from repro.p2p.latency import LatencyModel
from repro.recovery import DurableReplay
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.sim.storage import load_dataset, save_dataset
from repro.state.world import WorldState
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB, FEED, ROUND

PF = pricefeed()


# -- dataset save/load -------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    config = DatasetConfig(
        name="S1", traffic=TrafficConfig(duration=60.0, seed=55),
        observers={"live": LatencyModel()}, seed=55)
    return record_dataset(config)


def test_dataset_roundtrip_structure(small_dataset, tmp_path):
    path = tmp_path / "dataset.json"
    save_dataset(small_dataset, str(path))
    loaded = load_dataset(str(path))
    assert loaded.name == small_dataset.name
    assert loaded.tx_count == small_dataset.tx_count
    assert loaded.block_count == small_dataset.block_count
    assert loaded.genesis_world.root() == \
        small_dataset.genesis_world.root()
    # Transaction hashes (content identity) survive the round trip.
    original = [tx.hash for _, b in small_dataset.blocks
                for tx in b.transactions]
    reloaded = [tx.hash for _, b in loaded.blocks
                for tx in b.transactions]
    assert original == reloaded


def test_dataset_roundtrip_replays_identically(small_dataset, tmp_path):
    path = tmp_path / "dataset.json"
    save_dataset(small_dataset, str(path))
    loaded = load_dataset(str(path))
    run_a = replay(small_dataset, "live")
    run_b = replay(loaded, "live")
    assert run_b.roots_matched == run_b.blocks_executed
    assert len(run_a.records) == len(run_b.records)
    assert sum(r.forerunner_cost for r in run_a.records) == \
        sum(r.forerunner_cost for r in run_b.records)


def test_dataset_version_check(small_dataset, tmp_path):
    import json
    path = tmp_path / "dataset.json"
    save_dataset(small_dataset, str(path))
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_dataset(str(path))


def test_private_tx_round_trips_through_dataset_and_snapshot(small_dataset,
                                                             tmp_path):
    """Datasets and recovery snapshots store the wire form plus
    ``origin_miner``, which the hash does not cover: a private
    transaction must come back private, not only with the same hash."""
    private = [t.tx for t in small_dataset.all_txs
               if t.tx.origin_miner is not None]
    assert private
    path = tmp_path / "dataset.json"
    save_dataset(small_dataset, str(path))
    loaded = load_dataset(str(path))
    assert [t.tx for t in loaded.all_txs] == \
        [t.tx for t in small_dataset.all_txs]

    store = str(tmp_path / "store")
    durable = DurableReplay(small_dataset, store)
    for tx in private:
        durable.forerunner.pool[tx.hash] = (tx, 1.0)
    durable.snapshots.save(durable._capture(0), 0)
    durable.journal.close()
    restored = DurableReplay(small_dataset, store, resume=True)
    restored.journal.close()
    assert restored.info.snapshot_block == 0
    assert [restored.forerunner.pool[tx.hash][0] for tx in private] == \
        private


# -- reorg handling -----------------------------------------------------------

def fresh_world():
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    return world


def submit_tx(sender, nonce, price):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, price),
                       nonce=nonce)


def make_block(parent, txs, ts_offset=13, coinbase=0xE0):
    header = BlockHeader(
        number=parent.number + 1,
        timestamp=parent.header.timestamp + ts_offset,
        coinbase=coinbase,
        parent_hash=parent.hash)
    return Block(header=header, transactions=txs)


def genesis_block():
    return Block(header=BlockHeader(number=0, timestamp=ROUND + 10,
                                    coinbase=0))


def test_linear_growth_no_reorg():
    node = BaselineNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    b1 = make_block(manager.head, [submit_tx(ALICE, 0, 2000)])
    b2 = make_block(b1, [submit_tx(BOB, 0, 2010)])
    assert manager.receive_block(b1) is not None
    assert manager.receive_block(b2) is not None
    assert manager.reorgs == 0
    assert node.world.get_account(FEED).get_storage(
        PF.slot_of("submissionCounts", ROUND)) == 2


def test_losing_fork_not_executed():
    node = BaselineNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    b1 = make_block(manager.head, [submit_tx(ALICE, 0, 2000)])
    rival = make_block(manager.chain.genesis,
                       [submit_tx(BOB, 0, 1000)], ts_offset=14)
    manager.receive_block(b1)
    assert manager.receive_block(rival) is None  # same height, loses
    assert node.world.get_account(FEED).get_storage(
        PF.slot_of("prices", ROUND)) == 2000  # Alice's, not Bob's


def test_reorg_switches_branch_state():
    node = BaselineNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    genesis = manager.chain.genesis
    # Canonical: one block with Alice's 2000 submission.
    a1 = make_block(genesis, [submit_tx(ALICE, 0, 2000)])
    manager.receive_block(a1)
    # Competing branch: two blocks, Bob's 1500 then Alice's 1700.
    b1 = make_block(genesis, [submit_tx(BOB, 0, 1500)], ts_offset=14)
    b2 = make_block(b1, [submit_tx(ALICE, 0, 1700)])
    assert manager.receive_block(b1) is None   # fork, shorter
    assert manager.receive_block(b2) is not None  # now longer: reorg
    assert manager.reorgs == 1
    assert manager.blocks_reexecuted == 2
    feed = node.world.get_account(FEED)
    # The fork branch's state won: avg(1500, 1700) = 1600, count 2.
    assert feed.get_storage(PF.slot_of("prices", ROUND)) == 1600
    assert feed.get_storage(PF.slot_of("submissionCounts", ROUND)) == 2


def test_reorg_equals_straight_execution():
    """Post-reorg state must equal executing the winning branch from
    scratch on a fresh node."""
    node = BaselineNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    genesis = manager.chain.genesis
    a1 = make_block(genesis, [submit_tx(ALICE, 0, 2000)])
    manager.receive_block(a1)
    b1 = make_block(genesis, [submit_tx(BOB, 0, 1500)], ts_offset=14)
    b2 = make_block(b1, [submit_tx(ALICE, 0, 1700)])
    manager.receive_block(b1)
    manager.receive_block(b2)

    reference = BaselineNode(fresh_world())
    reference.process_block(b1)
    reference.process_block(b2)
    assert node.world.root() == reference.world.root()


def test_forerunner_reorg_requeues_pool():
    node = ForerunnerNode(fresh_world())
    manager = ChainManager(node, genesis_block())
    genesis = manager.chain.genesis
    alice_tx = submit_tx(ALICE, 0, 2000)
    node.on_transaction(alice_tx, now=0.0)
    a1 = make_block(genesis, [alice_tx])
    manager.receive_block(a1, now=1.0)
    assert len(node.pool) == 0
    # The fork branch does NOT include Alice's tx.
    b1 = make_block(genesis, [submit_tx(BOB, 0, 1500)], ts_offset=14)
    b2 = make_block(b1, [])
    manager.receive_block(b1, now=2.0)
    manager.receive_block(b2, now=2.5)
    # Alice's abandoned transaction is pending again.
    assert alice_tx.hash in node.pool
    # And the world reflects only Bob's submission.
    assert node.world.get_account(FEED).get_storage(
        PF.slot_of("prices", ROUND)) == 1500


def test_reorg_beyond_snapshot_depth_rejected():
    node = BaselineNode(fresh_world())
    manager = ChainManager(node, genesis_block(), snapshot_depth=2)
    genesis = manager.chain.genesis
    parent = genesis
    for i in range(4):
        block = make_block(parent, [])
        manager.receive_block(block)
        parent = block
    # A fork from genesis is now beyond the retained snapshots.
    rival_parent = genesis
    rivals = []
    for i in range(5):
        rival = make_block(rival_parent, [], ts_offset=15 + i)
        rivals.append(rival)
        rival_parent = rival
    for rival in rivals[:-1]:
        manager.receive_block(rival)
    with pytest.raises(ChainError):
        manager.receive_block(rivals[-1])
