"""WorldState / StateDB / journal / trie tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientBalance
from repro.evm.interpreter import EVM
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.sim.storage import load_dataset, save_dataset
from repro.state import trie, world as world_module
from repro.state.account import Account
from repro.state.statedb import StateDB
from repro.state.trie import (
    MerkleLevels,
    _merkle_fold,
    state_root,
    storage_root,
    trie_depth,
)
from repro.state.world import WorldState
from repro.workloads.mixed import TrafficConfig


def test_account_storage_zero_deletes():
    account = Account()
    account.set_storage(1, 5)
    account.set_storage(1, 0)
    assert 1 not in account.storage
    assert account.get_storage(1) == 0


def test_account_copy_independent():
    account = Account(balance=5, storage={1: 2})
    clone = account.copy()
    clone.set_storage(1, 9)
    clone.balance = 7
    assert account.get_storage(1) == 2
    assert account.balance == 5


def test_world_root_changes_with_state():
    world = WorldState()
    world.create_account(1, balance=10)
    root1 = world.root()
    world.apply({1: Account(balance=11)})
    assert world.root() != root1


def test_world_root_incremental_matches_full():
    """The memoized root equals a from-scratch recomputation after
    every commit path (apply / create_account / replace_contents)."""
    world = WorldState()
    world.create_account(1, balance=10)
    world.create_account(2, balance=20, code=b"\x60\x00")
    world.get_account(2).set_storage(3, 7)  # genesis-style, pre-root
    assert world.root() == state_root(world.accounts())
    world.apply({1: Account(balance=11, storage={9: 1})})
    assert world.root() == state_root(world.accounts())
    world.create_account(5, balance=1)
    assert world.root() == state_root(world.accounts())
    other = WorldState()
    other.create_account(8, balance=3)
    world.replace_contents(other)
    assert world.root() == state_root(world.accounts())
    assert world.root() == other.root()


def test_world_root_cached_at_same_version():
    world = WorldState()
    world.create_account(1, balance=10)
    assert world.root() == world.root()
    version = world.version
    world.apply({2: Account(balance=5)})
    assert world.version != version
    assert world.root() == state_root(world.accounts())


def test_world_copy_preserves_root():
    world = WorldState()
    world.create_account(1, balance=10)
    world.get_account(1).set_storage(2, 3)
    root = world.root()
    clone = world.copy()
    assert clone.root() == root
    clone.apply({1: Account(balance=99)})
    assert clone.root() != root
    assert world.root() == root


def test_world_root_order_independent():
    w1 = WorldState()
    w1.create_account(1, balance=10)
    w1.create_account(2, balance=20)
    w2 = WorldState()
    w2.create_account(2, balance=20)
    w2.create_account(1, balance=10)
    assert w1.root() == w2.root()


def test_world_copy_deep():
    world = WorldState()
    world.create_account(1, balance=10)
    clone = world.copy()
    clone.get_account(1).balance = 99
    assert world.get_account(1).balance == 10
    assert world.root() != clone.root()


leaf_updates = st.lists(
    st.dictionaries(st.integers(0, 40),
                    st.one_of(st.none(), st.integers(1, 2**256 - 1)),
                    max_size=6),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 40), st.integers(1, 2**256 - 1),
                       max_size=30), leaf_updates)
def test_merkle_levels_equal_the_fold_after_any_updates(leaves, updates):
    """In-place changes, inserts and deletes (which shift the pairing
    of everything to their right), growth from and shrinkage to empty:
    the kept levels are always those of a fresh fold."""
    tree = MerkleLevels(leaves)
    for changes in updates:
        tree.update(changes)
        for key, leaf in changes.items():
            if leaf is None:
                leaves.pop(key, None)
            else:
                leaves[key] = leaf
        assert tree.root == _merkle_fold(
            [leaves[key] for key in sorted(leaves)])
        assert tree.levels == MerkleLevels(leaves).levels
        assert len(tree) <= 2 * len(leaves) + len(tree.levels)
    clone = tree.copy()
    clone.update({0: 1, 41: 2})
    assert tree.root == _merkle_fold(
        [leaves[key] for key in sorted(leaves)])


def test_world_root_rehashes_only_what_was_written(monkeypatch):
    world = WorldState()
    for address in range(1, 65):
        world.create_account(address, balance=address)
    token = world.get_account(32)
    for slot in range(256):
        token.set_storage(slot, 1)
    world.root()
    hashes = []
    monkeypatch.setattr(trie, "keccak",
                        lambda data: hashes.append(data) or b"\0" * 32)
    for module in (trie, world_module):
        monkeypatch.setattr(module, "hash_words",
                            lambda words: hashes.append(words) or 1)
    state = StateDB(world)
    state.set_storage(32, 7, 9)   # one existing slot rewritten
    state.get_storage(32, 8)      # read only
    state.get_balance(5)          # read only: account not replaced
    state.commit()
    world.root()
    # The slot's leaf and 8-level path, the account's leaf and 6-level
    # path — not the token's 256 slots and not the 64 accounts.
    assert len(hashes) == (1 + 8) + (1 + 6)
    # Two hashes per entry less one: both trees are perfect.
    assert world.root_memo_nodes() == 2 * (64 + 256) - 2


@pytest.fixture(scope="module")
def root_datasets():
    """Three traffic shapes: in-place slot updates (tokens), slot
    inserts (names), account creation and everything else (mixed)."""
    silent = dict(token_rate=0.0, dex_rate=0.0, auction_rate=0.0,
                  registry_rate=0.0, lending_rate=0.0, compute_rate=0.0,
                  deploy_rate=0.0, eth_transfer_rate=0.0,
                  oracle_feeds=0, oracle_reporters=0)
    profiles = {"tokens": dict(silent, token_rate=2.0),
                "names": dict(silent, registry_rate=1.5),
                "mixed": {}}
    return {name: record_dataset(DatasetConfig(
        name=f"root-{name}",
        traffic=TrafficConfig(duration=12.0, seed=5, **overrides),
        observers={"live": LatencyModel()}, seed=5))
        for name, overrides in profiles.items()}


def _execute(world, block):
    state = StateDB(world)
    for tx in block.transactions:
        EVM(state, block.header, tx).execute_transaction()
    state.commit()


@pytest.mark.parametrize("name", ["tokens", "names", "mixed"])
def test_dataset_roots_equal_from_scratch_recomputation(name,
                                                        root_datasets):
    """Per-block roots equal ``state_root()`` recomputed from scratch
    — on the live world, on a ``copy()`` taken mid-chain, and after a
    reorg (``replace_contents``) rewinds and re-executes."""
    dataset = root_datasets[name]
    blocks = [block for _, block in dataset.blocks]
    assert len(blocks) >= 2 and dataset.tx_count > 0
    world = dataset.genesis_world.copy()
    middle = len(blocks) // 2
    for index, block in enumerate(blocks):
        if index == middle:
            snapshot = world.copy()
        _execute(world, block)
        assert world.root() == state_root(world.accounts()) \
            == block.state_root
    # The mid-chain copy carries the memo and advances on its own.
    for block in blocks[middle:]:
        _execute(snapshot, block)
        assert snapshot.root() == state_root(snapshot.accounts()) \
            == block.state_root
    # Reorg: rewind the live world in place, then replay the suffix.
    rewound = dataset.genesis_world.copy()
    for block in blocks[:middle]:
        _execute(rewound, block)
    world.replace_contents(rewound)
    assert world.root_memo_nodes() == 0
    assert world.root() == state_root(world.accounts()) == rewound.root()
    for block in blocks[middle:]:
        _execute(world, block)
        assert world.root() == state_root(world.accounts()) \
            == block.state_root


def test_genesis_copies_inherit_the_genesis_root(root_datasets,
                                                 monkeypatch, tmp_path):
    """``record_dataset`` / ``load_dataset`` compute the genesis root
    on the world they keep, so no copy of it ever hashes genesis
    again (each replay, node and replica used to)."""
    dataset = root_datasets["mixed"]
    path = str(tmp_path / "dataset.json")
    save_dataset(dataset, path)
    loaded = load_dataset(path)

    def no_hashing(*_args):
        raise AssertionError("a genesis copy re-hashed state")

    for name in ("hash_words", "account_hash"):
        monkeypatch.setattr(world_module, name, no_hashing)
    monkeypatch.setattr(trie, "keccak", no_hashing)
    for source in (dataset, loaded):
        assert source.genesis_world.copy().root() == \
            dataset.genesis_block.state_root


def test_storage_root_sensitive_to_values():
    assert storage_root({1: 2}) != storage_root({1: 3})
    assert storage_root({}) == 0


def test_trie_depth_monotone():
    depths = [trie_depth(n) for n in (1, 10, 100, 10_000, 10**6)]
    assert depths == sorted(depths)
    assert trie_depth(0) == 1


def test_statedb_read_through():
    world = WorldState()
    world.create_account(1, balance=7)
    state = StateDB(world)
    assert state.get_balance(1) == 7
    assert state.get_balance(999) == 0  # absent account reads as empty


def test_statedb_writes_do_not_touch_world_until_commit():
    world = WorldState()
    world.create_account(1, balance=7)
    state = StateDB(world)
    state.set_balance(1, 100)
    assert world.get_account(1).balance == 7
    state.commit()
    assert world.get_account(1).balance == 100


def test_statedb_storage_roundtrip_and_commit():
    world = WorldState()
    world.create_account(1)
    state = StateDB(world)
    state.set_storage(1, 5, 42)
    assert state.get_storage(1, 5) == 42
    state.commit()
    assert world.get_account(1).get_storage(5) == 42


def test_statedb_storage_delete_on_commit():
    world = WorldState()
    account = world.create_account(1)
    account.set_storage(5, 9)
    state = StateDB(world)
    state.set_storage(1, 5, 0)
    state.commit()
    assert world.get_account(1).get_storage(5) == 0


def test_sub_balance_insufficient():
    world = WorldState()
    world.create_account(1, balance=5)
    state = StateDB(world)
    with pytest.raises(InsufficientBalance):
        state.sub_balance(1, 10)


def test_snapshot_revert_balance_nonce_storage():
    world = WorldState()
    world.create_account(1, balance=10)
    state = StateDB(world)
    snap = state.snapshot()
    state.set_balance(1, 99)
    state.increment_nonce(1)
    state.set_storage(1, 3, 4)
    state.add_log(1, (7,), b"x")
    state.revert_to(snap)
    assert state.get_balance(1) == 10
    assert state.get_nonce(1) == 0
    assert state.get_storage(1, 3) == 0
    assert state.logs == []


def test_nested_snapshots():
    world = WorldState()
    world.create_account(1, balance=10)
    state = StateDB(world)
    s1 = state.snapshot()
    state.set_balance(1, 20)
    s2 = state.snapshot()
    state.set_balance(1, 30)
    state.revert_to(s2)
    assert state.get_balance(1) == 20
    state.revert_to(s1)
    assert state.get_balance(1) == 10


def test_warmness_survives_revert():
    world = WorldState()
    world.create_account(1, balance=10)
    state = StateDB(world)
    snap = state.snapshot()
    state.get_storage(1, 5)
    state.revert_to(snap)
    cold = state.disk.stats.cold_slot_loads
    state.get_storage(1, 5)
    assert state.disk.stats.cold_slot_loads == cold


def test_create_account_revert():
    world = WorldState()
    state = StateDB(world)
    snap = state.snapshot()
    state.create_account(42, balance=1)
    assert 42 in state.dirty_accounts()[0]
    state.revert_to(snap)
    assert 42 not in state.dirty_accounts()[0]


@settings(max_examples=40)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3),
              st.integers(0, 2**64)),
    min_size=1, max_size=30))
def test_commit_equals_direct_application(ops):
    """Property: committing a StateDB equals applying writes directly."""
    world_a = WorldState()
    world_b = WorldState()
    for world in (world_a, world_b):
        for address in range(6):
            world.create_account(address, balance=100)
    state = StateDB(world_a)
    for address, slot, value in ops:
        state.set_storage(address, slot, value)
        world_b.get_account(address).set_storage(slot, value)
    state.commit()
    assert world_a.root() == world_b.root()


@settings(max_examples=25)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 100)),
    min_size=1, max_size=20))
def test_snapshot_revert_is_identity(ops):
    """Property: snapshot + arbitrary ops + revert leaves state as-is."""
    world = WorldState()
    for address in range(4):
        account = world.create_account(address, balance=50)
        account.set_storage(0, 7)
    state = StateDB(world)
    before = {(a, s): state.get_storage(a, s)
              for a in range(4) for s in range(3)}
    snap = state.snapshot()
    for address, slot, value in ops:
        state.set_storage(address, slot, value)
    state.revert_to(snap)
    after = {(a, s): state.get_storage(a, s)
             for a in range(4) for s in range(3)}
    assert before == after


def test_disk_model_cold_then_warm():
    world = WorldState()
    world.create_account(1, balance=10)
    state = StateDB(world)
    state.get_balance(1)
    cold_cost = state.disk.stats.cost_units
    state.get_balance(1)
    warm_delta = state.disk.stats.cost_units - cold_cost
    assert warm_delta < cold_cost


def test_node_cache_makes_fresh_statedb_warm():
    from repro.state.nodecache import NodeCache
    world = WorldState()
    world.create_account(1, balance=10)
    cache = NodeCache()
    s1 = StateDB(world, node_cache=cache)
    s1.get_balance(1)
    cost_first = s1.disk.stats.cost_units
    s2 = StateDB(world, node_cache=cache)
    s2.get_balance(1)
    assert s2.disk.stats.cost_units < cost_first


def test_node_cache_eviction(monkeypatch):
    from repro.state import nodecache
    monkeypatch.setattr(nodecache, "NODE_CACHE_CAPACITY", 2)
    cache = nodecache.NodeCache()
    cache.add("a")
    cache.add("b")
    cache.add("c")
    assert len(cache) == 2
    assert not cache.contains("a")
    assert cache.contains("c")
