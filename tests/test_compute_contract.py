"""Checkpointer (compute-heavy) contract + deep-AP-chain robustness."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts.compute import checkpointer
from repro.core.accelerator import TransactionAccelerator
from repro.core.speculator import FutureContext, Speculator
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

SENDER = 0xAA
CHECK = 0xCE

COMP = checkpointer()


def fresh_world(checkpoint=0):
    world = WorldState()
    world.create_account(SENDER, balance=10**24)
    world.create_account(CHECK, code=COMP.code)
    if checkpoint:
        world.get_account(CHECK).set_storage(
            COMP.slot_of("checkpoint"), checkpoint)
    return world


def mix_tx(seed=7, rounds=50, nonce=0):
    return Transaction(sender=SENDER, to=CHECK,
                       data=COMP.calldata("mix", seed, rounds),
                       nonce=nonce, gas_limit=200_000 + 40_000 * rounds)


def test_mix_deterministic_and_stateful():
    world = fresh_world()
    state = StateDB(world)
    header = BlockHeader(1, 1000, 0xB)
    result = EVM(state, header, mix_tx(rounds=10)).execute_transaction()
    assert result.success
    state.commit()
    first = world.get_account(CHECK).get_storage(
        COMP.slot_of("checkpoint"))
    assert first != 0
    assert world.get_account(CHECK).get_storage(
        COMP.slot_of("rounds")) == 10
    # Same input on the evolved state gives a different checkpoint.
    state2 = StateDB(world)
    EVM(state2, header, mix_tx(rounds=10, nonce=1)).execute_transaction()
    state2.commit()
    assert world.get_account(CHECK).get_storage(
        COMP.slot_of("checkpoint")) != first


@pytest.mark.parametrize("rounds", [5, 120])
def test_deep_chain_ap_equivalence(rounds):
    """Long unrolled loops produce thousand-node AP chains; the tree
    walks must stay iterative and the results exact."""
    tx = mix_tx(rounds=rounds)
    header = BlockHeader(1, 1000, 0xB)
    speculator = Speculator(fresh_world())
    speculator.speculate(tx, FutureContext(1, header))
    ap = speculator.get_ap(tx.hash)
    assert ap is not None and ap.root is not None

    # Perfect context.
    evm_world = fresh_world()
    s1 = StateDB(evm_world)
    EVM(s1, header, tx).execute_transaction()
    s1.commit()
    ap_world = fresh_world()
    s2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, s2, ap)
    s2.commit()
    assert receipt.outcome == "satisfied"
    assert ap_world.root() == evm_world.root()

    # Imperfect context: a different starting checkpoint re-runs the
    # whole mixing chain with new values.
    evm_world = fresh_world(checkpoint=999)
    s1 = StateDB(evm_world)
    EVM(s1, header, tx).execute_transaction()
    s1.commit()
    ap_world = fresh_world(checkpoint=999)
    s2 = StateDB(ap_world)
    receipt = TransactionAccelerator().execute(tx, header, s2, ap)
    s2.commit()
    assert receipt.outcome == "satisfied"
    assert not receipt.perfect_context_ids
    assert ap_world.root() == evm_world.root()


def test_perfect_match_skips_nearly_everything():
    """The compute tail of Figure 12: a perfectly-predicted mixing
    transaction executes a tiny fraction of its AP nodes."""
    tx = mix_tx(rounds=120)
    header = BlockHeader(1, 1000, 0xB)
    speculator = Speculator(fresh_world())
    speculator.speculate(tx, FutureContext(1, header))
    ap = speculator.get_ap(tx.hash)

    plain = TransactionAccelerator().execute_plain(
        tx, header, StateDB(fresh_world()))
    # As in the real node, the prefetcher warmed the read set.
    from repro.core.prefetcher import Prefetcher
    from repro.state.nodecache import NodeCache
    world = fresh_world()
    cache = NodeCache()
    Prefetcher(world, cache).prefetch(
        ap.prefetch_keys, tx_sender=SENDER, tx_to=CHECK, coinbase=0xB)
    state = StateDB(world, node_cache=cache)
    receipt = TransactionAccelerator().execute(tx, header, state, ap)
    assert receipt.outcome == "satisfied"
    stats = receipt.ap_stats
    assert stats.skipped_nodes > 5 * stats.executed_nodes
    speedup = plain.tally.total / receipt.tally.total
    assert speedup > 25.0


def test_ap_tree_walks_handle_thousands_of_nodes():
    tx = mix_tx(rounds=200)
    speculator = Speculator(fresh_world())
    speculator.speculate(tx, FutureContext(1, BlockHeader(1, 1000, 0xB)))
    ap = speculator.get_ap(tx.hash)
    nodes = ap.all_nodes()
    assert len(nodes) > 800
    assert all(node.branches is None or len(node.branches) == 1
               for node in nodes)
    assert ap.path_count == 1
