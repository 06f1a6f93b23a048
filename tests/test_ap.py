"""AP structure, merging, memoization, and execution tests —
including the paper's §4.2 running example (Figures 8-10)."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.accelerator import TransactionAccelerator
from repro.core.ap import AcceleratedProgram, Terminal
from repro.core.memoize import build_shortcuts
from repro.core.merge import merge_path, prune_tree, structurally_equal
from repro.core.sevm import SKind
from repro.core.speculator import FutureContext, Speculator, synthesize_path
from repro.core.trace import trace_transaction
from repro.errors import ConstraintViolation
from repro.evm.interpreter import EVM
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.conftest import ALICE, FEED, ROUND
from tests.ap_walk import execute_ap

PF = pricefeed()


def fresh_world(active_round=ROUND, price=2000, count=4):
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), active_round)
    if active_round == ROUND:
        account.set_storage(PF.slot_of("prices", ROUND), price)
        account.set_storage(PF.slot_of("submissionCounts", ROUND), count)
    return world


def tx_e():
    return Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980), nonce=0)


def header(ts):
    return BlockHeader(number=1, timestamp=ts, coinbase=0xBEEF)


def build_merged_ap():
    """Speculate Tx_e in FC1 (else-branch) and FC4 (if-branch)."""
    world = fresh_world(ROUND)
    spec = Speculator(world)
    spec.speculate(tx_e(), FutureContext(1, header(3990462)))
    world.get_account(FEED).set_storage(
        PF.slot_of("activeRoundID"), 3990000)
    spec.speculate(tx_e(), FutureContext(4, header(3990478)))
    return spec.get_ap(tx_e().hash)


class TestSynthesis:
    def test_single_path(self):
        world = fresh_world()
        trace = trace_transaction(StateDB(world), header(3990462), tx_e())
        path = synthesize_path(trace)
        assert path.success
        assert path.gas_used == trace.result.gas_used
        assert path.read_set


class TestMerging:
    def test_two_branch_merge(self):
        ap = build_merged_ap()
        assert ap is not None
        assert len(ap.paths) == 2
        assert ap.path_count == 2
        assert ap.merge_failures == 0

    def test_same_path_different_values_merges_to_one_terminal(self):
        world = fresh_world(price=2000, count=4)
        spec = Speculator(world)
        spec.speculate(tx_e(), FutureContext(1, header(3990462)))
        world.get_account(FEED).set_storage(
            PF.slot_of("prices", ROUND), 2010)
        world.get_account(FEED).set_storage(
            PF.slot_of("submissionCounts", ROUND), 6)
        spec.speculate(tx_e(), FutureContext(2, header(3990462)))
        ap = spec.get_ap(tx_e().hash)
        assert len(ap.paths) == 2
        assert ap.path_count == 1  # same control path (FC1 vs FC2)

    def test_structural_equality_ignores_guard_expectation(self):
        ap = build_merged_ap()
        nodes = ap.all_nodes()
        guards = [n for n in nodes if n.is_guard()]
        assert guards
        for g in guards:
            assert structurally_equal(g.instr, g.instr)

    def test_guard_case_branching(self):
        """The diverging guard holds BOTH branch keys (paper Fig. 10)."""
        ap = build_merged_ap()
        branch_guards = [n for n in ap.all_nodes()
                         if n.is_guard() and len(n.branches) == 2]
        assert branch_guards, "expected a two-way case-branching guard"

    def test_prune_keeps_all_guards(self):
        ap = build_merged_ap()
        guards_before = sum(1 for n in ap.all_nodes() if n.is_guard())
        prune_tree(ap)
        guards_after = sum(1 for n in ap.all_nodes() if n.is_guard())
        assert guards_before == guards_after


class TestShortcuts:
    def test_shortcuts_built(self):
        ap = build_merged_ap()
        assert ap.shortcut_count > 0
        with_shortcut = [n for n in ap.all_nodes() if n.shortcut]
        assert with_shortcut

    def test_merged_shortcut_entries(self):
        """Shortcut entries from multiple contexts coexist on one node
        (paper Figure 10: m3 holds 2000 and 2010)."""
        world = fresh_world(price=2000, count=4)
        spec = Speculator(world)
        spec.speculate(tx_e(), FutureContext(1, header(3990462)))
        world.get_account(FEED).set_storage(
            PF.slot_of("prices", ROUND), 2010)
        world.get_account(FEED).set_storage(
            PF.slot_of("submissionCounts", ROUND), 6)
        spec.speculate(tx_e(), FutureContext(2, header(3990462)))
        ap = spec.get_ap(tx_e().hash)
        multi_entry = [n for n in ap.all_nodes()
                       if n.shortcut and len(n.shortcut.entries) >= 2]
        assert multi_entry


class TestExecution:
    def test_perfect_match_skips_guards(self):
        ap = build_merged_ap()
        world = fresh_world(ROUND)
        state = StateDB(world)
        outcome = execute_ap(ap, state, header(3990462))
        assert outcome.success
        assert outcome.stats.shortcut_hits > 0
        assert outcome.stats.guards_checked == 0  # all skipped

    def test_imperfect_match_executes(self):
        ap = build_merged_ap()
        world = fresh_world(ROUND, price=1234, count=9)
        state = StateDB(world)
        outcome = execute_ap(ap, state, header(3990500))
        assert outcome.success
        # Values changed -> recompute: 1234*9+1980 // 10
        assert state.get_storage(
            FEED, PF.slot_of("prices", ROUND)) == (1234 * 9 + 1980) // 10

    def test_branch_selection(self):
        ap = build_merged_ap()
        world = fresh_world(3990000)  # fresh round -> FC4 branch
        state = StateDB(world)
        outcome = execute_ap(ap, state, header(3990478))
        assert outcome.success
        assert state.get_storage(FEED, PF.slot_of("activeRoundID")) == ROUND
        assert state.get_storage(FEED, PF.slot_of("prices", ROUND)) == 1980

    def test_violation_raises_and_leaves_state_untouched(self):
        ap = build_merged_ap()
        world = fresh_world(ROUND)
        state = StateDB(world)
        root_before = world.root()
        with pytest.raises(ConstraintViolation):
            execute_ap(ap, state, header(ROUND + 700))
        state.commit()
        assert world.root() == root_before  # rollback-free

    def test_gas_constant_per_path(self):
        ap = build_merged_ap()
        world = fresh_world(ROUND, price=55, count=2)
        outcome = execute_ap(ap, StateDB(world), header(3990470))
        evm_world = fresh_world(ROUND, price=55, count=2)
        state = StateDB(evm_world)
        result = EVM(state, header(3990470), tx_e()).execute_transaction()
        assert outcome.gas_used == result.gas_used
