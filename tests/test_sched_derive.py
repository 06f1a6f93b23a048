"""The lane what-if (:mod:`repro.sched.whatif`).

The node executes every transaction once, in block order, and records
nothing for the what-if; it is derived offline from a plain replay of
the committed blocks.  These tests establish:

* the derivation on hand-built :class:`AccessSet`s, cross-checked
  against the reference conflict graph + greedy schedule;
* the recording view (coinbase credits commute, explicit touches
  entangle, reverted writes are told apart);
* a soundness property over generated blocks — a transaction marked
  *clean*, executed alone on the block's pre-state, reproduces its
  serial receipt and writes; one marked *conflict* touches a key an
  earlier transaction actually wrote;
* the equivalence the offline move rests on — on a seeded replay, each
  transaction the node ran through its AP records, on the same
  pre-state, what its plain execution records (code reads aside), and
  each transaction is costed as the node executed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import erc20
from repro.core.accelerator import (
    OUTCOME_SATISFIED,
    OUTCOME_VIOLATED,
    TransactionAccelerator,
)
from repro.p2p.latency import LatencyModel
from repro.sched.executor import ParallelBlockExecutor
from repro.sched.whatif import (
    AccessSet,
    LaneSchedule,
    RecordingView,
    access_sets,
    execution_cost,
)
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.state.diskio import WARM_COST
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.workloads.mixed import TrafficConfig

COINBASE = 0xBEEF


# ---------------------------------------------------------------------------
# reference definitions: the pairwise Saraph–Herlihy conflict graph and
# its greedy layering, which derive()'s fused sweep must reproduce


def conflicts_with_writes(access: AccessSet, writes) -> bool:
    """Would ``access``'s tx observe (or clobber) any of ``writes``?"""
    return not (writes.isdisjoint(access.reads)
                and writes.isdisjoint(access.writes))


def conflicts(earlier: AccessSet, later: AccessSet) -> bool:
    """Does ``later`` depend on (or overwrite) ``earlier``'s effects?

    The Saraph–Herlihy condition for the ordered pair: the later
    transaction's reads *or* writes intersect the earlier one's writes.
    Entangled transactions conflict with everything that credits the
    coinbase (in this model: every fee-paying transaction), so they are
    treated as conflicting unconditionally.
    """
    if later.entangled or earlier.entangled:
        return True
    return conflicts_with_writes(later, earlier.writes)


@dataclass
class ConflictGraph:
    """Pairwise conflicts among a block's transactions (block order)."""

    size: int
    #: Ordered conflict edges (i, j) with i < j in block order.
    edges: Tuple[Tuple[int, int], ...] = ()

    @property
    def possible_pairs(self) -> int:
        return self.size * (self.size - 1) // 2

    @property
    def conflict_rate(self) -> float:
        if not self.possible_pairs:
            return 0.0
        return len(self.edges) / self.possible_pairs


def build_conflict_graph(access_sets: Sequence[AccessSet]) -> ConflictGraph:
    """Pairwise conflict edges via a write-key index (O(total keys))."""
    writers: Dict[tuple, List[int]] = {}
    wrote = writers.get
    edges: List[Tuple[int, int]] = []
    entangled_before: List[int] = []
    for j, access in enumerate(access_sets):
        if access.entangled:
            # Entangled txs conflict with every predecessor (any of
            # them may have credited the coinbase) and with every
            # successor (handled when the successor is visited).
            seen = range(j)
            entangled_before.append(j)
        else:
            found = set(entangled_before)
            for keys in (access.reads, access.writes):
                for key in keys:
                    earlier = wrote(key)
                    if earlier is not None:
                        found.update(earlier)
            seen = sorted(found)
        edges.extend([(i, j) for i in seen])
        for key in access.writes:
            writers.setdefault(key, []).append(j)
    return ConflictGraph(size=len(access_sets), edges=tuple(edges))


@dataclass
class GreedySchedule:
    """Saraph–Herlihy-style greedy parallel schedule.

    Transactions are placed, in block order, into the earliest
    *generation* after every conflicting predecessor — generation g
    holds transactions whose longest conflict chain has length g.  The
    generation count is the schedule's critical path in "steps"; with
    unlimited lanes the achievable parallelism is ``size /
    generations``.
    """

    generations: Tuple[Tuple[int, ...], ...] = ()
    generation_of: Tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.generations)


def greedy_schedule(graph: ConflictGraph) -> GreedySchedule:
    """Longest-conflict-chain layering of the conflict graph."""
    generation_of: List[int] = []
    buckets: Dict[int, List[int]] = {}
    preds: Dict[int, List[int]] = {}
    for (i, j) in graph.edges:
        preds.setdefault(j, []).append(i)
    for j in range(graph.size):
        level = 0
        for i in preds.get(j, ()):
            level = max(level, generation_of[i] + 1)
        generation_of.append(level)
        buckets.setdefault(level, []).append(j)
    generations = tuple(tuple(buckets[level])
                        for level in sorted(buckets))
    return GreedySchedule(generations=generations,
                          generation_of=tuple(generation_of))


def derive(accesses, costs=None, lanes=4):
    costs = costs or [100] * len(accesses)
    schedule = LaneSchedule(lanes).derive(7, costs, accesses)
    return schedule, schedule.slots


def account_keys(address):
    return {(kind, address) for kind in ("exist", "bal", "nonce", "code")}


# ---------------------------------------------------------------------------
# derivation on hand-built access sets


def test_independent_transactions_all_commit_clean():
    sets = [AccessSet(reads={("bal", i)}, writes={("bal", i)})
            for i in range(4)]
    schedule, slots = derive(sets, costs=[100, 200, 300, 400])
    assert schedule.clean == 4 and schedule.aborted == 0
    assert schedule.conflict_pairs == 0 and schedule.greedy_depth == 1
    assert [o.lane for o in slots] == [0, 1, 2, 3]
    assert schedule.optimistic_makespan == 400
    assert schedule.commit_cost == 4 * WARM_COST
    assert schedule.critical_path == 400 + 4 * WARM_COST
    assert schedule.serial_cost == 1000


def test_read_after_write_aborts_the_reader():
    sets = [AccessSet(writes={("slot", 9, 0)}),
            AccessSet(reads={("slot", 9, 0)}),
            AccessSet(reads={("bal", 7)})]
    schedule, slots = derive(sets)
    assert [o.abort_reason for o in slots] == ["", "conflict", ""]
    assert schedule.aborted_conflict == 1 and schedule.clean == 2
    assert schedule.conflict_pairs == 1
    assert schedule.reexec_cost == 100
    assert schedule.greedy_depth == 2


def test_write_write_conflicts_without_any_read():
    sets = [AccessSet(writes={("slot", 9, 0)}),
            AccessSet(writes={("slot", 9, 0)})]
    _, slots = derive(sets)
    assert [o.abort_reason for o in slots] == ["", "conflict"]


def test_created_account_conflicts_on_each_of_its_keys():
    created = AccessSet(writes=account_keys(0xAA))
    for kind in ("exist", "bal", "nonce", "code"):
        _, slots = derive([created, AccessSet(reads={(kind, 0xAA)})])
        assert slots[1].abort_reason == "conflict", kind
    _, slots = derive([created, AccessSet(reads={("code", 0xAB)})])
    assert not slots[1].abort_reason


def test_entangled_yields_and_conflicts_with_every_predecessor():
    sets = [AccessSet(reads={("bal", 1)}),
            AccessSet(reads={("bal", 2)}),
            AccessSet(reads={("bal", COINBASE)}, entangled=True),
            AccessSet(reads={("bal", 3)})]
    schedule, slots = derive(sets)
    assert [o.abort_reason for o in slots] == ["", "", "entangled", ""]
    assert schedule.aborted_entangled == 1
    # (0,2) (1,2) and (2,3): the successor is chained behind it too.
    assert schedule.conflict_pairs == 3
    assert schedule.greedy_depth == 3


def test_coinbase_credit_is_not_a_key():
    """Two fee payers share no key: the credit is in neither set."""
    sets = [AccessSet(reads={("bal", 1)}, writes={("bal", 1)}),
            AccessSet(reads={("bal", 2)}, writes={("bal", 2)})]
    schedule, _ = derive(sets)
    assert schedule.clean == 2 and schedule.conflict_pairs == 0


def test_aborted_transaction_contributes_only_the_writes_it_kept():
    """tx1 aborts (conflict with tx0) having written K and reverted
    it; tx2 reads K.  Re-executed serially tx1 leaves K untouched, so
    tx2's optimistic read was right.  Had tx1 committed clean, its
    fork's every write would have counted."""
    k = ("slot", 9, 5)
    tx0 = AccessSet(writes={("slot", 9, 0)})
    tx1 = AccessSet(reads={("slot", 9, 0)}, writes={k}, kept=set())
    tx2 = AccessSet(reads={k})
    _, slots = derive([tx0, tx1, tx2])
    assert [o.abort_reason for o in slots] == ["", "conflict", ""]
    clean_tx1 = AccessSet(writes={k}, kept=set())
    _, slots = derive([tx0, clean_tx1, tx2])
    assert [o.abort_reason for o in slots] == ["", "", "conflict"]


def test_lane_dispatch_and_utilization():
    sets = [AccessSet(reads={("bal", i)}) for i in range(5)]
    schedule, slots = derive(sets, costs=[50, 10, 10, 10, 10], lanes=2)
    assert [o.lane for o in slots] == [0, 1, 1, 1, 1]
    assert [(o.start, o.finish) for o in slots] == [
        (0, 50), (0, 10), (10, 20), (20, 30), (30, 40)]
    assert schedule.optimistic_makespan == 50
    assert schedule.lane_utilization_permille == [1000, 800]


key_sets = st.sets(st.tuples(st.sampled_from(("bal", "slot")),
                             st.integers(0, 5)), max_size=4)
generated_sets = st.lists(
    st.builds(AccessSet, reads=key_sets, writes=key_sets,
              entangled=st.integers(0, 9).map(lambda n: n == 0)),
    max_size=12)


@settings(max_examples=150, deadline=None)
@given(generated_sets)
def test_sweep_matches_reference_graph_and_decisions(sets):
    """The fused sweep against the definitions it fuses: the
    Saraph–Herlihy conflict graph, its greedy layering, and the
    clean/abort rule stated on whole access sets."""
    schedule, slots = derive(sets)
    graph = build_conflict_graph(sets)
    assert schedule.conflict_pairs == len(graph.edges)
    assert schedule.possible_pairs == graph.possible_pairs
    assert schedule.greedy_depth == greedy_schedule(graph).depth
    committed = set()
    for access, slot in zip(sets, slots):
        expected = ("entangled" if access.entangled else
                    "conflict" if conflicts_with_writes(access, committed)
                    else "")
        assert slot.abort_reason == expected
        committed |= access.writes
    assert schedule.clean + schedule.aborted == len(sets)
    assert schedule.critical_path == (
        schedule.optimistic_makespan + schedule.commit_cost
        + schedule.reexec_cost)


# ---------------------------------------------------------------------------
# the recording view


def recorded(world, actions):
    view = RecordingView(world, COINBASE)
    actions(view)
    return view, view.take(0)


def funded_world():
    world = WorldState()
    for address in (1, 2, COINBASE):
        world.create_account(address, balance=1000)
    return world


def test_recorder_keys_per_accessor():
    def actions(state):
        state.get_storage(9, 4)
        state.set_storage(9, 5, 1)
        state.get_nonce(1)
        state.increment_nonce(2)
        state.get_code(3)
        state.set_code(3, b"\x00")
        state.sub_balance(1, 10)
        state.create_account(5)
    _, access = recorded(funded_world(), actions)
    assert access.reads == {("slot", 9, 4), ("nonce", 1), ("nonce", 2),
                            ("code", 3), ("bal", 1)}
    assert access.writes == {("slot", 9, 5), ("nonce", 2), ("code", 3),
                             ("bal", 1)} | account_keys(5)
    assert access.kept is None and not access.entangled


def test_recorder_excludes_coinbase_credit_but_pays_its_lookups():
    def credit(state):
        state.add_balance(COINBASE, 7)
    view, access = recorded(funded_world(), credit)
    assert not access.reads and not access.writes
    assert not access.entangled
    assert view.get_balance(COINBASE) == 1007
    # Same disk charges and journal entry as on a plain view.
    plain = StateDB(funded_world())
    plain.add_balance(COINBASE, 7)
    assert view.disk.stats.cold_account_loads == \
        plain.disk.stats.cold_account_loads == 1
    assert view.snapshot() == plain.snapshot() == 1


def test_recorder_explicit_coinbase_touch_is_recorded():
    _, access = recorded(funded_world(),
                         lambda state: state.sub_balance(COINBASE, 1))
    assert ("bal", COINBASE) in access.reads
    assert ("bal", COINBASE) in access.writes
    assert access.entangled


def test_recorder_tells_reverted_writes_apart():
    def actions(state):
        state.set_storage(9, 1, 5)
        snap = state.snapshot()
        state.set_storage(9, 2, 6)
        state.add_balance(COINBASE, 3)
        state.revert_to(snap)
        state.revert_to(state.snapshot())  # no-op revert
    view, access = recorded(funded_world(), actions)
    assert access.writes == {("slot", 9, 1), ("slot", 9, 2)}
    assert access.kept == {("slot", 9, 1)}
    # The take opened a fresh record.
    assert view.take(view.snapshot()) == AccessSet(set(), set())


# ---------------------------------------------------------------------------
# the executor on real blocks


SENDERS = (0xA1, 0xA2, 0xA3, COINBASE)
TOKEN = 0x70CE2
#: Value sent to the token contract is refused: a reverted transfer.
TARGETS = SENDERS + (0xD1, 0xD2, TOKEN)
HEADER = BlockHeader(number=1, timestamp=1000, coinbase=COINBASE)

tx_specs = st.lists(
    st.tuples(st.sampled_from(SENDERS),
              st.sampled_from(("eth", "transfer", "mint", "approve")),
              st.sampled_from(TARGETS),
              st.integers(0, 1500),
              st.booleans()),           # use a stale nonce
    min_size=1, max_size=7)


def build_block(specs):
    world = WorldState()
    for sender in SENDERS:
        world.create_account(sender, balance=10**21)
    world.create_account(TOKEN, code=erc20().code)
    token = erc20()
    nonces = dict.fromkeys(SENDERS, 0)
    txs = []
    for sender, kind, target, amount, stale in specs:
        nonce = nonces[sender] + (1 if stale else 0)
        if kind == "eth":
            tx = Transaction(sender=sender, to=target, nonce=nonce,
                             value=amount, gas_limit=50_000)
        else:
            tx = Transaction(sender=sender, to=TOKEN, nonce=nonce,
                             data=token.calldata(kind, target, amount),
                             gas_limit=300_000)
        if not stale:
            nonces[sender] += 1
        txs.append(tx)
    return world, Block(header=HEADER, transactions=txs)


def receipt_core(receipt):
    result = receipt.result
    return (result.success, result.gas_used, result.return_data,
            result.logs, result.error)


def net_delta(state, span):
    """A journal span's net writes, coinbase balance left out (its
    value depends on how many fees were credited before)."""
    delta = state.witness_deltas([span])[0]
    delta["delta"].pop(("balance", (COINBASE,)), None)
    return delta


def run_block(world, block):
    """``block`` through the node's serial loop on a recording view:
    ``(view, outcomes, access sets)``."""
    accelerator = TransactionAccelerator()
    view = RecordingView(world, COINBASE)
    accesses = []

    def plain(tx, state):
        start = state.snapshot()
        receipt = accelerator.execute_plain(tx, HEADER, state)
        accesses.append(state.take(start))
        return receipt

    outcomes = ParallelBlockExecutor().execute_block(
        view, block.transactions, plain)
    return view, outcomes, accesses


@settings(max_examples=60, deadline=None)
@given(tx_specs, st.sampled_from((2, 4)))
def test_derived_schedule_is_sound(specs, lanes):
    world, block = build_block(specs)
    accelerator = TransactionAccelerator()
    master, outcomes, accesses = run_block(world, block)
    costs = [outcome.receipt.tally.total for outcome in outcomes]
    schedule = LaneSchedule(lanes).derive(1, costs, accesses)
    coinbase_key = ("bal", COINBASE)
    earlier_writes = set()
    for outcome, access, slot in zip(outcomes, accesses, schedule.slots):
        if not slot.abort_reason:
            # Alone on the block's pre-state (``master`` is still
            # uncommitted) it does exactly what it did in the pass.
            solo = StateDB(world)
            receipt = accelerator.execute_plain(outcome.tx, HEADER, solo)
            assert receipt_core(receipt) == receipt_core(outcome.receipt)
            assert net_delta(solo, (0, solo.snapshot())) == \
                net_delta(master, outcome.journal_span)
            earlier_writes |= access.writes
        else:
            if slot.abort_reason == "conflict":
                assert (access.reads | access.writes) & earlier_writes
            else:
                assert slot.abort_reason == "entangled"
                assert coinbase_key in access.reads | access.writes
            left_written = (access.kept if access.kept is not None
                            else access.writes)
            earlier_writes |= left_written - {coinbase_key}
    assert schedule.lanes == lanes
    assert schedule.txs == len(block.transactions)
    assert schedule.serial_cost == sum(costs)


def test_single_transaction_block_reports_configured_lanes():
    world, block = build_block([(0xA1, "eth", 0xD1, 5, False)])
    _, outcomes, accesses = run_block(world, block)
    what_if = LaneSchedule(4)
    schedule = what_if.add_block(
        1, [outcomes[0].receipt.tally.total], accesses)
    assert schedule.lanes == 4 and schedule.clean == 1
    assert what_if.report()["blocks_parallel"] == 1


def test_execute_block_is_reentrant():
    """The per-block strategy is an argument, not executor state: a
    strategy may itself run a block on the same executor."""
    world, block = build_block([(0xA1, "eth", 0xD1, 5, False),
                                (0xA2, "eth", 0xD2, 6, False)])
    inner_world, inner_block = build_block(
        [(0xA3, "mint", 0xD1, 9, False)])
    accelerator = TransactionAccelerator()
    executor = ParallelBlockExecutor()
    assert not hasattr(executor, "execute_fn")
    inner_runs = []

    def plain(tx, state):
        return accelerator.execute_plain(tx, HEADER, state)

    def nesting(tx, state):
        if not inner_runs:
            inner_runs.append(executor.execute_block(
                StateDB(inner_world), inner_block.transactions, plain))
        return plain(tx, state)

    outcomes = executor.execute_block(StateDB(world), block.transactions,
                                      nesting)
    assert [o.receipt.result.success for o in outcomes] == [True, True]
    first, second = [o.journal_span for o in outcomes]
    assert first[0] == 0 < first[1] == second[0] < second[1]
    assert inner_runs[0][0].receipt.result.success


# ---------------------------------------------------------------------------
# the equivalence the offline what-if rests on


def node_run(dataset):
    """Replay ``dataset`` through the node, recording on the side what
    each transaction it hands an AP to accesses: a recording view over
    the same pre-state runs :meth:`TransactionAccelerator.execute`
    first.  Returns ``(run, {tx hash: (AccessSet, outcome)},
    {tx hash: receipt})``."""
    execute = TransactionAccelerator.execute
    execute_block = ParallelBlockExecutor.execute_block
    ap_runs, receipts, mismatches = {}, {}, []

    def recording(self, tx, header, state, ap):
        probe = RecordingView(state.world, header.coinbase)
        # Layered on the node's uncommitted view, as a fork is (without
        # freezing it): the pre-state the node executes on.
        probe._parent = state
        seen = execute(self, tx, header, probe, ap)
        ap_runs[tx.hash] = (probe.take(0), seen.outcome)
        receipt = execute(self, tx, header, state, ap)
        if receipt.outcome != seen.outcome:
            mismatches.append(tx.hash)
        return receipt

    def capturing(self, *args):
        outcomes = execute_block(self, *args)
        receipts.update((o.tx.hash, o.receipt) for o in outcomes)
        return outcomes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransactionAccelerator, "execute", recording)
        patch.setattr(ParallelBlockExecutor, "execute_block", capturing)
        run = replay(dataset, "live")
    # The probe saw the pre-state the node executed on.
    assert not mismatches
    assert run.roots_matched == run.blocks_executed
    return run, ap_runs, receipts


def left_written(access):
    return access.kept if access.kept is not None else access.writes


def test_plain_replay_records_what_the_node_ran():
    """Every AP-run transaction of a seeded L1 replay (satisfied and
    violated) accesses, on its pre-state, what its plain execution in
    the offline replay does: the same writes, the same writes left in
    place, the same entanglement, and the same reads apart from
    ``("code", address)`` (the AP closure never loads code).  And each
    transaction is costed as the node executed it."""
    dataset = record_dataset(DatasetConfig(
        name="L1", traffic=TrafficConfig(duration=60.0, seed=2021),
        observers={"live": LatencyModel()}, seed=2021))
    run, ap_runs, receipts = node_run(dataset)
    outcomes = [outcome for _, outcome in ap_runs.values()]
    assert OUTCOME_SATISFIED in outcomes and OUTCOME_VIOLATED in outcomes
    for report in run.forerunner_node.reports:
        for record in report.records:
            assert execution_cost(record) == \
                receipts[record.tx_hash].tally.total
    compared = 0
    for block, plain_sets in access_sets(dataset):
        # A violated run reverts its envelope, so what it left written
        # is read off the journal, fee credit included; no unentangled
        # set holds that key, so the sweep never meets it.
        fee_credit = {("bal", block.header.coinbase)}
        for tx, plain in zip(block.transactions, plain_sets):
            if tx.hash not in ap_runs:
                continue
            ap_run, _ = ap_runs[tx.hash]
            assert ap_run.writes == plain.writes
            assert left_written(ap_run) - fee_credit == \
                left_written(plain) - fee_credit
            assert ap_run.entangled == plain.entangled
            assert {key for key in ap_run.reads if key[0] != "code"} == \
                {key for key in plain.reads if key[0] != "code"}
            compared += 1
    assert compared == len(ap_runs)
