"""The derived lane schedule (:meth:`ParallelBlockExecutor.derive`).

The executor runs every transaction once, in block order, and derives
the optimistic-concurrency what-if from the recorded access sets.
These tests establish what the deleted fork / probe-replay machinery
used to establish by doing it:

* the derivation on hand-built :class:`AccessSet`s, cross-checked
  against the reference conflict graph + greedy schedule;
* the access recorder (coinbase credits commute, explicit touches
  entangle, reverted writes are told apart);
* a soundness property over generated blocks — a transaction marked
  *clean*, executed alone on the block's pre-state, reproduces its
  serial receipt and writes; one marked *conflict* touches a key an
  earlier transaction actually wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import erc20
from repro.core.accelerator import TransactionAccelerator
from repro.faults.guard import SpeculationGuard
from repro.faults.injector import FaultInjector, FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.sched.conflicts import AccessSet
from repro.sched.executor import ParallelBlockExecutor, TxOutcome
from repro.state.diskio import WARM_COST
from repro.state.statedb import AccessLog, StateDB
from repro.state.world import WorldState

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


class _Tx:
    def __init__(self, index: int) -> None:
        self.hash = 0x1000 + index


def outcomes_of(accesses, costs=None):
    costs = costs or [100] * len(accesses)
    return [TxOutcome(tx=_Tx(i), receipt=None, index=i,
                      canonical_cost=cost, access=access)
            for i, (access, cost) in enumerate(zip(accesses, costs))]


def derive(accesses, costs=None, lanes=4, plan=None):
    registry = MetricsRegistry()
    injector = FaultInjector(plan, registry=registry) if plan else None
    executor = ParallelBlockExecutor(
        lanes=lanes, registry=registry, injector=injector,
        guard=SpeculationGuard(registry=registry))
    outcomes = outcomes_of(accesses, costs)
    return executor.derive(7, outcomes,
                           [""] * len(outcomes)), outcomes, executor


def account_keys(address):
    return {(kind, address) for kind in ("exist", "bal", "nonce", "code")}


# ---------------------------------------------------------------------------
# derivation on hand-built access sets


def test_independent_transactions_all_commit_clean():
    sets = [AccessSet(reads={("bal", i)}, writes={("bal", i)})
            for i in range(4)]
    schedule, outcomes, _ = derive(sets, costs=[100, 200, 300, 400])
    assert schedule.clean == 4 and schedule.aborted == 0
    assert schedule.conflict_pairs == 0 and schedule.greedy_depth == 1
    assert [o.lane_id for o in outcomes] == [0, 1, 2, 3]
    assert schedule.optimistic_makespan == 400
    assert schedule.commit_cost == 4 * WARM_COST
    assert schedule.critical_path == 400 + 4 * WARM_COST
    assert schedule.serial_cost == 1000


def test_read_after_write_aborts_the_reader():
    sets = [AccessSet(writes={("slot", 9, 0)}),
            AccessSet(reads={("slot", 9, 0)}),
            AccessSet(reads={("bal", 7)})]
    schedule, outcomes, _ = derive(sets)
    assert [o.abort_reason for o in outcomes] == ["", "conflict", ""]
    assert schedule.aborted_conflict == 1 and schedule.clean == 2
    assert schedule.conflict_pairs == 1
    assert schedule.reexec_cost == 100
    assert schedule.greedy_depth == 2


def test_write_write_conflicts_without_any_read():
    sets = [AccessSet(writes={("slot", 9, 0)}),
            AccessSet(writes={("slot", 9, 0)})]
    schedule, outcomes, _ = derive(sets)
    assert [o.abort_reason for o in outcomes] == ["", "conflict"]


def test_created_account_conflicts_on_each_of_its_keys():
    created = AccessSet(writes=account_keys(0xAA))
    for kind in ("exist", "bal", "nonce", "code"):
        schedule, outcomes, _ = derive(
            [created, AccessSet(reads={(kind, 0xAA)})])
        assert outcomes[1].abort_reason == "conflict", kind
    _, outcomes, _ = derive([created, AccessSet(reads={("code", 0xAB)})])
    assert not outcomes[1].aborted


def test_entangled_yields_and_conflicts_with_every_predecessor():
    sets = [AccessSet(reads={("bal", 1)}),
            AccessSet(reads={("bal", 2)}),
            AccessSet(reads={("bal", COINBASE)}, entangled=True),
            AccessSet(reads={("bal", 3)})]
    schedule, outcomes, _ = derive(sets)
    assert [o.abort_reason for o in outcomes] == ["", "", "entangled", ""]
    assert schedule.aborted_entangled == 1
    # (0,2) (1,2) and (2,3): the successor is chained behind it too.
    assert schedule.conflict_pairs == 3
    assert schedule.greedy_depth == 3


def test_coinbase_credit_is_not_a_key():
    """Two fee payers share no key: the credit is in neither set."""
    sets = [AccessSet(reads={("bal", 1)}, writes={("bal", 1)}),
            AccessSet(reads={("bal", 2)}, writes={("bal", 2)})]
    schedule, _, _ = derive(sets)
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
    _, outcomes, _ = derive([tx0, tx1, tx2])
    assert [o.abort_reason for o in outcomes] == ["", "conflict", ""]
    clean_tx1 = AccessSet(writes={k}, kept=set())
    _, outcomes, _ = derive([tx0, clean_tx1, tx2])
    assert [o.abort_reason for o in outcomes] == ["", "", "conflict"]


def test_lane_dispatch_and_utilization():
    sets = [AccessSet(reads={("bal", i)}) for i in range(5)]
    schedule, outcomes, _ = derive(sets, costs=[50, 10, 10, 10, 10],
                                   lanes=2)
    assert [o.lane_id for o in outcomes] == [0, 1, 1, 1, 1]
    assert [(o.start, o.finish) for o in outcomes] == [
        (0, 50), (0, 10), (10, 20), (20, 30), (30, 40)]
    assert schedule.optimistic_makespan == 50
    assert schedule.lane_utilization_permille == [1000, 800]


key_sets = st.sets(st.tuples(st.sampled_from(("bal", "slot")),
                             st.integers(0, 5)), max_size=4)
access_sets = st.lists(
    st.builds(AccessSet, reads=key_sets, writes=key_sets,
              entangled=st.integers(0, 9).map(lambda n: n == 0)),
    max_size=12)


@settings(max_examples=150, deadline=None)
@given(access_sets)
def test_sweep_matches_reference_graph_and_decisions(sets):
    """The fused sweep against the definitions it fuses: the
    Saraph–Herlihy conflict graph, its greedy layering, and the
    clean/abort rule stated on whole access sets."""
    schedule, outcomes, _ = derive(sets)
    graph = build_conflict_graph(sets)
    assert schedule.conflict_pairs == len(graph.edges)
    assert schedule.possible_pairs == graph.possible_pairs
    assert schedule.greedy_depth == greedy_schedule(graph).depth
    committed = set()
    for access, outcome in zip(sets, outcomes):
        expected = ("entangled" if access.entangled else
                    "conflict" if conflicts_with_writes(access, committed)
                    else "")
        assert outcome.abort_reason == expected
        committed |= access.writes
    assert schedule.clean + schedule.aborted == len(sets)
    assert schedule.critical_path == (
        schedule.optimistic_makespan + schedule.commit_cost
        + schedule.reexec_cost)


# ---------------------------------------------------------------------------
# fault sites: same names, same points, what-if only


def test_fork_fault_yields_each_transaction():
    sets = [AccessSet(writes={("bal", i)}) for i in range(3)]
    plan = FaultPlan.uniform(seed=1, probability=1.0,
                             sites=("sched.fork",))
    registry = MetricsRegistry()
    executor = ParallelBlockExecutor(
        lanes=4, registry=registry,
        injector=FaultInjector(plan, registry=registry),
        guard=SpeculationGuard(registry=registry))
    outcomes = outcomes_of(sets)
    forced = [executor._fault("sched.fork", tx=o.tx.hash)
              for o in outcomes]
    schedule = executor.derive(1, outcomes, forced)
    assert forced == ["faulted"] * 3
    assert schedule.aborted_fault == 3 and schedule.clean == 0
    # No optimistic attempt was made: nothing ran on the lanes.
    assert schedule.optimistic_makespan == 0
    assert schedule.reexec_cost == 300
    assert executor.injector.fired("sched.fork") == 3
    assert executor.guard.summary()["by_stage"]["sched.fork"] == 3


def test_conflict_scan_fault_yields_the_whole_block():
    sets = [AccessSet(writes={("bal", 1)}), AccessSet(reads={("bal", 1)})]
    plan = FaultPlan.uniform(seed=1, probability=1.0,
                             sites=("sched.conflict_scan",))
    schedule, outcomes, executor = derive(sets, plan=plan)
    assert [o.abort_reason for o in outcomes] == ["faulted", "faulted"]
    assert schedule.conflict_pairs == 0 and schedule.greedy_depth == 1
    assert executor.injector.fired("sched.conflict_scan") == 1


def test_commit_fault_is_evaluated_per_clean_transaction_only():
    sets = [AccessSet(writes={("bal", 1)}),
            AccessSet(reads={("bal", 1)}),   # conflict: never commits
            AccessSet(writes={("bal", 2)})]
    plan = FaultPlan.uniform(seed=1, probability=1.0,
                             sites=("sched.commit",))
    schedule, outcomes, executor = derive(sets, plan=plan)
    assert [o.abort_reason for o in outcomes] == [
        "faulted", "conflict", "faulted"]
    assert executor.injector.fire_summary()["sched.commit"] == {
        "evaluated": 2, "fired": 2}


# ---------------------------------------------------------------------------
# the access recorder


def recorded(world, actions):
    state = StateDB(world)
    log = state.access = AccessLog(COINBASE)
    actions(state)
    return state, log


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
    _, log = recorded(funded_world(), actions)
    assert log.reads == {("slot", 9, 4), ("nonce", 1), ("nonce", 2),
                         ("code", 3), ("bal", 1)}
    assert log.writes == {("slot", 9, 5), ("nonce", 2), ("code", 3),
                          ("bal", 1)} | account_keys(5)
    assert not log.reverted


def test_recorder_excludes_coinbase_credit_but_pays_its_lookups():
    def credit(state):
        state.add_balance(COINBASE, 7)
    state, log = recorded(funded_world(), credit)
    assert not log.reads and not log.writes
    assert state.access is log  # restored after the credit
    assert state.get_balance(COINBASE) == 1007
    # Same disk charges and journal entry as on an unrecorded view.
    plain = StateDB(funded_world())
    plain.add_balance(COINBASE, 7)
    assert state.disk.stats.cold_account_loads == \
        plain.disk.stats.cold_account_loads == 1
    assert state.snapshot() == plain.snapshot() == 1


def test_recorder_explicit_coinbase_touch_is_recorded():
    _, log = recorded(funded_world(),
                      lambda state: state.sub_balance(COINBASE, 1))
    assert ("bal", COINBASE) in log.reads
    assert ("bal", COINBASE) in log.writes


def test_recorder_tells_reverted_writes_apart():
    def actions(state):
        state.set_storage(9, 1, 5)
        snap = state.snapshot()
        state.set_storage(9, 2, 6)
        state.add_balance(COINBASE, 3)
        state.revert_to(snap)
        state.revert_to(state.snapshot())  # no-op revert
    state, log = recorded(funded_world(), actions)
    assert log.reverted
    assert log.writes == {("slot", 9, 1), ("slot", 9, 2)}
    assert state.written_keys(0, state.snapshot()) == {("slot", 9, 1)}


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


@settings(max_examples=60, deadline=None)
@given(tx_specs, st.sampled_from((2, 4)))
def test_derived_schedule_is_sound(specs, lanes):
    world, block = build_block(specs)
    accelerator = TransactionAccelerator()
    executor = ParallelBlockExecutor(lanes=lanes,
                                     registry=MetricsRegistry())
    master = StateDB(world)
    outcomes = executor.execute_block(
        block, master, block.transactions,
        lambda tx, state: accelerator.execute_plain(tx, HEADER, state))
    assert executor.c_executions.value == len(block.transactions)
    assert master.access is None
    coinbase_key = ("bal", COINBASE)
    earlier_writes = set()
    for outcome in outcomes:
        access = outcome.access
        left_written = master.written_keys(*outcome.journal_span)
        if not outcome.aborted:
            # Alone on the block's pre-state (``master`` is still
            # uncommitted) it does exactly what it did in the pass.
            solo = StateDB(world)
            receipt = accelerator.execute_plain(outcome.tx, HEADER, solo)
            assert receipt_core(receipt) == receipt_core(outcome.receipt)
            assert net_delta(solo, (0, solo.snapshot())) == \
                net_delta(master, outcome.journal_span)
            earlier_writes |= access.writes
        else:
            if outcome.abort_reason == "conflict":
                assert (access.reads | access.writes) & earlier_writes
            else:
                assert outcome.abort_reason == "entangled"
                assert coinbase_key in access.reads | access.writes
            earlier_writes |= left_written - {coinbase_key}
    schedule = executor.schedules[-1]
    assert schedule.lanes == lanes
    assert schedule.serial_cost == sum(
        o.receipt.tally.total for o in outcomes)


def test_single_transaction_block_reports_configured_lanes():
    world, block = build_block([(0xA1, "eth", 0xD1, 5, False)])
    accelerator = TransactionAccelerator()
    executor = ParallelBlockExecutor(lanes=4, registry=MetricsRegistry())
    executor.execute_block(
        block, StateDB(world), block.transactions,
        lambda tx, state: accelerator.execute_plain(tx, HEADER, state))
    schedule = executor.schedules[-1]
    assert schedule.lanes == 4 and schedule.clean == 1
    assert executor.report()["blocks_parallel"] == 1


def test_execute_block_is_reentrant():
    """The per-block strategy is an argument, not executor state: a
    strategy may itself run a block on the same executor."""
    world, block = build_block([(0xA1, "eth", 0xD1, 5, False),
                                (0xA2, "eth", 0xD2, 6, False)])
    inner_world, inner_block = build_block(
        [(0xA3, "mint", 0xD1, 9, False)])
    accelerator = TransactionAccelerator()
    executor = ParallelBlockExecutor(lanes=2, registry=MetricsRegistry())
    assert not hasattr(executor, "execute_fn")
    inner_runs = []

    def plain(tx, state):
        return accelerator.execute_plain(tx, HEADER, state)

    def nesting(tx, state):
        if not inner_runs:
            inner_runs.append(executor.execute_block(
                inner_block, StateDB(inner_world),
                inner_block.transactions, plain))
        return plain(tx, state)

    outcomes = executor.execute_block(block, StateDB(world),
                                      block.transactions, nesting)
    assert [o.receipt.result.success for o in outcomes] == [True, True]
    assert inner_runs[0][0].receipt.result.success
    assert [s.txs for s in executor.schedules] == [1, 2]
    assert executor.report()["executions"] == \
        executor.report()["transactions"] == 3
