"""Block executor: one serial pass, and the lane schedule derived from it.

Every transaction executes **once**, in block order, on the master
StateDB — so committed roots, receipts and the Table 2/3 cost columns
are the serial ones by construction at every lane count.  While it
runs, the StateDB records the transaction's fine-grained read/write
keys (:class:`repro.state.statedb.AccessLog`); afterwards one sweep
over those sets *derives* what optimistic concurrency on N lanes would
have done with the block — the Saraph–Herlihy estimate, which reads
speculative concurrency off the sequential replay's access sets
instead of re-executing against stale state.  Parallelism surfaces
only in the scheduler's own metrics (critical-path cost units, lane
utilization, abort rates).

The what-if being derived
-------------------------

Each transaction is dispatched to the least-loaded of N virtual lanes
and runs optimistically on the block's pre-state.  In block order it
then *commits* if none of its accessed keys intersects the actual
writes of an earlier transaction (a clean one contributes every key it
wrote, an aborted one the writes left in the master journal), and is
otherwise *aborted* and re-executed serially.  Commutative coinbase
fee credits are excluded from the sets; a transaction touching the
coinbase balance explicitly is "entangled" and always re-executes.

The serial access set decides this exactly as the optimistic run's
would have: the two runs read identical values up to their first
access to a key an earlier transaction wrote, so that access happens
in both or in neither.  One modelling choice remains: an *aborted*
transaction's optimistic attempt is costed and keyed by its serial
execution rather than by the stale-state attempt it stands for
(docs/CONCURRENCY.md has the measured effect).

*Faults.*  Three ``sched.*`` sites are evaluated where the machinery
they stood for would run: ``sched.fork`` per transaction (no
optimistic attempt: it yields to serial order), ``sched.conflict_scan``
per block (the whole block yields) and ``sched.commit`` per clean
transaction (it yields).  They move the what-if only — nothing was
applied, so there is nothing to revert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import NULL_INJECTOR
from repro.obs.registry import MetricsRegistry, get_registry
from repro.sched.conflicts import AccessSet
from repro.state.diskio import WARM_COST
from repro.state.statedb import AccessLog, StateDB


@dataclass
class TxOutcome:
    """One transaction's committed result plus scheduling telemetry."""

    tx: object
    receipt: object
    index: int
    lane_id: int = 0
    start: int = 0
    finish: int = 0
    aborted: bool = False
    abort_reason: str = ""
    optimistic_cost: int = 0
    canonical_cost: int = 0
    #: What the execution touched (``None`` at ``lanes == 1``, where
    #: nothing is recorded).
    access: Optional[AccessSet] = None
    #: Master-journal positions (start, end) spanning this tx.
    #: Consumed by :meth:`StateDB.witness_deltas` before the block
    #: commits.
    journal_span: Tuple[int, int] = (0, 0)
    #: Master log-list span (start, end) for this transaction.
    logs_span: Tuple[int, int] = (0, 0)


@dataclass
class BlockSchedule:
    """Per-block scheduling outcome (deterministic, report-ready)."""

    block_number: int
    lanes: int
    txs: int
    clean: int = 0
    aborted_conflict: int = 0
    aborted_entangled: int = 0
    aborted_fault: int = 0
    conflict_pairs: int = 0
    possible_pairs: int = 0
    greedy_depth: int = 0
    serial_cost: int = 0
    optimistic_makespan: int = 0
    commit_cost: int = 0
    reexec_cost: int = 0
    lane_utilization_permille: List[int] = field(default_factory=list)

    @property
    def aborted(self) -> int:
        return (self.aborted_conflict + self.aborted_entangled
                + self.aborted_fault)

    @property
    def critical_path(self) -> int:
        return self.optimistic_makespan + self.commit_cost \
            + self.reexec_cost

    @property
    def speedup(self) -> float:
        if self.critical_path <= 0:
            return 1.0
        return self.serial_cost / self.critical_path

    @property
    def conflict_rate(self) -> float:
        if not self.possible_pairs:
            return 0.0
        return self.conflict_pairs / self.possible_pairs

    def as_dict(self) -> Dict[str, object]:
        return {
            "block": self.block_number,
            "lanes": self.lanes,
            "txs": self.txs,
            "clean": self.clean,
            "aborted": {
                "conflict": self.aborted_conflict,
                "entangled": self.aborted_entangled,
                "faulted": self.aborted_fault,
            },
            "conflict_pairs": self.conflict_pairs,
            "conflict_rate": round(self.conflict_rate, 6),
            "greedy_depth": self.greedy_depth,
            "serial_cost": self.serial_cost,
            "optimistic_makespan": self.optimistic_makespan,
            "commit_cost": self.commit_cost,
            "reexec_cost": self.reexec_cost,
            "critical_path": self.critical_path,
            "speedup": round(self.speedup, 4),
            "lane_utilization_permille": list(
                self.lane_utilization_permille),
        }


#: What a transaction that made no optimistic attempt accessed.
_NO_ACCESS = AccessSet()

#: ``execute_fn(tx, state) -> AcceleratedReceipt`` — the node's
#: execution strategy (AP fast path with containment, or plain EVM).
ExecuteFn = Callable[[object, StateDB], object]


class ParallelBlockExecutor:
    """Executes one block and reports how N deterministic lanes would
    have scheduled it.

    ``lanes == 1`` is the plain serial loop; ``lanes >= 2`` is the same
    loop with access recording on, followed by :meth:`derive`.  Either
    way the committed master state, receipts and tallies are the
    serial ones.
    """

    def __init__(self, lanes: int = 1,
                 registry: Optional[MetricsRegistry] = None,
                 injector=None, guard=None) -> None:
        self.lanes = max(1, lanes)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.guard = guard
        obs = (registry or get_registry()).scope("sched")
        self.c_blocks = obs.counter("blocks")
        self.c_blocks_parallel = obs.counter("blocks_parallel")
        self.c_txs = obs.counter("transactions")
        self.c_executions = obs.counter("executions")
        self.c_clean = obs.counter("clean_commits")
        self.c_abort_conflict = obs.counter("aborted.conflict")
        self.c_abort_entangled = obs.counter("aborted.entangled")
        self.c_abort_fault = obs.counter("aborted.faulted")
        self.c_conflict_pairs = obs.counter("conflict_pairs")
        self.c_possible_pairs = obs.counter("possible_pairs")
        self.c_serial_cost = obs.counter("serial_cost_units")
        self.c_critical_path = obs.counter("critical_path_units")
        self.c_reexec_cost = obs.counter("reexec_cost_units")
        self.c_commit_cost = obs.counter("commit_cost_units")
        self.g_utilization = obs.gauge("lane_utilization_permille")
        self.schedules: List[BlockSchedule] = []

    # -- the one pass ----------------------------------------------------

    def execute_block(self, block, master: StateDB, plans,
                      execute_fn: ExecuteFn) -> List[TxOutcome]:
        """Execute ``block`` onto ``master`` (uncommitted).

        ``plans`` is the ordered list of transactions (whatever objects
        ``execute_fn`` accepts alongside a StateDB).  Returns per-tx
        outcomes in block order; the caller commits ``master``.
        """
        record = self.lanes > 1
        chaos = self.injector.enabled
        coinbase = block.header.coinbase
        coinbase_key = ("bal", coinbase)
        outcomes: List[TxOutcome] = []
        forced: List[str] = []
        end, logs_end = master.snapshot(), len(master.logs)
        try:
            for index, tx in enumerate(plans):
                if record:
                    if chaos:
                        forced.append(self._fault("sched.fork", tx=tx.hash))
                    log = master.access = AccessLog(coinbase)
                start, logs_start = end, logs_end
                receipt = execute_fn(tx, master)
                self.c_executions.inc()
                end, logs_end = master.snapshot(), len(master.logs)
                outcome = TxOutcome(
                    tx=tx, receipt=receipt, index=index,
                    canonical_cost=receipt.tally.total,
                    journal_span=(start, end),
                    logs_span=(logs_start, logs_end))
                if record:
                    outcome.access = AccessSet(
                        log.reads, log.writes,
                        kept=(master.written_keys(start, end)
                              if log.reverted else None),
                        entangled=(coinbase_key in log.reads
                                   or coinbase_key in log.writes))
                outcomes.append(outcome)
        finally:
            master.access = None
        schedule = (self.derive(block.number, outcomes, forced) if record
                    else self._serial_schedule(block.number, outcomes))
        self._finish_block(schedule, parallel=record)
        return outcomes

    def _serial_schedule(self, block_number: int,
                         outcomes: Sequence[TxOutcome]) -> BlockSchedule:
        """``lanes == 1``: block order *is* the schedule."""
        clock = 0
        for outcome in outcomes:
            outcome.start = clock
            clock += outcome.canonical_cost
            outcome.finish = clock
            outcome.optimistic_cost = outcome.canonical_cost
        return BlockSchedule(
            block_number=block_number, lanes=1, txs=len(outcomes),
            clean=len(outcomes), serial_cost=clock,
            optimistic_makespan=clock,
            lane_utilization_permille=[1000] if outcomes else [0])

    # -- the derived what-if ---------------------------------------------

    def derive(self, block_number: int, outcomes: Sequence[TxOutcome],
               forced: Sequence[str] = ()) -> BlockSchedule:
        """The schedule ``self.lanes`` optimistic lanes would have made
        of a block whose transactions, in order, cost
        ``outcome.canonical_cost`` and accessed ``outcome.access``: one
        sweep, O(total keys).  Annotates each outcome with its lane,
        clock span and abort reason.

        ``forced[i]`` pre-aborts transaction ``i`` (a ``sched.fork``
        fault: it made no optimistic attempt).
        """
        size = len(outcomes)
        forced = list(forced) or [""] * size
        # Without a trustworthy scan every tx yields to serial order
        # and no conflict is known.
        scanned = not self._fault("sched.conflict_scan", block=block_number)
        schedule = BlockSchedule(
            block_number=block_number, lanes=self.lanes, txs=size,
            possible_pairs=size * (size - 1) // 2,
            serial_cost=sum(o.canonical_cost for o in outcomes))
        # Lane clocks, in cost units: every lane starts at 0 and never
        # idles, so a lane's clock is also its busy time.
        clocks = [0] * self.lanes
        # ``writers``: key -> the earlier attempts that wrote it;
        # ``written``: those keys plus every actual write so far, as a
        # set.  Set-with-set tests reuse stored hashes, so a tx is
        # checked against the whole prefix in a few C calls and only
        # the keys it shares with it are looked up one by one.
        writers: Dict[tuple, List[int]] = {}
        written: set = set()
        committed_writes: set = set()  # actual writes so far
        entangled: List[int] = []
        depth_of: List[int] = []  # longest conflict chain ending at tx
        for index, (outcome, unforked) in enumerate(zip(outcomes, forced)):
            cost = outcome.canonical_cost
            # The least-loaded lane runs the attempt (ties: lowest id);
            # a tx that never forked has neither an attempt nor an
            # optimistic access set.
            outcome.lane_id = lane = clocks.index(min(clocks))
            outcome.optimistic_cost = 0 if unforked else cost
            outcome.start = clocks[lane]
            clocks[lane] = outcome.finish = \
                outcome.start + outcome.optimistic_cost
            access = _NO_ACCESS if unforked else outcome.access
            reason = unforked if scanned else "faulted"
            if access.entangled:
                # Conflicts with every predecessor: any of them may
                # have credited the coinbase.
                earlier = range(index)
                entangled.append(index)
                reason = reason or "entangled"
            else:
                shared = written.intersection(access.reads)
                shared.update(written.intersection(access.writes))
                earlier = set(entangled)
                for key in shared:
                    earlier.update(writers.get(key, ()))
                if shared and not reason and not (
                        committed_writes.isdisjoint(shared)):
                    reason = "conflict"
            if not scanned:
                earlier = ()
            schedule.conflict_pairs += len(earlier)
            depth_of.append(
                1 + max([depth_of[i] for i in earlier]) if earlier else 1)
            reason = reason or self._fault("sched.commit",
                                           tx=outcome.tx.hash)
            if reason:
                # It re-executes serially: what counts is what that
                # left written, not what it wrote and took back.
                actual = outcome.access.kept
                if actual is None:
                    actual = outcome.access.writes
                committed_writes |= actual
                written |= actual
                schedule.reexec_cost += cost
                self._count_abort(schedule, reason)
            else:
                committed_writes |= access.writes
                schedule.clean += 1
                # Folding a clean tx in: a warm touch per written key.
                schedule.commit_cost += len(access.writes) * WARM_COST
            for key in access.writes:
                writers.setdefault(key, []).append(index)
            written |= access.writes
            outcome.aborted, outcome.abort_reason = bool(reason), reason
        schedule.greedy_depth = max(depth_of, default=0)
        schedule.optimistic_makespan = span = max(clocks)
        schedule.lane_utilization_permille = [
            int(round(1000 * clock / span)) if span else 0
            for clock in clocks]
        return schedule

    def _fault(self, site: str, **ctx) -> str:
        """``"faulted"`` when ``site``'s injected fault fires (counted
        as contained, like every other speculative-stage fault)."""
        if not self.injector.enabled:
            return ""
        if self.guard is None:
            return "faulted" if self.injector.evaluate(site, **ctx) else ""
        _, faulted = self.guard.run(
            site, lambda: self.injector.maybe_raise(site, **ctx),
            count_fallback=False)
        return "faulted" if faulted else ""

    # -- bookkeeping -----------------------------------------------------

    def _count_abort(self, schedule: BlockSchedule, reason: str) -> None:
        if reason == "conflict":
            schedule.aborted_conflict += 1
            self.c_abort_conflict.inc()
        elif reason == "entangled":
            schedule.aborted_entangled += 1
            self.c_abort_entangled.inc()
        else:
            schedule.aborted_fault += 1
            self.c_abort_fault.inc()

    def _finish_block(self, schedule: BlockSchedule,
                      parallel: bool) -> None:
        self.schedules.append(schedule)
        self.c_blocks.inc()
        if parallel:
            self.c_blocks_parallel.inc()
        self.c_txs.inc(schedule.txs)
        self.c_clean.inc(schedule.clean if parallel else 0)
        self.c_conflict_pairs.inc(schedule.conflict_pairs)
        self.c_possible_pairs.inc(schedule.possible_pairs)
        self.c_serial_cost.inc(schedule.serial_cost)
        self.c_critical_path.inc(schedule.critical_path)
        self.c_reexec_cost.inc(schedule.reexec_cost)
        self.c_commit_cost.inc(schedule.commit_cost)
        self.g_utilization.set(
            sum(schedule.lane_utilization_permille)
            // max(len(schedule.lane_utilization_permille), 1))

    def report(self) -> Dict[str, object]:
        """Aggregate, canonical scheduler report across all blocks."""
        serial = self.c_serial_cost.value
        critical = self.c_critical_path.value
        possible = self.c_possible_pairs.value
        return {
            "lanes": self.lanes,
            "blocks": self.c_blocks.value,
            "blocks_parallel": self.c_blocks_parallel.value,
            "transactions": self.c_txs.value,
            "executions": self.c_executions.value,
            "clean_commits": self.c_clean.value,
            "aborted": {
                "conflict": self.c_abort_conflict.value,
                "entangled": self.c_abort_entangled.value,
                "faulted": self.c_abort_fault.value,
            },
            "conflict_pairs": self.c_conflict_pairs.value,
            "possible_pairs": possible,
            "conflict_rate": round(
                self.c_conflict_pairs.value / possible, 6)
            if possible else 0.0,
            "serial_cost_units": serial,
            "critical_path_units": critical,
            "commit_cost_units": self.c_commit_cost.value,
            "reexec_cost_units": self.c_reexec_cost.value,
            "speedup": round(serial / critical, 4) if critical else 1.0,
        }
