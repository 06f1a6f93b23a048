"""The lane what-if: what N optimistic lanes would have made of the
committed blocks, derived offline (Saraph & Herlihy's method, "An
Empirical Study of Speculative Concurrency in Ethereum Smart
Contracts", PAPERS.md).

The node executes each block once, in order, and records nothing for
this.  :func:`access_sets` replays the committed blocks from the
dataset's genesis through the plain EVM on a :class:`RecordingView`,
which records each transaction's fine-grained read/write keys;
:meth:`LaneSchedule.derive` turns those sets, costed as the node
executed each transaction (:func:`execution_cost`), into the schedule:
each transaction runs on the least-loaded lane against the block's
pre-state and commits if none of its keys meets an earlier
transaction's actual writes, else aborts and re-executes serially.
:func:`derive_schedules` is the entry point (``repro report --sched``,
``benchmarks/test_sched_scaling.py``).

Why the replay's sets are the node's (AP runs differ only in
``("code", address)`` reads, which can matter only for a call to a
contract deployed earlier in the same block), why the derived decision
is the optimistic run's own, and the one modelling choice (an aborted
attempt is costed and keyed by its serial execution) are argued in
docs/CONCURRENCY.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (AbstractSet, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.core.accelerator import FIXED_UNITS, TransactionAccelerator
from repro.errors import SimulationError
from repro.state.diskio import WARM_COST
from repro.state.statedb import StateDB
from repro.state.world import WorldState


@dataclass
class AccessSet:
    """One transaction's state accesses, as its execution in block
    order recorded them (:class:`RecordingView`).

    Two transactions conflict when one's accesses intersect the other's
    writes.  Keys are fine-grained — ``("bal", addr)``, ``("nonce",
    addr)``, ``("code", addr)``, ``("exist", addr)`` and ``("slot",
    addr, slot)`` — so two token transfers touching different balances
    of the same contract do not conflict.  Commutative coinbase fee
    credits are in neither set; an account the transaction created is
    in ``writes`` under all four of its account keys.
    """

    reads: AbstractSet[tuple] = frozenset()
    #: Every key written, including writes reverted later in the tx.
    writes: AbstractSet[tuple] = frozenset()
    #: The writes still in place when the tx ended, where some were
    #: reverted (``None``: all of ``writes``) — what the tx contributes
    #: when it aborts and re-executes serially.  Read off the journal,
    #: so it holds a fee credit too; no unentangled set holds that key.
    kept: Optional[AbstractSet[tuple]] = None
    #: True when the tx touched the coinbase balance non-commutatively
    #: (explicit read/write) — it must then execute in serial order.
    entangled: bool = False


#: Journal entry kind -> access key kind.
_ACCESS_KIND = {"balance": "bal", "nonce": "nonce", "code": "code"}
#: The key kinds creating an account writes.
_ACCOUNT_KINDS = ("exist", "bal", "nonce", "code")


class RecordingView(StateDB):
    """A block's execution view that records, per transaction, the
    fine-grained keys its accessors touch.

    Keys are ``("bal" | "nonce" | "code" | "exist", address)`` and
    ``("slot", address, slot)``.  Fee credits to ``coinbase`` through
    :meth:`add_balance` commute, so they are left out; any other touch
    of the coinbase balance is recorded like the rest.  :meth:`take`
    closes one transaction's record and opens the next.
    """

    def __init__(self, world: WorldState, coinbase: int) -> None:
        super().__init__(world)
        self.coinbase = coinbase
        self.reads: Set[tuple] = set()
        #: Every key written — including, once ``reverted`` is set,
        #: writes that :meth:`revert_to` has since undone.
        self.writes: Set[tuple] = set()
        self.reverted = False

    def take(self, start: int) -> AccessSet:
        """The accesses recorded since the last take, as the
        :class:`AccessSet` of the transaction whose journal span began
        at ``start`` (a :meth:`snapshot`)."""
        coinbase_key = ("bal", self.coinbase)
        access = AccessSet(
            self.reads, self.writes,
            kept=self._written_keys(start) if self.reverted else None,
            entangled=(coinbase_key in self.reads
                       or coinbase_key in self.writes))
        self.reads, self.writes, self.reverted = set(), set(), False
        return access

    def _written_keys(self, start: int) -> Set[tuple]:
        """Keys of the writes journaled since ``start`` and not
        reverted since (a transaction's *actual* writes)."""
        keys: Set[tuple] = set()
        for entry in self._journal[start:]:
            journaled = entry[0]
            if journaled == "storage":
                keys.add(("slot", entry[1], entry[2]))
            elif journaled == "create":
                keys.update((kind, entry[1]) for kind in _ACCOUNT_KINDS)
            elif journaled != "log":
                keys.add((_ACCESS_KIND[journaled], entry[1]))
        return keys

    # -- the recording accessors -------------------------------------------

    def create_account(self, address: int, balance: int = 0,
                       code: bytes = b"") -> None:
        self.writes.update((kind, address) for kind in _ACCOUNT_KINDS)
        super().create_account(address, balance, code)

    def get_balance(self, address: int) -> int:
        self.reads.add(("bal", address))
        return super().get_balance(address)

    def set_balance(self, address: int, value: int) -> None:
        self.writes.add(("bal", address))
        super().set_balance(address, value)

    def add_balance(self, address: int, amount: int) -> None:
        if address == self.coinbase:
            # Commutative fee credit: same lookups and journal entry,
            # no conflict keys.
            StateDB.set_balance(
                self, address, StateDB.get_balance(self, address) + amount)
            return
        super().add_balance(address, amount)

    def get_nonce(self, address: int) -> int:
        self.reads.add(("nonce", address))
        return super().get_nonce(address)

    def increment_nonce(self, address: int) -> None:
        # Read-modify-write: the new nonce depends on the old one.
        self.reads.add(("nonce", address))
        self.writes.add(("nonce", address))
        super().increment_nonce(address)

    def get_code(self, address: int) -> bytes:
        self.reads.add(("code", address))
        return super().get_code(address)

    def set_code(self, address: int, code: bytes) -> None:
        self.writes.add(("code", address))
        super().set_code(address, code)

    def get_storage(self, address: int, slot: int) -> int:
        self.reads.add(("slot", address, slot))
        return super().get_storage(address, slot)

    def set_storage(self, address: int, slot: int, value: int) -> None:
        self.writes.add(("slot", address, slot))
        super().set_storage(address, slot, value)

    def revert_to(self, snap: int) -> None:
        if len(self._journal) > snap:
            self.reverted = True
        super().revert_to(snap)


def access_sets(dataset) -> Iterator[Tuple[object, List[AccessSet]]]:
    """Re-execute ``dataset``'s committed blocks from its genesis
    through the plain EVM, yielding each block with its transactions'
    access sets in block order.  Raises :class:`SimulationError` when
    a block's post-state root is not the one it was committed with."""
    world = dataset.genesis_world.copy()
    accelerator = TransactionAccelerator()
    for _, block in dataset.blocks:
        view = RecordingView(world, block.header.coinbase)
        sets = []
        for tx in block.transactions:
            start = view.snapshot()
            accelerator.execute_plain(tx, block.header, view)
            sets.append(view.take(start))
        view.commit()
        if block.state_root is not None and world.root() != block.state_root:
            raise SimulationError(
                f"the what-if replay diverged at block {block.number}")
        yield block, sets


def execution_cost(record) -> int:
    """What executing ``record``'s transaction cost the node: its
    receipt's ``tally.total``.  (``record.cost`` is not that number:
    an unheard transaction's carries ``UNHEARD_OVERHEAD_FACTOR``.)"""
    return record.cpu_units + record.io_units + FIXED_UNITS[record.outcome]


class TxSlot(NamedTuple):
    """Where the what-if put one transaction."""

    lane: int
    start: int
    finish: int
    #: ``""`` (committed clean), ``"conflict"`` or ``"entangled"``.
    abort_reason: str


@dataclass
class BlockSchedule:
    """Per-block scheduling outcome (deterministic, report-ready)."""

    block_number: int
    lanes: int
    txs: int
    clean: int = 0
    aborted_conflict: int = 0
    aborted_entangled: int = 0
    conflict_pairs: int = 0
    possible_pairs: int = 0
    greedy_depth: int = 0
    serial_cost: int = 0
    optimistic_makespan: int = 0
    commit_cost: int = 0
    reexec_cost: int = 0
    lane_utilization_permille: List[int] = field(default_factory=list)
    #: Per transaction, in block order.
    slots: List[TxSlot] = field(default_factory=list)

    @property
    def aborted(self) -> int:
        return self.aborted_conflict + self.aborted_entangled

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
            "aborted": _aborted(self.aborted_conflict,
                                self.aborted_entangled),
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


def _aborted(conflict: int, entangled: int) -> Dict[str, int]:
    # No fault reaches an offline analysis; ``faulted`` stays in the
    # payload its readers parse.
    return {"conflict": conflict, "entangled": entangled, "faulted": 0}


class LaneSchedule:
    """The what-if of ``lanes`` optimistic lanes over a run's blocks.

    ``lanes == 1`` is block order itself (no access set is read);
    ``lanes >= 2`` is :meth:`derive`.
    """

    def __init__(self, lanes: int) -> None:
        self.lanes = max(1, lanes)
        self.schedules: List[BlockSchedule] = []

    def add_block(self, block_number: int, costs: Sequence[int],
                  accesses: Sequence[AccessSet] = ()) -> BlockSchedule:
        schedule = (self.derive(block_number, costs, accesses)
                    if self.lanes > 1 else _serial(block_number, costs))
        self.schedules.append(schedule)
        return schedule

    def derive(self, block_number: int, costs: Sequence[int],
               accesses: Sequence[AccessSet]) -> BlockSchedule:
        """The schedule ``self.lanes`` optimistic lanes would have made
        of a block whose transactions, in order, cost ``costs`` and
        accessed ``accesses``: one sweep, O(total keys)."""
        size = len(costs)
        schedule = BlockSchedule(
            block_number=block_number, lanes=self.lanes, txs=size,
            possible_pairs=size * (size - 1) // 2,
            serial_cost=sum(costs))
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
        for index, (cost, access) in enumerate(zip(costs, accesses)):
            # The least-loaded lane runs the attempt (ties: lowest id).
            lane = clocks.index(min(clocks))
            start = clocks[lane]
            clocks[lane] = start + cost
            reason = ""
            if access.entangled:
                # Conflicts with every predecessor: any of them may
                # have credited the coinbase.
                earlier = range(index)
                entangled.append(index)
                reason = "entangled"
            else:
                shared = written.intersection(access.reads)
                shared.update(written.intersection(access.writes))
                earlier = set(entangled)
                for key in shared:
                    earlier.update(writers.get(key, ()))
                if shared and not committed_writes.isdisjoint(shared):
                    reason = "conflict"
            schedule.conflict_pairs += len(earlier)
            depth_of.append(
                1 + max([depth_of[i] for i in earlier]) if earlier else 1)
            if reason:
                # It re-executes serially: what counts is what that
                # left written, not what it wrote and took back.
                actual = access.kept
                if actual is None:
                    actual = access.writes
                committed_writes |= actual
                written |= actual
                schedule.reexec_cost += cost
                if reason == "conflict":
                    schedule.aborted_conflict += 1
                else:
                    schedule.aborted_entangled += 1
            else:
                committed_writes |= access.writes
                schedule.clean += 1
                # Folding a clean tx in: a warm touch per written key.
                schedule.commit_cost += len(access.writes) * WARM_COST
            for key in access.writes:
                writers.setdefault(key, []).append(index)
            written |= access.writes
            schedule.slots.append(TxSlot(lane, start, clocks[lane], reason))
        schedule.greedy_depth = max(depth_of, default=0)
        schedule.optimistic_makespan = span = max(clocks)
        schedule.lane_utilization_permille = [
            int(round(1000 * clock / span)) if span else 0
            for clock in clocks]
        return schedule

    def report(self) -> Dict[str, object]:
        """Aggregate, canonical what-if report across all blocks."""
        schedules = self.schedules
        parallel = self.lanes > 1

        def total(name: str) -> int:
            return sum(getattr(schedule, name) for schedule in schedules)

        txs = total("txs")
        serial = total("serial_cost")
        critical = total("critical_path")
        pairs = total("conflict_pairs")
        possible = total("possible_pairs")
        return {
            "lanes": self.lanes,
            "blocks": len(schedules),
            "blocks_parallel": len(schedules) if parallel else 0,
            "transactions": txs,
            # Every transaction executed once, in block order.
            "executions": txs,
            # Block order commits nothing "clean": only a derivation does.
            "clean_commits": total("clean") if parallel else 0,
            "aborted": _aborted(total("aborted_conflict"),
                                total("aborted_entangled")),
            "conflict_pairs": pairs,
            "possible_pairs": possible,
            "conflict_rate": round(pairs / possible, 6)
            if possible else 0.0,
            "serial_cost_units": serial,
            "critical_path_units": critical,
            "commit_cost_units": total("commit_cost"),
            "reexec_cost_units": total("reexec_cost"),
            "speedup": round(serial / critical, 4) if critical else 1.0,
        }


def _serial(block_number: int, costs: Sequence[int]) -> BlockSchedule:
    """One lane: block order *is* the schedule."""
    schedule = BlockSchedule(
        block_number=block_number, lanes=1, txs=len(costs), clean=len(costs),
        lane_utilization_permille=[1000] if costs else [0])
    clock = 0
    for cost in costs:
        schedule.slots.append(TxSlot(0, clock, clock + cost, ""))
        clock += cost
    schedule.serial_cost = schedule.optimistic_makespan = clock
    return schedule


def derive_schedules(dataset, reports, lanes: int) -> Dict[str, object]:
    """``{"executor": ..., "blocks": [...]}``: the what-if of ``lanes``
    lanes over the blocks of ``dataset`` that ``reports`` (a node's
    :class:`~repro.core.node.BlockReport` list, in commit order)
    committed, each transaction costed as the node executed it."""
    what_if = LaneSchedule(lanes)
    blocks = (access_sets(dataset) if what_if.lanes > 1
              else ((block, ()) for _, block in dataset.blocks))
    for report, (block, accesses) in zip(reports, blocks):
        if report.block_number != block.number:
            raise SimulationError(
                f"block {report.block_number} was committed where the "
                f"dataset has block {block.number}")
        what_if.add_block(block.number,
                          [execution_cost(record)
                           for record in report.records], accesses)
    return {"executor": what_if.report(),
            "blocks": [schedule.as_dict()
                       for schedule in what_if.schedules]}
