"""Read/write-set conflict analysis over transaction traces.

Follows Saraph & Herlihy ("An Empirical Study of Speculative
Concurrency in Ethereum Smart Contracts", PAPERS.md): two transactions
conflict when one's accesses intersect the other's writes.  Keys are
fine-grained — ``("bal", addr)``, ``("nonce", addr)``, ``("code",
addr)``, ``("exist", addr)`` and ``("slot", addr, slot)`` — so two
token transfers touching different balances of the same contract do
not conflict.  Commutative coinbase fee credits are excluded from the
access sets entirely (they commute under addition); a transaction that
reads or writes the coinbase balance *explicitly* is flagged
``entangled`` and always yields to serial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple


@dataclass
class AccessSet:
    """One transaction's state accesses, as its execution in block
    order recorded them (:class:`repro.state.statedb.AccessLog`).

    Commutative coinbase fee credits are in neither set; an account
    the transaction created is in ``writes`` under all four of its
    ``exist`` / ``bal`` / ``nonce`` / ``code`` keys.
    """

    reads: AbstractSet[tuple] = frozenset()
    #: Every key written, including writes reverted later in the tx.
    writes: AbstractSet[tuple] = frozenset()
    #: The writes still in place when the tx ended, where some were
    #: reverted (``None``: all of ``writes``) — what the tx contributes
    #: when it aborts and re-executes serially.
    kept: Optional[AbstractSet[tuple]] = None
    #: True when the tx touched the coinbase balance non-commutatively
    #: (explicit read/write) — it must then execute in serial order.
    entangled: bool = False

    def conflicts_with_writes(self, writes: AbstractSet[tuple]) -> bool:
        """Would this tx observe (or clobber) any of ``writes``?"""
        return not (writes.isdisjoint(self.reads)
                    and writes.isdisjoint(self.writes))


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
    return later.conflicts_with_writes(earlier.writes)


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

    def predecessors(self, index: int) -> List[int]:
        return [i for (i, j) in self.edges if j == index]


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

    def parallelism(self) -> float:
        if not self.generations:
            return 1.0
        return sum(len(g) for g in self.generations) / len(self.generations)


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
