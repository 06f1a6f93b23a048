"""Gossip network: per-participant message arrival times.

The asynchronous gossip protocol is the root cause of the many-future
problem (paper §4.2): each miner observes a different subset and
ordering of pending transactions, and the evaluation node hears most —
but not all — transactions before they are mined.

The model assigns every broadcast message an independent arrival delay
per participant.  Transactions flagged ``origin_miner`` are *private*:
they reach only their miner (e.g. mining-pool-direct submissions) and
are never heard by observers before inclusion.

Arrival draws are **order-independent**: each (transaction,
participant) pair seeds its own RNG from
``hash(seed, tx.hash, participant)``, so adding an observer, reordering
registration, or a private transaction (which consumes no draws) never
perturbs any other participant's arrival time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.transaction import Transaction
from repro.obs.registry import get_registry
from repro.p2p.latency import LatencyModel
from repro.utils.hashing import hash_words, keccak_int


def _participant_id(participant) -> int:
    """Stable integer id of a participant (miner int or observer name)."""
    if isinstance(participant, int):
        return participant
    return keccak_int(str(participant).encode("utf-8"))


@dataclass
class GossipNetwork:
    """Assigns arrival times of transactions to miners and observers."""

    miner_ids: List[int]
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Per-observer latency models (observers differ in connectivity —
    #: the paper's L1 vs R1 heard-rate difference, §5.1).
    observer_latencies: Dict[str, LatencyModel] = field(default_factory=dict)
    seed: int = 7
    #: Chaos hook (:mod:`repro.faults`): record-time network faults —
    #: ``gossip.deliver`` rules here drop (arrival=inf), duplicate
    #: (no-op on a per-participant schedule) or reorder (delay) each
    #: *observer* arrival.  Miner arrivals are left alone: miners are
    #: the ground truth the recorded blocks came from.
    injector: object = None

    def __post_init__(self) -> None:
        obs = get_registry().scope("gossip")
        self.c_disseminated = obs.counter("disseminated")
        self.c_private = obs.counter("private")

    def add_observer(self, name: str,
                     latency: Optional[LatencyModel] = None) -> None:
        self.observer_latencies[name] = latency or self.latency

    def _draw_rng(self, tx: Transaction, participant) -> random.Random:
        """Private RNG for one (tx, participant) delay draw."""
        return random.Random(hash_words(
            (self.seed, tx.hash, _participant_id(participant))))

    def disseminate(self, tx: Transaction, born: float
                    ) -> "Dissemination":
        """Sample when each participant hears ``tx``."""
        self.c_disseminated.inc()
        miner_arrivals: Dict[int, float] = {}
        observer_arrivals: Dict[str, float] = {}
        if tx.origin_miner is not None:
            # Private transaction: direct to one miner only.
            self.c_private.inc()
            miner_arrivals[tx.origin_miner] = born
            for name in self.observer_latencies:
                observer_arrivals[name] = float("inf")
            for miner in self.miner_ids:
                if miner != tx.origin_miner:
                    miner_arrivals[miner] = float("inf")
            return Dissemination(tx, born, miner_arrivals, observer_arrivals)
        for miner in self.miner_ids:
            miner_arrivals[miner] = born + self.latency.sample(
                self._draw_rng(tx, miner))
        for name, model in self.observer_latencies.items():
            arrival = born + model.sample(self._draw_rng(tx, name))
            observer_arrivals[name] = self._apply_fault(
                tx, name, arrival)
        return Dissemination(tx, born, miner_arrivals, observer_arrivals)

    def _apply_fault(self, tx: Transaction, name: str,
                     arrival: float) -> float:
        """Record-time chaos on one observer arrival (see ``injector``)."""
        if self.injector is None or not self.injector.enabled:
            return arrival
        rule = self.injector.evaluate("gossip.deliver", tx=tx.hash,
                                      observer=name)
        if rule is None or rule.kind == "duplicate":
            return arrival
        if rule.kind == "reorder":
            return arrival + rule.reorder_seconds()
        return float("inf")  # drop (and any raise-kind rule)


@dataclass
class Dissemination:
    """Arrival schedule of one transaction."""

    tx: Transaction
    born: float
    miner_arrivals: Dict[int, float]
    observer_arrivals: Dict[str, float]
