"""Pending transaction pool with per-sender nonce queues.

Every node keeps one: transactions arrive from gossip, leave when a
block packs them.  Miners draw their packing candidates from here;
Forerunner's predictor monitors it (paper Figure 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.chain.transaction import Transaction
from repro.obs.registry import MetricsRegistry, get_registry


class TxPool:
    """Pending pool: hash-indexed with per-sender nonce queues.

    Instrumented under the ``txpool.*`` obs scope: arrivals,
    replacements, rejected (lower-priced duplicate) and removed
    transactions, plus a size gauge.
    """

    def __init__(self,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._by_hash: Dict[int, Transaction] = {}
        self._by_sender: Dict[int, Dict[int, Transaction]] = {}
        self.arrival_times: Dict[int, float] = {}
        obs = (registry or get_registry()).scope("txpool")
        self.c_added = obs.counter("added")
        self.c_replaced = obs.counter("replaced")
        self.c_rejected = obs.counter("rejected")
        self.c_removed = obs.counter("removed")
        self.c_requeued = obs.counter("requeued")
        self._g_size = obs.gauge("size")

    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, tx_hash: int) -> bool:
        return tx_hash in self._by_hash

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Insert a pending transaction; replaces a same-nonce tx only
        if the newcomer pays a strictly higher gas price (like geth's
        replacement rule).  Returns True if inserted."""
        sender_queue = self._by_sender.setdefault(tx.sender, {})
        existing = sender_queue.get(tx.nonce)
        if existing is not None:
            if tx.gas_price <= existing.gas_price:
                self.c_rejected.inc()
                return False
            self._by_hash.pop(existing.hash, None)
            self.arrival_times.pop(existing.hash, None)
            self.c_replaced.inc()
        sender_queue[tx.nonce] = tx
        self._by_hash[tx.hash] = tx
        self.arrival_times[tx.hash] = now
        self.c_added.inc()
        self._g_size.set(len(self._by_hash))
        return True

    def requeue(self, tx: Transaction, now: float = 0.0) -> bool:
        """Return a reorged-out transaction to the pool.

        Goes through :meth:`add`, so the transaction re-enters its
        sender's nonce queue (closing any nonce gap it left) and is
        re-ranked by the *live* priority key when next packed — never
        appended with the priority snapshot it held on the abandoned
        branch.  The
        original arrival time is preserved when known, keeping
        heard-delay accounting stable across the reorg.
        """
        arrival = self.arrival_times.get(tx.hash, now)
        if not self.add(tx, arrival):
            return False
        self.c_requeued.inc()
        return True

    def remove(self, tx_hash: int) -> Optional[Transaction]:
        """Drop one transaction (e.g. after it was packed); returns it."""
        tx = self._by_hash.pop(tx_hash, None)
        if tx is None:
            return None
        self.c_removed.inc()
        self._g_size.set(len(self._by_hash))
        self.arrival_times.pop(tx_hash, None)
        sender_queue = self._by_sender.get(tx.sender)
        if sender_queue and sender_queue.get(tx.nonce) is tx:
            del sender_queue[tx.nonce]
            if not sender_queue:
                del self._by_sender[tx.sender]
        return tx

    def remove_all(self, tx_hashes: Iterable[int]) -> int:
        """Drop several transactions; returns how many were present."""
        removed = 0
        for tx_hash in tx_hashes:
            if self.remove(tx_hash) is not None:
                removed += 1
        return removed

    def pending(self) -> List[Transaction]:
        """All pending transactions (no particular order)."""
        return list(self._by_hash.values())

