"""Sharded, nonce-aware transaction pool.

One :class:`repro.txpool.pool.TxPool` per fleet shard, fronted by a
router that sends every transaction to its deterministic *home shard*:

* a plain transfer or single-contract call lives with the owner of the
  accounts it touches (``ShardMap.owner``);
* a **cross-shard entangled** transaction — sender owned by one shard,
  callee by another — is escalated to the involved shard with the
  lowest ring position (``ShardMap.home_shard``), a total order every
  router computes independently;
* a **reorg requeue** is routed through the *current* owning shard's
  live queues, even when a stale shard-map generation admitted the
  transaction somewhere else (the stale copy is withdrawn first).

The overlay keeps a fleet-level ``(sender, nonce) -> tx`` index so a
replace-by-fee finds a same-nonce predecessor even in another shard.
On membership change, :meth:`rebalance` computes
the exact handoff set (consistent hashing keeps it ~1/N of pending)
and moves those transactions, preserving arrival times; a torn
handoff (``fleet.handoff_torn``) leaves the move half-done, which the
supervisor repairs from the shard journals (the accepted-tx logs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.chain.transaction import Transaction
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.faults.sites import SITE_HANDOFF_TORN
from repro.obs.registry import MetricsRegistry, get_registry
from repro.txpool.pool import TxPool

from .shardmap import ShardMap


class ShardedTxPool:
    """Consistent-hash sharded pool overlay over per-shard nonce queues."""

    def __init__(self, shardmap: ShardMap,
                 registry: Optional[MetricsRegistry] = None,
                 injector: FaultInjector = NULL_INJECTOR) -> None:
        self.shardmap = shardmap
        self.registry = registry or get_registry()
        self.injector = injector
        self.pools: Dict[int, TxPool] = {}
        #: tx_hash -> shard currently holding it.
        self._home: Dict[int, int] = {}
        #: sender -> nonce -> tx (fleet-wide nonce index; a sender's
        #: txs can straddle shards when some are entangled).
        self._index: Dict[int, Dict[int, Transaction]] = {}
        obs = self.registry.scope("fleet.pool")
        self.c_routed = obs.counter("routed")
        self.c_entangled = obs.counter("entangled")
        self.c_requeued = obs.counter("requeued")
        self.c_moved = obs.counter("handoff_moved")
        self.c_torn = obs.counter("handoff_torn")
        self._g_size = obs.gauge("size")
        for replica_id in shardmap.members:
            self._ensure_shard(replica_id)

    # -- shard lifecycle -------------------------------------------------

    def _ensure_shard(self, replica_id: int) -> TxPool:
        pool = self.pools.get(replica_id)
        if pool is None:
            pool = TxPool(registry=self.registry)
            self.pools[replica_id] = pool
        return pool

    def shard_of(self, tx: Transaction) -> int:
        """Deterministic home shard of a transaction (escalates
        entangled transactions to the lowest ring position)."""
        return self.shardmap.home_shard(tx.sender, tx.to)

    def is_entangled(self, tx: Transaction) -> bool:
        """True when sender and callee are owned by different shards."""
        if tx.to is None:
            return False
        return (self.shardmap.owner(tx.sender)
                != self.shardmap.owner(tx.to))

    # -- pool interface ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._home)

    def __contains__(self, tx_hash: int) -> bool:
        return tx_hash in self._home

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Route ``tx`` to its home shard's nonce queue."""
        shard = self.shard_of(tx)
        pool = self._ensure_shard(shard)
        # Replace-by-fee may evict a same-nonce predecessor that lives
        # in a *different* shard (admitted under an older generation).
        stale = self._index.get(tx.sender, {}).get(tx.nonce)
        if stale is not None and self._home.get(stale.hash) != shard:
            if tx.gas_price <= stale.gas_price:
                pool.c_rejected.inc()
                return False
            self.remove(stale.hash)
        if not pool.add(tx, now):
            return False
        self._home[tx.hash] = shard
        self._index.setdefault(tx.sender, {})[tx.nonce] = tx
        self.c_routed.inc()
        if self.is_entangled(tx):
            self.c_entangled.inc()
        self._g_size.set(len(self._home))
        return True

    def requeue(self, tx: Transaction, now: float = 0.0) -> bool:
        """Return a reorged-out transaction through its *owning* shard.

        The owner is recomputed against the live shard map: if the
        transaction was admitted under an older generation (or a stale
        copy is still parked in another shard), the stale copy is
        withdrawn and the requeue lands in the current owner's live
        queue — never in the queue of a shard that no longer owns it.
        """
        shard = self.shard_of(tx)
        previous = self._home.get(tx.hash)
        if previous is not None and previous != shard:
            self.remove(tx.hash)
        pool = self._ensure_shard(shard)
        arrival = pool.arrival_times.get(tx.hash, now)
        if not pool.requeue(tx, arrival):
            return False
        self._home[tx.hash] = shard
        self._index.setdefault(tx.sender, {})[tx.nonce] = tx
        self.c_requeued.inc()
        self._g_size.set(len(self._home))
        return True

    def remove(self, tx_hash: int) -> Optional[Transaction]:
        shard = self._home.pop(tx_hash, None)
        if shard is None:
            return None
        tx = self.pools[shard].remove(tx_hash)
        if tx is not None:
            sender_index = self._index.get(tx.sender)
            if sender_index and sender_index.get(tx.nonce) is tx:
                del sender_index[tx.nonce]
                if not sender_index:
                    del self._index[tx.sender]
        self._g_size.set(len(self._home))
        return tx

    def remove_all(self, tx_hashes: Iterable[int]) -> int:
        removed = 0
        for tx_hash in tx_hashes:
            if self.remove(tx_hash) is not None:
                removed += 1
        return removed

    def pending(self) -> List[Transaction]:
        """All pending transactions across shards (shard-id order)."""
        out: List[Transaction] = []
        for replica_id in sorted(self.pools):
            out.extend(self.pools[replica_id].pending())
        return out

    # -- rebalance --------------------------------------------------------

    def rebalance(self) -> List[int]:
        """Move pending transactions whose home shard changed.

        Called by the supervisor after a membership change.  Returns
        the hashes whose handoff was interrupted by a
        ``fleet.handoff_torn`` fault — withdrawn from the source but
        never delivered, awaiting journal repair.  Completed handoffs
        are counted in ``fleet.pool.handoff_moved``.
        """
        torn: List[int] = []
        # Deterministic scan order: shard id, then tx hash.
        planned: List[Tuple[int, int, Transaction]] = []
        for replica_id in sorted(self.pools):
            for tx in sorted(self.pools[replica_id].pending(),
                             key=lambda tx: tx.hash):
                target = self.shard_of(tx)
                if target != replica_id:
                    planned.append((replica_id, target, tx))
        for source, target, tx in planned:
            arrival = self.pools[source].arrival_times.get(tx.hash, 0.0)
            self.remove(tx.hash)
            fault = self.injector.evaluate(
                SITE_HANDOFF_TORN, tx_hash=tx.hash,
                source=source, target=target)
            if fault is not None:
                self.c_torn.inc()
                torn.append(tx.hash)
                continue
            self._ensure_shard(target).add(tx, arrival)
            self._home[tx.hash] = target
            self._index.setdefault(tx.sender, {})[tx.nonce] = tx
            self.c_moved.inc()
        self._g_size.set(len(self._home))
        return torn

    def shard_sizes(self) -> Dict[int, int]:
        return {replica_id: len(pool)
                for replica_id, pool in sorted(self.pools.items())}
