"""Node-wide persistent state cache (cost model only).

A real Ethereum client keeps trie nodes and decoded values cached across
blocks, so a baseline node's state reads are a mix of warm and cold.
The prefetcher's benefit (Table 3's 1.21x for missed predictions) is
warming what would have been cold.  This cache tracks *which* keys are
warm; values always come from the committed world state, so it affects
cost accounting only, never correctness.
"""

from __future__ import annotations

from typing import Hashable

from repro.utils.lru import LruMap

#: Warm state keys a node remembers across blocks.
NODE_CACHE_CAPACITY = 200_000


class NodeCache(LruMap):
    """LRU set of warm state keys shared across a node's lifetime."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        super().__init__(NODE_CACHE_CAPACITY)
        self.hits = 0
        self.misses = 0

    def contains(self, key: Hashable) -> bool:
        """Check warmness and update recency + hit/miss counters."""
        # Runs on every state read: one call deep, no LruMap.get.
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def add(self, key: Hashable) -> None:
        """Mark a key warm, evicting the least recently used beyond cap."""
        self.set(key, None)

    # -- snapshot / restore (repro.recovery) ------------------------------

    def warm_keys(self) -> list:
        """Warm keys in LRU order (least recent first).

        Cross-block warmth decides cold vs warm I/O charges
        (:mod:`repro.state.diskio`), so the per-transaction baseline
        cost columns of Tables 2/3 depend on it: a recovery snapshot
        must capture the cache or a restarted node would re-pay cold
        reads the uncrashed run never paid.
        """
        return list(self.keys())

    def restore(self, keys, hits: int = 0, misses: int = 0) -> None:
        """Rebuild the cache from :meth:`warm_keys` output, preserving
        LRU order so later evictions match the uncrashed node's."""
        self.clear()
        for key in keys:
            self.set(key, None)
        self.hits = hits
        self.misses = misses
