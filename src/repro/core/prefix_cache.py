"""Shared-prefix context cache for the speculator.

The multi-future predictor emits many :class:`FutureContext`s whose
predecessor lists share prefixes — every context of one transaction
carries the sender's mandatory nonce chain, and the greedy ordering
reuses the same price-sorted predecessors across target transactions.
The seed speculator rebuilt each context from scratch, re-executing the
shared predecessors once per context.

This cache materializes each distinct ``(header, predecessor prefix)``
once per committed head as a frozen copy-on-write :class:`StateDB`
(:meth:`StateDB.fork`); later contexts fork the longest cached prefix
and execute only the predecessors beyond it.  Because forks charge
ancestor-touched keys warm — the classification a single sequential
view would have produced — the target trace is byte-identical whether
the prefix came from the cache or was re-executed.

Keys embed the world's commit ``version``, so entries can never leak
across heads; :meth:`invalidate` additionally drops everything eagerly
on new canonical blocks and reorgs (``chainsync`` restores world
contents in place, which a version check alone would miss).  That
and the LRU bound are the only ways an entry is freed: a transaction
leaving the pipeline evicts nothing by itself, since every prefix it
appears in dies with the head it was built on.

All counters are :class:`repro.obs.registry.Counter` instruments under
the cache's scope (``prefix_cache.*``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.chain.block import BlockHeader
from repro.obs.registry import MetricsRegistry, get_registry
from repro.state.statedb import StateDB
from repro.utils.lru import LruMap

#: Materialized prefixes kept (LRU-evicted beyond).
PREFIX_CACHE_CAPACITY = 1024


def context_key(world_version: int, header: BlockHeader,
                pred_hashes: Tuple[int, ...]) -> tuple:
    """Cache key for one materialized predecessor prefix.

    Every header field participates: predecessor execution reads the
    predicted header (TIMESTAMP, coinbase fee credit, ...), so two
    contexts only share a prefix state when their headers agree.
    """
    return (world_version,
            header.number, header.timestamp, header.coinbase,
            header.difficulty, header.gas_limit, header.chain_id,
            pred_hashes)


class PrefixEntry:
    """One frozen prefix state plus its cumulative execution cost."""

    __slots__ = ("state", "instructions", "io_units")

    def __init__(self, state: StateDB, instructions: int,
                 io_units: int) -> None:
        #: Frozen StateDB holding the post-prefix overlay.
        self.state = state
        #: Cumulative predecessor instructions across the whole prefix.
        self.instructions = instructions
        #: Cumulative predecessor I/O cost units across the prefix.
        self.io_units = io_units


class PrefixCache:
    """LRU cache of materialized predecessor prefixes.

    ``injector`` (a :class:`repro.faults.injector.FaultInjector`) makes
    the cache a chaos surface: faults at ``prefix_cache.lookup`` are
    contained *locally* as misses and faults at ``prefix_cache.store``
    skip caching — the cache is a pure accelerator, so local degradation
    is always safe and never needs to reach the guard layer.
    """

    def __init__(self, enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 injector=None, jit=None) -> None:
        self.enabled = enabled
        self.injector = injector
        #: Optional :class:`repro.evm.jit.tier.JitTier`.  Invalidation
        #: reasons that change code identity ("reorg") propagate to the
        #: tier from here, so every cache of derived execution
        #: artifacts is dropped at one point.
        self.jit = jit
        self._entries = LruMap(PREFIX_CACHE_CAPACITY)
        # -- instruments (core.stats / CLI surface these) ------------------
        obs = (registry or get_registry()).scope("prefix_cache")
        self.c_hits = obs.counter("hits")
        self.c_misses = obs.counter("misses")
        self.c_evictions = obs.counter("evictions")
        self.c_invalidations = obs.counter("invalidations")
        #: Predecessor executions actually performed vs. served from
        #: cached prefixes (the throughput benchmark's headline metric).
        self.c_pred_execs = obs.counter("pred_execs")
        self.c_pred_execs_avoided = obs.counter("pred_execs_avoided")
        #: Same, in executed-instruction units.
        self.c_pred_instructions = obs.counter("pred_instructions")
        self.c_pred_instructions_avoided = \
            obs.counter("pred_instructions_avoided")
        #: Redundant executions: re-materializations of a key already
        #: executed since the last invalidation.  Tracked whether the
        #: cache is enabled or not, so the disabled mode measures how
        #: much repeat work the seed speculator was doing (non-zero in
        #: enabled mode only when LRU eviction forces a re-execution).
        self.c_redundant_execs = obs.counter("redundant_execs")
        self.c_redundant_instructions = obs.counter("redundant_instructions")
        self._g_entries = obs.gauge("entries")
        self._seen: set = set()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[PrefixEntry]:
        """The entry at ``key`` (refreshing its LRU position) or None."""
        if not self.enabled:
            return None
        if (self.injector is not None
                and self.injector.evaluate("prefix_cache.lookup")
                is not None):
            return None  # contained locally: a lookup fault is a miss
        return self._entries.get(key)

    def store(self, key: tuple, entry: PrefixEntry) -> None:
        if not self.enabled:
            return
        if (self.injector is not None
                and self.injector.evaluate("prefix_cache.store")
                is not None):
            return  # contained locally: a store fault skips caching
        if self._entries.set(key, entry) is not None:
            self.c_evictions.inc()
        self._g_entries.set(len(self._entries))

    def note_execution(self, key: tuple, instructions: int) -> bool:
        """Record that ``key``'s prefix step was just executed; returns
        (and counts) whether that execution was redundant — i.e. the
        same key was already executed since the last invalidation."""
        redundant = key in self._seen
        if redundant:
            self.c_redundant_execs.inc()
            self.c_redundant_instructions.inc(instructions)
        else:
            self._seen.add(key)
        return redundant

    def invalidate(self, reason: str = "") -> int:
        """Drop every entry (new canonical head / reorg); returns the
        number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._seen.clear()
        self._g_entries.set(0)
        if dropped:
            self.c_invalidations.inc()
        if self.jit is not None and reason == "reorg":
            # A reorg restores world contents in place: specialized
            # closures (and decoded-program caches) may embed branch
            # keys from the abandoned head, so they are invalidated
            # alongside the prefix entries.  New-head invalidations do
            # not qualify — closures read live state through guards.
            self.jit.invalidate(reason)
        return dropped
