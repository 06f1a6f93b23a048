"""State prefetcher (paper §4.4).

Off the critical path, the prefetcher walks the union of the speculated
read sets and pre-creates warm cache entries, so that critical-path
lookups hit caches instead of walking the trie from disk.  It also pays
the cold-walk cost there and then — the off-path I/O is accounted into
the speculator's overhead, not the critical path.

Instrumented under the ``prefetcher.*`` obs scope.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.obs.registry import MetricsRegistry, get_registry
from repro.state.diskio import DiskModel
from repro.state.nodecache import NodeCache
from repro.state.statedb import StateDB
from repro.state.world import WorldState


class Prefetcher:
    """Pre-populates a node cache from speculated read sets."""

    def __init__(self, world: WorldState, node_cache: NodeCache,
                 registry: Optional[MetricsRegistry] = None,
                 injector=None) -> None:
        self.world = world
        self.node_cache = node_cache
        #: Chaos hook (:mod:`repro.faults`); faults raised here are
        #: contained by the node's guard (the keys just stay cold).
        self.injector = injector
        obs = (registry or get_registry()).scope("prefetcher")
        #: Off-critical-path I/O cost paid by prefetching (cost units).
        self.c_offpath_cost = obs.counter("offpath_cost")
        self.c_prefetched_keys = obs.counter("prefetched_keys")
        self.c_calls = obs.counter("calls")

    def prefetch(self, read_keys: Iterable[Tuple[str, tuple]],
                 tx_sender: Optional[int] = None,
                 tx_to: Optional[int] = None,
                 coinbase: Optional[int] = None) -> int:
        """Warm every key in ``read_keys`` plus the envelope accounts.

        Returns the number of newly warmed keys.
        """
        if self.injector is not None:
            self.injector.maybe_raise("prefetcher.prefetch", to=tx_to)
        disk = DiskModel()
        state = StateDB(self.world, disk=disk, node_cache=self.node_cache)
        warmed = 0
        for address in (tx_sender, tx_to, coinbase):
            if address is not None:
                if not self.node_cache.contains(("acct", address)):
                    warmed += 1
                state.warm_account(address)
        for kind, key in read_keys:
            if kind == "storage":
                address, slot = key
                if not self.node_cache.contains(("slot", address, slot)):
                    warmed += 1
                state.warm_slot(address, slot)
            elif kind == "balance":
                (address,) = key
                if not self.node_cache.contains(("acct", address)):
                    warmed += 1
                state.warm_account(address)
            elif kind == "extcodesize":
                (address,) = key
                if not self.node_cache.contains(("acct", address)):
                    warmed += 1
                state.warm_account(address)
            # header / blockhash reads need no state I/O
        self.c_calls.inc()
        self.c_offpath_cost.inc(disk.stats.cost_units)
        self.c_prefetched_keys.inc(warmed)
        return warmed
