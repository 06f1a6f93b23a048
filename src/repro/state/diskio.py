"""Simulated disk-I/O accounting for state lookups.

On a real node, looking up a state value walks the Merkle-Patricia trie:
each level is a disk read plus RLP decode plus key/value lookup (paper
§4.4).  The prefetcher's payoff comes from doing those walks off the
critical path so critical-path reads hit warm caches.

We model that expense in abstract *cost units* (the same currency as
:mod:`repro.core.costmodel`).  A cold account or slot lookup costs
``NODE_COST`` per trie level; a warm lookup costs ``WARM_COST``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


#: Cost units to load + decode one trie node from disk.
NODE_COST = 450
#: Cost units for a warm (cached) lookup.
WARM_COST = 12


@dataclass
class IOStats:
    """Counters for one execution's simulated I/O."""

    cold_account_loads: int = 0
    cold_slot_loads: int = 0
    warm_hits: int = 0
    cost_units: int = 0


@dataclass
class DiskModel:
    """Charges simulated I/O cost for state lookups.

    ``account_depth`` / ``slot_depth`` approximate the trie depths of the
    global account trie and a per-contract storage trie; they are set by
    :class:`repro.state.statedb.StateDB` from the current state size.
    """

    account_depth: int = 6
    slot_depth: int = 4
    stats: IOStats = field(default_factory=IOStats)
    #: Chaos hook (:mod:`repro.faults`): called before every *cold*
    #: read — a disk walk — and may raise a transient storage error.
    #: Only ever installed on speculative StateDBs, never on the
    #: critical path; ``StateDB.fork`` children start with no hook.
    fault_hook: Optional[Callable[[], None]] = None

    def charge_cold_account(self) -> int:
        """Cost of walking the account trie from disk."""
        if self.fault_hook is not None:
            self.fault_hook()
        cost = NODE_COST * self.account_depth
        self.stats.cold_account_loads += 1
        self.stats.cost_units += cost
        return cost

    def charge_cold_slot(self) -> int:
        """Cost of walking one contract's storage trie from disk."""
        if self.fault_hook is not None:
            self.fault_hook()
        cost = NODE_COST * self.slot_depth
        self.stats.cold_slot_loads += 1
        self.stats.cost_units += cost
        return cost

    def charge_warm(self) -> int:
        """Cost of a cache hit."""
        self.stats.warm_hits += 1
        self.stats.cost_units += WARM_COST
        return WARM_COST
