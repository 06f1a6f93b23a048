"""Consistent-hash shard map: accounts and contracts -> replicas.

The fleet routes by account locality — Forerunner's predictions, prefix
caches, and AP execution are all keyed by the accounts a transaction
touches, and Saraph & Herlihy's empirical study (PAPERS.md) shows
historical transaction sets partition into low-conflict account groups.
A consistent-hash ring gives that partition three properties the fleet
needs:

* **determinism** — ring points are seeded hashes of
  ``(replica id, virtual node index)``; two runs (and two independent
  routers) agree on every owner without coordination;
* **stability** — a replica join/leave moves only the keys in the
  arcs it gains/loses (~1/N of the space), so rebalances are small and
  the handoff set is computable exactly;
* **total order** — every replica has a canonical *ring position* (its
  lowest point), which the shard pool uses to pick the deterministic
  home shard of a cross-shard entangled transaction.

Generations: every membership change bumps ``generation``.  Routers
carry a generation stamp with each decision, so a stale-map routing
fault (``fleet.stale_shardmap``) is observable and the shard pool can
tell which generation admitted a transaction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.utils.hashing import hash_words, keccak_int

#: Domain-separation tags for ring/key hashing.
_RING_TAG = keccak_int(b"fleet.ring")
_KEY_TAG = keccak_int(b"fleet.key")

#: Virtual nodes per replica: enough to even out arc lengths while
#: keeping rebalance diffs cheap to compute.
DEFAULT_VNODES = 16


def ring_point(replica_id: int, vnode: int) -> int:
    """Deterministic ring coordinate of one virtual node."""
    return hash_words((_RING_TAG, replica_id, vnode))


def key_point(key: int) -> int:
    """Deterministic ring coordinate of an account/contract address."""
    return hash_words((_KEY_TAG, key))


class ShardMap:
    """The fleet's consistent-hash ring with deterministic rebalance.

    ``replicas`` is the *member* set (an int means ``range(n)``);
    ``owner(key)`` maps any account address to the member owning it.
    ``join``/``leave`` change membership, bump the generation, and
    return nothing; a :meth:`snapshot` taken before the change still
    answers the old owners.
    """

    def __init__(self, replicas: Iterable[int],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if isinstance(replicas, int):
            replicas = range(replicas)
        self.vnodes = vnodes
        self.generation = 0
        self._members: List[int] = []
        self._points: List[int] = []
        self._owners: List[int] = []
        for replica_id in sorted(set(replicas)):
            self._members.append(replica_id)
        if not self._members:
            raise ValueError("a shard map needs at least one replica")
        self._rebuild()

    # -- membership ------------------------------------------------------

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(self._members)

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def join(self, replica_id: int) -> bool:
        """Add a member; returns True if membership changed."""
        if replica_id in self._members:
            return False
        bisect.insort(self._members, replica_id)
        self.generation += 1
        self._rebuild()
        return True

    def leave(self, replica_id: int) -> bool:
        """Remove a member; returns True if membership changed.

        The last member never leaves — an empty ring routes nothing,
        and the fleet always keeps at least one replica serving.
        """
        if replica_id not in self._members or len(self._members) == 1:
            return False
        self._members.remove(replica_id)
        self.generation += 1
        self._rebuild()
        return True

    def _rebuild(self) -> None:
        pairs = sorted(
            (ring_point(replica_id, vnode), replica_id)
            for replica_id in self._members
            for vnode in range(self.vnodes))
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    # -- routing ---------------------------------------------------------

    def owner(self, key: int) -> int:
        """The member owning account/contract address ``key``."""
        index = bisect.bisect_right(self._points, key_point(key))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]

    def ring_position(self, replica_id: int) -> int:
        """Canonical position of a member: its lowest ring point."""
        return min(ring_point(replica_id, vnode)
                   for vnode in range(self.vnodes))

    def home_shard(self, *keys: Optional[int]) -> int:
        """Deterministic home for a transaction touching ``keys``.

        Single-shard transactions live with their one owner; a
        cross-shard *entangled* transaction is escalated to the
        involved owner with the lowest ring position (a total order
        every router derives independently).
        """
        owners = sorted({self.owner(key) for key in keys
                         if key is not None})
        if not owners:
            return self._members[0]
        if len(owners) == 1:
            return owners[0]
        return min(owners, key=lambda rid: (self.ring_position(rid), rid))

    def successor(self, replica_id: int,
                  exclude: Iterable[int] = ()) -> Optional[int]:
        """The next member after ``replica_id`` in ring-position order,
        skipping ``exclude`` — the router's failover target."""
        banned = set(exclude) | {replica_id}
        candidates = [rid for rid in self._members if rid not in banned]
        if not candidates:
            return None
        ordered = sorted(self._members,
                         key=lambda rid: (self.ring_position(rid), rid))
        start = ordered.index(replica_id) if replica_id in ordered else 0
        for offset in range(1, len(ordered) + 1):
            rid = ordered[(start + offset) % len(ordered)]
            if rid not in banned:
                return rid
        return candidates[0]

    # -- rebalance bookkeeping -------------------------------------------

    def snapshot(self) -> "ShardMapSnapshot":
        """A frozen routing view of the current generation (what a
        stale router keeps using)."""
        return ShardMapSnapshot(self.generation, tuple(self._points),
                                tuple(self._owners))


@dataclass(frozen=True)
class ShardMapSnapshot:
    """Immutable routing view of one shard-map generation."""

    generation: int
    points: Tuple[int, ...]
    owners: Tuple[int, ...]

    def owner(self, key: int) -> int:
        index = bisect.bisect_right(self.points, key_point(key))
        if index == len(self.points):
            index = 0
        return self.owners[index]
