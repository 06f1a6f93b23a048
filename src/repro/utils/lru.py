"""The one bounded map every cache in the reproduction is built on."""

from __future__ import annotations

from collections import OrderedDict


class LruMap:
    """A bounded mapping with deterministic least-recently-used
    eviction.

    Node warmth, prefix states, the memo table, dedup indexes, decoded
    code, per-client edge state and the wire's reliability windows would
    otherwise each grow one entry per distinct key ever seen.  A
    :meth:`get` or :meth:`set` moves the key to the most-recent end;
    :meth:`peek` reads without moving it; inserting past ``capacity``
    evicts exactly the least-recently-used key.  Eviction order is a
    pure function of the access sequence, so two runs of the same
    scenario evict the same keys at the same points and stay
    byte-identical — the node's warmth cache decides cold vs warm I/O
    charges, so Table 2/3 depend on it.

    ``evictions`` counts evicted keys and ``high_water`` the largest
    size the map has reached.
    """

    __slots__ = ("capacity", "evictions", "high_water", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LruMap capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self.high_water = 0
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key):
        """The value for ``key`` (touching it), or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def peek(self, key):
        """The value for ``key`` without touching it, or ``None``."""
        return self._data.get(key)

    def set(self, key, value):
        """Store ``value`` at ``key`` as the most recent entry.  Returns
        the evicted ``(key, value)`` pair, or ``None``."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return None
        data[key] = value
        if len(data) > self.capacity:
            self.evictions += 1
            return data.popitem(last=False)
        if len(data) > self.high_water:
            self.high_water = len(data)
        return None

    def pop(self, key, default=None):
        """Remove and return the value for ``key`` (or ``default``)."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def keys(self):
        """Keys, least recently used first."""
        return self._data.keys()

    def items(self):
        """``(key, value)`` pairs, least recently used first."""
        return self._data.items()
