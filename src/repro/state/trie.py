"""Merkle commitment over the world state.

Ethereum commits its state in a Merkle-Patricia trie; two states are
identical iff their roots are equal, which is how the paper validates
correctness (§5.2: every block's post-state root must match the
network's).  We reproduce the *invariant* with a simpler binary Merkle
construction over the sorted account entries: deterministic,
collision-resistant, and incremental enough for our scale.  The
trie *depth* (number of node decodes a cold lookup walks) is modelled
for I/O accounting in :mod:`repro.state.diskio`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from repro.state.account import Account
from repro.utils.hashing import hash_words, keccak, keccak_int
from repro.utils.words import bytes_to_int, int_to_bytes32


def _merkle_fold(leaves: List[int]) -> int:
    """Fold a list of leaf hashes into a single root."""
    if not leaves:
        return 0
    level = leaves
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(hash_words((level[i], level[i + 1])))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def storage_root(storage: Dict[int, int]) -> int:
    """Commitment over one contract's storage mapping."""
    leaves = [hash_words((slot, value)) for slot, value in sorted(storage.items())]
    return _merkle_fold(leaves)


def account_hash(address: int, account: Account,
                 storage_commitment: Optional[int] = None) -> int:
    """Leaf hash for one account (address, balance, nonce, code, storage).

    ``storage_commitment`` is ``storage_root(account.storage)`` when
    the caller already holds it."""
    code_hash = keccak_int(account.code) if account.code else 0
    if storage_commitment is None:
        storage_commitment = storage_root(account.storage)
    return hash_words(
        (address, account.balance, account.nonce, code_hash,
         storage_commitment)
    )


def state_root(accounts: Dict[int, Account]) -> int:
    """Commitment over the entire world state."""
    leaves = [account_hash(addr, acct) for addr, acct in sorted(accounts.items())]
    return _merkle_fold(leaves)


class MerkleLevels:
    """:func:`_merkle_fold` over ``(key, leaf hash)`` entries in key
    order, with every level of the fold kept.

    :meth:`update` re-hashes only the path above each changed leaf —
    plus, when a key is inserted or deleted, everything to its right,
    whose pairing shifted — so a commitment costs O(dirty · log n)
    hashes instead of O(n).  :attr:`root` is by construction the value
    :func:`_merkle_fold` gives for the same leaves; memory is bounded
    by two hashes per entry (plus an odd carry per level).  Hashes are
    held as their 32 digest bytes, so an inner node is one ``keccak``
    of a concatenation — the very bytes :func:`hash_words` would
    rebuild from the two ints.
    """

    __slots__ = ("keys", "levels")

    def __init__(self, leaves: Dict[int, int]) -> None:
        self.keys: List[int] = sorted(leaves)
        self.levels: List[List[bytes]] = [
            [int_to_bytes32(leaves[key]) for key in self.keys]]
        self._rehash((), 0)

    def copy(self) -> "MerkleLevels":
        clone = MerkleLevels.__new__(MerkleLevels)
        clone.keys = list(self.keys)
        clone.levels = [list(level) for level in self.levels]
        return clone

    def __len__(self) -> int:
        """Hashes held (the memo's size)."""
        return sum(len(level) for level in self.levels)

    @property
    def root(self) -> int:
        return bytes_to_int(self.levels[-1][0]) if self.keys else 0

    def update(self, changes: Dict[int, Optional[int]]) -> None:
        """Set the leaf of each key in ``changes`` (``None`` deletes)."""
        keys, leaves = self.keys, self.levels[0]
        shifted: Optional[int] = None  # leftmost inserted/deleted position
        in_place = []
        for key, leaf in changes.items():
            pos = bisect_left(keys, key)
            present = pos < len(keys) and keys[pos] == key
            if present and leaf is not None:
                in_place.append((key, leaf))
                continue
            if present:
                del keys[pos], leaves[pos]
            elif leaf is not None:
                keys.insert(pos, key)
                leaves.insert(pos, int_to_bytes32(leaf))
            else:
                continue  # deleting an absent key
            shifted = pos if shifted is None else min(shifted, pos)
        dirty = set()
        for key, leaf in in_place:  # positions are final now
            pos = bisect_left(keys, key)
            leaves[pos] = int_to_bytes32(leaf)
            dirty.add(pos)
        self._rehash(dirty, shifted)

    def _rehash(self, dirty, shifted: Optional[int]) -> None:
        """Recompute the ancestors of the ``dirty`` leaf positions and
        of every position at or right of ``shifted``."""
        levels = self.levels
        depth = 0
        while len(levels[depth]) > 1:
            level = levels[depth]
            depth += 1
            if depth == len(levels):
                levels.append([])
            parent = levels[depth]
            size = (len(level) + 1) // 2
            dirty = {pos >> 1 for pos in dirty}
            if shifted is not None:
                # Parent j pairs 2j with 2j+1: affected from shifted//2.
                shifted >>= 1
                del parent[shifted:]
                dirty = [pos for pos in dirty if pos < shifted]
                dirty.extend(range(shifted, size))
                parent.extend([b""] * (size - shifted))
            for pos in dirty:
                left = 2 * pos
                parent[pos] = (keccak(level[left] + level[left + 1])
                               if left + 1 < len(level) else level[left])
        del levels[depth + 1:]


def trie_depth(num_entries: int) -> int:
    """Approximate node-walk depth of a trie holding ``num_entries`` keys.

    Used by the disk model: a cold lookup loads and decodes one node per
    level from root to leaf.
    """
    if num_entries <= 1:
        return 1
    depth = 1
    span = 1
    while span < num_entries:
        span *= 16  # hex-ary branching like the Merkle-Patricia trie
        depth += 1
    return depth
