"""The committed world state (the "database" behind StateDB views)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.state.account import Account
from repro.state.trie import MerkleLevels, account_hash, trie_depth
from repro.utils.hashing import hash_words


class WorldState:
    """Committed account store, playing the role of the on-disk trie DB.

    :class:`repro.state.statedb.StateDB` instances are snapshot views on
    top of a ``WorldState``; :meth:`apply` folds a finished block's write
    set back in.
    """

    def __init__(self) -> None:
        self._accounts: Dict[int, Account] = {}
        #: Monotonic commit counter.  Overlay caches built on top of a
        #: world (the speculator's prefix cache) embed the version in
        #: their keys, so any commit implicitly invalidates them.
        self.version = 0
        #: Incremental commitment, built by the first :meth:`root`:
        #: the account tree plus one storage tree per account with
        #: storage.  Commits install fresh Account copies and report
        #: what they replaced (``_dirty``), so a kept hash can only go
        #: stale through in-place mutation of a committed account —
        #: which nothing does after the first root() computation
        #: (genesis builders and the dataset loader mutate before it).
        self._tree: Optional[MerkleLevels] = None
        self._storage_trees: Dict[int, MerkleLevels] = {}
        #: address -> storage slots rewritten since the last root()
        #: (``None``: the whole account was replaced).
        self._dirty: Dict[int, Optional[set]] = {}

    # -- access -----------------------------------------------------------

    def get_account(self, address: int) -> Optional[Account]:
        """The committed account at ``address`` or None."""
        return self._accounts.get(address)

    def accounts(self) -> Dict[int, Account]:
        """The underlying mapping (callers must not mutate)."""
        return self._accounts

    def __contains__(self, address: int) -> bool:
        return address in self._accounts

    def __len__(self) -> int:
        return len(self._accounts)

    # -- mutation ---------------------------------------------------------

    def create_account(self, address: int, balance: int = 0,
                       code: bytes = b"") -> Account:
        """Create (or overwrite) an account; returns it."""
        account = Account(balance=balance, code=code)
        self._accounts[address] = account
        self._mark(address, None)
        self.version += 1
        return account

    def apply(self, dirty: Dict[int, Account],
              written: Optional[Dict[int, Iterable[int]]] = None) -> None:
        """Commit a finished execution's dirty accounts.

        ``written`` names, per address, the storage slots whose value
        differs from the account being replaced (an address it omits
        kept its storage); without it every dirty account's storage
        commitment is rebuilt.
        """
        for address, account in dirty.items():
            self._accounts[address] = account
            self._mark(address, None if written is None
                       else written.get(address, ()))
        self.version += 1

    def _mark(self, address: int, slots: Optional[Iterable[int]]) -> None:
        if self._tree is None:
            return  # nothing kept yet: the first root() hashes it all
        known = self._dirty.get(address, ())
        self._dirty[address] = (None if slots is None or known is None
                                else set(known).union(slots))

    def copy(self) -> "WorldState":
        """Deep copy; used by the recorder/emulator to reset state (§5.4)."""
        clone = WorldState()
        clone._accounts = {a: acct.copy() for a, acct in self._accounts.items()}
        # Hashes depend only on (address, contents), which the deep
        # copy preserves.
        if self._tree is not None:
            clone._tree = self._tree.copy()
            clone._storage_trees = {address: tree.copy() for address, tree
                                    in self._storage_trees.items()}
            clone._dirty = {
                address: None if slots is None else set(slots)
                for address, slots in self._dirty.items()}
        return clone

    def replace_contents(self, source: "WorldState") -> None:
        """Restore ``source``'s accounts into *this* world, in place.

        Reorg and crash-recovery both need to rewind a live node's
        world without breaking the references every component
        (speculator, prefetcher, executor) already holds.  The restore
        bypasses :meth:`apply`, so the version is bumped here —
        version-keyed overlay caches must never serve state from the
        abandoned timeline.
        """
        self._accounts.clear()
        self._tree = None
        self._storage_trees.clear()
        self._dirty.clear()
        for address, account in source._accounts.items():
            self._accounts[address] = account.copy()
        self.version += 1

    # -- commitment -------------------------------------------------------

    def root(self) -> int:
        """Merkle root of the committed state (correctness check, §5.2).

        Equal to :func:`repro.state.trie.state_root` of the accounts,
        at a cost proportional to what was replaced since the last
        call: only rewritten slots, their accounts and the tree paths
        above them are re-hashed.
        """
        if self._tree is None:
            self._tree = MerkleLevels({address: self._leaf(address, None)
                                       for address in self._accounts})
        elif self._dirty:
            self._tree.update({address: self._leaf(address, slots)
                               for address, slots in self._dirty.items()})
            self._dirty.clear()
        return self._tree.root

    def _leaf(self, address: int, slots: Optional[Iterable[int]]) -> int:
        """:func:`repro.state.trie.account_hash` of ``address``, its
        storage tree first brought up to date for the rewritten
        ``slots`` (``None``: rebuilt)."""
        account = self._accounts[address]
        storage = account.storage
        tree = self._storage_trees.get(address)
        if not storage:
            self._storage_trees.pop(address, None)
            return account_hash(address, account, 0)
        if tree is None or slots is None:
            tree = self._storage_trees[address] = MerkleLevels(
                {slot: hash_words((slot, value))
                 for slot, value in storage.items()})
        else:
            tree.update({slot: hash_words((slot, storage[slot]))
                         if slot in storage else None for slot in slots})
        return account_hash(address, account, tree.root)

    def root_memo_nodes(self) -> int:
        """Hashes the incremental commitment keeps: about two per
        account plus two per storage slot."""
        if self._tree is None:
            return 0
        return len(self._tree) + sum(
            len(tree) for tree in self._storage_trees.values())

    def account_trie_depth(self) -> int:
        """Approximate depth of the account trie (for the disk model)."""
        return trie_depth(len(self._accounts))
