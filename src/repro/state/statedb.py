"""StateDB: a journaled, cached snapshot view over the committed state.

Mirrors geth's StateDB role described in the paper (§4.4): transaction
execution reads state through a StateDB whose internal caches expedite
repeated lookups, and Forerunner's prefetcher pre-populates those caches
off the critical path.  Warmness survives journal reverts (as in real
clients), which is exactly why speculative pre-execution pays even for
missed predictions (Table 3's 1.21× row).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InsufficientBalance
from repro.state.account import Account
from repro.state.diskio import DiskModel
from repro.state.trie import trie_depth
from repro.state.world import WorldState


#: Journal entry kind -> :class:`AccessLog` key kind.
_ACCESS_KIND = {"balance": "bal", "nonce": "nonce", "code": "code"}
#: The key kinds creating an account writes.
_ACCOUNT_KINDS = ("exist", "bal", "nonce", "code")


@dataclass
class LogEntry:
    """One LOG record emitted during execution."""

    address: int
    topics: Tuple[int, ...]
    data: bytes


class AccessLog:
    """One transaction's fine-grained state accesses, filled in by the
    accessors of the :class:`StateDB` it is installed on
    (:attr:`StateDB.access`).

    Keys are ``("bal" | "nonce" | "code" | "exist", address)`` and
    ``("slot", address, slot)``.  Fee credits to ``coinbase`` through
    :meth:`StateDB.add_balance` commute, so they are left out; any
    other touch of the coinbase balance is recorded like the rest.
    """

    __slots__ = ("coinbase", "reads", "writes", "reverted")

    def __init__(self, coinbase: int) -> None:
        self.coinbase = coinbase
        self.reads: Set[tuple] = set()
        #: Every key written — including, once ``reverted`` is set,
        #: writes that :meth:`StateDB.revert_to` has since undone.
        self.writes: Set[tuple] = set()
        self.reverted = False


class StateDB:
    """Mutable execution view with per-instance caches and a journal.

    Reads fall through: working cache -> committed world (charging the
    simulated cold-I/O cost and warming the cache).  Writes go to working
    copies and are journaled so :meth:`revert_to` can undo them; cache
    warmness deliberately survives reverts.
    """

    def __init__(self, world: WorldState, disk: Optional[DiskModel] = None,
                 node_cache=None,
                 parent: Optional["StateDB"] = None) -> None:
        self.world = world
        self.disk = disk if disk is not None else DiskModel()
        self.disk.account_depth = world.account_trie_depth()
        #: Optional :class:`repro.state.nodecache.NodeCache` — keys warm
        #: there are charged warm even on this view's first touch.
        self.node_cache = node_cache
        #: Copy-on-write parent view (see :meth:`fork`).  Reads fall
        #: through to frozen ancestors before hitting the world, and
        #: are charged warm there — exactly the classification a single
        #: sequential view would have produced.
        self._parent = parent
        self._frozen = False
        self._cache: Dict[int, Account] = {}
        self._loaded_slots: Set[Tuple[int, int]] = set()
        self._journal: List[tuple] = []
        self.logs: List[LogEntry] = []
        #: Optional :class:`AccessLog` (the block executor installs one
        #: per transaction); ``None`` costs each accessor one test.
        self.access: Optional[AccessLog] = None

    # -- copy-on-write forking ----------------------------------------------

    def fork(self) -> "StateDB":
        """A child view layered on this one (prefix-cache support).

        The child sees every change made in this view (and its
        ancestors) and copies touched accounts on first access; this
        view is frozen — further writes through it raise.  The child
        gets a fresh :class:`DiskModel`, so its I/O is accounted
        separately, with ancestor-cached keys charged warm.
        """
        self._frozen = True
        return StateDB(self.world, node_cache=self.node_cache, parent=self)

    def _assert_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError(
                "StateDB is frozen (it has forked children); "
                "write through a fork instead")

    def _inherited_account(self, address: int) -> Optional[Account]:
        """Nearest ancestor's working copy of ``address`` (read-only)."""
        ancestor = self._parent
        while ancestor is not None:
            cached = ancestor._cache.get(address)
            if cached is not None:
                return cached
            ancestor = ancestor._parent
        return None

    def _slot_loaded_in_ancestors(self, key: Tuple[int, int]) -> bool:
        ancestor = self._parent
        while ancestor is not None:
            if key in ancestor._loaded_slots:
                return True
            ancestor = ancestor._parent
        return False

    # -- internal ----------------------------------------------------------

    def _load_account(self, address: int) -> Account:
        """Working copy of ``address``; cold-loads and warms on first touch."""
        cached = self._cache.get(address)
        if cached is not None:
            self.disk.charge_warm()
            return cached
        inherited = self._inherited_account(address)
        if inherited is not None:
            # Copy-on-first-touch from the frozen ancestor chain; the
            # ancestor already paid the cold walk, so this is warm.
            self.disk.charge_warm()
            working = Account(inherited.balance, inherited.nonce,
                              inherited.code, dict(inherited.storage))
            self._cache[address] = working
            return working
        committed = self.world.get_account(address)
        if (self.node_cache is not None
                and self.node_cache.contains(("acct", address))):
            self.disk.charge_warm()
        else:
            self.disk.charge_cold_account()
            if self.node_cache is not None:
                self.node_cache.add(("acct", address))
        if committed is None:
            working = Account()
        else:
            # Shallow copy: storage slots are loaded (and charged) lazily.
            working = Account(committed.balance, committed.nonce, committed.code, {})
        self._cache[address] = working
        return working

    def _committed_slot(self, address: int, slot: int) -> int:
        committed = self.world.get_account(address)
        if committed is None:
            return 0
        return committed.get_storage(slot)

    # -- warmness / prefetch support ----------------------------------------

    def warm_account(self, address: int) -> None:
        """Prefetch one account into the cache (charges this view's disk)."""
        self._load_account(address)

    def warm_slot(self, address: int, slot: int) -> None:
        """Prefetch one storage slot into the cache."""
        self.get_storage(address, slot)

    # -- account access ------------------------------------------------------

    def create_account(self, address: int, balance: int = 0,
                       code: bytes = b"") -> None:
        """Create a fresh account in the working view."""
        self._assert_mutable()
        if self.access is not None:
            self.access.writes.update(
                (kind, address) for kind in _ACCOUNT_KINDS)
        self._journal.append(("create", address, self._cache.get(address)))
        self._cache[address] = Account(balance=balance, code=code)

    def get_balance(self, address: int) -> int:
        if self.access is not None:
            self.access.reads.add(("bal", address))
        return self._load_account(address).balance

    def set_balance(self, address: int, value: int) -> None:
        self._assert_mutable()
        if self.access is not None:
            self.access.writes.add(("bal", address))
        account = self._load_account(address)
        self._journal.append(("balance", address, account.balance))
        account.balance = value

    def add_balance(self, address: int, amount: int) -> None:
        access = self.access
        if access is not None and address == access.coinbase:
            # Commutative fee credit: same lookups and journal entry,
            # no conflict keys.
            self.access = None
            try:
                self.set_balance(address, self.get_balance(address) + amount)
            finally:
                self.access = access
            return
        self.set_balance(address, self.get_balance(address) + amount)

    def sub_balance(self, address: int, amount: int) -> None:
        balance = self.get_balance(address)
        if balance < amount:
            raise InsufficientBalance(
                f"account {address:#x} balance {balance} < {amount}")
        self.set_balance(address, balance - amount)

    def get_nonce(self, address: int) -> int:
        if self.access is not None:
            self.access.reads.add(("nonce", address))
        return self._load_account(address).nonce

    def increment_nonce(self, address: int) -> None:
        self._assert_mutable()
        if self.access is not None:
            # Read-modify-write: the new nonce depends on the old one.
            self.access.reads.add(("nonce", address))
            self.access.writes.add(("nonce", address))
        account = self._load_account(address)
        self._journal.append(("nonce", address, account.nonce))
        account.nonce += 1

    def get_code(self, address: int) -> bytes:
        if self.access is not None:
            self.access.reads.add(("code", address))
        return self._load_account(address).code

    def set_code(self, address: int, code: bytes) -> None:
        self._assert_mutable()
        if self.access is not None:
            self.access.writes.add(("code", address))
        account = self._load_account(address)
        self._journal.append(("code", address, account.code))
        account.code = code

    # -- storage access -------------------------------------------------------

    def get_storage(self, address: int, slot: int) -> int:
        """SLOAD path with lazy per-slot cold loading."""
        if self.access is not None:
            self.access.reads.add(("slot", address, slot))
        account = self._load_account(address)
        key = (address, slot)
        if key in self._loaded_slots:
            self.disk.charge_warm()
            return account.storage.get(slot, 0)
        if self._slot_loaded_in_ancestors(key):
            # The ancestor chain paid the cold walk; its (possibly
            # written) value arrived with the copied working account.
            self.disk.charge_warm()
            self._loaded_slots.add(key)
            return account.storage.get(slot, 0)
        committed = self.world.get_account(address)
        if (self.node_cache is not None
                and self.node_cache.contains(("slot", address, slot))):
            self.disk.charge_warm()
        else:
            self.disk.slot_depth = trie_depth(
                len(committed.storage) if committed is not None else 0)
            self.disk.charge_cold_slot()
            if self.node_cache is not None:
                self.node_cache.add(("slot", address, slot))
        value = self._committed_slot(address, slot)
        if value:
            account.storage[slot] = value
        self._loaded_slots.add(key)
        return value

    def set_storage(self, address: int, slot: int, value: int) -> None:
        """SSTORE path; journals the previous working value."""
        self._assert_mutable()
        if self.access is not None:
            self.access.writes.add(("slot", address, slot))
        account = self._load_account(address)
        key = (address, slot)
        if key in self._loaded_slots:
            old = account.storage.get(slot, 0)
        elif self._slot_loaded_in_ancestors(key):
            old = account.storage.get(slot, 0)
            self._loaded_slots.add(key)
        else:
            old = self._committed_slot(address, slot)
            self._loaded_slots.add(key)
        self._journal.append(("storage", address, slot, old))
        account.set_storage(slot, value)

    # -- logs -------------------------------------------------------------------

    def add_log(self, address: int, topics: Tuple[int, ...], data: bytes) -> None:
        """Append a LOG entry (journaled)."""
        self._assert_mutable()
        self._journal.append(("log",))
        self.logs.append(LogEntry(address, topics, data))

    # -- journal ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Mark the current journal position."""
        return len(self._journal)

    def revert_to(self, snap: int) -> None:
        """Undo every change made after :meth:`snapshot` returned ``snap``."""
        self._assert_mutable()
        if self.access is not None and len(self._journal) > snap:
            self.access.reverted = True
        while len(self._journal) > snap:
            entry = self._journal.pop()
            kind = entry[0]
            if kind == "balance":
                self._cache[entry[1]].balance = entry[2]
            elif kind == "nonce":
                self._cache[entry[1]].nonce = entry[2]
            elif kind == "code":
                self._cache[entry[1]].code = entry[2]
            elif kind == "storage":
                self._cache[entry[1]].set_storage(entry[2], entry[3])
            elif kind == "log":
                self.logs.pop()
            elif kind == "create":
                if entry[2] is None:
                    self._cache.pop(entry[1], None)
                else:
                    self._cache[entry[1]] = entry[2]

    def written_keys(self, start: int, end: int) -> Set[tuple]:
        """:class:`AccessLog` keys of the writes journaled in
        ``[start, end)`` and not reverted since (a transaction's
        *actual* writes, given its :meth:`snapshot` span)."""
        keys: Set[tuple] = set()
        for entry in self._journal[start:end]:
            journaled = entry[0]
            if journaled == "storage":
                keys.add(("slot", entry[1], entry[2]))
            elif journaled == "create":
                keys.update((kind, entry[1]) for kind in _ACCOUNT_KINDS)
            elif journaled != "log":
                keys.add((_ACCESS_KIND[journaled], entry[1]))
        return keys

    # -- witness support ----------------------------------------------------------

    def witness_deltas(self, spans: List[Tuple[int, int]]) -> List[dict]:
        """Per-span state deltas reconstructed from the journal.

        ``spans`` is an ascending, non-overlapping list of
        ``(start, end)`` journal positions (as returned by
        :meth:`snapshot`), one per transaction.  For every span this
        returns ``{"delta": {(kind, key): (pre, post)}, "created":
        [(address, pre_account_or_None)]}`` where *pre* is the value
        just before the span and *post* the value just after it —
        even when later spans overwrote the same key, because the
        journal's old-value chain pins every intermediate value.

        Reverted writes cancel out (their entries were popped), and
        keys whose pre equals post are dropped, so the delta is
        exactly the net effect of the span.  Must be called before
        :meth:`commit` clears the journal.
        """
        if not spans:
            return []
        base = spans[0][0]
        # One forward pass: per-key chains of (position, old_value).
        # The old value at position p is the key's live value over
        # (previous entry for the key, p]; the live value after the
        # last entry is whatever the working cache holds now.
        positions: Dict[tuple, List[int]] = {}
        olds: Dict[tuple, List[object]] = {}
        creates: List[Tuple[int, int, Optional[Account]]] = []
        for pos in range(base, len(self._journal)):
            entry = self._journal[pos]
            kind = entry[0]
            if kind in ("balance", "nonce", "code"):
                key = (kind, (entry[1],))
                old = entry[2]
            elif kind == "storage":
                key = ("storage", (entry[1], entry[2]))
                old = entry[3]
            elif kind == "create":
                creates.append((pos, entry[1], entry[2]))
                continue
            else:  # "log": digested from receipts, not a delta key
                continue
            positions.setdefault(key, []).append(pos)
            olds.setdefault(key, []).append(old)

        def current_value(key: tuple) -> object:
            kind, loc = key
            account = self._cache.get(loc[0])
            if account is None:  # pragma: no cover - journaled => cached
                account = self.world.get_account(loc[0]) or Account()
            if kind == "balance":
                return account.balance
            if kind == "nonce":
                return account.nonce
            if kind == "code":
                return account.code
            return account.storage.get(loc[1], 0)

        def value_at(key: tuple, pos: int) -> object:
            """The key's live value as of journal position ``pos``."""
            chain = positions.get(key)
            if chain:
                index = bisect_left(chain, pos)
                if index < len(chain):
                    return olds[key][index]
            return current_value(key)

        results: List[dict] = []
        for start, end in spans:
            delta: Dict[tuple, Tuple[object, object]] = {}
            created: List[Tuple[int, Optional[Account]]] = []
            created_addrs = set()
            for pos, addr, prev in creates:
                if start <= pos < end:
                    if prev is None:
                        prev = self.world.get_account(addr)
                    created.append((addr, prev))
                    created_addrs.add(addr)
            for key, chain in positions.items():
                index = bisect_left(chain, start)
                if index >= len(chain) or chain[index] >= end:
                    continue  # key untouched inside this span
                pre = olds[key][index]
                post = value_at(key, end)
                if key[1][0] in created_addrs and key[0] != "storage":
                    # Field writes on an account created in-span carry
                    # intra-span pre values; the creation entry is the
                    # authoritative pre (absent or the shadowed account).
                    continue
                if pre != post:
                    delta[key] = (pre, post)
            for addr, _prev in created:
                # Materialize the created account's post fields even
                # when never journaled after creation.
                for kind in ("balance", "nonce", "code"):
                    key = (kind, (addr,))
                    post = value_at(key, end)
                    default = b"" if kind == "code" else 0
                    if post != default:
                        delta[key] = (None, post)
            results.append({"delta": delta, "created": created})
        return results

    # -- commit ----------------------------------------------------------------------

    def dirty_accounts(self) -> Tuple[Dict[int, Account],
                                      Dict[int, List[int]]]:
        """``(accounts, written)``: the full post-state account of
        every address this view changed (or touched into existence),
        and per address the storage slots whose value changed."""
        loaded: Dict[int, List[int]] = {}
        for address, slot in self._loaded_slots:
            loaded.setdefault(address, []).append(slot)
        result: Dict[int, Account] = {}
        written: Dict[int, List[int]] = {}
        for address, working in self._cache.items():
            committed = self.world.get_account(address)
            old = committed.storage if committed is not None else {}
            new = working.storage
            slots = [slot for slot in loaded.get(address, ())
                     if new.get(slot, 0) != old.get(slot, 0)]
            if committed is None:
                merged = Account(working.balance, working.nonce, working.code, {})
            elif (slots or working.balance != committed.balance
                  or working.nonce != committed.nonce
                  or working.code != committed.code):
                merged = committed.copy()
                merged.balance = working.balance
                merged.nonce = working.nonce
                merged.code = working.code
            else:
                continue  # only read: the committed account stands
            for slot in slots:
                merged.set_storage(slot, new.get(slot, 0))
            if slots:
                written[address] = slots
            result[address] = merged
        return result, written

    def commit(self) -> None:
        """Fold this view's changes into the committed world state.

        Forked views cannot commit: their caches only hold the deltas
        since the fork point, so folding them in would lose ancestor
        writes.  Forks are speculative by construction and are simply
        discarded.
        """
        if self._parent is not None:
            raise RuntimeError("cannot commit a forked StateDB view")
        self._assert_mutable()
        self.world.apply(*self.dirty_accounts())
        self._journal.clear()
