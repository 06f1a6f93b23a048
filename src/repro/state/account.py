"""Account model: balance, nonce, code, and contract storage."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Account:
    """One Ethereum account.

    Externally-owned accounts have empty ``code``; contract accounts
    carry their bytecode and a private key/value ``storage`` mapping
    256-bit slots to 256-bit values (absent slot == 0).
    """

    balance: int = 0
    nonce: int = 0
    code: bytes = b""
    storage: Dict[int, int] = field(default_factory=dict)

    def copy(self) -> "Account":
        """Deep copy (storage dict duplicated)."""
        return Account(self.balance, self.nonce, self.code, dict(self.storage))

    def get_storage(self, slot: int) -> int:
        """Read a storage slot (0 when never written)."""
        return self.storage.get(slot, 0)

    def set_storage(self, slot: int, value: int) -> None:
        """Write a storage slot; writing 0 deletes the entry."""
        if value:
            self.storage[slot] = value
        else:
            self.storage.pop(slot, None)
