"""Transactions: the unit of work disseminated, packed, and executed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constants import (
    DEFAULT_TX_GAS_LIMIT,
    INTRINSIC_GAS,
    TX_DATA_NONZERO_GAS,
    TX_DATA_ZERO_GAS,
)
from repro.utils.hashing import keccak_int
from repro.utils.words import int_to_bytes32


@dataclass(frozen=True)
class Transaction:
    """An Ethereum transaction.

    ``sender`` is carried directly rather than recovered from a
    signature; signature verification is modelled as a constant-cost
    validity check (the paper excludes it from speculation, §2 fn. 5).
    """

    sender: int
    to: int
    data: bytes = b""
    value: int = 0
    gas_price: int = 1_000_000_000
    gas_limit: int = DEFAULT_TX_GAS_LIMIT
    nonce: int = 0
    #: Miner id when the transaction originates from a miner itself
    #: (miners prioritize their own transactions — predictor heuristic 2).
    origin_miner: Optional[int] = None

    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        digest = keccak_int(
            int_to_bytes32(self.sender)
            + int_to_bytes32(self.to)
            + int_to_bytes32(self.value)
            + int_to_bytes32(self.gas_price)
            + int_to_bytes32(self.gas_limit)
            + int_to_bytes32(self.nonce)
            + self.data
        )
        object.__setattr__(self, "_hash", digest)

    @property
    def hash(self) -> int:
        """Content hash identifying this transaction."""
        return self._hash

    def intrinsic_gas(self) -> int:
        """Flat cost charged before any bytecode runs (yellow paper)."""
        zeros = self.data.count(0)
        nonzeros = len(self.data) - zeros
        return (INTRINSIC_GAS
                + zeros * TX_DATA_ZERO_GAS
                + nonzeros * TX_DATA_NONZERO_GAS)

    def short_id(self) -> str:
        """Abbreviated hash for logs and reports."""
        return f"{self.hash:#x}"[:12]


def tx_to_wire(tx: Transaction) -> dict:
    """The canonical wire form of a transaction: a JSON-safe mapping
    whose canonical-JSON encoding is the byte-stable payload of every
    journal record (edge accept log, fleet shard journals) and every
    cross-replica message (gossip, pool sync, speculation dispatch)
    that carries one.  ``tx_from_wire(tx_to_wire(tx))`` reconstructs a
    transaction with the same hash (property-tested in
    ``tests/test_wire_properties.py``).  Datasets and recovery snapshots
    store this form plus an ``origin_miner`` key, which
    :func:`tx_from_wire` also reads."""
    return {
        "sender": tx.sender,
        "to": tx.to,
        "data": tx.data.hex(),
        "value": tx.value,
        "gas_price": tx.gas_price,
        "gas_limit": tx.gas_limit,
        "nonce": tx.nonce,
    }


def tx_from_wire(data: dict) -> Transaction:
    """Decode :func:`tx_to_wire` output back into a transaction."""
    origin_miner = data.get("origin_miner")
    return Transaction(
        sender=int(data["sender"]),
        to=int(data["to"]),
        data=bytes.fromhex(data["data"]),
        value=int(data["value"]),
        gas_price=int(data["gas_price"]),
        gas_limit=int(data["gas_limit"]),
        nonce=int(data["nonce"]),
        origin_miner=int(origin_miner) if origin_miner is not None else None,
    )
