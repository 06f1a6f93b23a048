"""Blocks and block headers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.constants import DEFAULT_BLOCK_GAS_LIMIT
from repro.chain.transaction import Transaction
from repro.utils.hashing import hash_words


@dataclass(frozen=True)
class BlockHeader:
    """Block metadata visible to executing transactions.

    These are exactly the context fields the paper's example reads
    (``block.timestamp``) and the predictor must guess (timestamp,
    coinbase; §4.4).
    """

    number: int
    timestamp: int
    coinbase: int
    parent_hash: int = 0
    gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    difficulty: int = 1
    chain_id: int = 1

    @property
    def hash(self) -> int:
        """Header hash (also used as the block hash)."""
        return hash_words((
            self.number, self.timestamp, self.coinbase,
            self.parent_hash, self.gas_limit, self.difficulty,
        ))


def blockhash(number: int) -> int:
    """What BLOCKHASH reads for block ``number``: always 0.

    An execution sees its own header, not the chain behind it.  Every
    tier (interpreter, AP closure, witness checker) reads
    ancestor hashes here, so they agree by construction.
    """
    del number
    return 0


@dataclass
class Block:
    """A block: header + ordered transactions (+ post-state root)."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    #: Merkle root of the world state after executing this block;
    #: filled in by the miner, re-derived and checked by every node (§5.2).
    state_root: Optional[int] = None
    #: Miner id that produced the block (simulation bookkeeping).
    miner_id: Optional[int] = None

    @property
    def hash(self) -> int:
        return self.header.hash

    @property
    def number(self) -> int:
        return self.header.number

    def gas_used(self) -> int:
        """Total gas limit committed by the packed transactions."""
        return sum(tx.gas_limit for tx in self.transactions)

    def tx_hashes(self) -> Tuple[int, ...]:
        return tuple(tx.hash for tx in self.transactions)
