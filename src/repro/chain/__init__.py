"""Blocks, transactions, and the chain structure (with temporary forks)."""

from repro.chain.transaction import Transaction
from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain

__all__ = ["Transaction", "Block", "BlockHeader", "Blockchain"]
