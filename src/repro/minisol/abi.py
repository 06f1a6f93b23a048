"""Calldata ABI encoding and storage-slot derivation.

Matches the conventions the codegen emits: 4-byte selectors from the
keccak of the canonical signature, 32-byte big-endian arguments, and
mapping slots derived as ``keccak(key32 || base_slot32)`` exactly like
Solidity's storage layout.
"""

from __future__ import annotations

from typing import Iterable

from repro.utils.hashing import keccak, keccak_int
from repro.utils.words import bytes_to_int, int_to_bytes32


def selector(signature: str) -> int:
    """4-byte function selector for a canonical signature string."""
    return bytes_to_int(keccak(signature.encode())[:4])


def event_topic(signature: str) -> int:
    """32-byte event topic hash for a canonical event signature."""
    return keccak_int(signature.encode())


def encode_call(signature: str, args: Iterable[int]) -> bytes:
    """Build calldata: selector plus 32-byte-encoded arguments."""
    payload = selector(signature).to_bytes(4, "big")
    for arg in args:
        payload += int_to_bytes32(arg)
    return payload


def decode_uint(return_data: bytes) -> int:
    """Decode a single uint256 return value."""
    return bytes_to_int(return_data[:32])


def mapping_slot(base_slot: int, key: int) -> int:
    """Storage slot of ``mapping_at_base[key]`` (Solidity layout)."""
    return keccak_int(int_to_bytes32(key) + int_to_bytes32(base_slot))
