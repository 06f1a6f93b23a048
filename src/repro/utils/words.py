"""256-bit word arithmetic helpers.

EVM machine words are 256-bit unsigned integers.  Python integers are
arbitrary precision, so every arithmetic result must be reduced modulo
2**256; signed operations reinterpret the word in two's complement.
"""

from __future__ import annotations

from repro.constants import SIGN_BIT, UINT256_MOD


def u256(value: int) -> int:
    """Reduce ``value`` into the unsigned 256-bit range."""
    return value % UINT256_MOD


def to_signed(value: int) -> int:
    """Reinterpret an unsigned word as a two's-complement signed integer."""
    if value >= SIGN_BIT:
        return value - UINT256_MOD
    return value


def to_unsigned(value: int) -> int:
    """Map a signed integer back onto the unsigned 256-bit range."""
    return value % UINT256_MOD


def bytes_to_int(data: bytes) -> int:
    """Interpret ``data`` as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes32(value: int) -> bytes:
    """Encode an unsigned word as exactly 32 big-endian bytes."""
    return u256(value).to_bytes(32, "big")
