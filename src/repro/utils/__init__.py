"""Small shared helpers: hashing, word arithmetic, deterministic RNG."""

from repro.utils.words import (
    to_unsigned,
    to_signed,
    u256,
    bytes_to_int,
    int_to_bytes32,
)
from repro.utils.hashing import keccak, keccak_int, hash_words

__all__ = [
    "to_unsigned",
    "to_signed",
    "u256",
    "bytes_to_int",
    "int_to_bytes32",
    "keccak",
    "keccak_int",
    "hash_words",
]
