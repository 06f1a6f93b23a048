"""Unit and property tests for 256-bit word helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import UINT256_MAX, UINT256_MOD
from repro.utils.words import (
    bytes_to_int,
    int_to_bytes32,
    to_signed,
    to_unsigned,
    u256,
)

words = st.integers(min_value=0, max_value=UINT256_MAX)


def test_u256_wraps():
    assert u256(UINT256_MOD) == 0
    assert u256(UINT256_MOD + 5) == 5
    assert u256(-1) == UINT256_MAX


def test_to_signed_boundaries():
    assert to_signed(0) == 0
    assert to_signed(UINT256_MAX) == -1
    assert to_signed(2**255) == -(2**255)
    assert to_signed(2**255 - 1) == 2**255 - 1


@given(words)
def test_signed_roundtrip(value):
    assert to_unsigned(to_signed(value)) == value


@given(words)
def test_bytes_roundtrip(value):
    assert bytes_to_int(int_to_bytes32(value)) == value


@given(words)
def test_bytes32_length(value):
    assert len(int_to_bytes32(value)) == 32


@given(st.integers())
def test_u256_always_in_range(value):
    assert 0 <= u256(value) <= UINT256_MAX


def test_int_to_bytes_truncates():
    assert int_to_bytes32(UINT256_MOD + 0x1234) == (0x1234).to_bytes(32, "big")
    assert int_to_bytes32(-1) == b"\xff" * 32
