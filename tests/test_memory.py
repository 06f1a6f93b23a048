"""EVM memory semantics, driven through bytecode.

A frame's memory is a zero-initialized bytearray that grows in 32-byte
words; every access charges MEMORY_WORD_GAS per new word and grows the
memory in the same step (``repro.evm.interpreter._grow``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM, MEMORY_WORD_GAS
from repro.state.statedb import StateDB
from repro.state.world import WorldState

SENDER = 0xAB
CODE = 0xCD

words = st.integers(min_value=0, max_value=2**256 - 1)
offsets = st.integers(min_value=0, max_value=4096)


def _execute(source: str, data: bytes = b""):
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CODE, code=assemble(source))
    tx = Transaction(sender=SENDER, to=CODE, data=data, nonce=0,
                     gas_limit=500_000)
    result = EVM(StateDB(world), BlockHeader(1, 1, 0xB),
                 tx).execute_transaction()
    assert result.success, result.error
    return result


def _returned_word(source: str) -> int:
    """Run ``source``, which leaves one word on the stack; return it."""
    result = _execute(source + "\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
    return int.from_bytes(result.return_data, "big")


def test_zero_initialized():
    assert _returned_word("PUSH 64\nMLOAD") == 0


@settings(deadline=None)
@given(offsets, words)
def test_store_load_roundtrip(offset, value):
    assert _returned_word(f"PUSH {value}\nPUSH {offset}\nMSTORE\n"
                          f"PUSH {offset}\nMLOAD") == value


def test_store_byte():
    # MSTORE8 keeps only the low byte.
    result = _execute("PUSH 0x1FF\nPUSH 3\nMSTORE8\nPUSH 4\nPUSH 0\nRETURN")
    assert result.return_data == b"\x00\x00\x00\xff"


def test_overlapping_writes_latest_wins():
    result = _execute(f"PUSH {2**256 - 1}\nPUSH 0\nMSTORE\n"
                      "PUSH 0\nPUSH 16\nMSTORE\nPUSH 48\nPUSH 0\nRETURN")
    # First 16 bytes keep 0xff, next 32 are zero.
    assert result.return_data == b"\xff" * 16 + b"\x00" * 32


def test_expansion_words():
    def gas(source: str) -> int:
        return _execute(source).gas_used

    base = gas("PUSH 0\nMLOAD\nPOP")  # one word
    assert gas("PUSH 0\nMLOAD\nPOP\nPUSH 0\nMLOAD\nPOP") \
        == base + 3 + 3 + 2  # a second access to it is not charged
    assert gas("PUSH 1\nMLOAD\nPOP") == base + MEMORY_WORD_GAS  # spans two
    assert gas("PUSH 0\nPUSH 4096\nRETURN") \
        == gas("PUSH 0\nPUSH 0\nRETURN")  # size 0 never expands


def test_read_expands():
    # MSIZE after reading 10 bytes at 100 covers them, in whole words.
    assert _returned_word("PUSH 10\nPUSH 100\nSHA3\nPOP\nMSIZE") == 128


def test_write_raw():
    result = _execute("PUSH 5\nPUSH 0\nPUSH 5\nCALLDATACOPY\n"
                      "PUSH 5\nPUSH 5\nRETURN", data=b"hello")
    assert result.return_data == b"hello"


def test_call_prices_return_region_before_arguments_grow():
    # CALL prices its return region from the memory size before its
    # arguments grew it: a word both regions share is charged twice.
    def call_gas(ret_size: int) -> int:
        return _execute(f"PUSH {ret_size}\nPUSH 0\nPUSH 32\nPUSH 0\n"
                        "PUSH 0\nPUSH 0xEE\nPUSH 1000\nCALL\nPOP").gas_used

    assert call_gas(32) - call_gas(0) == MEMORY_WORD_GAS
