"""Transaction / block / blockchain tests."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain
from repro.chain.transaction import Transaction
from repro.errors import ChainError


def test_tx_hash_stable_and_distinct():
    tx1 = Transaction(sender=1, to=2, nonce=0)
    tx2 = Transaction(sender=1, to=2, nonce=0)
    tx3 = Transaction(sender=1, to=2, nonce=1)
    assert tx1.hash == tx2.hash
    assert tx1.hash != tx3.hash


def test_header_hash_depends_on_fields():
    h1 = BlockHeader(number=1, timestamp=10, coinbase=3)
    h2 = BlockHeader(number=1, timestamp=11, coinbase=3)
    assert h1.hash != h2.hash


def make_block(parent: Block, number: int, ts: int = 0) -> Block:
    header = BlockHeader(number=number,
                         timestamp=ts or parent.header.timestamp + 13,
                         coinbase=9, parent_hash=parent.hash)
    return Block(header=header)


@pytest.fixture
def chain():
    genesis = Block(header=BlockHeader(number=0, timestamp=0, coinbase=0))
    return Blockchain(genesis)


def test_genesis_must_be_zero():
    bad = Block(header=BlockHeader(number=1, timestamp=0, coinbase=0))
    with pytest.raises(ChainError):
        Blockchain(bad)


def test_add_extends_head(chain):
    b1 = make_block(chain.genesis, 1)
    assert chain.add(b1)
    assert chain.head is b1


def test_unknown_parent_rejected(chain):
    orphan = Block(header=BlockHeader(
        number=1, timestamp=13, coinbase=0, parent_hash=0xDEAD))
    with pytest.raises(ChainError):
        chain.add(orphan)


def test_bad_number_rejected(chain):
    wrong = Block(header=BlockHeader(
        number=5, timestamp=13, coinbase=0,
        parent_hash=chain.genesis.hash))
    with pytest.raises(ChainError):
        chain.add(wrong)


def test_fork_tracking(chain):
    b1 = make_block(chain.genesis, 1, ts=13)
    rival = make_block(chain.genesis, 1, ts=14)
    chain.add(b1)
    assert not chain.add(rival)  # same height: first seen stays head
    assert chain.head is b1
    assert rival.hash in chain
    assert [b.hash for b in chain.fork_blocks()] == [rival.hash]
    assert chain.block_count() == 3  # genesis + b1 + rival


def test_canonical_chain_order(chain):
    b1 = make_block(chain.genesis, 1)
    b2 = make_block(b1, 2)
    chain.add(b1)
    chain.add(b2)
    numbers = [b.number for b in chain.canonical_chain()]
    assert numbers == [0, 1, 2]


def test_duplicate_add_is_noop(chain):
    b1 = make_block(chain.genesis, 1)
    chain.add(b1)
    assert not chain.add(b1)
    assert chain.block_count() == 2


def test_block_gas_used():
    txs = [Transaction(sender=1, to=2, nonce=i, gas_limit=50_000)
           for i in range(3)]
    block = Block(header=BlockHeader(number=1, timestamp=1, coinbase=0),
                  transactions=txs)
    assert block.gas_used() == 150_000
    assert len(block.tx_hashes()) == 3
