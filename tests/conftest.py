"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import amm, auction, erc20, pricefeed, registry
from repro.faults.injector import sweep_plans
from repro.faults.sites import layer_sites
from repro.state.statedb import StateDB
from repro.state.world import WorldState

ALICE = 0xA11CE
BOB = 0xB0B
FEED = 0xFEED
TOKEN = 0x70CE2
POOL = 0xF00
TOKEN1 = 0x70CE3
AUCTION_ADDR = 0xA0C
REGISTRY_ADDR = 0x4E6

ROUND = 3990300


def sweep_params(layer: str, seed: int, rate=None) -> dict:
    """``pytest.mark.parametrize(**sweep_params(...))``: one
    ``(site, plan)`` case per row of ``layer`` in the fault-site table,
    named after the site."""
    return {"argnames": "site,plan",
            "argvalues": list(sweep_plans(layer, seed, rate)),
            "ids": layer_sites(layer)}


@pytest.fixture
def world():
    """Fresh world with funded EOAs and all library contracts deployed."""
    w = WorldState()
    w.create_account(ALICE, balance=10**24)
    w.create_account(BOB, balance=10**24)
    w.create_account(FEED, code=pricefeed().code)
    w.create_account(TOKEN, code=erc20().code)
    w.create_account(TOKEN1, code=erc20().code)
    w.create_account(POOL, code=amm().code)
    w.create_account(AUCTION_ADDR, code=auction().code)
    w.create_account(REGISTRY_ADDR, code=registry().code)
    return w


@pytest.fixture
def state(world):
    return StateDB(world)


@pytest.fixture
def header():
    return BlockHeader(number=1, timestamp=3990462, coinbase=0xBEEF)


def speculate_many(speculator, tx, contexts) -> int:
    """Speculate ``tx`` on several futures, as a node's speculation
    cycle does; returns how many paths :func:`merge_path` accepted (a
    synthesized path whose merge failed does not count)."""
    merged = 0
    for context in contexts:
        path = speculator.speculate(tx, context)
        if path is not None and speculator.records[-1].merged:
            merged += 1
    return merged


def make_tx(sender=ALICE, to=FEED, data=b"", nonce=0, value=0,
            gas_price=10**9, gas_limit=500_000):
    return Transaction(sender=sender, to=to, data=data, nonce=nonce,
                       value=value, gas_price=gas_price,
                       gas_limit=gas_limit)


@pytest.fixture
def oracle_world(world):
    """World with an active oracle round (the paper's FC1 state)."""
    account = world.get_account(FEED)
    pf = pricefeed()
    account.set_storage(pf.slot_of("activeRoundID"), ROUND)
    account.set_storage(pf.slot_of("prices", ROUND), 2000)
    account.set_storage(pf.slot_of("submissionCounts", ROUND), 4)
    return world
