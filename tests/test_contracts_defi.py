"""Behavioural tests: lending pool, aggregator, and the staticread /
delegate minisol builtins."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts.aggregator import AGGREGATOR_SOURCE
from repro.contracts.lending import RATE_PER_SECOND, RATE_SCALE, lending
from repro.contracts.pricefeed import pricefeed
from repro.evm.interpreter import EVM
from repro.minisol import compile_contract, decode_uint
from repro.state.statedb import StateDB
from repro.state.world import WorldState

ALICE = 0xA1
POOL, FEED_A, FEED_B, FEED_C, AGG = 0x100, 0x201, 0x202, 0x203, 0x300
ROUND = 3990300

L = lending()
AG = compile_contract(AGGREGATOR_SOURCE)
PF = pricefeed()


def build_world(prices=(2000, 2010, 1990), collateral=10**6,
                supplied=10**12, borrowed=0, last_accrual=0,
                borrow_index=RATE_SCALE):
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(POOL, code=L.code)
    for feed, price in zip((FEED_A, FEED_B, FEED_C), prices):
        world.create_account(feed, code=PF.code)
        world.get_account(feed).set_storage(
            PF.slot_of("prices", ROUND), price)
    world.create_account(AGG, code=AG.code)
    agg = world.get_account(AGG)
    agg.set_storage(AG.slot_of("feedA"), FEED_A)
    agg.set_storage(AG.slot_of("feedB"), FEED_B)
    agg.set_storage(AG.slot_of("feedC"), FEED_C)
    pool = world.get_account(POOL)
    pool.set_storage(L.slot_of("priceFeed"), FEED_A)
    pool.set_storage(L.slot_of("activeRound"), ROUND)
    pool.set_storage(L.slot_of("totalSupplied"), supplied)
    pool.set_storage(L.slot_of("totalBorrowed"), borrowed)
    pool.set_storage(L.slot_of("lastAccrual"), last_accrual)
    pool.set_storage(L.slot_of("borrowIndex"), borrow_index)
    pool.set_storage(L.slot_of("collateral", ALICE), collateral)
    return world


def send(world, to, data, timestamp, nonce=0):
    state = StateDB(world)
    tx = Transaction(sender=ALICE, to=to, data=data, nonce=nonce)
    result = EVM(state, BlockHeader(1, timestamp, 0xBEEF), tx) \
        .execute_transaction()
    state.commit()
    return result


class TestLending:
    def test_accrue_compounds_with_elapsed_time(self):
        world = build_world(last_accrual=1000, borrowed=10**9)
        result = send(world, POOL, L.calldata("accrue"), timestamp=2000)
        assert result.success
        pool = world.get_account(POOL)
        elapsed = 1000
        expected_index = RATE_SCALE + \
            RATE_SCALE * elapsed * RATE_PER_SECOND // RATE_SCALE
        assert pool.get_storage(L.slot_of("borrowIndex")) == expected_index
        expected_debt = 10**9 + 10**9 * elapsed * RATE_PER_SECOND \
            // RATE_SCALE
        assert pool.get_storage(L.slot_of("totalBorrowed")) == expected_debt
        assert pool.get_storage(L.slot_of("lastAccrual")) == 2000

    def test_accrue_first_touch_just_stamps(self):
        world = build_world(last_accrual=0)
        send(world, POOL, L.calldata("accrue"), timestamp=500)
        pool = world.get_account(POOL)
        assert pool.get_storage(L.slot_of("lastAccrual")) == 500
        assert pool.get_storage(L.slot_of("borrowIndex")) == RATE_SCALE

    def test_accrue_is_idempotent_within_second(self):
        world = build_world(last_accrual=1000, borrowed=10**9)
        send(world, POOL, L.calldata("accrue"), timestamp=1000)
        pool = world.get_account(POOL)
        assert pool.get_storage(L.slot_of("totalBorrowed")) == 10**9

    def test_borrow_within_collateral(self):
        world = build_world(collateral=100)  # value = 100*2000
        result = send(world, POOL, L.calldata("borrow", 1000),
                      timestamp=1000)
        assert result.success
        pool = world.get_account(POOL)
        assert pool.get_storage(L.slot_of("borrowed", ALICE)) == 1000

    def test_borrow_over_collateral_rejected(self):
        world = build_world(collateral=1)  # value 2000 -> max ~1333
        result = send(world, POOL, L.calldata("borrow", 2000),
                      timestamp=1000)
        assert not result.success

    def test_borrow_respects_liquidity(self):
        world = build_world(supplied=100, collateral=10**9)
        result = send(world, POOL, L.calldata("borrow", 200),
                      timestamp=1000)
        assert not result.success

    def test_repay_roundtrip(self):
        world = build_world(collateral=10**6)
        send(world, POOL, L.calldata("borrow", 5000), timestamp=1000)
        result = send(world, POOL, L.calldata("repay", 3000),
                      timestamp=1001, nonce=1)
        assert result.success
        pool = world.get_account(POOL)
        assert pool.get_storage(L.slot_of("borrowed", ALICE)) == 2000

    def test_repay_over_debt_rejected(self):
        world = build_world()
        result = send(world, POOL, L.calldata("repay", 1),
                      timestamp=1000)
        assert not result.success


class TestAggregator:
    @pytest.mark.parametrize("prices", [
        (2000, 2010, 1990),
        (1990, 2000, 2010),
        (2010, 1990, 2000),
        (2000, 2000, 2000),
        (1, 3, 2),
    ])
    def test_median(self, prices):
        world = build_world(prices=prices)
        result = send(world, AGG, AG.calldata("update", ROUND),
                      timestamp=1000)
        assert result.success
        assert world.get_account(AGG).get_storage(
            AG.slot_of("lastMedian")) == sorted(prices)[1]

    def test_zero_median_rejected(self):
        world = build_world(prices=(0, 0, 0))
        result = send(world, AGG, AG.calldata("update", ROUND),
                      timestamp=1000)
        assert not result.success

    def test_round_recorded_and_event(self):
        world = build_world()
        result = send(world, AGG, AG.calldata("update", ROUND),
                      timestamp=1000)
        assert world.get_account(AGG).get_storage(
            AG.slot_of("lastRound")) == ROUND
        assert len(result.logs) == 1


class TestBuiltins:
    def test_staticread_cannot_mutate(self):
        """A staticread into a mutating function reverts the caller."""
        from repro.minisol.abi import selector
        mutator_sel = selector("poke()")
        caller_src = f"""
        contract Caller {{
            uint256 public target;
            function read() public returns (uint256) {{
                return staticread(target, {mutator_sel});
            }}
        }}
        """
        mutator_src = """
        contract Mutator {
            uint256 public hits;
            function poke() public returns (uint256) {
                hits += 1;
                return hits;
            }
        }
        """
        caller = compile_contract(caller_src)
        mutator = compile_contract(mutator_src)
        world = WorldState()
        world.create_account(ALICE, balance=10**21)
        world.create_account(0xCA, code=caller.code)
        world.create_account(0xCB, code=mutator.code)
        world.get_account(0xCA).set_storage(
            caller.slot_of("target"), 0xCB)
        state = StateDB(world)
        tx = Transaction(sender=ALICE, to=0xCA,
                         data=caller.calldata("read"), nonce=0)
        result = EVM(state, BlockHeader(1, 1, 0xB), tx) \
            .execute_transaction()
        assert not result.success  # extcall failure bubbles as revert
        assert world.get_account(0xCB).get_storage(
            mutator.slot_of("hits")) == 0

    def test_delegate_builtin_uses_caller_storage(self):
        from repro.minisol.abi import selector
        set_sel = selector("setValue(uint256)")
        library_src = """
        contract Library {
            uint256 public value;
            function setValue(uint256 v) public returns (uint256) {
                value = v;
                return v;
            }
        }
        """
        proxy_src = f"""
        contract Proxy {{
            uint256 public value;
            uint256 public impl;
            function set(uint256 v) public returns (uint256) {{
                return delegate(impl, {set_sel}, v);
            }}
        }}
        """
        library = compile_contract(library_src)
        proxy = compile_contract(proxy_src)
        world = WorldState()
        world.create_account(ALICE, balance=10**21)
        world.create_account(0x1B, code=library.code)
        world.create_account(0x1A, code=proxy.code)
        world.get_account(0x1A).set_storage(proxy.slot_of("impl"), 0x1B)
        state = StateDB(world)
        tx = Transaction(sender=ALICE, to=0x1A,
                         data=proxy.calldata("set", 77), nonce=0)
        result = EVM(state, BlockHeader(1, 1, 0xB), tx) \
            .execute_transaction()
        state.commit()
        assert result.success
        assert decode_uint(result.return_data) == 77
        # The write landed in the PROXY's slot 0, not the library's.
        assert world.get_account(0x1A).get_storage(
            proxy.slot_of("value")) == 77
        assert world.get_account(0x1B).get_storage(
            library.slot_of("value")) == 0
