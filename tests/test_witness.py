"""Execution witnesses: format, journal deltas, checker, node wiring.

The acceptance loop under test: every committed transaction carries a
witness; a :class:`WitnessChecker` holding only genesis and the
witness stream re-derives every block's Merkle root by constraint
replay + delta application — no EVM instruction interpreted, no AP
walked — at a small fraction of the original execution cost.
"""

from __future__ import annotations

import pytest

from repro.chain.block import BlockHeader
from repro.core.costmodel import (
    WITNESS_APPLY,
    WITNESS_CHECK,
    WITNESS_FIXED,
    witness_check_cost,
)
from repro.core.node import ForerunnerConfig, ForerunnerNode
from repro.obs.export import witness_lines
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.state.statedb import LogEntry, StateDB
from repro.state.world import WorldState
from repro.witness import (
    ExecutionWitness,
    WitnessChecker,
    witness_digest,
    witness_to_dict,
)
from repro.witness.format import decode_value, logs_digest
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB

CONTRACT = 0xC0DE


def _world() -> WorldState:
    world = WorldState()
    world.create_account(ALICE, balance=10 ** 20)
    contract = world.create_account(CONTRACT)
    contract.set_storage(1, 100)
    contract.set_storage(2, 200)
    return world


# ---------------------------------------------------------------------------
# Journal-span delta reconstruction
# ---------------------------------------------------------------------------

class TestWitnessDeltas:
    def test_net_delta_per_span(self):
        state = StateDB(_world())
        a = state.snapshot()
        state.set_storage(CONTRACT, 1, 111)
        state.set_balance(ALICE, 5)
        b = state.snapshot()
        state.set_storage(CONTRACT, 1, 222)     # second tx, same slot
        c = state.snapshot()
        deltas = state.witness_deltas([(a, b), (b, c)])
        assert deltas[0]["delta"] == {
            ("storage", (CONTRACT, 1)): (100, 111),
            ("balance", (ALICE,)): (10 ** 20, 5),
        }
        # The second span's pre is the *intermediate* value 111, even
        # though only the journal's old-value chain still knows it.
        assert deltas[1]["delta"] == {
            ("storage", (CONTRACT, 1)): (111, 222)}

    def test_overwrite_within_span_collapses_to_net(self):
        state = StateDB(_world())
        a = state.snapshot()
        state.set_storage(CONTRACT, 2, 7)
        state.set_storage(CONTRACT, 2, 9)
        deltas = state.witness_deltas([(a, state.snapshot())])
        assert deltas[0]["delta"] == {
            ("storage", (CONTRACT, 2)): (200, 9)}

    def test_writeback_of_same_value_yields_no_row(self):
        state = StateDB(_world())
        a = state.snapshot()
        state.set_storage(CONTRACT, 1, 555)
        state.set_storage(CONTRACT, 1, 100)     # back to pre-value
        deltas = state.witness_deltas([(a, state.snapshot())])
        assert deltas[0]["delta"] == {}

    def test_created_account_reported_with_pre_image(self):
        state = StateDB(_world())
        a = state.snapshot()
        state.create_account(0xABC, balance=3)
        deltas = state.witness_deltas([(a, state.snapshot())])
        created = deltas[0]["created"]
        assert len(created) == 1
        address, pre = created[0]
        assert address == 0xABC
        assert pre is None                      # did not exist before


# ---------------------------------------------------------------------------
# Canonical format
# ---------------------------------------------------------------------------

def _sample_witness() -> ExecutionWitness:
    return ExecutionWitness.assemble(
        tx_hash=0xFEEDBEEF, block_number=4, tier="jit",
        outcome="satisfied", success=True, gas_used=21_000,
        cost_units=3_000,
        observed_reads={("storage", (CONTRACT, 1)): 100,
                        ("header", ("timestamp",)): 1_000},
        delta={("storage", (CONTRACT, 1)): (100, 111),
               ("balance", (ALICE,)): (10, 4)},
        created=[(0xABC, None)],
        guards_checked=2,
        logs=[(CONTRACT, (0x70,), b"\x01\x02")],
        return_data=b"\x2a" * 32)


class TestWitnessFormat:
    def test_assemble_sorts_and_is_deterministic(self):
        w1, w2 = _sample_witness(), _sample_witness()
        assert witness_to_dict(w1) == witness_to_dict(w2)
        assert witness_digest(w1) == witness_digest(w2)
        assert w1.constraints == sorted(w1.constraints)
        assert w1.delta == sorted(w1.delta)

    def test_digest_changes_with_content(self):
        w1 = _sample_witness()
        w2 = _sample_witness()
        w2.gas_used += 1
        assert witness_digest(w1) != witness_digest(w2)

    def test_bytes_values_roundtrip_through_encoding(self):
        witness = ExecutionWitness.assemble(
            tx_hash=1, block_number=1, tier="plain", outcome="no_ap",
            success=True, gas_used=0, cost_units=0, observed_reads={},
            delta={("code", (0xABC,)): (b"", b"\x60\x00")},
            created=[], guards_checked=0, logs=[], return_data=b"")
        row = witness.delta[0]
        assert decode_value(row[2]) == b""
        assert decode_value(row[3]) == b"\x60\x00"

    def test_logs_digest_accepts_tuples_and_log_entries(self):
        as_tuple = [(CONTRACT, (1, 2), b"\xaa")]
        as_entry = [LogEntry(address=CONTRACT, topics=(1, 2),
                             data=b"\xaa")]
        assert logs_digest(as_tuple) == logs_digest(as_entry)
        assert logs_digest(as_tuple) != logs_digest([])

    def test_witness_lines_byte_identical(self):
        lines_a = witness_lines([_sample_witness()], meta={"seed": 1})
        lines_b = witness_lines([_sample_witness()], meta={"seed": 1})
        assert lines_a == lines_b
        assert lines_a[0].startswith('{"kind":"witness"')


# ---------------------------------------------------------------------------
# Checker: constraint replay + delta application, no re-execution
# ---------------------------------------------------------------------------

def _header(number: int = 4) -> BlockHeader:
    return BlockHeader(number=number, timestamp=1_000, coinbase=0xBEEF)


def _transfer_witness() -> ExecutionWitness:
    """Witness of a simple 'read slot 1, bump it, pay BOB' transaction."""
    return ExecutionWitness.assemble(
        tx_hash=0x11, block_number=4, tier="jit", outcome="satisfied",
        success=True, gas_used=21_000, cost_units=3_000,
        observed_reads={("storage", (CONTRACT, 1)): 100,
                        ("balance", (ALICE,)): 10 ** 20},
        delta={("storage", (CONTRACT, 1)): (100, 101),
               ("balance", (ALICE,)): (10 ** 20, 10 ** 20 - 7),
               ("balance", (BOB,)): (None, 7)},
        created=[(BOB, None)],
        guards_checked=1, logs=[], return_data=b"")


class TestWitnessChecker:
    def test_valid_witness_checks_clean_and_advances_state(self):
        world = _world()
        checker = WitnessChecker(world)
        cost, failures = checker.check_transaction(
            _transfer_witness(), _header())
        assert failures == []
        assert cost == witness_check_cost(2, 4)
        assert world.get_account(CONTRACT).get_storage(1) == 101
        assert world.get_account(BOB).balance == 7

    def test_constraint_mismatch_detected(self):
        witness = _transfer_witness()
        witness.constraints = [
            ["storage", [CONTRACT, 1], 999]]    # tampered expectation
        _cost, failures = WitnessChecker(_world()).check_transaction(
            witness, _header())
        assert [f.stage for f in failures] == ["constraint"]
        assert failures[0].expected == 999
        assert failures[0].actual == 100

    def test_delta_pre_mismatch_detected(self):
        witness = _transfer_witness()
        witness.delta = [["storage", [CONTRACT, 1], 55, 101]]
        _cost, failures = WitnessChecker(_world()).check_transaction(
            witness, _header())
        assert [f.stage for f in failures] == ["delta-pre"]

    def test_validate_run_flags_root_mismatch(self):
        world = _world()
        good_root_world = _world()
        good = WitnessChecker(good_root_world).check_transaction(
            _transfer_witness(), _header())
        assert good[1] == []
        expected_root = good_root_world.root()
        validation = WitnessChecker(world).validate_run(
            [(_header(), [_transfer_witness()], expected_root + 1)])
        assert not validation.ok
        assert validation.failures[-1].stage == "root"
        ok = WitnessChecker(_world()).validate_run(
            [(_header(), [_transfer_witness()], expected_root)])
        assert ok.ok
        assert ok.roots_matched == ok.blocks_checked == 1

    def test_cost_model_is_linear_in_witness_size(self):
        assert witness_check_cost(0, 0) == WITNESS_FIXED
        assert (witness_check_cost(5, 3)
                == WITNESS_FIXED + 5 * WITNESS_CHECK + 3 * WITNESS_APPLY)


# ---------------------------------------------------------------------------
# End-to-end: node emits witnesses; checker re-derives the chain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def witness_run():
    config = DatasetConfig(
        name="witness-e2e",
        traffic=TrafficConfig(duration=14.0, seed=29),
        observers={"live": LatencyModel()}, seed=29)
    dataset = record_dataset(config)
    run = replay(dataset, "live",
                 config=ForerunnerConfig(enable_witness=True))
    return dataset, run


class TestNodeIntegration:
    def test_every_committed_transaction_carries_a_witness(
            self, witness_run):
        _dataset, run = witness_run
        node = run.forerunner_node
        executed = sum(len(r.records) for r in node.reports)
        assert executed > 0
        assert len(node.witnesses) == executed
        hashes = {record.tx_hash
                  for report in node.reports
                  for record in report.records}
        assert {w.tx_hash for w in node.witnesses} == hashes

    def test_checker_rederives_every_block_root(self, witness_run):
        dataset, run = witness_run
        node = run.forerunner_node
        by_block: dict = {}
        for witness in node.witnesses:
            by_block.setdefault(witness.block_number, []).append(witness)
        headers = {block.number: block.header
                   for _, block in dataset.blocks}
        blocks = [(headers[r.block_number],
                   by_block.get(r.block_number, []), r.state_root)
                  for r in node.reports]
        checker = WitnessChecker(dataset.genesis_world.copy())
        validation = checker.validate_run(blocks)
        assert validation.ok, [f.as_dict() for f in validation.failures]
        assert validation.roots_matched == len(node.reports)
        assert validation.witnesses == len(node.witnesses)

    def test_speculative_checker_cost_within_bound(self, witness_run):
        dataset, run = witness_run
        node = run.forerunner_node
        by_block: dict = {}
        for witness in node.witnesses:
            by_block.setdefault(witness.block_number, []).append(witness)
        headers = {block.number: block.header
                   for _, block in dataset.blocks}
        validation = WitnessChecker(
            dataset.genesis_world.copy()).validate_run(
            [(headers[r.block_number],
              by_block.get(r.block_number, []), r.state_root)
             for r in node.reports])
        assert validation.speculative_witnesses > 0
        assert validation.speculative_cost_ratio() <= 0.2
        # The overall ratio (including plain fallbacks) stays sane too.
        assert 0.0 < validation.cost_ratio() < 1.0

    def test_witness_recording_does_not_change_commitments(
            self, witness_run):
        dataset, run = witness_run
        plain = replay(dataset, "live",
                       config=ForerunnerConfig(enable_witness=False))
        assert (plain.forerunner_node.world.root()
                == run.forerunner_node.world.root())
        assert plain.roots_matched == run.roots_matched

    def test_witness_stream_is_byte_stable(self, witness_run):
        dataset, run = witness_run
        again = replay(dataset, "live",
                       config=ForerunnerConfig(enable_witness=True))
        assert (witness_lines(run.forerunner_node.witnesses)
                == witness_lines(again.forerunner_node.witnesses))

def test_direct_node_block_flow_produces_checkable_witnesses():
    """Drive a ForerunnerNode by hand (no emulator) and check it."""
    from repro.chain.block import Block
    from tests.conftest import make_tx

    world = WorldState()
    world.create_account(ALICE, balance=10 ** 24)
    world.create_account(BOB, balance=10 ** 24)
    genesis = world.copy()
    node = ForerunnerNode(world, ForerunnerConfig(enable_witness=True))
    txs = [make_tx(sender=ALICE, to=BOB, data=b"", nonce=0, value=123),
           make_tx(sender=BOB, to=ALICE, data=b"", nonce=0, value=45)]
    header = BlockHeader(number=1, timestamp=2_000, coinbase=0xBEEF)
    report = node.process_block(Block(header=header, transactions=txs))
    assert len(node.witnesses) == 2
    validation = WitnessChecker(genesis).validate_run(
        [(header, node.witnesses, report.state_root)])
    assert validation.ok, [f.as_dict() for f in validation.failures]
