"""A known path costs a check, not a pre-execution.

Before it pre-executes a job, the speculator checks the materialized
context against the recorded inputs of every path the transaction's
dedup index holds (:meth:`repro.core.speculator._KnownPath.holds`) and,
on a hit, clones that path and replays the recorded run's loads
instead of running it.  These tests hold the check to the reference
fingerprint (``tests/fingerprint.py``): over seeded emulator runs,
every hit is a context whose traced fingerprint equals the cloned
path's, every miss one whose fingerprint equals no indexed path's, and
a hit's replayed I/O equals what the traced run charges.  Directed
cases show the inputs the read set leaves out — the sender nonce, a
debited balance, a callee's code, the coinbase — deciding a hit, and
a replay keeping a slot the run wrote before reading it warm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core import speculator as speculator_module
from repro.core.node import ForerunnerConfig
from repro.core.speculator import FutureContext, Speculator, _LeafView
from repro.core.trace import trace_transaction
from repro.evm.assembler import assemble
from repro.faults.injector import FaultPlan
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import commitments, replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB, FEED
from tests.fingerprint import trace_fingerprint
from tests.test_prefix_cache import header, oracle_world, submit

COINBASE = 0xC0FFEE
CONTRACT = 0xC0DE


@dataclass
class Audit:
    """What the audited speculators saw, job by job."""

    hits: int = 0
    misses: int = 0
    #: ``(verdict, tx hash, timestamp)`` of every check the reference
    #: fingerprint contradicts.
    wrong: List[tuple] = field(default_factory=list)
    #: Hits whose replay ran (an injected fault at the pre-execution
    #: site can end a job between its check and its replay).
    replays: int = 0
    #: ``(replayed, traced)`` I/O units of every replay that differ.
    io_mismatch: List[tuple] = field(default_factory=list)
    #: ``(tx hash, path id) -> fingerprint`` of every indexed path.
    indexed: Dict[tuple, str] = field(default_factory=dict)


@pytest.fixture
def audit(monkeypatch) -> Audit:
    """Audit every check: trace the job anyway on a second leaf of the
    same prefix (no fault hook, so no fault stream moves) and compare
    its fingerprint with the check's verdict."""
    seen = Audit()
    last = {}
    check, store = Speculator._check, Speculator._dedup_store
    replay_loads = _LeafView.replay

    def traced(state, header, tx):
        last["trace"] = trace = trace_transaction(state, header, tx)
        return trace

    def audited_check(self, index, state, header, tx):
        leaf = _LeafView(state.world, header.coinbase, state._parent)
        reference = trace_transaction(leaf, header, tx)
        known, cost = check(self, index, state, header, tx)
        printed = None if reference.result.error \
            else trace_fingerprint(reference)
        held = {key: seen.indexed[(tx.hash, key)] for key, _ in index.items()}
        if known is None:
            seen.misses += 1
            if printed in held.values():
                seen.wrong.append(("missed", tx.hash, header.timestamp))
        else:
            seen.hits += 1
            key = known.path.path_id
            if held[key] != printed:
                seen.wrong.append(("false hit", tx.hash, header.timestamp))
            state.traced_io = leaf.disk.stats.cost_units
        return known, cost

    def audited_store(self, tx_hash, path, steps, state):
        store(self, tx_hash, path, steps, state)
        seen.indexed[(tx_hash, path.path_id)] = \
            trace_fingerprint(last["trace"])

    def audited_replay(self, loads, coinbase):
        replay_loads(self, loads, coinbase)
        seen.replays += 1
        if self.disk.stats.cost_units != self.traced_io:
            seen.io_mismatch.append(
                (self.disk.stats.cost_units, self.traced_io))

    monkeypatch.setattr(speculator_module, "trace_transaction", traced)
    monkeypatch.setattr(Speculator, "_check", audited_check)
    monkeypatch.setattr(Speculator, "_dedup_store", audited_store)
    monkeypatch.setattr(_LeafView, "replay", audited_replay)
    return seen


def _dataset(duration: float, seed: int, compute_rate: float = 0.0):
    return record_dataset(DatasetConfig(
        name=f"known-path-{seed}",
        traffic=TrafficConfig(duration=duration, seed=seed,
                              compute_rate=compute_rate),
        observers={"live": LatencyModel()}, seed=seed))


RUNS = {
    "defi": lambda: replay(_dataset(60.0, 2021)),
    "compute": lambda: replay(_dataset(60.0, 2021, compute_rate=0.04)),
    "chaos_seed0": lambda: replay(
        _dataset(30.0, 2021), fault_plan=FaultPlan.seeded_random(seed=0)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_check_agrees_with_reference_fingerprint(name, audit):
    run = RUNS[name]()
    assert audit.hits > 0, f"{name}: no job checked a known path"
    assert audit.wrong == [], audit.wrong[:5]
    assert audit.io_mismatch == [], audit.io_mismatch[:5]
    speculator = run.forerunner_node.speculator
    assert speculator.c_dedup_hits.value == audit.replays
    if name != "chaos_seed0":
        assert audit.replays == audit.hits


def test_check_hits_leave_commitments_unchanged():
    """With dedup off every job runs the full pipeline; the roots and
    receipts are the same as with the check on."""
    dataset = _dataset(30.0, 2021)
    checked = replay(dataset)
    full = replay(dataset, config=ForerunnerConfig(enable_synth_dedup=False))
    assert full.forerunner_node.speculator.c_dedup_hits.value == 0
    assert checked.forerunner_node.speculator.c_dedup_hits.value > 0
    assert commitments(checked.reports) == commitments(full.reports)
    assert [r.logical_cost for r in
            checked.forerunner_node.speculator.records] == \
        [r.logical_cost for r in full.forerunner_node.speculator.records]


# -- directed cases -------------------------------------------------------

def test_consumed_nonce_is_not_a_hit(audit):
    """A predecessor from the same sender takes the target's nonce and
    changes nothing else the target reads: the check misses and the
    job gives the ``envelope:`` record a traced run gives."""
    speculator = Speculator(oracle_world())
    target = submit(ALICE, 0, 1980)
    speculator.speculate(target, FutureContext(1, header()))
    rival = Transaction(sender=ALICE, to=BOB, gas_price=0,
                        gas_limit=21_000, nonce=0)
    assert speculator.speculate(
        target, FutureContext(2, header(), (rival,))) is None
    assert audit.misses == 1 and audit.hits == 0
    assert speculator.records[-1].error == "envelope: bad nonce"
    assert audit.wrong == []


def test_drained_balance_is_not_a_hit(audit):
    """A predecessor drains the balance the target's gas purchase
    debits: the nonce still matches, the debit check misses."""
    speculator = Speculator(oracle_world())
    target = submit(ALICE, 1, 1980)
    balance = speculator.world.get_account(ALICE).balance
    tip = Transaction(sender=ALICE, to=BOB, value=1, gas_price=0,
                      gas_limit=21_000, nonce=0)
    drain = Transaction(sender=ALICE, to=BOB, gas_price=0,
                        gas_limit=21_000, nonce=0,
                        value=balance - target.gas_limit * target.gas_price
                        + 1)
    speculator.speculate(target, FutureContext(1, header(), (tip,)))
    assert speculator.records[-1].merged
    speculator.speculate(target, FutureContext(2, header(), (drain,)))
    assert audit.misses == 1 and audit.hits == 0
    assert speculator.records[-1].error == "envelope: cannot afford gas"
    assert audit.wrong == []


def test_other_coinbase_is_a_hit_with_exact_io(audit):
    """The fee credit commutes: a context with another coinbase still
    hits, and the replay charges the new coinbase's load exactly as a
    traced run would."""
    speculator = Speculator(oracle_world())
    target = submit(ALICE, 0, 1980)
    speculator.speculate(target, FutureContext(1, header()))
    other = BlockHeader(number=1, timestamp=header().timestamp,
                        coinbase=COINBASE)
    speculator.speculate(target, FutureContext(2, other))
    assert audit.hits == 1 and audit.misses == 0
    assert speculator.records[-1].deduped
    assert audit.wrong == [] and audit.io_mismatch == []
    assert speculator.records[-1].logical_cost == \
        speculator.records[0].logical_cost


def test_new_callee_code_is_not_a_hit(audit):
    """A value transfer to an account without code, then the account
    has code (deployed before the next head): the code input misses."""
    speculator = Speculator(oracle_world())
    transfer = Transaction(sender=ALICE, to=BOB, value=5,
                           gas_limit=100_000, nonce=0)
    speculator.speculate(transfer, FutureContext(1, header()))
    assert speculator.records[-1].merged
    world = speculator.world
    world.get_account(BOB).code = world.get_account(FEED).code
    speculator.speculate(transfer, FutureContext(2, header()))
    assert audit.misses == 1 and audit.hits == 0
    assert speculator.records[-1].trace_length > 0
    assert audit.wrong == []


def test_replay_keeps_a_written_slot_warm(audit):
    """A run that writes a slot before reading it reads it warm; the
    replay marks the written slot loaded, so it charges the same."""
    world = oracle_world()
    world.create_account(CONTRACT, code=assemble(
        "PUSH 0\nPUSH 5\nSSTORE\nPUSH 5\nSLOAD\nPOP\nSTOP"))
    speculator = Speculator(world)
    tx = Transaction(sender=ALICE, to=CONTRACT, gas_limit=100_000, nonce=0)
    speculator.speculate(tx, FutureContext(1, header()))
    speculator.speculate(tx, FutureContext(2, header()))
    assert audit.hits == audit.replays == 1
    assert audit.wrong == [] and audit.io_mismatch == []
