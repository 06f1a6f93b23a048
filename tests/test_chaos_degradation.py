"""Graceful-degradation sweeps (ISSUE satellite: fault-probability 0→1).

For every injection site and for uniform all-site plans the properties
under test are the paper's safety contract (§2, §7):

* **No escape** — a replay under any plan completes without raising.
* **Commitment equivalence** — committed state roots, receipts and the
  Table 2/3 baseline columns are byte-identical to the fault-free run.
* **Monotone degradation** — raising the fault probability can only
  lose acceleration, collapsing toward ~1.0x at probability 1.0; sites
  the table marks ``lethal`` reach exactly 1.0x there.
* **Determinism** — two same-seed faulted replays produce identical
  digests, metric snapshots and chaos reports.
* **Reference conformance** — every AP the pipeline runs, clean or
  faulted, does what the reference walker does on the same pre-state.
"""

import dataclasses

import pytest

from repro.core.costmodel import CostTally
from repro.core.node import BaselineNode
from repro.errors import ConstraintViolation
from repro.evm.jit.tier import JitTier
from repro.faults.injector import FaultPlan
from repro.faults.invariants import (
    check_equivalence,
    digest_bytes,
    run_digest,
)
from repro.faults.sites import layer_sites, site_row
from repro.obs.export import canonical_json
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import commitments, replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.ap_walk import execute_ap
from tests.conftest import sweep_params


@pytest.fixture(scope="module")
def dataset():
    config = DatasetConfig(
        name="chaos-sweep",
        traffic=TrafficConfig(duration=20.0, seed=2021),
        observers={"live": LatencyModel()}, seed=2021)
    return record_dataset(config)


@pytest.fixture(scope="module")
def clean_run(dataset):
    return replay(dataset, "live")


def _records(run) -> list:
    return [dataclasses.asdict(record) for report in run.reports
            for record in report.records]


def test_zero_probability_plan_changes_nothing(dataset, clean_run):
    plan = FaultPlan.uniform(seed=1, probability=0.0)
    report = check_equivalence(dataset, plan, clean_run=clean_run)
    assert report.ok, report.mismatches
    assert report.faults_fired == 0
    assert report.speedup_faulted == pytest.approx(report.speedup_clean)


@pytest.mark.parametrize(**sweep_params("pipeline", seed=1))
def test_single_site_at_full_rate(site, plan, dataset, clean_run):
    """The pipeline layer's sweep (p=1.0 at one site): no escape,
    commitments identical; lethal sites collapse the effective speedup
    to exactly baseline."""
    report = check_equivalence(dataset, plan, clean_run=clean_run)
    assert report.ok, (site, report.mismatches)
    assert report.faults_fired > 0, f"{site} never exercised"
    if site_row(site).lethal:
        assert report.speedup_faulted == pytest.approx(1.0), site
    else:
        assert report.speedup_faulted >= 1.0


@pytest.mark.parametrize(**sweep_params("jit", seed=1))
def test_compile_tier_site_at_full_rate(site, plan, dataset, clean_run):
    """``jit.compile`` at p=1.0: every compile the speculator offers is
    contained, so every AP reaches the accelerator without a closure
    and is compiled when it first executes — and no per-tx record
    moves."""
    faulted = replay(dataset, "live", fault_plan=plan)
    assert faulted.commitments() == clean_run.commitments()
    assert _records(faulted) == _records(clean_run)
    assert faulted.fault_injector.fired(site) > 0
    value = faulted.registry.value
    assert value("jit.misses") == value("jit.hits") > 0
    assert value("jit.compiles") == value("jit.misses")
    tiers = {record["tier"] for record in _records(faulted)}
    assert tiers == {"plain", "jit"}
    guard = faulted.forerunner_node.guard.summary()
    assert guard["by_stage"][site] == faulted.fault_injector.fired(site)
    assert guard["contained_unexpected"] == 0


def _ap_digest(run, state, tally) -> tuple:
    """``(outcome or None, digest)`` of one AP execution: everything it
    shows but I/O units (a revert keeps the caches the first run
    warmed, by design)."""
    mark, logs_mark = state.snapshot(), len(state.logs)
    cpu, detail = tally.cpu_units, dict(tally.detail)
    try:
        outcome = run()
    except ConstraintViolation as exc:
        outcome, digest = None, {"violation": str(exc)}
    else:
        digest = {"result": (outcome.success, outcome.gas_used,
                             outcome.return_data, id(outcome.terminal)),
                  "stats": outcome.stats,
                  "observed_reads": outcome.observed_reads}
    digest["cpu"] = tally.cpu_units - cpu
    digest["detail"] = {key: units - detail.get(key, 0)
                        for key, units in tally.detail.items()
                        if units != detail.get(key, 0)}
    digest["writes"] = state.witness_deltas([(mark, state.snapshot())])
    digest["logs"] = [(entry.address, entry.topics, entry.data)
                      for entry in state.logs[logs_mark:]]
    return outcome, digest


@pytest.mark.parametrize("plan", [None, FaultPlan.seeded_random(seed=0)],
                         ids=["clean", "chaos-seed-0"])
def test_pipeline_aps_match_the_reference_walker(plan, dataset,
                                                 monkeypatch):
    """Every closure the node runs first meets the reference walker on
    the same pre-state (walked, then reverted the way the accelerator's
    fallback reverts), its AP's merge-kept path count and stat totals
    equal a walk of its terminals and a sum over its paths, and the
    committed chain is the baseline's.
    Mismatches are collected, not asserted in place: the node's guard
    would contain an assertion raised inside the accelerator."""
    execute = JitTier.execute
    checked, mismatches = [], []

    def checking(self, ap, state, header, tally):
        snap, logs_mark = state.snapshot(), len(state.logs)
        walk_tally = CostTally()
        _, walked = _ap_digest(
            lambda: execute_ap(ap, state, header, walk_tally),
            state, walk_tally)
        state.revert_to(snap)
        del state.logs[logs_mark:]
        outcome, compiled = _ap_digest(
            lambda: execute(self, ap, state, header, tally), state, tally)
        checked.append(ap.tx_hash)
        if compiled != walked:
            mismatches.append((hex(ap.tx_hash), walked, compiled))
        if ap.path_count != len(ap._terminals()):
            mismatches.append((hex(ap.tx_hash), "path_count",
                               ap.path_count, len(ap._terminals())))
        totals = tuple(map(sum, zip(*(path.stats.counts()
                                      for path in ap.paths))))
        if ap.synth_totals != totals:
            mismatches.append((hex(ap.tx_hash), "synth_totals",
                               ap.synth_totals, totals))
        if outcome is None:
            raise ConstraintViolation(compiled["violation"])
        return outcome

    monkeypatch.setattr(JitTier, "execute", checking)
    run = replay(dataset, "live", fault_plan=plan)
    assert checked
    assert mismatches == []
    assert run.forerunner_node.guard.summary()["contained_unexpected"] == 0
    baseline = BaselineNode(dataset.genesis_world.copy())
    for _, block in dataset.blocks:
        baseline.process_block(block)
    assert run.commitments() == commitments(baseline.reports)


@pytest.mark.parametrize("probability", [0.05, 0.25, 0.6, 1.0])
def test_uniform_rate_never_escapes(probability, dataset, clean_run):
    plan = FaultPlan.uniform(seed=3, probability=probability)
    report = check_equivalence(dataset, plan, clean_run=clean_run)
    assert report.ok, (probability, report.mismatches)


def test_degradation_is_monotone_toward_baseline(dataset, clean_run):
    """Sweeping the uniform fault rate 0→1 only ever loses speedup
    (within a small jitter floor) and bottoms out at exactly 1.0x."""
    rates = [0.0, 0.1, 0.3, 0.6, 1.0]
    speedups = []
    for rate in rates:
        plan = FaultPlan.uniform(seed=3, probability=rate)
        report = check_equivalence(dataset, plan, clean_run=clean_run)
        assert report.ok, (rate, report.mismatches)
        speedups.append(report.speedup_faulted)
    assert speedups[0] == pytest.approx(report.speedup_clean)
    assert speedups[-1] == pytest.approx(1.0)
    # Seeded draws shuffle *which* txs fault, so allow a small jitter
    # floor while requiring the overall trend to be non-increasing.
    for earlier, later in zip(speedups, speedups[1:]):
        assert later <= earlier * 1.05, speedups


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_random_plans_preserve_commitments(seed, dataset,
                                                  clean_run):
    plan = FaultPlan.seeded_random(seed=seed)
    report = check_equivalence(dataset, plan, clean_run=clean_run)
    assert report.ok, (seed, report.mismatches)
    assert report.speedup_retained > 0.0


def test_same_seed_faulted_replays_are_byte_identical(dataset):
    plan = FaultPlan.seeded_random(seed=0)
    first = replay(dataset, "live", fault_plan=plan)
    second = replay(dataset, "live", fault_plan=plan)
    assert digest_bytes(first) == digest_bytes(second)
    assert canonical_json(first.metrics()) == \
        canonical_json(second.metrics())


def test_report_payload_is_deterministic(dataset, clean_run):
    plan = FaultPlan.seeded_random(seed=2)
    a = check_equivalence(dataset, plan, clean_run=clean_run)
    b = check_equivalence(dataset, plan, clean_run=clean_run)
    assert canonical_json(a.as_dict()) == canonical_json(b.as_dict())


def test_full_rate_run_reports_containment(dataset, clean_run):
    """With every pipeline site faulting at p=1.0 the guard visibly
    absorbs the chaos: nothing reaches the caller.  (``gossip.deliver``
    is excluded — dropping every message empties the pipeline, which
    degrades gracefully but leaves the guard nothing to contain.)"""
    sites = tuple(s for s in layer_sites("pipeline")
                  if s != "gossip.deliver")
    plan = FaultPlan.uniform(seed=7, probability=1.0, sites=sites)
    report = check_equivalence(dataset, plan, clean_run=clean_run)
    assert report.ok, report.mismatches
    assert report.guard["contained"] > 0
    assert report.guard["contained_unexpected"] == 0
    assert report.speedup_faulted == pytest.approx(1.0)


def test_digest_ignores_performance_fields(dataset, clean_run):
    """The digest anchors commitments only: a faulted run with a
    different speedup still digests identically."""
    plan = FaultPlan.uniform(seed=5, probability=0.5)
    faulted = replay(dataset, "live", fault_plan=plan)
    assert run_digest(faulted) == run_digest(clean_run)
