"""Scheduler subsystem tests (:mod:`repro.sched`).

Covers the deterministic lane model, the read/write-set conflict
graph + greedy schedule, admission control, and — the subsystem's
core contract — lane-count invariance: the block executor commits
byte-identical roots, receipts and *full* per-transaction records at
lanes 1 and 4, on every workload kind in :mod:`repro.workloads`.
The derived schedule itself is covered in ``test_sched_derive.py``.
"""

from __future__ import annotations

import pytest

from repro.faults.invariants import digest_bytes
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sched import admission as admission_module
from repro.sched.admission import (
    AdmissionController,
    HitLikelihoodEstimator,
)
from repro.sched.conflicts import AccessSet
from repro.sched.lanes import LaneSet
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.test_sched_derive import (
    build_conflict_graph,
    conflicts,
    greedy_schedule,
)


# ---------------------------------------------------------------------------
# lanes.py


class TestLaneSet:
    def test_dispatch_picks_least_loaded_lane(self):
        lanes = LaneSet(3)
        lanes.dispatch(10.0)   # lane 0 -> 10
        lanes.dispatch(4.0)    # lane 1 -> 4
        lanes.dispatch(4.0)    # lane 2 -> 4
        completion = lanes.dispatch(1.0)  # lane 1 wins the clock tie
        assert completion.lane_id == 1
        assert lanes.clocks == [10.0, 5.0, 4.0]

    def test_tie_breaks_by_lane_id(self):
        lanes = LaneSet(4)
        assert [lanes.dispatch(1.0).lane_id for _ in range(4)] == \
            [0, 1, 2, 3]

    def test_not_before_delays_start(self):
        lanes = LaneSet(2)
        completion = lanes.dispatch(5.0, not_before=100.0)
        assert completion.start == 100.0
        assert completion.finish == 105.0

    def test_makespan_and_utilization(self):
        lanes = LaneSet(2)
        lanes.dispatch(10.0)
        lanes.dispatch(5.0)
        assert lanes.makespan() == 10.0
        assert lanes.lane_utilization_permille() == [1000, 500]


# ---------------------------------------------------------------------------
# conflicts.py


def access(reads=(), writes=(), entangled=False):
    return AccessSet(reads=frozenset(reads), writes=frozenset(writes),
                     entangled=entangled)


class TestConflicts:
    def test_write_read_overlap_conflicts(self):
        a = access(writes={("bal", 1)})
        b = access(reads={("bal", 1)})
        assert conflicts(a, b)
        assert not conflicts(access(reads={("bal", 1)}),
                             access(reads={("bal", 1)}))

    def test_graph_edges_and_rate(self):
        sets = [access(writes={("slot", 9, 0)}),
                access(reads={("slot", 9, 0)}),
                access(reads={("bal", 7)})]
        graph = build_conflict_graph(sets)
        assert graph.edges == ((0, 1),)
        assert graph.possible_pairs == 3
        assert graph.conflict_rate == pytest.approx(1 / 3)

    def test_entangled_conflicts_with_everyone(self):
        sets = [access(reads={("bal", 1)}),
                access(entangled=True),
                access(reads={("bal", 2)})]
        graph = build_conflict_graph(sets)
        assert (0, 1) in graph.edges and (1, 2) in graph.edges

    def test_greedy_schedule_layers_conflict_chains(self):
        # 0 -> 1 -> 2 chained; 3 independent.
        sets = [access(writes={("slot", 9, 0)}),
                access(reads={("slot", 9, 0)}, writes={("slot", 9, 1)}),
                access(reads={("slot", 9, 1)}),
                access(reads={("bal", 7)})]
        schedule = greedy_schedule(build_conflict_graph(sets))
        assert schedule.depth == 3
        assert schedule.generation_of[0] == 0
        assert schedule.generation_of[1] == 1
        assert schedule.generation_of[2] == 2
        assert schedule.generation_of[3] == 0


# ---------------------------------------------------------------------------
# admission.py


class FakeTx:
    _seq = 0

    def __init__(self, gas_price=10**9, to=0xC0FFEE):
        FakeTx._seq += 1
        self.hash = FakeTx._seq
        self.gas_price = gas_price
        self.to = to
        self.sender = 0xA11CE


def controller():
    return AdmissionController(registry=MetricsRegistry())


class TestAdmission:
    def test_orders_by_score_then_sequence(self):
        ctrl = controller()
        cheap, rich = FakeTx(gas_price=10**9), FakeTx(gas_price=10**12)
        admitted = ctrl.admit([(cheap, [1]), (rich, [2])], head=1)
        assert [r.tx for r in admitted] == [rich, cheap]

    def test_queue_capacity_defers_overflow(self, monkeypatch):
        monkeypatch.setattr(admission_module, "QUEUE_CAPACITY", 2)
        ctrl = controller()
        txs = [FakeTx() for _ in range(5)]
        admitted = ctrl.admit([(tx, [1]) for tx in txs], head=1)
        assert len(admitted) == 2
        assert ctrl.has_backlog()
        # The deferred requests come back on the next same-head cycle.
        readmitted = ctrl.admit([], head=1)
        assert len(readmitted) == 2

    def test_stale_head_deferrals_are_dropped(self, monkeypatch):
        monkeypatch.setattr(admission_module, "QUEUE_CAPACITY", 1)
        ctrl = controller()
        ctrl.admit([(FakeTx(), [1]), (FakeTx(), [1])], head=1)
        assert ctrl.has_backlog()
        ctrl.admit([], head=2)  # new chain head: stale work is dropped
        assert not ctrl.has_backlog()
        assert ctrl.c_dropped.value >= 1

    def test_per_tx_context_cap(self):
        ctrl = controller()
        tx = FakeTx()
        admitted = ctrl.admit([(tx, list(range(10)))], head=1)
        assert len(admitted) == ctrl.max_contexts_per_head
        for request in admitted:
            ctrl.note_dispatched(request)
        # The budget for this (tx, head) is now spent: further
        # requests are capped outright.
        assert ctrl.admit([(tx, [99])], head=1) == []
        assert ctrl.c_capped.value == 1

    def test_likelihood_prior_then_ewma(self):
        estimator = HitLikelihoodEstimator()
        assert estimator.likelihood(0xC0FFEE) == 1.0  # neutral prior
        estimator.observe(0xC0FFEE, False)
        low = estimator.likelihood(0xC0FFEE)
        assert low < 1.0
        estimator.observe(0xC0FFEE, True)
        assert estimator.likelihood(0xC0FFEE) > low

    def test_prefetch_queue_is_bounded(self, monkeypatch):
        monkeypatch.setattr(admission_module, "PREFETCH_QUEUE_CAPACITY", 2)
        ctrl = controller()
        ctrl.queue_prefetch([1], tx_sender=1, tx_to=0xA, score=5.0)
        ctrl.queue_prefetch([2], tx_sender=2, tx_to=0xB, score=1.0)
        ctrl.queue_prefetch([3], tx_sender=3, tx_to=0xC, score=3.0)
        drained = ctrl.drain_prefetches()
        # Lowest-score request dropped; FIFO order preserved.
        assert [r.score for r in drained] == [5.0, 3.0]
        assert ctrl.c_prefetch_dropped.value == 1


# ---------------------------------------------------------------------------
# executor.py — lane-count invariance over every workload kind

#: The record-free loop and the recording one.  Lanes no longer reach
#: execution — every count above 1 runs the identical pass and differs
#: only in :meth:`ParallelBlockExecutor.derive`'s arithmetic — so two
#: counts cover what {1, 2, 4, 8} used to.
LANE_COUNTS = (1, 4)

#: One traffic profile per workload module in ``repro.workloads``
#: (all other kinds muted), plus the full mixed profile.
_SILENT = dict(token_rate=0.0, dex_rate=0.0, auction_rate=0.0,
               registry_rate=0.0, lending_rate=0.0, compute_rate=0.0,
               deploy_rate=0.0, eth_transfer_rate=0.0,
               oracle_feeds=0, oracle_reporters=0)

WORKLOADS = {
    "oracle": dict(_SILENT, oracle_feeds=2, oracle_reporters=4),
    "tokens": dict(_SILENT, token_rate=2.0),
    "dex": dict(_SILENT, dex_rate=1.5),
    "auctions": dict(_SILENT, auction_rate=1.5),
    "names": dict(_SILENT, registry_rate=1.5),
    "lending": dict(_SILENT, lending_rate=1.5),
    "compute": dict(_SILENT, compute_rate=0.8),
    "deployments": dict(_SILENT, deploy_rate=0.8),
    "eth": dict(_SILENT, eth_transfer_rate=2.0),
    "mixed": {},
}

#: Oracle reporters submit inside a per-round window that mostly falls
#: beyond the first few seconds; everything else lands plenty of
#: transactions in a short period.
_DURATIONS = {"oracle": 45.0}


@pytest.fixture(scope="module")
def workload_datasets():
    datasets = {}
    for name, overrides in WORKLOADS.items():
        traffic = TrafficConfig(duration=_DURATIONS.get(name, 8.0),
                                seed=13, **overrides)
        datasets[name] = record_dataset(DatasetConfig(
            name=f"sched-{name}", traffic=traffic,
            observers={"live": LatencyModel()}, seed=13))
    return datasets


def test_every_workload_commits_transactions(workload_datasets):
    """Guards the matrix against vacuity: each profile must actually
    commit transactions for the invariance assertions to bite."""
    for name, dataset in workload_datasets.items():
        assert dataset.tx_count > 0, f"{name} produced no transactions"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lane_count_invariance_per_workload(name, workload_datasets):
    """Lanes ∈ {1, 4}: byte-identical roots, receipts, baseline
    columns and full ``TxRecord``s (cost, cpu/io units, outcome, tier)
    on each workload kind; one execution per transaction either way."""
    dataset = workload_datasets[name]
    digests, records = set(), []
    for lanes in LANE_COUNTS:
        run = replay(dataset, "live", lanes=lanes)
        assert run.roots_matched == run.blocks_executed
        digests.add(digest_bytes(run))
        records.append([(report.block_number, report.state_root,
                         report.records)
                        for report in run.forerunner_node.reports])
        executor = run.sched["executor"]
        assert executor["executions"] == executor["transactions"] \
            == dataset.tx_count
    assert len(digests) == 1, f"{name}: lane count changed commitments"
    assert records[0] == records[1], f"{name}: lane count changed records"


def test_parallel_blocks_actually_ran(workload_datasets):
    """The invariance above must not pass vacuously: the mixed
    workload's blocks all get a derived 4-lane schedule, some of
    whose transactions commit clean and some of which abort."""
    run = replay(workload_datasets["mixed"], "live", lanes=4)
    executor = run.sched["executor"]
    assert executor["blocks_parallel"] == executor["blocks"] > 0
    assert executor["clean_commits"] > 0
    assert executor["aborted"]["conflict"] > 0
    assert executor["critical_path_units"] < executor["serial_cost_units"]
    assert all(block["lanes"] == 4 for block in run.sched["blocks"])


def test_two_runs_same_seed_byte_identity(workload_datasets):
    """Scheduler determinism: two same-seed replays agree byte-for-byte
    on commitments *and* on the full scheduler report payload."""
    first = replay(workload_datasets["mixed"], "live", lanes=4)
    second = replay(workload_datasets["mixed"], "live", lanes=4)
    assert digest_bytes(first) == digest_bytes(second)
    assert canonical_json(first.sched) == canonical_json(second.sched)
