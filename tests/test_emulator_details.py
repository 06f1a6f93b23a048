"""Emulator internals: event ordering, speculation ticks, wall timers,
kind propagation, and run-level accessors."""

import pytest

from repro.core import stats as S
from repro.core.node import ForerunnerNode
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import EvaluationRun, build_timeline, drive, replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig


@pytest.fixture(scope="module")
def dataset():
    config = DatasetConfig(
        name="EM", traffic=TrafficConfig(duration=60.0, seed=91),
        observers={"live": LatencyModel()}, seed=91)
    return record_dataset(config)


@pytest.fixture(scope="module")
def run(dataset):
    return replay(dataset, "live")


def test_every_block_tx_produces_a_record(dataset, run):
    expected = sum(len(b.transactions) for _, b in dataset.blocks)
    assert len(run.records) == expected


def test_kinds_propagated(dataset, run):
    kinds = {r.kind for r in run.records}
    assert "?" not in kinds
    assert kinds <= {"oracle", "token", "dex", "auction", "registry",
                     "lending", "compute", "deploy", "eth"}


def test_wall_timers_positive(run):
    assert run.wall_seconds_baseline > 0
    assert run.wall_seconds_forerunner > 0


def test_speculation_tick_density_matters(dataset):
    """The tick lives once, on the loop's timeline.  Driven through the
    seam directly — a bare node and the default commit step: sparser
    ticks leave fewer speculation cycles before the same blocks."""
    def cycles_and_jobs(tick):
        node = ForerunnerNode(dataset.genesis_world.copy(),
                              registry=MetricsRegistry())
        node.predictor.observe_block(dataset.genesis_block)
        run = EvaluationRun(dataset.name, "live", forerunner_node=node)
        drive(build_timeline(dataset, "live", tick=tick), node, run)
        assert len(run.reports) == len(dataset.blocks)
        return node.c_spec_cycles.value, run.speculation_jobs

    dense_cycles, dense_jobs = cycles_and_jobs(1.0)
    sparse_cycles, sparse_jobs = cycles_and_jobs(30.0)
    assert dense_cycles > sparse_cycles
    assert dense_jobs > 0 and sparse_jobs > 0


def test_heard_fraction_accessors(run):
    assert 0.0 < run.heard_fraction() <= 1.0


def test_speedup_property_on_records(run):
    for record in run.records[:20]:
        if record.forerunner_cost > 0:
            assert record.speedup == pytest.approx(
                record.baseline_cost / record.forerunner_cost)


def test_offpath_overhead_fields(run):
    overhead = S.offpath_overhead(run)
    assert overhead.speculation_cost > 0
    assert overhead.execution_cost_baseline > 0
    assert overhead.ratio > 0


def test_forerunner_node_exposed_for_inspection(run):
    node = run.forerunner_node
    assert node is not None
    assert node.speculator.tally.aps  # retired AP stats kept
    assert node.reports
