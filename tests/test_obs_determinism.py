"""Determinism harness: the observability layer is a pure function of
the workload.

Two replays of the same recorded dataset must produce byte-identical
JSONL traces and identical metrics snapshots; and switching the obs
layer off must not change a single pipeline output (Tables 2/3, Merkle
roots) — instrumentation observes, it never steers.
"""

import pytest

from repro.core.node import ForerunnerConfig
from repro.core.stats import table2, table3
from repro.obs.export import export_jsonl, trace_lines
from repro.obs.spans import NullTracer
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, TrafficConfig, record_dataset


@pytest.fixture(scope="module")
def dataset():
    return record_dataset(DatasetConfig(
        name="det", traffic=TrafficConfig(duration=40.0, seed=11),
        seed=13))


def _trace(run):
    return trace_lines(run.tracer, run.registry,
                       meta={"dataset": run.dataset_name,
                             "observer": run.observer})


class TestTwoRunDeterminism:
    def test_traces_byte_identical(self, dataset, tmp_path):
        first = replay(dataset)
        second = replay(dataset)
        assert _trace(first) == _trace(second)
        # And through the file writer too (the CI job diffs files).
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(str(path_a), first.tracer, first.registry)
        export_jsonl(str(path_b), second.tracer, second.registry)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_snapshots_and_roots_identical(self, dataset):
        first = replay(dataset)
        second = replay(dataset)
        assert first.metrics() == second.metrics()
        assert first.roots_matched == first.blocks_executed > 0
        roots_a = [r.state_root for r in first.forerunner_node.reports]
        roots_b = [r.state_root for r in second.forerunner_node.reports]
        assert roots_a == roots_b

    def test_wall_clock_never_in_deterministic_outputs(self, dataset):
        run = replay(dataset)
        assert run.wall_seconds_baseline > 0
        assert run.wall_seconds_forerunner > 0
        snap = run.metrics()
        assert not any(name.startswith("wall.") for name in snap)
        assert not any('"wall.' in line for line in _trace(run))
        full = run.metrics(include_nondeterministic=True)
        assert "wall.baseline_seconds" in full

    def test_instrument_names_stable(self, dataset):
        """Scope uniquification yields the same names each replay —
        including the per-predecessor EVM scopes."""
        first = replay(dataset)
        second = replay(dataset)
        assert first.registry.names() == second.registry.names()
        assert "speculator.speculations" in first.registry.names()


class TestObsNeutrality:
    def test_disabling_obs_changes_nothing(self, dataset):
        with_obs = replay(dataset, config=ForerunnerConfig())
        without = replay(dataset,
                         config=ForerunnerConfig(enable_obs=False))
        assert isinstance(without.tracer, NullTracer)
        assert without.tracer.events == []
        assert table2(with_obs.records) == table2(without.records)
        assert table3(with_obs.records) == table3(without.records)
        assert ([r.state_root for r in with_obs.forerunner_node.reports]
                == [r.state_root
                    for r in without.forerunner_node.reports])
        assert with_obs.total_speculation_cost == \
            without.total_speculation_cost
