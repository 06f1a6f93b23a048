"""Fleet equivalence: the subsystem's core contract.

A fleet of N replicas must commit **byte-identical** results to the
single-node serial run — Merkle roots, receipt cores, and every
Table 2/3 column of every joined record — at every shard count, on
every workload kind tested.  Sharding moves the speculation work and
the serving load; it never moves the answers (docs/FLEET.md has the
full determinism argument).

The wire plane is the fleet's only inter-replica path, so this is also
the clean-network matrix: framing, sequencing, acks and flush barriers
at shards 1/2/4/8 change nothing a single node would commit.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.node import BaselineNode
from repro.edge import ScenarioConfig, build_scenario, run_serving
from repro.fleet import FleetConfig, fleet_replay, run_fleet_serving
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import commitments, replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

SHARD_COUNTS = (1, 2, 4, 8)

_SILENT = dict(token_rate=0.0, dex_rate=0.0, auction_rate=0.0,
               registry_rate=0.0, lending_rate=0.0, compute_rate=0.0,
               deploy_rate=0.0, eth_transfer_rate=0.0,
               oracle_feeds=0, oracle_reporters=0)

#: Three workload kinds (the acceptance floor) spanning plain value
#: transfer, hot-contract traffic, and the full mixed profile.
WORKLOADS = {
    "eth": dict(_SILENT, eth_transfer_rate=2.0),
    "tokens": dict(_SILENT, token_rate=2.0),
    "mixed": {},
}


@pytest.fixture(scope="module")
def workload_datasets():
    datasets = {}
    for name, overrides in WORKLOADS.items():
        traffic = TrafficConfig(duration=8.0, seed=13, **overrides)
        datasets[name] = record_dataset(DatasetConfig(
            name=f"fleet-{name}", traffic=traffic,
            observers={"live": LatencyModel()}, seed=13))
    return datasets


def commitment_digest(reports, records) -> str:
    """SHA-256 over roots + receipts + every joined-record column."""
    payload = {
        "blocks": [
            {"number": report.block_number,
             "root": f"{report.state_root:#x}",
             "receipts": [(f"{r.tx_hash:#x}", r.gas_used, r.success)
                          for r in report.records]}
            for report in reports],
        "records": [dataclasses.asdict(record) for record in records],
    }
    return hashlib.sha256(
        canonical_json(payload).encode("ascii")).hexdigest()


def run_digest(run) -> str:
    """Node and fleet replays return the same ``EvaluationRun``."""
    return commitment_digest(run.reports, run.records)


def test_every_workload_commits_transactions(workload_datasets):
    """Guards the matrix against vacuity."""
    for name, dataset in workload_datasets.items():
        assert dataset.tx_count > 0, f"{name} produced no transactions"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shard_count_invariance_per_workload(name, workload_datasets):
    """Shards ∈ {1,2,4,8}: byte-identical roots, receipts, and
    Table 2/3 record columns to the single-node replay."""
    dataset = workload_datasets[name]
    reference = run_digest(replay(dataset, "live"))
    digests = {reference}
    for shards in SHARD_COUNTS:
        run = fleet_replay(dataset, "live",
                           FleetConfig(shards=shards))
        assert run.roots_matched == run.blocks_executed, \
            f"{name}@{shards}: replica root cross-check failed"
        digests.add(run_digest(run))
    assert len(digests) == 1, \
        f"{name}: shard count changed commitments"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_serving_commits_what_the_baseline_commits(name, workload_datasets):
    """The serving entry points run the same loop: a client schedule
    through one node's edge server, and through the fleet router at
    shards 1 and 4, commits exactly the plain node's roots and receipt
    cores."""
    dataset = workload_datasets[name]
    baseline = BaselineNode(dataset.genesis_world.copy(),
                            registry=MetricsRegistry())
    for _, block in dataset.blocks:
        baseline.process_block(block)
    expected = commitments(baseline.reports)
    assert expected, f"{name}: no block committed"
    scenario = build_scenario(dataset, ScenarioConfig(seed=3))
    assert run_serving(dataset, scenario).commitments() == expected
    for shards in (1, 4):
        served = run_fleet_serving(dataset, scenario,
                                   fleet_config=FleetConfig(shards=shards))
        assert served.offered == len(scenario) > 0
        assert served.commitments() == expected, f"{name}@{shards}"


def test_speculation_work_matches_single_node(workload_datasets):
    """The coordinator reproduces the single-node admission cycle:
    same job count, not just same commitments."""
    dataset = workload_datasets["mixed"]
    single = replay(dataset, "live")
    run = fleet_replay(dataset, "live", FleetConfig(shards=4))
    assert run.speculation_jobs == single.speculation_jobs


def test_two_fleet_runs_are_byte_identical(workload_datasets):
    """Fleet determinism: two same-seed fleet replays agree on the
    full commitment digest and the lifecycle report."""
    dataset = workload_datasets["tokens"]
    first = fleet_replay(dataset, "live", FleetConfig(shards=4))
    second = fleet_replay(dataset, "live", FleetConfig(shards=4))
    assert run_digest(first) == run_digest(second)
    assert canonical_json(first.supervisor.lifecycle_report()) == \
        canonical_json(second.supervisor.lifecycle_report())


def test_speculation_actually_accelerated_the_fleet(workload_datasets):
    """Anti-vacuity: fleet replicas actually ran APs (the equivalence
    above must not pass because speculation never happened)."""
    run = fleet_replay(workload_datasets["mixed"], "live",
                       FleetConfig(shards=4))
    assert run.speculation_jobs > 0
    assert any(record.ap_ready for record in run.records)
