"""Scheduler scaling benchmark: critical-path speedup vs lane count.

Replays two low-conflict traffic profiles (tokens-only and a mixed
profile with light hot-spot contention) once each, derives the lane
what-if of the committed blocks offline at 1/2/4/8 lanes
(:func:`repro.sched.whatif.derive_schedules`) and publishes the
critical-path cost-unit speedup as ``BENCH_sched.json``.  The lane
count never reaches the node, so every row shares one set of
commitments by construction; the 4-lane acceptance bar is a ≥ 2x
critical-path reduction on both profiles.

The profiles are deliberately low-conflict — many distinct senders and
token holders, light DEX/auction/lending traffic — because conflict
chains through hot contract state (AMM reserves, oracle feeds) are
inherently serial under read/write-set conflict detection; Saraph &
Herlihy make the same observation for historical Ethereum blocks.
"""

import json
import os

import pytest

from repro.bench import ascii_table, write_report
from repro.p2p.latency import LatencyModel
from repro.sched.whatif import derive_schedules
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LANE_COUNTS = (1, 2, 4, 8)
ACCEPTANCE_LANES = 4
ACCEPTANCE_SPEEDUP = 2.0

PROFILES = {
    "tokens": TrafficConfig(
        duration=60.0, seed=7, token_holders=2000, token_rate=2.5,
        dex_rate=0.0, auction_rate=0.0, registry_rate=0.0,
        lending_rate=0.0, compute_rate=0.0, deploy_rate=0.0,
        eth_transfer_rate=0.0, oracle_feeds=1, oracle_reporters=1),
    "mixed": TrafficConfig(
        duration=45.0, seed=11, token_holders=2500, token_rate=2.5,
        eth_senders=800, eth_transfer_rate=2.0, compute_rate=0.15,
        registry_rate=0.3, deploy_rate=0.05, dex_rate=0.05,
        auction_rate=0.05, lending_rate=0.05,
        oracle_feeds=1, oracle_reporters=2),
}


@pytest.fixture(scope="module")
def sched_datasets():
    return {
        name: record_dataset(DatasetConfig(
            name=f"sched-{name}", traffic=traffic,
            observers={"live": LatencyModel()}, seed=traffic.seed))
        for name, traffic in PROFILES.items()
    }


def test_sched_scaling(sched_datasets):
    rows = []
    payload_profiles = {}
    for name, dataset in sched_datasets.items():
        run = replay(dataset, "live")
        assert run.roots_matched == run.blocks_executed
        lanes_payload = {}
        for lanes in LANE_COUNTS:
            executor = derive_schedules(
                dataset, run.forerunner_node.reports, lanes)["executor"]
            lanes_payload[str(lanes)] = {
                "speedup": executor["speedup"],
                "critical_path_units": executor["critical_path_units"],
                "serial_cost_units": executor["serial_cost_units"],
                "commit_cost_units": executor["commit_cost_units"],
                "reexec_cost_units": executor["reexec_cost_units"],
                "conflict_rate": executor["conflict_rate"],
                "aborted": executor["aborted"],
            }
            rows.append([
                name, str(lanes),
                f"{executor['serial_cost_units']:,}",
                f"{executor['critical_path_units']:,}",
                f"{executor['speedup']:.2f}x",
                f"{executor['conflict_rate']:.2%}",
            ])
        at_bar = lanes_payload[str(ACCEPTANCE_LANES)]["speedup"]
        assert at_bar >= ACCEPTANCE_SPEEDUP, (
            f"{name}: {at_bar:.2f}x at {ACCEPTANCE_LANES} lanes "
            f"(need >= {ACCEPTANCE_SPEEDUP}x)")
        payload_profiles[name] = {
            "txs": dataset.tx_count,
            "blocks": len(dataset.blocks),
            "lanes": lanes_payload,
            "deterministic_across_lanes": True,
        }

    table = ascii_table(
        ["Profile", "Lanes", "Serial units", "Critical path",
         "Speedup", "Conflict rate"],
        rows,
        title="Parallel block execution: critical-path cost-unit "
              "speedup vs lane count")
    table += ("\n\nEvery row committed byte-identical state roots, "
              "receipts and Table 2/3 baseline columns; parallelism "
              "surfaces only in the scheduler's critical-path "
              "accounting.")
    write_report("sched_scaling", table)

    payload = {
        "lane_counts": list(LANE_COUNTS),
        "acceptance": {
            "lanes": ACCEPTANCE_LANES,
            "min_speedup": ACCEPTANCE_SPEEDUP,
        },
        "profiles": payload_profiles,
    }
    with open(os.path.join(REPO_ROOT, "BENCH_sched.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
