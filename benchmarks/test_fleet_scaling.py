"""Fleet scaling benchmark: accepted-tx throughput across shard counts.

An open-loop storm of unique ``eth_sendRawTransaction`` frames (fresh
sender each, spread uniformly over the consistent-hash ring) is served
by fleets of 1 / 2 / 4 replicas.  Each replica fronts its own edge
server, so aggregate acceptance capacity scales with the replica
count while commitments stay byte-identical to the single node.

Emits ``BENCH_fleet.json`` with the gates:

* accepted-tx throughput at 4 shards >= 2.5x the 1-shard fleet;
* two-run byte-identity of the fleet serving trace at every shard
  count;
* a replica-crash chaos run whose restarts converge
  byte-for-byte with the fault-free commitments.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import ascii_table, write_report
from repro.faults.injector import FaultPlan
from repro.faults.sites import SITE_REPLICA_CRASH
from repro.fleet import (
    FleetConfig,
    fleet_replay,
    run_fleet_serving,
    send_storm_scenario,
)
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "150"))
#: Seconds of recorded traffic behind the serving run (kept modest:
#: every replica executes every block).
DURATION = max(12.0, SCALE * 0.08)
#: Simulated seconds of send storm, and its offered rate.
STORM_SECONDS = max(8.0, DURATION * 0.6)
STORM_RATE = 600.0
SHARD_COUNTS = (1, 2, 4)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fleet_scaling_throughput():
    dataset = record_dataset(DatasetConfig(
        name="fleet-bench",
        traffic=TrafficConfig(duration=DURATION, seed=2021),
        observers={"live": LatencyModel()},
        seed=2021))
    storm = send_storm_scenario(seed=7, rate_per_second=STORM_RATE,
                                duration=STORM_SECONDS)
    levels = []
    rows = []
    commitments = set()
    wall_started = time.perf_counter()
    for shards in SHARD_COUNTS:
        result = run_fleet_serving(
            dataset, storm, fleet_config=FleetConfig(shards=shards))
        rerun = run_fleet_serving(
            dataset, storm, fleet_config=FleetConfig(shards=shards))
        identical = result.trace_lines == rerun.trace_lines
        accepted = result.accepted_txs
        throughput = accepted / STORM_SECONDS
        commitments.add(json.dumps(result.commitments(), sort_keys=True))
        levels.append({
            "shards": shards,
            "offered": result.offered,
            "accepted_txs": accepted,
            "throughput_per_second": round(throughput, 3),
            "goodput": round(result.goodput, 6),
            "trace_identical": identical,
        })
        rows.append([
            shards, result.offered, accepted,
            f"{throughput:.0f}/s", f"{result.goodput:.1%}",
            "yes" if identical else "NO",
        ])
        assert identical, f"serving trace diverged at {shards} shards"
    wall = time.perf_counter() - wall_started

    # Sharding must not move the committed chain.
    assert len(commitments) == 1, "shard count changed commitments"

    by_shards = {level["shards"]: level for level in levels}
    scaling = (by_shards[4]["accepted_txs"]
               / max(1, by_shards[1]["accepted_txs"]))
    assert scaling >= 2.5, (
        f"4-shard fleet accepted only {scaling:.2f}x the single "
        f"shard ({by_shards[4]['accepted_txs']} vs "
        f"{by_shards[1]['accepted_txs']})")

    # Replica-crash chaos: restarted replicas converge.
    clean = fleet_replay(dataset, "live", FleetConfig(shards=4))
    plan = FaultPlan.uniform(0, 0.3, sites=(SITE_REPLICA_CRASH,))
    # restart_delay pinned at the 4 s the published crash/restart
    # counts were measured with (below the detector's suspect_after:
    # block-store replay, no ring change;
    # tests/test_fleet_chaos.py covers the detector-driven leave/rejoin).
    chaotic = fleet_replay(dataset, "live",
                           FleetConfig(shards=4, fault_plan=plan,
                                       restart_delay=4.0))
    crashes = chaotic.supervisor.c_crashes.value
    restarts = chaotic.supervisor.c_restarts.value
    converged = chaotic.commitments() == clean.commitments()
    assert crashes > 0, "crash chaos never fired"
    assert converged, "crash chaos changed fleet commitments"

    table = ascii_table(
        ["Shards", "Offered", "Accepted", "Throughput", "Goodput",
         "Trace=="],
        rows,
        title=f"Fleet accepted-tx scaling ({STORM_RATE:.0f}/s storm "
              f"for {STORM_SECONDS:.0f}s, {DURATION:.0f}s dataset)")
    table += (f"\n\ngates: >= 2.5x accepted throughput at 4 shards "
              f"(got {scaling:.2f}x); byte-identical serving trace "
              f"per shard count; crash chaos ({crashes} crashes, "
              f"{restarts} restarts) converged byte-for-byte"
              f"\nwall-clock {wall:.1f}s (trend only; gates use "
              f"deterministic quantities)")
    write_report("fleet_scaling", table)

    payload = {
        "duration": DURATION,
        "storm_rate": STORM_RATE,
        "storm_seconds": STORM_SECONDS,
        "levels": levels,
        "scaling_4_vs_1": round(scaling, 3),
        "crash_chaos": {
            "crashes": crashes,
            "restarts": restarts,
            "converged": converged,
        },
        "wall_seconds": round(wall, 3),
    }
    with open(os.path.join(REPO_ROOT, "BENCH_fleet.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
