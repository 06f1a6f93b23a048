"""Network-degradation benchmark: wire-fleet goodput vs. loss rate.

The same open-loop send storm is served by a 4-shard fleet over
progressively worse networks — clean, 1% and 5% loss
(drop + duplicate + reorder + delay at the same per-message rate) —
and a coordinator-partition profile.  At-least-once retries plus
receiver-side dedup must hold goodput up: retransmits cost simulated
time, never acceptance.

Emits ``BENCH_net.json`` with the gates:

* accepted-tx throughput at 1% loss >= 90% of the clean-network fleet;
* chain commitments byte-identical to the clean-network run at every
  loss rate (containment);
* two-run byte-identity of the serving trace at every loss rate;
* the lease oracle (single holder per term) passes on every run.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import ascii_table, write_report
from repro.faults.injector import FaultPlan
from repro.faults.sites import NET_LOSS_SITES
from repro.fleet import (
    FleetConfig,
    net_profile_config,
    run_fleet_serving,
    send_storm_scenario,
)
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "150"))
DURATION = max(12.0, SCALE * 0.08)
STORM_SECONDS = max(8.0, DURATION * 0.6)
STORM_RATE = 600.0
SHARDS = 4
#: (label, fault plan) — the ``repro serve --net-profile`` profiles,
#: plus the lossy one at five times its rate.
LEVELS = (
    ("clean", net_profile_config("clean").fault_plan),
    ("loss-1%", net_profile_config("lossy").fault_plan),
    ("loss-5%", FaultPlan.uniform(0, 0.05, sites=NET_LOSS_SITES)),
    ("partition", net_profile_config("partition").fault_plan),
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_net_degradation_goodput():
    dataset = record_dataset(DatasetConfig(
        name="net-bench",
        traffic=TrafficConfig(duration=DURATION, seed=2021),
        observers={"live": LatencyModel()},
        seed=2021))
    storm = send_storm_scenario(seed=7, rate_per_second=STORM_RATE,
                                duration=STORM_SECONDS)

    def serve(plan):
        return run_fleet_serving(
            dataset, storm,
            fleet_config=FleetConfig(shards=SHARDS, fault_plan=plan))

    levels = []
    rows = []
    clean_commitments = None
    clean_accepted = None
    wall_started = time.perf_counter()
    for label, plan in LEVELS:
        probability = plan.rules[0].probability if plan else 0.0
        result = serve(plan)
        rerun = serve(plan)
        identical = result.trace_lines == rerun.trace_lines
        result.supervisor.lease.assert_single_holder_per_term()
        rerun.supervisor.lease.assert_single_holder_per_term()
        commitments = result.commitments()
        if clean_commitments is None:
            clean_commitments = commitments
            clean_accepted = result.accepted_txs
        contained = commitments == clean_commitments
        wire = result.supervisor.wire.summary()
        throughput = result.accepted_txs / STORM_SECONDS
        levels.append({
            "level": label,
            "probability": probability,
            "accepted_txs": result.accepted_txs,
            "throughput_per_second": round(throughput, 3),
            "goodput": round(result.goodput, 6),
            "retries": wire["retries"],
            "dedup_dropped": wire["dedup_dropped"],
            "escalations": wire["escalations"],
            "contained": contained,
            "trace_identical": identical,
        })
        rows.append([
            label, result.accepted_txs, f"{throughput:.0f}/s",
            f"{result.goodput:.1%}", wire["retries"],
            wire["dedup_dropped"],
            "yes" if contained else "NO",
            "yes" if identical else "NO",
        ])
        assert identical, f"serving trace diverged at {label}"
        assert contained, f"{label} moved chain commitments"
    wall = time.perf_counter() - wall_started

    by_level = {level["level"]: level for level in levels}
    retention = (by_level["loss-1%"]["accepted_txs"]
                 / max(1, clean_accepted))
    assert retention >= 0.90, (
        f"1% loss kept only {retention:.1%} of clean wire throughput "
        f"({by_level['loss-1%']['accepted_txs']} vs {clean_accepted})")

    table = ascii_table(
        ["Network", "Accepted", "Throughput", "Goodput", "Retries",
         "Dedup", "Contained", "Trace=="],
        rows,
        title=f"Wire-fleet degradation vs loss rate "
              f"({STORM_RATE:.0f}/s storm for {STORM_SECONDS:.0f}s, "
              f"{SHARDS} shards)")
    table += (f"\n\ngates: >= 90% of clean accepted throughput at 1% "
              f"loss (got {retention:.1%}); chain commitments "
              f"byte-identical to clean at every loss rate; "
              f"byte-identical serving trace per level; lease oracle "
              f"per run\nwall-clock {wall:.1f}s (trend only; gates "
              f"use deterministic quantities)")
    write_report("net_degradation", table)

    payload = {
        "duration": DURATION,
        "storm_rate": STORM_RATE,
        "storm_seconds": STORM_SECONDS,
        "shards": SHARDS,
        "levels": levels,
        "retention_1pct_vs_clean": round(retention, 4),
        "wall_seconds": round(wall, 3),
    }
    with open(os.path.join(REPO_ROOT, "BENCH_net.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
