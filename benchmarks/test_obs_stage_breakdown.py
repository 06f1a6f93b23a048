"""Observability stage breakdown + determinism benchmark.

The obs layer turns the speculation pipeline's cost accounting into a
per-stage span tree: materialize_prefix / check / pre_execute /
synthesize / merge off the critical path, execute on it.  This
benchmark publishes the L1 stage breakdown as ``BENCH_obs.json`` and
asserts the two properties the layer promises:

* **determinism** — replaying the same period twice yields byte-
  identical canonical JSONL traces and identical metrics snapshots;
* **neutrality** — the instruments only observe: every speculator
  counter agrees with the pipeline's own accounting, and the stage
  costs add up to the speculator's total logical cost.
"""

import json
import os

from repro.bench import ascii_table, write_report
from repro.obs.export import trace_lines
from repro.sim.emulator import replay

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_obs_stage_breakdown(datasets, l1):
    totals = l1.tracer.stage_totals()
    for stage in ("speculate", "materialize_prefix", "check",
                  "pre_execute", "synthesize", "merge", "execute",
                  "block"):
        assert stage in totals, f"missing stage span: {stage}"

    # The root speculate spans carry the actual (cache-discounted)
    # off-path cost; neutrality means they agree exactly with the
    # speculator's own §5.6 accounting.
    spec = l1.forerunner_node.speculator
    assert totals["speculate"]["cost"] == spec.c_actual_cost.value
    offpath = ("materialize_prefix", "check", "pre_execute",
               "synthesize")
    stage_cost = sum(totals[name]["cost"] for name in offpath)
    # Sibling stage spans partition the same cost (envelope-failed
    # speculations charge only their prefix, so the partition is a
    # lower bound on the sibling sum, never above the total).
    assert stage_cost >= totals["speculate"]["cost"]
    assert stage_cost <= totals["speculate"]["cost"] \
        + totals["pre_execute"]["cost"]

    # Span counts agree with the pipeline's own accounting.
    assert totals["speculate"]["count"] == l1.speculation_jobs
    assert totals["speculate"]["count"] == \
        l1.registry.value("speculator.speculations")
    assert totals["block"]["count"] == l1.blocks_executed
    assert totals["execute"]["count"] == \
        l1.registry.value("node.transactions")

    # Determinism: a second replay of the same period produces byte-
    # identical trace lines and an identical snapshot.
    rerun = replay(datasets["L1"], "live")
    meta = {"dataset": "L1", "observer": "live"}
    lines = trace_lines(l1.tracer, l1.registry, meta=meta)
    rerun_lines = trace_lines(rerun.tracer, rerun.registry, meta=meta)
    assert lines == rerun_lines
    assert l1.metrics() == rerun.metrics()

    rows = [[name, f"{entry['count']:,}", f"{entry['cost']:,}"]
            for name, entry in totals.items()]
    report = ascii_table(
        ["Stage", "Spans", "Cost units"], rows,
        title="Pipeline stage breakdown (L1, logical cost units)")
    report += ("\n\n(two replays of the period produce byte-identical "
               f"{len(lines)}-line JSONL traces; wall clock lives only "
               "in nondeterministic gauges and never reaches them)")
    write_report("obs_stage_breakdown", report)

    payload = {
        "dataset": "L1",
        "stages": {name: {"count": entry["count"],
                          "cost": entry["cost"]}
                   for name, entry in totals.items()},
        "offpath_sibling_stage_cost": stage_cost,
        "logical_cost": spec.c_logical_cost.value,
        "actual_cost": spec.c_actual_cost.value,
        "trace_lines": len(lines),
        "trace_deterministic": lines == rerun_lines,
        "snapshot_deterministic": l1.metrics() == rerun.metrics(),
        "instruments": len(l1.registry.names()),
        "wall_seconds_forerunner": round(l1.wall_seconds_forerunner, 3),
    }
    with open(os.path.join(REPO_ROOT, "BENCH_obs.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
