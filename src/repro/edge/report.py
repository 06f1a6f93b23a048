"""Canonical serving reports: goodput, latency percentiles, brownout
history — the deterministic summary of one serving run.

Percentiles use the nearest-rank method over the sorted latency list,
so the numbers are exact integers (cost units) with no interpolation —
a report is byte-stable across platforms.
"""

from __future__ import annotations

from typing import List, Optional

#: 3: one shape for node (was 1) and fleet (was 2) serving runs.
SCHEMA_VERSION = 3


def percentile(sorted_values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, int(round(fraction * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def build_report(result, meta: Optional[dict] = None) -> dict:
    """The canonical serving report for one
    :class:`~repro.edge.serve.ServingResult`: what every run has, then
    the one server's summary (``edge`` / ``sched``) for a node run or
    the fleet's (``router`` / ``lifecycle`` / ``links``)."""
    latencies = sorted(result.served_latencies)
    report = {
        "schema": SCHEMA_VERSION,
        "dataset": result.dataset_name,
        "shards": result.shards,
        "offered": result.offered,
        "good": result.good,
        "goodput": round(result.goodput, 6),
        "accepted_txs": result.accepted_txs,
        "latency_units": {
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0,
        },
        "retries": {
            "scheduled": result.retries_scheduled,
            "budget_spent": result.retry_budget.spent,
            "budget_denied": result.retry_budget.denied,
        },
        "storm_copies": result.storm_copies,
        "blocks": len(result.reports),
        "state_roots": [f"{block['root']:#x}"
                        for block in result.commitments()],
    }
    if result.supervisor is None:
        report["edge"] = result.server.summary()
        report["sched"] = {
            "expired": result.node.admission.c_expired.value,
            "dispatched": result.node.admission.c_dispatched.value,
        }
    else:
        report["router"] = result.router.summary()
        report["lifecycle"] = result.supervisor.lifecycle_report()
        report["links"] = result.supervisor.wire.link_report()
    if result.injector.enabled:
        report["faults"] = result.injector.fire_summary()
    if meta:
        report["meta"] = meta
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    lines = [
        f"serving report — dataset {report['dataset']}  "
        f"shards {report['shards']}",
        f"  offered {report['offered']}  good {report['good']}  "
        f"goodput {report['goodput']:.3f}  "
        f"accepted txs {report['accepted_txs']}",
        f"  latency (cost units)  p50 {report['latency_units']['p50']}"
        f"  p99 {report['latency_units']['p99']}"
        f"  max {report['latency_units']['max']}",
        f"  retries: scheduled {report['retries']['scheduled']}  "
        f"denied {report['retries']['budget_denied']}",
    ]
    if "edge" in report:
        edge = report["edge"]
        brownout = edge["brownout"]
        lines += [
            f"  backpressure {edge['backpressure']}  "
            f"rate-limited {edge['rate_limited']}  "
            f"shed {brownout['shed']}",
            f"  deadlines: cancelled {edge['deadline_cancelled']}  "
            f"overrun {edge['deadline_overrun']}  "
            f"sched-expired {report['sched']['expired']}",
            f"  eth_call paths: memo {edge['call_memo_hits']}  "
            f"ap {edge['call_ap_hits']}  plain {edge['call_plain']}  "
            f"stale {edge['stale_reads']}",
            "  per-method (requests/served/rejected):",
        ]
        for method, row in sorted(edge["per_method"].items()):
            lines.append(f"    {method:26s} {row['requests']:5d} "
                         f"{row['served']:5d} {row['rejected']:5d}")
        lines.append(f"  brownout level {brownout['level']}  "
                     f"transitions {len(brownout['transitions'])}")
        for transition in brownout["transitions"]:
            lines.append(f"    t={transition['at']:9.3f}  "
                         f"{transition['from']} -> {transition['to']}  "
                         f"({transition['reason']}, depth "
                         f"{transition['depth']}, ewma "
                         f"{transition['ewma_latency']})")
    else:
        router, lifecycle = report["router"], report["lifecycle"]
        wire = lifecycle["wire"]
        lines.append(f"  dispatched {router['dispatched']} "
                     f"(failovers {router['failovers']})")
        for replica_id, server in router["per_replica"].items():
            lines.append(f"  replica {replica_id}: accepted "
                         f"{server['accepted_txs']}, "
                         f"served {server['served']}")
        lines += [
            f"  shard sizes: {lifecycle['shard_sizes']} "
            f"(coordinator {lifecycle['coordinator']})",
            f"  wire: sent {wire['sent']}, delivered "
            f"{wire['delivered']}, retries {wire['retries']}, "
            f"dedup {wire['dedup_dropped']}, "
            f"partitions {wire['partitions']}",
        ]
    if "faults" in report:
        lines.append(f"  faults fired: {report['faults']}")
    return "\n".join(lines)
