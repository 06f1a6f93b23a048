"""``python3 -m perf``: one run (``--workload``) or the whole suite.

One run — what the benchmark driver invokes::

    python3 -m perf --workload replay_defi --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the gated end-to-end
metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.

The suite — what a developer runs (``--quick`` for ~2 s workloads)::

    python3 -m perf [--seed 2021] [--repeats 3] [--trace] [--quick]

runs every workload ``--repeats`` times, each in a fresh process, plus
one traced run per workload with ``--trace``, prints medians with
min/max, checks that the deterministic counts repeat exactly, and writes
``perf/out/results.json`` (the input of ``perf/compare.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import metrics
from .measure import run
from .suite import run_suite
from .workloads import WORKLOADS

QUICK_SECONDS = 2.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perf",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=2021,
                        help="generator seed (default 2021)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="timed work per run; inputs scale with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add a traced pass for the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"--seconds {QUICK_SECONDS:g}")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--out", default=None,
                        help="suite: results file "
                             "(default perf/out/results.json)")
    return parser


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    report = run(workload, seed, seconds, trace)
    units = metrics.units()
    print(f"# {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"# inputs: {json.dumps(report.facts, sort_keys=True)}")
    print(f"# counts: {json.dumps(report.counts, sort_keys=True)}")
    print(f"# samples: {json.dumps(report.samples, sort_keys=True)}")
    print(f"# loop wall {sum(report.loop_s.values()):.3f} s: "
          f"{json.dumps(report.loop_s, sort_keys=True)}")
    if workload == "fleet_storm":
        print("# network: clean, zero injected delay — request latency "
              "is processor time only; journals fsync per record")
    for name, value in report.end_to_end.items():
        print(f"{name:44s} {value:16.6f} {units[name]}")
    for name, value in sorted(report.per_layer.items()):
        if name not in report.end_to_end:
            print(f"{name:44s} {value:16.6f} {units[name]}")
    if report.stage_table:
        print("# speculation stage: cost-unit share vs wall share")
        for row in report.stage_table:
            print(f"#   {row['stage']:20s} cost {row['cost_share']:.3f}"
                  f"  wall {row['wall_share']:.3f}")
    if trace:
        print(f"# missing_spans: {report.missing_spans}")
    for violation in report.violations:
        print(f"# VIOLATION: {violation}")
    print("report: " + json.dumps({
        "end_to_end": report.end_to_end, "per_layer": report.per_layer,
        "counts": report.counts, "samples": report.samples,
        "loop_s": report.loop_s, "facts": report.facts,
        "missing_spans": report.missing_spans,
        "stage_table": report.stage_table,
        "violations": report.violations}, sort_keys=True))
    print(json.dumps(report.as_result(units)))
    return 0 if report.correct else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if args.workload:
        return one_run(args.workload, args.seed, seconds,
                       bool(args.trace))
    return run_suite(args.seed, seconds, args.repeats, bool(args.trace),
                     args.out)


if __name__ == "__main__":
    sys.exit(main())
