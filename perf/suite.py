"""The suite: every workload, repeated in fresh processes, in one table.

Each run is ``python3 -m perf --workload ...`` in its own process (one
at a time, single-threaded), so peak RSS and cold caches are per run.
Writes the results file ``perf/compare.py`` reads.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from . import ROOT
from .metrics import END_TO_END
from .workloads import OUT_DIR, WORKLOADS

SCHEMA = 1


def _child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh process; its ``report:`` line, parsed."""
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    reports = [line for line in lines if line.startswith("report: ")]
    if not reports:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload}: run printed no report "
                           f"(exit {done.returncode})")
    report = json.loads(reports[-1][len("report: "):])
    result = json.loads(lines[-1])
    report.update(correct=result["correct"],
                  attempted=result["attempted"], failed=result["failed"])
    return report


def _summary(values: List[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def _measure(workload: str, seed: int, seconds: float, repeats: int,
             trace: bool) -> dict:
    runs = [_child(workload, seed, seconds, False)
            for _ in range(repeats)]
    traced: Optional[dict] = \
        _child(workload, seed, seconds, True) if trace else None
    first = runs[0]
    every = runs + ([traced] if traced else [])
    violations = [violation for run in every
                  for violation in run["violations"]]
    for run in every[1:]:
        if run["counts"] != first["counts"]:
            violations.append(
                f"deterministic counts differ between runs: "
                f"{first['counts']} vs {run['counts']}")
    entry = {
        "correct": not violations,
        "violations": violations,
        "attempted": first["attempted"],
        "failed": first["attempted"] if violations else 0,
        "facts": first["facts"],
        "counts": first["counts"],
        "samples": first["samples"],
        "end_to_end": {
            row.name: dict(_summary([run["end_to_end"][row.name]
                                     for run in runs]), unit=row.unit)
            for row in END_TO_END if workload in row.workloads},
    }
    if violations:
        entry["end_to_end"]["failed_share"].update(
            median=1.0, min=1.0, max=1.0, values=[1.0] * len(runs))
    if traced:
        entry["per_layer"] = traced["per_layer"]
        entry["missing_spans"] = traced["missing_spans"]
        entry["stage_table"] = traced["stage_table"]
    return entry


def _print(workload: str, entry: dict) -> None:
    facts, samples = entry["facts"], entry["samples"]
    print(f"\n== {workload}: {facts['txs']} txs in {facts['blocks']} "
          f"blocks, {facts['requests']} requests, "
          f"{samples['passes']} pass(es); "
          f"{'correct' if entry['correct'] else 'INCORRECT'}, "
          f"failed {entry['failed']}/{entry['attempted']}")
    print(f"   txs_by_kind {json.dumps(facts['txs_by_kind'])}")
    print(f"   counts {json.dumps(entry['counts'])}")
    print(f"   percentile samples: {samples['blocks']} blocks, "
          f"{samples['frames']} frames, {samples['setups']} set-ups")
    print(f"   {'metric':24s} {'median':>14s} {'min':>14s} "
          f"{'max':>14s}  unit   (n)")
    for name, row in entry["end_to_end"].items():
        print(f"   {name:24s} {row['median']:14.4f} {row['min']:14.4f} "
              f"{row['max']:14.4f}  {row['unit']:6s} "
              f"({len(row['values'])})")
    for violation in entry["violations"]:
        print(f"   VIOLATION: {violation}")
    if "per_layer" in entry:
        print("   per-layer (one traced run; 0 = layer idle here):")
        for name, value in sorted(entry["per_layer"].items()):
            if value and name not in entry["end_to_end"]:
                print(f"     {name:44s} {value:16.6f}")
        print("   speculation stage: cost-unit share vs wall share")
        for row in entry["stage_table"]:
            print(f"     {row['stage']:20s} cost "
                  f"{row['cost_share']:.3f}  wall "
                  f"{row['wall_share']:.3f}")
        print(f"   missing_spans: {entry['missing_spans']}")


def run_suite(seed: int, seconds: float, repeats: int, trace: bool,
              out: Optional[str]) -> int:
    results: Dict[str, object] = {
        "schema": SCHEMA, "seed": seed, "seconds": seconds,
        "repeats": repeats, "nproc": os.cpu_count(),
        "python": platform.python_version(), "workloads": {}}
    print(f"perf: seed {seed}, {seconds:g} s per run, {repeats} "
          f"repeats, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}")
    for workload in WORKLOADS:
        entry = _measure(workload, seed, seconds, repeats, trace)
        results["workloads"][workload] = entry
        _print(workload, entry)
    path = out or OUT_DIR / "results.json"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    correct = all(entry["correct"]
                  for entry in results["workloads"].values())
    return 0 if correct else 1
