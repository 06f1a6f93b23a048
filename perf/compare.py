"""Compare two results files: ``python3 -m perf.compare A.json B.json``.

``A`` is the parent commit's ``perf/out/results.json``, ``B`` the
change's (same seed, same ``--seconds``, same benchmark code).  One row
per workload x end-to-end metric: both medians, the quartiles, and a
verdict from the metric's own regress bound and the parent's
run-to-run spread —

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  A's spread (IQR / median) is wider than the bound, so a
                regression of that size could hide in it — unless every
                B run reads better than every A run;
``improved``    B wins >= 9/10 of all (A run, B run) pairs and the
                medians differ by more than A's spread;
``unchanged``   none of the above.

Exit code 1 when any row regressed or a deterministic count changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Tuple

from .metrics import END_TO_END


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; both shares of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    scale = abs(base) or 1.0
    worse_by = sign * (statistics.median(change) - base) / scale
    low, high = _quartiles(parent)
    spread = (high - low) / scale
    pairs = [(a, b) for a in parent for b in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if worse_by > bound:
        return "regressed", worse_by, spread
    if spread > bound and wins < len(pairs):
        return "unresolved", worse_by, spread
    if wins >= 0.9 * len(pairs) and -worse_by > spread:
        return "improved", worse_by, spread
    return "unchanged", worse_by, spread


def compare(parent: dict, change: dict) -> Tuple[List[str], bool]:
    """The report lines and whether anything regressed."""
    lines, regressed = [], False
    for key in ("seed", "seconds", "schema"):
        if parent[key] != change[key]:
            lines.append(f"WARNING: {key} differs "
                         f"({parent[key]} vs {change[key]})")
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            lines.append(f"{workload}: missing from B")
            regressed = True
            continue
        if before["counts"] != after["counts"]:
            moved = {name: (count, after["counts"].get(name))
                     for name, count in before["counts"].items()
                     if after["counts"].get(name) != count}
            lines.append(f"{workload}: deterministic counts changed "
                         f"{moved}")
            regressed = True
        for row in END_TO_END:
            if row.name not in before["end_to_end"] \
                    or row.name not in after["end_to_end"]:
                continue
            a = before["end_to_end"][row.name]["values"]
            b = after["end_to_end"][row.name]["values"]
            label, worse_by, spread = verdict(a, b, row.better,
                                              row.bound)
            regressed |= label == "regressed"
            a_low, a_high = _quartiles(a)
            b_low, b_high = _quartiles(b)
            lines.append(
                f"{workload:15s} {row.name:20s} "
                f"A {statistics.median(a):12.4f} "
                f"[{a_low:.4f}, {a_high:.4f}]  "
                f"B {statistics.median(b):12.4f} "
                f"[{b_low:.4f}, {b_high:.4f}]  {row.unit:6s} "
                f"worse by {worse_by:+7.1%} (bound {row.bound:.0%}, "
                f"spread {spread:.1%}, n {len(a)}/{len(b)})  {label}")
    return lines, regressed


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path, encoding="ascii") as handle:
            loaded.append(json.load(handle))
    lines, regressed = compare(*loaded)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
