"""The paper's safety property as an executable invariant.

Forerunner §2/§7: speculation only accelerates — it never changes what
is committed.  :func:`check_equivalence` replays the same recorded
workload twice, once fault-free and once under an arbitrary
:class:`~repro.faults.injector.FaultPlan`, and asserts the canonical
**equivalence digest** of both runs is byte-identical:

* per-block committed state roots,
* per-transaction receipts (hash, gas used, success),
* the baseline columns that anchor Tables 2/3 (per-tx baseline cost /
  CPU / IO units and the per-block baseline root).

Anything speed-related (forerunner costs, outcomes, heard flags) is
deliberately excluded — faults are *allowed* to slow us down; they are
never allowed to change what the chain commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.stats import aggregate_speedup
from repro.obs.export import canonical_json
from repro.faults.injector import FaultPlan

#: Effective speedup is computed over heard transactions only (the
#: paper's headline number); gossip faults can shrink the heard set to
#: nothing, in which case the retained speedup is defined as 1.0.


def _heard_speedup(run) -> float:
    heard = [r for r in run.records if r.heard]
    if not heard:
        return 1.0
    return aggregate_speedup(heard)


def block_digest(commitment: dict) -> dict:
    """One :func:`repro.sim.emulator.commitments` entry in the
    JSON-ready form the digest and the recovery journal's
    ``block_commit`` records share."""
    return {
        "number": commitment["block"],
        "state_root": f"{commitment['root']:#x}",
        "receipts": [
            {"tx": f"{tx_hash:#x}", "gas_used": gas_used,
             "success": success}
            for tx_hash, gas_used, success in commitment["receipts"]
        ],
    }


def run_digest(run) -> Dict[str, Any]:
    """The commitment-equivalence digest of one replay.

    Built from the run's commitments (the committed block reports) plus
    each record's baseline columns; canonical-JSON-stable by
    construction.
    """
    baseline_columns = [
        {"tx": f"{r.tx_hash:#x}", "baseline_cost": r.baseline_cost,
         "baseline_cpu": r.baseline_cpu,
         "baseline_io_units": r.baseline_io_units,
         "baseline_io_reads": r.baseline_io_reads}
        for r in sorted(run.records, key=lambda r: r.tx_hash)
    ]
    return {
        "dataset": run.dataset_name,
        "blocks": [block_digest(entry) for entry in run.commitments()],
        "blocks_executed": run.blocks_executed,
        "roots_matched": run.roots_matched,
        "baseline_columns": baseline_columns,
    }


def digest_bytes(run) -> bytes:
    return canonical_json(run_digest(run)).encode("ascii")


@dataclass
class EquivalenceReport:
    """Outcome of one fault-free vs faulted equivalence check."""

    dataset: str
    seed: int
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    #: Effective (heard-only) speedups, clean vs under faults.
    speedup_clean: float = 0.0
    speedup_faulted: float = 0.0
    faults_evaluated: int = 0
    faults_fired: int = 0
    fire_summary: Dict[str, Dict[str, int]] = field(default_factory=dict)
    guard: Dict[str, Any] = field(default_factory=dict)
    plan_lines: List[str] = field(default_factory=list)

    @property
    def speedup_retained(self) -> float:
        if self.speedup_clean <= 0:
            return 1.0
        return self.speedup_faulted / self.speedup_clean

    def as_dict(self) -> Dict[str, Any]:
        """Canonical-JSON-ready payload (deterministic for a seed)."""
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "ok": self.ok,
            "mismatches": list(self.mismatches),
            "speedup_clean": round(self.speedup_clean, 6),
            "speedup_faulted": round(self.speedup_faulted, 6),
            "speedup_retained": round(self.speedup_retained, 6),
            "faults_evaluated": self.faults_evaluated,
            "faults_fired": self.faults_fired,
            "fire_summary": self.fire_summary,
            "guard": self.guard,
            "plan": list(self.plan_lines),
        }


def compare_commitments(clean: list, other: list) -> List[str]:
    """Human-readable differences between two
    :func:`repro.sim.emulator.commitments` lists (empty == identical):
    which block's root or receipts moved."""
    mismatches: List[str] = []
    if len(clean) != len(other):
        mismatches.append(
            f"blocks executed: {len(clean)} != {len(other)}")
    for cb, ob in zip(clean, other):
        if cb["root"] != ob["root"]:
            mismatches.append(
                f"state root of block {cb['block']}: "
                f"{cb['root']:#x} != {ob['root']:#x}")
        if cb["receipts"] != ob["receipts"]:
            mismatches.append(f"receipts of block {cb['block']} differ")
    return mismatches


def check_equivalence(dataset, plan: FaultPlan,
                      observer: str = "live",
                      config=None,
                      clean_run=None) -> EquivalenceReport:
    """Replay ``dataset`` under ``plan`` and check commitment equivalence.

    ``clean_run`` (an existing fault-free :class:`EvaluationRun` of the
    same dataset/observer/config) may be supplied to avoid re-running
    the baseline when sweeping many plans.
    """
    from repro.sim.emulator import replay  # local: avoid import cycle

    if clean_run is None:
        clean_run = replay(dataset, observer, config=config)
    faulted_run = replay(dataset, observer, config=config,
                         fault_plan=plan)

    clean = run_digest(clean_run)
    faulted = run_digest(faulted_run)
    mismatches: List[str] = []
    if canonical_json(clean) != canonical_json(faulted):
        mismatches = compare_commitments(clean_run.commitments(),
                                         faulted_run.commitments())
        if clean["baseline_columns"] != faulted["baseline_columns"]:
            mismatches.append("Table 2/3 baseline columns differ")
        if not mismatches:
            mismatches.append("digests differ (structural)")

    injector = faulted_run.fault_injector
    guard = faulted_run.forerunner_node.guard
    report = EquivalenceReport(
        dataset=dataset.name,
        seed=plan.seed,
        ok=not mismatches,
        mismatches=mismatches,
        speedup_clean=_heard_speedup(clean_run),
        speedup_faulted=_heard_speedup(faulted_run),
        faults_evaluated=injector.c_evaluated.value if injector else 0,
        faults_fired=injector.total_fired() if injector else 0,
        fire_summary=injector.fire_summary() if injector else {},
        guard=guard.summary() if guard else {},
        plan_lines=plan.describe(),
    )
    return report


def format_report(report: EquivalenceReport) -> str:
    """Render a degradation report for the ``repro chaos`` CLI."""
    lines = [
        f"chaos: dataset={report.dataset} seed={report.seed}",
        "",
        "fault plan:",
    ]
    lines += [f"  {line}" for line in report.plan_lines] or ["  (empty)"]
    lines += [
        "",
        f"faults evaluated : {report.faults_evaluated}",
        f"faults fired     : {report.faults_fired}",
    ]
    for site, entry in sorted(report.fire_summary.items()):
        lines.append(f"  {site}: {entry['fired']}/{entry['evaluated']}")
    guard = report.guard or {}
    breaker = guard.get("breaker", {})
    lines += [
        "",
        f"contained        : {guard.get('contained', 0)} "
        f"(injected={guard.get('contained_injected', 0)}, "
        f"unexpected={guard.get('contained_unexpected', 0)})",
        f"fallbacks taken  : {guard.get('fallbacks', 0)}",
        f"storage retries  : {guard.get('storage_retries', 0)} "
        f"(exhausted={guard.get('storage_retries_exhausted', 0)})",
        f"breaker          : opened={breaker.get('opened', 0)} "
        f"closed={breaker.get('closed', 0)} "
        f"half-open probes={breaker.get('half_open_probes', 0)} "
        f"skipped={breaker.get('skipped_speculations', 0)}",
    ]
    for transition in breaker.get("transitions", []):
        lines.append(
            f"  {transition['contract']}: {transition['from']} -> "
            f"{transition['to']} @ {transition['at_cost']} cost units")
    lines += [
        "",
        f"effective speedup: clean {report.speedup_clean:.3f}x -> "
        f"faulted {report.speedup_faulted:.3f}x "
        f"({report.speedup_retained:.1%} retained)",
        "",
        ("equivalence      : OK — committed roots, receipts and "
         "baseline columns byte-identical to the fault-free run")
        if report.ok else
        "equivalence      : VIOLATED",
    ]
    if not report.ok:
        lines += [f"  {m}" for m in report.mismatches]
    return "\n".join(lines)
