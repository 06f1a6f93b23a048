"""Evaluation aggregations: every table and figure of paper §5.

All functions consume the per-transaction :class:`JoinedRecord` list an
emulator replay produces.  Aggregate speedups are time-weighted (total
baseline cost / total accelerated cost) — the quantity that determines
how many more transactions fit into an execution window, which is the
paper's motivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import costmodel
from repro.core.translate import SynthStats
from repro.state.diskio import WARM_COST


def aggregate_speedup(records: Sequence) -> float:
    """Total-baseline / total-accelerated over ``records``."""
    baseline = sum(r.baseline_cost for r in records)
    accelerated = sum(r.forerunner_cost for r in records)
    if accelerated <= 0:
        return 0.0
    return baseline / accelerated


def _speedup_ratio(baseline_total: float, accel_total: float) -> float:
    return baseline_total / accel_total if accel_total > 0 else 0.0


# ---------------------------------------------------------------------------
# Table 2: effective speedup + comparators
# ---------------------------------------------------------------------------

def _comparator_costs(record, hit: bool) -> int:
    """Cost of a traditional perfect-match executor on one heard tx.

    On a hit it commits pre-computed results (≈ the cost Forerunner
    pays when every shortcut hits — we reuse the measured AP cost).  On
    a miss it re-executes from scratch, but with the prefetcher having
    warmed the state (all reads warm).
    """
    if hit:
        return record.forerunner_cost
    warm_io = record.baseline_io_reads * WARM_COST
    return (costmodel.FALLBACK_FIXED + record.baseline_cpu + warm_io)


@dataclass
class Table2Row:
    name: str
    speedup: float
    satisfied_fraction: float
    satisfied_weighted: float


def table2(records: Sequence) -> List[Table2Row]:
    """Table 2: Forerunner vs perfect-matching comparators.

    Computed over heard transactions (the paper's effective speedup).
    """
    heard = [r for r in records if r.heard]
    if not heard:
        return []
    baseline_total = sum(r.baseline_cost for r in heard)

    rows = [Table2Row("Baseline", 1.0, 0.0, 0.0)]

    satisfied = [r for r in heard if r.outcome == "satisfied"]
    fore_total = sum(r.forerunner_cost for r in heard)
    rows.append(Table2Row(
        "Forerunner",
        _speedup_ratio(baseline_total, fore_total),
        len(satisfied) / len(heard),
        sum(r.baseline_cost for r in satisfied) / baseline_total,
    ))

    # Traditional speculative execution: single future, perfect match.
    single_hits = [r for r in heard if r.first_context_perfect]
    single_total = sum(
        _comparator_costs(r, r.first_context_perfect) for r in heard)
    rows.append(Table2Row(
        "Perfect matching",
        _speedup_ratio(baseline_total, single_total),
        len(single_hits) / len(heard),
        sum(r.baseline_cost for r in single_hits) / baseline_total,
    ))

    # Perfect matching over all speculated futures.
    multi_hits = [r for r in heard if r.perfect]
    multi_total = sum(_comparator_costs(r, r.perfect) for r in heard)
    rows.append(Table2Row(
        "Perfect matching + multi-future prediction",
        _speedup_ratio(baseline_total, multi_total),
        len(multi_hits) / len(heard),
        sum(r.baseline_cost for r in multi_hits) / baseline_total,
    ))
    return rows


# ---------------------------------------------------------------------------
# Table 3: breakdown by prediction outcome
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    name: str
    tx_fraction: float
    weighted_fraction: float
    speedup: float


def table3(records: Sequence) -> List[Table3Row]:
    """Table 3: perfect / imperfect / missed breakdown (heard txs)."""
    heard = [r for r in records if r.heard]
    if not heard:
        return []
    baseline_total = sum(r.baseline_cost for r in heard)
    perfect = [r for r in heard
               if r.outcome == "satisfied" and r.perfect]
    imperfect = [r for r in heard
                 if r.outcome == "satisfied" and not r.perfect]
    missed = [r for r in heard if r.outcome != "satisfied"]
    rows = []
    for name, subset in (("satisfied/perfect", perfect),
                         ("satisfied/imperfect", imperfect),
                         ("unsatisfied/missed", missed)):
        rows.append(Table3Row(
            name=name,
            tx_fraction=len(subset) / len(heard),
            weighted_fraction=(
                sum(r.baseline_cost for r in subset) / baseline_total),
            speedup=aggregate_speedup(subset) if subset else 0.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# End-to-end (Table 2 text + Figure 14)
# ---------------------------------------------------------------------------

@dataclass
class SpeedupSummary:
    effective_speedup: float
    end_to_end_speedup: float
    satisfied_fraction: float
    satisfied_weighted: float
    heard_fraction: float
    heard_weighted: float
    unheard_speedup: float


def summarize(records: Sequence) -> SpeedupSummary:
    heard = [r for r in records if r.heard]
    unheard = [r for r in records if not r.heard]
    satisfied = [r for r in heard if r.outcome == "satisfied"]
    baseline_heard = sum(r.baseline_cost for r in heard) or 1
    baseline_all = sum(r.baseline_cost for r in records) or 1
    return SpeedupSummary(
        effective_speedup=aggregate_speedup(heard),
        end_to_end_speedup=aggregate_speedup(records),
        satisfied_fraction=len(satisfied) / len(heard) if heard else 0.0,
        satisfied_weighted=(
            sum(r.baseline_cost for r in satisfied) / baseline_heard),
        heard_fraction=len(heard) / len(records) if records else 0.0,
        heard_weighted=(
            sum(r.baseline_cost for r in heard) / baseline_all),
        unheard_speedup=aggregate_speedup(unheard) if unheard else 0.0,
    )


# ---------------------------------------------------------------------------
# Figure 11: reverse CDF of heard delay
# ---------------------------------------------------------------------------

def heard_delay_reverse_cdf(records: Sequence,
                            thresholds: Iterable[float] = range(0, 49, 4)
                            ) -> List[Tuple[float, float]]:
    """(x seconds, fraction of heard txs with delay > x) pairs."""
    delays = [r.heard_delay for r in records if r.heard]
    if not delays:
        return [(float(x), 0.0) for x in thresholds]
    n = len(delays)
    return [
        (float(x), sum(1 for d in delays if d > x) / n)
        for x in thresholds
    ]


# ---------------------------------------------------------------------------
# Figure 12: speedup distribution
# ---------------------------------------------------------------------------

def speedup_histogram(records: Sequence,
                      bucket_width: float = 5.0,
                      max_bucket: float = 50.0
                      ) -> List[Tuple[str, float]]:
    """Histogram of per-transaction speedups across heard txs."""
    heard = [r for r in records if r.heard]
    if not heard:
        return []
    buckets: Dict[str, int] = {"<1x": 0}
    edges = []
    low = 1.0
    while low < max_bucket:
        high = low + bucket_width if low > 1.0 else bucket_width
        edges.append((low, high))
        low = high
    labels = [f"{int(lo)}-{int(hi)}x" for lo, hi in edges]
    for label in labels:
        buckets[label] = 0
    buckets[f">={int(max_bucket)}x"] = 0
    for record in heard:
        s = record.speedup
        if s < 1.0:
            buckets["<1x"] += 1
            continue
        if s >= max_bucket:
            buckets[f">={int(max_bucket)}x"] += 1
            continue
        for (lo, hi), label in zip(edges, labels):
            if lo <= s < hi:
                buckets[label] += 1
                break
    n = len(heard)
    return [(label, count / n) for label, count in buckets.items()]


# ---------------------------------------------------------------------------
# Figure 13: gas used vs average speedup
# ---------------------------------------------------------------------------

def gas_vs_speedup(records: Sequence, bucket_factor: float = 2.0
                   ) -> List[Tuple[float, float, int]]:
    """(mean gas, aggregate speedup, count) per log-scaled gas bucket,
    over effectively-predicted (satisfied) heard transactions."""
    chosen = [r for r in records if r.heard and r.outcome == "satisfied"]
    if not chosen:
        return []
    buckets: Dict[int, List] = {}
    for record in chosen:
        gas = max(record.gas_used, 1)
        bucket = int(math.log(gas, bucket_factor))
        buckets.setdefault(bucket, []).append(record)
    result = []
    for bucket in sorted(buckets):
        subset = buckets[bucket]
        mean_gas = sum(r.gas_used for r in subset) / len(subset)
        result.append((mean_gas, aggregate_speedup(subset), len(subset)))
    return result


# ---------------------------------------------------------------------------
# Figure 15 / §5.5: AP synthesis statistics
# ---------------------------------------------------------------------------

@dataclass
class SynthesisReport:
    """Averages over all synthesized AP paths (Figure 15, §5.5)."""

    paths: int = 0
    trace_len_avg: float = 0.0
    decomposed_pct: float = 0.0
    eliminated_stack_pct: float = 0.0
    eliminated_control_pct: float = 0.0
    eliminated_mem_pct: float = 0.0
    eliminated_state_pct: float = 0.0
    inserted_guards_pct: float = 0.0
    inserted_data_pct: float = 0.0
    eliminated_constant_pct: float = 0.0
    eliminated_duplicate_pct: float = 0.0
    eliminated_dead_pct: float = 0.0
    eliminated_promoted_pct: float = 0.0
    sevm_unoptimized_pct: float = 0.0
    final_pct: float = 0.0
    constraint_pct: float = 0.0
    fastpath_pct: float = 0.0
    ap_instrs_avg: float = 0.0
    shortcuts_avg: float = 0.0
    #: Histogram of paths-per-AP / contexts-per-AP (§5.5 text).
    paths_per_ap: Dict[int, int] = field(default_factory=dict)
    contexts_per_ap: Dict[int, int] = field(default_factory=dict)
    skip_rate: float = 0.0


@dataclass
class SynthesisTally:
    """Running §5.5 / Figure 15 totals over retired APs.

    The speculator adds each AP as it leaves the pipeline (executed, or
    evicted from the memo table) and keeps nothing else of it, so the
    tally stays the same size however long the node runs.
    """

    aps: int = 0
    paths: int = 0
    shortcuts: int = 0
    #: ``SynthStats.counts()`` summed over every retired path.
    totals: Tuple[int, ...] = field(
        default_factory=lambda: SynthStats().counts())
    #: Histogram of paths-per-AP / contexts-per-AP, in retirement order.
    paths_per_ap: Dict[int, int] = field(default_factory=dict)
    contexts_per_ap: Dict[int, int] = field(default_factory=dict)

    def add(self, ap) -> None:
        """Fold one retired AP in (an AP without paths counts nothing)."""
        if not ap.paths:
            return
        self.aps += 1
        self.paths_per_ap[ap.path_count] = \
            self.paths_per_ap.get(ap.path_count, 0) + 1
        contexts = len(ap.context_ids)
        self.contexts_per_ap[contexts] = \
            self.contexts_per_ap.get(contexts, 0) + 1
        self.shortcuts += ap.shortcut_count
        self.paths += len(ap.paths)
        self.totals = tuple(map(add, self.totals, ap.synth_totals))


def synthesis_report(tally: SynthesisTally, exec_records: Sequence = ()
                     ) -> SynthesisReport:
    """Figure-15 style statistics from the retired APs' tally."""
    report = SynthesisReport()
    totals = SynthStats(*tally.totals)
    if not tally.paths or not totals.trace_len:
        return report
    pct = 100.0 / totals.trace_len
    report.paths = tally.paths
    report.trace_len_avg = totals.trace_len / tally.paths
    report.decomposed_pct = totals.decomposed_added * pct
    report.eliminated_stack_pct = totals.eliminated_stack * pct
    report.eliminated_control_pct = totals.eliminated_control * pct
    report.eliminated_mem_pct = totals.eliminated_mem * pct
    report.eliminated_state_pct = totals.eliminated_state * pct
    report.inserted_guards_pct = totals.inserted_guards * pct
    report.inserted_data_pct = totals.inserted_data_constraints * pct
    report.eliminated_constant_pct = totals.eliminated_constant * pct
    report.eliminated_duplicate_pct = totals.eliminated_duplicate * pct
    report.eliminated_dead_pct = totals.eliminated_dead * pct
    report.eliminated_promoted_pct = \
        totals.eliminated_promoted_reads * pct
    report.sevm_unoptimized_pct = totals.sevm_unoptimized_len() * pct
    report.final_pct = totals.final_len * pct
    report.constraint_pct = totals.constraint_section_len * pct
    report.fastpath_pct = totals.fast_path_len * pct
    report.ap_instrs_avg = totals.final_len / tally.paths
    report.shortcuts_avg = tally.shortcuts / max(1, tally.aps)
    report.paths_per_ap = dict(tally.paths_per_ap)
    report.contexts_per_ap = dict(tally.contexts_per_ap)
    executed = sum(r.executed_nodes for r in exec_records)
    skipped = sum(r.skipped_nodes for r in exec_records)
    if executed + skipped:
        report.skip_rate = skipped / (executed + skipped)
    return report


# ---------------------------------------------------------------------------
# §5.6: off-critical-path overhead
# ---------------------------------------------------------------------------

@dataclass
class OverheadReport:
    """Speculation cost relative to plain execution (§5.6)."""

    speculation_cost: int
    prefetch_cost: int
    execution_cost_baseline: int
    ratio: float


def offpath_overhead(run) -> OverheadReport:
    """Off-path work vs the baseline's on-path execution work."""
    baseline_total = sum(r.baseline_cost for r in run.records) or 1
    total = run.total_speculation_cost + run.prefetch_offpath_cost
    return OverheadReport(
        speculation_cost=run.total_speculation_cost,
        prefetch_cost=run.prefetch_offpath_cost,
        execution_cost_baseline=baseline_total,
        ratio=total / baseline_total,
    )


# ---------------------------------------------------------------------------
# Speculation caching layers: prefix cache + synthesis dedup
# ---------------------------------------------------------------------------

@dataclass
class SpeculationCacheReport:
    """Work saved by the prefix cache and synthesis dedup."""

    # -- prefix cache --------------------------------------------------------
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_evictions: int = 0
    prefix_invalidations: int = 0
    pred_execs: int = 0
    pred_execs_avoided: int = 0
    pred_instructions: int = 0
    pred_instructions_avoided: int = 0
    #: Redundant (repeat) materializations actually performed — the
    #: seed re-executed every repeat demand; with the cache on only
    #: LRU evictions can force one.
    pred_execs_redundant: int = 0
    pred_instructions_redundant: int = 0
    # -- synthesis dedup -----------------------------------------------------
    dedup_hits: int = 0
    dedup_misses: int = 0
    dedup_cost_saved: int = 0
    # -- cost split ----------------------------------------------------------
    #: Off-path cost actually paid (net of both layers).
    actual_cost: int = 0
    #: What an uncached speculator would have paid (seed accounting).
    logical_cost: int = 0

    @property
    def prefix_hit_rate(self) -> float:
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def dedup_hit_rate(self) -> float:
        lookups = self.dedup_hits + self.dedup_misses
        return self.dedup_hits / lookups if lookups else 0.0

    @property
    def pred_reduction_factor(self) -> float:
        """Redundant-predecessor-work reduction, in instruction units:
        (demanded instructions) / (actually executed instructions)."""
        demanded = self.pred_instructions + self.pred_instructions_avoided
        if not self.pred_instructions:
            return float(demanded) if demanded else 1.0
        return demanded / self.pred_instructions

    @property
    def cost_saved(self) -> int:
        return max(0, self.logical_cost - self.actual_cost)


def speculation_cache_report(source) -> SpeculationCacheReport:
    """Aggregate cache/dedup counters from a Speculator, a
    ForerunnerNode, or an EvaluationRun."""
    speculator = source
    for attribute in ("forerunner_node", "speculator"):
        inner = getattr(speculator, attribute, None)
        if inner is not None:
            speculator = inner
    prefix = speculator.prefix_cache
    return SpeculationCacheReport(
        prefix_hits=prefix.c_hits.value,
        prefix_misses=prefix.c_misses.value,
        prefix_evictions=prefix.c_evictions.value,
        prefix_invalidations=prefix.c_invalidations.value,
        pred_execs=prefix.c_pred_execs.value,
        pred_execs_avoided=prefix.c_pred_execs_avoided.value,
        pred_instructions=prefix.c_pred_instructions.value,
        pred_instructions_avoided=prefix.c_pred_instructions_avoided.value,
        pred_execs_redundant=prefix.c_redundant_execs.value,
        pred_instructions_redundant=prefix.c_redundant_instructions.value,
        dedup_hits=speculator.c_dedup_hits.value,
        dedup_misses=speculator.c_dedup_misses.value,
        dedup_cost_saved=speculator.c_dedup_cost_saved.value,
        actual_cost=speculator.c_actual_cost.value,
        logical_cost=speculator.c_logical_cost.value,
    )


# ---------------------------------------------------------------------------
# Execution witnesses (repro.witness)
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    """Aggregate view of one run's witness stream."""

    witnesses: int = 0
    by_tier: Dict[str, int] = field(default_factory=dict)
    by_outcome: Dict[str, int] = field(default_factory=dict)
    constraints: int = 0
    delta_rows: int = 0
    created_accounts: int = 0
    guards_checked: int = 0
    #: Total cost units the witnessed executions charged.
    execution_cost_units: int = 0

    def as_dict(self) -> dict:
        return {
            "witnesses": self.witnesses,
            "by_tier": dict(sorted(self.by_tier.items())),
            "by_outcome": dict(sorted(self.by_outcome.items())),
            "constraints": self.constraints,
            "delta_rows": self.delta_rows,
            "created_accounts": self.created_accounts,
            "guards_checked": self.guards_checked,
            "execution_cost_units": self.execution_cost_units,
        }


def witness_report(witnesses: Sequence) -> WitnessReport:
    """Summarize a witness stream (a node's ``witnesses`` list)."""
    report = WitnessReport()
    for witness in witnesses:
        report.witnesses += 1
        report.by_tier[witness.tier] = \
            report.by_tier.get(witness.tier, 0) + 1
        report.by_outcome[witness.outcome] = \
            report.by_outcome.get(witness.outcome, 0) + 1
        report.constraints += len(witness.constraints)
        report.delta_rows += len(witness.delta)
        report.created_accounts += len(witness.created)
        report.guards_checked += witness.guards_checked
        report.execution_cost_units += witness.cost_units
    return report
