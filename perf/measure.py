"""One run of one workload: set up, time, check, and name the numbers.

``run()`` is what ``python3 -m perf --workload ...`` executes in its own
process: five timed set-ups (the median is ``setup_s``), the baseline
oracle, one untraced pass of the loop for every end-to-end number, the
correctness gate, and — with ``trace`` — a second, traced pass for the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.errors import SimulationError

from . import trace as tracing
from .loops import (COMMIT, REQUEST, SPECULATE, LoopResult,
                    baseline_commitments, commitments, run_loop)
from .metrics import GATED, TX_KINDS, per_layer_rows
from .workloads import OUT_DIR, Inputs, build, describe, remove_journals

SETUP_REPEATS = 5

#: Refusals the overload design allows: they are outcomes, not failures.
#: (``breaker_open`` follows deadline overruns under load: four in a
#: row on one method open its breaker.)
DESIGNED_REFUSALS = frozenset(
    {"backpressure", "rate_limited", "shed", "deadline_expired",
     "breaker_open"})

_METHOD_SHORT = {"eth_sendRawTransaction": "send",
                 "eth_getTransactionReceipt": "receipt",
                 "eth_call": "call",
                 "debug_traceTransaction": "trace"}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Summary:
    """What is read from a system once its pass is over.  The system
    itself is then dropped: a second system kept alive (the traced pass
    after the untraced one, or ``replay_unheard``'s dozens) makes every
    collection walk its heap too and slows the pass being timed."""

    #: obs counters, summed over the system's registries.
    counters: Counter
    #: ``EdgeServer.summary()`` counts, summed over its servers.
    edge: Counter
    #: Committed transactions by execution tier.
    tiers: Counter
    #: Σ hops and frames over every fleet dispatch.
    routes: Counter
    inflight_high_water: int

    @property
    def accepted(self) -> int:
        return self.edge["accepted_txs"]


@dataclass
class Pass:
    """One pass of the loop and what its system reported."""

    result: LoopResult
    summary: Summary


@dataclass
class RunReport:
    """Everything one run found; ``as_result()`` is the driver's line."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Deterministic counts: identical across repeats of one seed.
    counts: Dict[str, int] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    #: Untraced loop wall by call category, seconds (all passes).
    loop_s: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)
    missing_spans: List[str] = field(default_factory=list)
    stage_table: List[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations

    def as_result(self, units: Dict[str, str]) -> dict:
        values = self.per_layer if self.traced else \
            {name: self.end_to_end[name] for name in GATED}
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in values.items()}}


# -- set-up and passes ---------------------------------------------------


def _set_up(workload: str, seed: int, scale: float):
    """Build inputs and a system ``SETUP_REPEATS`` times; returns the
    last build, its system, and every set-up's wall."""
    walls, inputs, system = [], None, None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.close()
        start = perf_counter()
        inputs = build(workload, seed, scale)
        system = inputs.make_system()
        walls.append(perf_counter() - start)
    return inputs, system, walls


def _passes(report: RunReport, inputs: Inputs, oracle: list,
            first_system=None, tracer=None) -> List[Pass]:
    """Run every pass (a fresh system each) through the gate."""
    passes, system = [], first_system
    for index in range(inputs.passes):
        system = system or inputs.make_system()
        result = run_loop(system, inputs.dataset, inputs.scenario,
                          heard=inputs.heard, tracer=tracer)
        _gate(report, inputs, index, result, system, oracle)
        passes.append(Pass(result, _summarise(system)))
        system = None
    del report.violations[20:]  # one bad root fails every later block
    if report.violations:
        report.failed = report.attempted
    return passes


# -- the correctness gate -------------------------------------------------


def _gate(report: RunReport, inputs: Inputs, index: int,
          result: LoopResult, system, oracle: list) -> None:
    """Count one pass into ``attempted`` / ``failed`` / ``violations``."""
    ours = {entry["block"]: entry
            for entry in commitments(system.reports())}
    for entry in oracle:
        txs = len(entry["receipts"])
        report.attempted += txs
        if ours.get(entry["block"]) != entry:
            report.failed += txs
            report.violations.append(
                f"pass {index}: block {entry['block']} differs from "
                f"the baseline (root or receipts)")
    report.attempted += len(inputs.scenario)
    for request in inputs.scenario:
        status = result.final_status.get(
            (request.client_id, request.req_id))
        if status != "served" and status not in DESIGNED_REFUSALS:
            report.failed += 1
            report.violations.append(
                f"request {request.req_id} ended {status!r}")
    for server in system.servers():
        summary = server.summary()
        for name in ("internal_errors", "verify_mismatches"):
            if summary[name]:
                report.violations.append(f"{name} = {summary[name]}")
    if system.lease is not None:
        try:
            system.lease.assert_single_holder_per_term()
        except SimulationError as exc:
            report.violations.append(f"lease: {exc}")


# -- counters read from public summaries -----------------------------------


def _summarise(system) -> Summary:
    counters = Counter()
    for registry in system.registries():
        for name, instrument in registry.snapshot().items():
            if "value" in instrument:
                counters[name] += instrument["value"]
    edge = Counter()
    for server in system.servers():
        summary = server.summary()
        for name in ("requests", "served", "accepted_txs", "backpressure",
                     "rate_limited", "call_memo_hits", "call_ap_hits",
                     "call_plain"):
            edge[name] += summary[name]
        edge["shed"] += summary["brownout"]["shed"]
    return Summary(
        counters=counters, edge=edge,
        tiers=Counter(record.tier for block in system.reports()
                      for record in block.records),
        routes=system.routes,
        inflight_high_water=(
            system.wire.summary()["inflight_high_water"]
            if system.wire else 0))


def _counts(passes: List[Pass]) -> Dict[str, int]:
    result, counters = passes[0].result, passes[0].summary.counters
    return {
        "committed": sum(done.result.committed for done in passes),
        "blocks": sum(len(done.result.blocks) for done in passes),
        "heard": result.heard,
        "jobs": result.jobs,
        "frames": len(result.frames),
        "retries": result.retries,
        "accepted": passes[0].summary.accepted,
        "served": sum(1 for status in result.final_status.values()
                      if status == "served"),
        "refused": sum(1 for status in result.final_status.values()
                       if status in DESIGNED_REFUSALS),
        "speculations": counters["speculator.speculations"],
        "envelopes_sent": counters["net.sent"],
    }


# -- end-to-end metrics ----------------------------------------------------


def _end_to_end(report: RunReport, passes: List[Pass],
                setup_walls: List[float]) -> None:
    def per_pass(fn) -> float:
        return statistics.median(fn(done) for done in passes)

    blocks_ms = [wall / 1e6 for done in passes
                 for wall, _, _ in done.result.blocks]
    frames_us = [wall / 1e3 for done in passes
                 for wall, _, _ in done.result.frames]
    e2e = report.end_to_end
    e2e["setup_s"] = statistics.median(setup_walls)
    e2e["e2e_tx_per_s"] = per_pass(lambda done: ratio(
        done.result.committed + done.summary.accepted,
        done.result.loop_wall_ns / 1e9))
    e2e["crit_tx_per_s"] = per_pass(lambda done: ratio(
        done.result.committed, done.result.wall_ns[COMMIT] / 1e9))
    e2e["spec_tx_per_s"] = per_pass(lambda done: ratio(
        done.result.heard + done.summary.accepted,
        done.result.wall_ns[SPECULATE] / 1e9))
    e2e["block_commit_ms_p50"] = percentile(blocks_ms, 0.50)
    e2e["block_commit_ms_p75"] = percentile(blocks_ms, 0.75)
    e2e["req_per_s"] = per_pass(lambda done: ratio(
        len(done.result.frames), done.result.wall_ns[REQUEST] / 1e9))
    e2e["req_wall_us_p50"] = percentile(frames_us, 0.50)
    e2e["req_wall_us_p90"] = percentile(frames_us, 0.90)
    e2e["failed_share"] = ratio(report.failed, report.attempted)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    for done in passes:
        for category, wall in done.result.wall_ns.items():
            report.loop_s[category] = round(
                report.loop_s.get(category, 0.0) + wall / 1e9, 6)
    report.samples = {"setups": len(setup_walls), "passes": len(passes),
                      "blocks": len(blocks_ms),
                      "frames": len(frames_us)}


# -- per-layer metrics -----------------------------------------------------


def _per_layer(report: RunReport, inputs: Inputs, untraced: List[Pass],
               traced: List[Pass], tracer: tracing.Tracer,
               baseline_wall_ns: int) -> None:
    layer = report.per_layer
    result, summary = untraced[0].result, untraced[0].summary
    counter = summary.counters.__getitem__
    # The end-to-end rows the driver cannot gate, from the untraced pass.
    for name, value in report.end_to_end.items():
        if name not in GATED:
            layer[name] = value
    for name, seconds in inputs.generator_s.items():
        layer[name] = seconds
    # Self times and call counts, from the traced pass.
    for name in {target.name for target in tracing.TARGETS}:
        layer[name + "_s"] = tracer.self_ns[name] / 1e9
    layer["evm.interpreter.calls"] = tracer.calls["evm.interpreter.execute"]
    layer["recovery.journal.appends"] = \
        tracer.calls["recovery.journal.append"]
    layer["recovery.journal.syncs"] = \
        tracer.calls["recovery.journal.fsync"]
    layer["core.memoize.shortcut_inserts"] = \
        tracer.result_units["core.memoize.build_shortcuts"]
    kinds = inputs.dataset.kinds
    by_kind: Dict[str, List[float]] = {}
    for ident, duration in tracer.durations_ns(
            "core.speculator.speculate"):
        # Storm sends are plain value transfers outside the dataset.
        kind = kinds.get(int(ident[3:], 16), "eth")
        by_kind.setdefault(kind, []).append(duration / 1e6)
    for kind in TX_KINDS:
        layer[f"core.speculator.speculate_ms_p50.{kind}"] = \
            percentile(by_kind.get(kind, []), 0.50)
    # Counts and ratios, from the program's own summaries.
    layer["core.node.spec_cycles"] = counter("node.speculation_cycles")
    layer["core.predictor.contexts"] = counter("predictor.contexts")
    for name in ("admitted", "deferred", "dropped"):
        layer[f"sched.admission.{name}"] = counter(f"admission.{name}")
    speculations = counter("speculator.speculations")
    layer["core.speculator.jobs"] = speculations
    layer["core.speculator.merged_share"] = ratio(
        counter("speculator.merged"), speculations)
    layer["core.speculator.dedup_hit_share"] = ratio(
        counter("speculator.dedup_hits"),
        counter("speculator.dedup_hits")
        + counter("speculator.dedup_misses"))
    layer["core.prefix_cache.hit_share"] = ratio(
        counter("prefix_cache.hits"),
        counter("prefix_cache.hits") + counter("prefix_cache.misses"))
    layer["core.prefix_cache.pred_instructions"] = \
        counter("prefix_cache.pred_instructions")
    for name in ("compiles", "compiled_nodes", "guard_failures"):
        layer[f"evm.jit.{name}"] = counter(f"jit.{name}")
    layer["core.prefetcher.keys"] = counter("prefetcher.prefetched_keys")
    layer["sched.executor.conflict_abort_share"] = ratio(
        counter("sched.aborted.conflict"), counter("sched.transactions"))
    layer["core.accelerator.satisfied_share"] = ratio(
        counter("node.satisfied"), counter("node.transactions"))
    tiers = summary.tiers
    for tier in ("jit", "walk", "plain"):
        layer[f"core.accelerator.tier_share.{tier}"] = ratio(
            tiers[tier], sum(tiers.values()))
    commit_ns = sum(done.result.wall_ns[COMMIT] for done in untraced)
    layer["baseline.block_wall_s"] = baseline_wall_ns / 1e9
    layer["baseline.tx_per_s"] = ratio(result.committed,
                                       baseline_wall_ns / 1e9)
    layer["crit_speedup_wall"] = ratio(baseline_wall_ns * len(untraced),
                                       commit_ns)
    # Edge and fleet.
    frames = result.frames
    for method, short in _METHOD_SHORT.items():
        layer[f"edge.server.us_p50.{short}"] = percentile(
            [wall / 1e3 for wall, name, _ in frames if name == method],
            0.50)
    layer["edge.server.req_wall_us_p99"] = percentile(
        [wall / 1e3 for wall, _, _ in frames], 0.99)
    edge = summary.edge
    fast = edge["call_memo_hits"] + edge["call_ap_hits"]
    layer["edge.server.call_fastpath_share"] = ratio(
        fast, fast + edge["call_plain"])
    for name in ("served", "backpressure", "rate_limited", "shed"):
        layer[f"edge.server.{name}_share"] = ratio(edge[name],
                                                   edge["requests"])
    layer["fleet.router.us_p50.served"] = percentile(
        [wall / 1e3 for wall, _, status in frames
         if status == "served"], 0.50)
    layer["fleet.router.us_p50.rejected"] = percentile(
        [wall / 1e3 for wall, _, status in frames
         if status != "served"], 0.50)
    layer["fleet.router.hops_mean"] = ratio(summary.routes["hops"],
                                            summary.routes["frames"])
    accepted = summary.accepted
    layer["fleet.wire.msgs_per_accepted_tx"] = ratio(
        counter("net.sent"), accepted)
    layer["fleet.wire.bytes_per_accepted_tx"] = ratio(
        tracer.result_units["fleet.wire.encode"], accepted)
    layer["fleet.wire.acks"] = counter("net.acks")
    layer["fleet.wire.retries"] = counter("net.retries")
    layer["fleet.wire.inflight_high_water"] = \
        summary.inflight_high_water
    layer["fleet.lease.elections"] = counter("fleet.elections")
    # Cost-model fidelity: wall per deterministic cost unit.
    speculate_ns = sum(done.result.wall_ns[SPECULATE]
                       for done in untraced)
    layer["costmodel.spec_ns_per_unit"] = ratio(
        speculate_ns, counter("span.speculate.cost"))
    layer["costmodel.exec_ns_per_unit"] = ratio(
        commit_ns, counter("span.execute.cost") * len(untraced))
    # Tracing: overhead, and how much of the loop is named.
    untraced_ns = sum(done.result.loop_wall_ns for done in untraced)
    traced_ns = sum(done.result.loop_wall_ns for done in traced)
    layer["obs.tracing_overhead_share"] = ratio(
        traced_ns - untraced_ns, untraced_ns)
    layer["trace.accounted_share"] = ratio(
        sum(tracer.self_ns.values()), traced_ns)
    report.stage_table = _stage_table(counter, tracer)
    # Spans without a row of their own stay in the trace file only; a
    # row this workload has no source for (no scenario to build on the
    # replays) reads 0, as an idle layer's self time does: the driver
    # wants every row on every workload.
    known = {name for name, _, _ in per_layer_rows()}
    for name in set(layer) - known:
        del layer[name]
    for name in known - set(layer):
        layer[name] = 0.0


#: Speculation stage (``span.<stage>.cost``) of each direct child span
#: of ``Speculator.speculate``; the speculator's own self time (prefix
#: forks, fingerprinting, dedup, bookkeeping) is ``other``.
_STAGE_OF = {
    "evm.interpreter.execute": "materialize_prefix",
    "core.trace.trace_transaction": "pre_execute",
    "core.translate.translate": "synthesize",
    "core.optimize.optimize": "synthesize",
    "core.merge.merge": "merge",
    "core.memoize.build_shortcuts": "merge",
    "evm.jit.compile": "merge",
}
_STAGES = ("materialize_prefix", "pre_execute", "synthesize", "merge",
           "other")


def _stage_table(counter, tracer) -> List[dict]:
    """Per speculation stage: share of cost units vs share of wall
    (child spans' whole duration).  Where the two differ by more than
    2x, docs/COSTMODEL.md mis-weights the stage."""
    walls = dict.fromkeys(_STAGES, 0)
    for name, start, end, parent, _ in tracer.spans():
        if parent >= 0 and name in _STAGE_OF and \
                tracer.names[parent] == "core.speculator.speculate":
            walls[_STAGE_OF[name]] += end - start
    walls["other"] = tracer.self_ns["core.speculator.speculate"]
    costs = {stage: counter(f"span.{stage}.cost")
             for stage in _STAGES[:-1]}
    costs["other"] = max(0, counter("span.speculate.cost")
                         - sum(costs.values()))
    total_cost, total_wall = sum(costs.values()), sum(walls.values())
    return [{"stage": stage,
             "cost_share": round(ratio(costs[stage], total_cost), 4),
             "wall_share": round(ratio(walls[stage], total_wall), 4)}
            for stage in _STAGES]


# -- one run ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float,
        trace: bool = False) -> RunReport:
    report = RunReport(workload, seed, seconds, trace)
    try:
        inputs, system, setup_walls = _set_up(workload, seed,
                                              seconds / 10.0)
        report.facts = describe(inputs)
        oracle, baseline_wall_ns = baseline_commitments(inputs.dataset)
        untraced = _passes(report, inputs, oracle, system)
        del system
        _end_to_end(report, untraced, setup_walls)
        report.counts = _counts(untraced)
        if trace:
            gc.collect()
            tracer = tracing.Tracer()
            undo, report.missing_spans = tracing.install(tracer)
            try:
                traced = _passes(report, inputs, oracle, tracer=tracer)
            finally:
                tracing.uninstall(undo)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT_DIR / f"trace_{workload}.jsonl")
            traced_counts = _counts(traced)
            if traced_counts != report.counts:
                report.violations.append(
                    f"traced counts {traced_counts} != untraced "
                    f"{report.counts}")
                report.failed = report.attempted
            _per_layer(report, inputs, untraced, traced, tracer,
                       baseline_wall_ns)
    finally:
        remove_journals()
    return report
