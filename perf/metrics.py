"""Metric names: the tables every later performance PR is judged by.

``END_TO_END`` is what a user of the system sees; ``PER_LAYER`` is one
row per layer counter, with the end-to-end metric it should move.  The
driver's contract wants every gated metric on *every* workload and
never zero, so ``BENCHMARK.json`` lists under ``end_to_end`` only the
rows defined on all five workloads; the others (and ``failed_share``,
which is 0 on a healthy run and is carried by the result's
``failed``/``attempted`` counts) are listed under ``per_layer`` with
the same names.  ``perf/compare.py`` applies every row's own bound on
the workloads it is defined on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .workloads import WORKLOADS

ALL = tuple(WORKLOADS)
REPLAYS = ("replay_defi", "replay_compute", "replay_unheard")
SERVING = ("serve_mixed", "fleet_storm")
HEARD = ("replay_defi", "replay_compute", "serve_mixed", "fleet_storm")

#: Timed work per run the driver asks for (``BENCHMARK.json``); the
#: workload sizes in ``perf/workloads.py`` are calibrated against it.
RUN_SECONDS = 10

TX_KINDS = ("token", "eth", "dex", "lending", "registry", "auction",
            "oracle", "compute", "deploy")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse
    #: between two commits measured on the *same* seed (compare.py).
    bound: float
    workloads: Tuple[str, ...]
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) this layer metric should move, and where.
    moves: str
    on: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "dataset record + scenario build + node/fleet "
             "construction, median of 5 set-ups in the run"),
    EndToEnd("e2e_tx_per_s", "tx/s", "higher", 0.10, ALL,
             "(txs committed in blocks + txs accepted over RPC) / wall "
             "of every call into the system in the loop"),
    EndToEnd("crit_tx_per_s", "tx/s", "higher", 0.10, REPLAYS,
             "txs committed / wall of process_block (gc.collect() "
             "before each, as the emulator does)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, ALL,
             "ru_maxrss of the run's process"),
    EndToEnd("spec_tx_per_s", "tx/s", "higher", 0.10, HEARD,
             "txs heard (gossip + RPC-accepted) / wall of "
             "run_speculation"),
    EndToEnd("block_commit_ms_p50", "ms", "lower", 0.10, REPLAYS,
             "median per-block process_block wall"),
    EndToEnd("block_commit_ms_p75", "ms", "lower", 0.15,
             ("replay_defi", "replay_unheard"),
             "p75 of the same: the highest percentile with >=10 "
             "blocks beyond it at this size"),
    EndToEnd("req_per_s", "req/s", "higher", 0.10, SERVING,
             "frames handled (all attempts) / wall of handle_raw or "
             "dispatch + rpc.encode(response)"),
    EndToEnd("req_wall_us_p50", "us", "lower", 0.10, SERVING,
             "median per-frame wall, parse to encoded response"),
    EndToEnd("req_wall_us_p90", "us", "lower", 0.15, SERVING,
             "p90 of the same"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL,
             "failed / attempted: txs in a block whose root or "
             "receipts differ from the baseline's or left uncommitted, "
             "plus requests that end in an error the design does not "
             "allow"),
)

#: The rows the driver gates — defined on every workload, never zero —
#: with the bound ``BENCHMARK.json`` states for each.  The driver takes
#: its medians over ten *different* seeds, and has to see each metric's
#: spread across those seeds stay inside the bound, so these are wider
#: than the same-seed bounds above: between seeds, work per transaction
#: differs by 5-11% (IQR / median) on the speculation-bound workloads.
GATED: Dict[str, float] = {"setup_s": 0.25, "e2e_tx_per_s": 0.25,
                           "peak_rss_mb": 0.20}


def _self_time(name: str, moves: str, on: str) -> Layer:
    return Layer(name + "_s", "s", "lower", moves, on)


def _count(name: str, moves: str, on: str, unit: str = "count",
           better: str = "lower") -> Layer:
    return Layer(name, unit, better, moves, on)


def _share(name: str, moves: str, on: str,
           better: str = "higher") -> Layer:
    return Layer(name, "ratio", better, moves, on)


_SPEC = "spec_tx_per_s"
_CRIT = "crit_tx_per_s, block_commit_ms_*"
_REQ = "req_wall_us_*, req_per_s"

LAYERS: Tuple[Layer, ...] = (
    _self_time("sim.record_dataset", "setup_s", "all"),
    _self_time("edge.clients.build_scenario", "setup_s",
               "serve, fleet"),
    # -- off the critical path -------------------------------------------
    _self_time("core.node.on_transaction", _SPEC, "defi, serve"),
    _self_time("core.node.run_speculation", _SPEC, "defi, serve"),
    _count("core.node.spec_cycles", _SPEC, "defi, serve"),
    _self_time("core.predictor.predict", _SPEC, "serve, fleet"),
    _count("core.predictor.contexts", _SPEC, "serve, fleet"),
    _self_time("sched.admission.admit", _SPEC, "serve, fleet"),
    _count("sched.admission.admitted", _SPEC, "serve, fleet"),
    _count("sched.admission.deferred", _SPEC, "serve, fleet"),
    _count("sched.admission.dropped", _SPEC, "serve, fleet"),
    _self_time("core.speculator.speculate",
               _SPEC + ", e2e_tx_per_s", "defi"),
    _count("core.speculator.jobs", _SPEC + ", e2e_tx_per_s", "defi"),
    _share("core.speculator.merged_share", _SPEC, "defi"),
    _share("core.speculator.dedup_hit_share", _SPEC, "defi"),
    _share("core.prefix_cache.hit_share", _SPEC, "defi"),
    _count("core.prefix_cache.pred_instructions", _SPEC, "defi"),
    _self_time("core.trace.trace_transaction", _SPEC, "defi, compute"),
    _self_time("core.translate.translate", _SPEC, "defi, compute"),
    _self_time("core.optimize.optimize", _SPEC, "defi, compute"),
    _self_time("core.merge.merge", _SPEC, "defi, compute"),
    _self_time("evm.jit.compile", _SPEC, "defi, compute"),
    _count("evm.jit.compiles", _SPEC, "defi, compute"),
    _count("evm.jit.compiled_nodes", _SPEC, "defi, compute"),
    _self_time("core.memoize.build_shortcuts",
               _SPEC + ", e2e_tx_per_s", "compute"),
    _count("core.memoize.shortcut_inserts",
           _SPEC + ", e2e_tx_per_s", "compute"),
    *(Layer(f"core.speculator.speculate_ms_p50.{kind}", "ms", "lower",
            _SPEC + ", e2e_tx_per_s", "compute")
      for kind in TX_KINDS),
    _self_time("core.prefetcher.prefetch",
               _SPEC + "; crit_tx_per_s via warm reads", "defi"),
    _count("core.prefetcher.keys",
           _SPEC + "; crit_tx_per_s via warm reads", "defi"),
    # -- the critical path -----------------------------------------------
    _self_time("core.node.process_block", _CRIT, "unheard, defi"),
    _self_time("sched.executor.execute_block", _CRIT, "unheard, defi"),
    _share("sched.executor.conflict_abort_share", _CRIT,
           "unheard, defi", better="lower"),
    _self_time("core.accelerator.execute", "crit_tx_per_s",
               "defi, compute (no change on unheard)"),
    _share("core.accelerator.satisfied_share", "crit_tx_per_s",
           "defi, compute"),
    _share("core.accelerator.tier_share.jit", "crit_tx_per_s",
           "defi, compute"),
    _share("core.accelerator.tier_share.walk", "crit_tx_per_s",
           "defi, compute", better="lower"),
    _share("core.accelerator.tier_share.plain", "crit_tx_per_s",
           "defi, compute", better="lower"),
    _self_time("evm.jit.execute", "crit_tx_per_s", "defi, compute"),
    _count("evm.jit.guard_failures", "crit_tx_per_s", "defi, compute"),
    _self_time("evm.interpreter.execute",
               "crit_tx_per_s; spec_tx_per_s (pre-execution)",
               "unheard; defi"),
    _count("evm.interpreter.calls",
           "crit_tx_per_s; spec_tx_per_s (pre-execution)",
           "unheard; defi"),
    Layer("baseline.block_wall_s", "s", "lower", "crit_tx_per_s",
          "unheard"),
    Layer("baseline.tx_per_s", "tx/s", "higher", "crit_tx_per_s",
          "unheard"),
    Layer("crit_speedup_wall", "ratio", "higher",
          "none: baseline / Forerunner block wall, a diagnostic (as a "
          "gate it would reject a faster shared interpreter)", "defi"),
    _self_time("state.statedb.commit", "block_commit_ms_*",
               "unheard, defi"),
    _self_time("state.world.root", "block_commit_ms_*",
               "unheard, defi"),
    # -- edge ------------------------------------------------------------
    _self_time("edge.server.handle_raw", _REQ, "serve"),
    _self_time("edge.server.on_block", "e2e_tx_per_s", "serve"),
    _self_time("edge.rpc.parse", _REQ, "serve"),
    _self_time("edge.rpc.encode", _REQ, "serve, fleet"),
    *(Layer(f"edge.server.us_p50.{method}", "us", "lower", _REQ,
            "serve")
      for method in ("send", "receipt", "call", "trace")),
    Layer("edge.server.req_wall_us_p99", "us", "lower",
          "none: swings 30% run to run, so not a gate", "serve"),
    _share("edge.server.call_fastpath_share", _REQ, "serve"),
    _share("edge.server.served_share", _REQ, "serve"),
    _share("edge.server.backpressure_share", _REQ, "serve",
           better="lower"),
    _share("edge.server.rate_limited_share", _REQ, "serve",
           better="lower"),
    _share("edge.server.shed_share", _REQ, "serve", better="lower"),
    # -- fleet -----------------------------------------------------------
    _self_time("fleet.router.dispatch", _REQ + ", e2e_tx_per_s",
               "fleet (no change on serve)"),
    _self_time("fleet.router.on_block", "e2e_tx_per_s", "fleet"),
    Layer("fleet.router.us_p50.served", "us", "lower", _REQ, "fleet"),
    Layer("fleet.router.us_p50.rejected", "us", "lower", _REQ,
          "fleet"),
    _count("fleet.router.hops_mean", _REQ, "fleet", unit="hops"),
    _self_time("fleet.shardpool.add", _REQ + ", e2e_tx_per_s", "fleet"),
    _self_time("fleet.wire.send", "req_wall_us_p50, e2e_tx_per_s",
               "fleet"),
    _self_time("fleet.wire.flush", "req_wall_us_p50, e2e_tx_per_s",
               "fleet"),
    _self_time("fleet.wire.encode", "req_wall_us_p50, e2e_tx_per_s",
               "fleet"),
    _count("fleet.wire.msgs_per_accepted_tx",
           "req_wall_us_p50, e2e_tx_per_s", "fleet", unit="msgs/tx"),
    _count("fleet.wire.bytes_per_accepted_tx",
           "req_wall_us_p50, e2e_tx_per_s", "fleet", unit="bytes/tx"),
    _count("fleet.wire.acks", "req_wall_us_p50, e2e_tx_per_s", "fleet"),
    _count("fleet.wire.retries", "req_wall_us_p50, e2e_tx_per_s",
           "fleet"),
    _count("fleet.wire.inflight_high_water",
           "req_wall_us_p50, e2e_tx_per_s", "fleet"),
    _self_time("fleet.supervisor.on_transaction", "e2e_tx_per_s",
               "fleet"),
    _self_time("fleet.supervisor.tick", "e2e_tx_per_s", "fleet"),
    _self_time("fleet.supervisor.run_speculation", "e2e_tx_per_s",
               "fleet"),
    _self_time("fleet.supervisor.process_block", "e2e_tx_per_s",
               "fleet"),
    _count("fleet.lease.elections", "e2e_tx_per_s", "fleet"),
    _self_time("recovery.journal.append",
               "req_wall_us_p90, e2e_tx_per_s", "fleet"),
    _self_time("recovery.journal.fsync",
               "req_wall_us_p90, e2e_tx_per_s", "fleet"),
    _count("recovery.journal.appends", "req_wall_us_p90, e2e_tx_per_s",
           "fleet"),
    _count("recovery.journal.syncs", "req_wall_us_p90, e2e_tx_per_s",
           "fleet"),
    # -- cross-cutting ---------------------------------------------------
    Layer("costmodel.spec_ns_per_unit", "ns/unit", "lower",
          "none: flags where docs/COSTMODEL.md is mis-weighted",
          "defi, compute"),
    Layer("costmodel.exec_ns_per_unit", "ns/unit", "lower",
          "none: flags where docs/COSTMODEL.md is mis-weighted",
          "defi, compute"),
    _share("obs.tracing_overhead_share", "none; budget <= 0.15", "all",
           better="lower"),
    _share("trace.accounted_share",
           "none; >= 0.9 of the traced loop wall is named self time",
           "all"),
)


def per_layer_rows() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every row ``--trace 1`` reports: the
    end-to-end rows the driver cannot gate, then the layers."""
    rows = [(row.name, row.unit, row.better)
            for row in END_TO_END if row.name not in GATED]
    rows += [(row.name, row.unit, row.better) for row in LAYERS]
    return rows


def units() -> Dict[str, str]:
    """Unit of every metric a run can report."""
    named = {row.name: row.unit for row in END_TO_END}
    named.update((row.name, row.unit) for row in LAYERS)
    return named


def benchmark_json() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perf"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": row.name, "unit": row.unit,
                        "better": row.better, "bound": GATED[row.name]}
                       for row in END_TO_END if row.name in GATED],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_rows()],
    }
