"""Smoke test of the benchmark itself: ``pytest perf/`` (not tier-1).

Checks the names and schema every later PR is judged by, that a
tampered root trips the correctness gate, that a vanished wrap target
is reported instead of raising, and that perf's own event loops commit
what the program's loops commit.
"""

import json
import re
import subprocess
import sys

import pytest

from perf import ROOT, compare, loops, measure, metrics, trace, workloads
from perf.__main__ import one_run

from repro.edge.clients import ScenarioConfig, build_scenario
from repro.edge.serve import run_serving
from repro.fleet.serve import run_fleet_serving, send_storm_scenario
from repro.fleet.supervisor import FleetConfig
from repro.fleet.wire import WireConfig
from repro.sim.emulator import replay

WORKLOADS = ("replay_defi", "replay_compute", "replay_unheard",
             "serve_mixed", "fleet_storm")
END_TO_END = ("setup_s", "e2e_tx_per_s", "spec_tx_per_s", "crit_tx_per_s",
              "block_commit_ms_p50", "block_commit_ms_p75", "req_per_s",
              "req_wall_us_p50", "req_wall_us_p90", "failed_share",
              "peak_rss_mb")
LAYERS = """
sim.record_dataset_s edge.clients.build_scenario_s
core.node.on_transaction_s core.node.run_speculation_s
core.node.spec_cycles core.predictor.predict_s core.predictor.contexts
sched.admission.admit_s sched.admission.admitted
sched.admission.deferred sched.admission.dropped
core.speculator.speculate_s core.speculator.jobs
core.speculator.merged_share core.speculator.dedup_hit_share
core.prefix_cache.hit_share core.prefix_cache.pred_instructions
core.trace.trace_transaction_s core.translate.translate_s
core.optimize.optimize_s core.merge.merge_s evm.jit.compile_s
evm.jit.compiles evm.jit.compiled_nodes core.memoize.build_shortcuts_s
core.memoize.shortcut_inserts core.speculator.speculate_ms_p50.token
core.speculator.speculate_ms_p50.eth core.speculator.speculate_ms_p50.dex
core.speculator.speculate_ms_p50.lending
core.speculator.speculate_ms_p50.registry
core.speculator.speculate_ms_p50.auction
core.speculator.speculate_ms_p50.oracle
core.speculator.speculate_ms_p50.compute
core.speculator.speculate_ms_p50.deploy core.prefetcher.prefetch_s
core.prefetcher.keys core.node.process_block_s
sched.executor.execute_block_s sched.executor.conflict_abort_share
core.accelerator.execute_s core.accelerator.satisfied_share
core.accelerator.tier_share.jit core.accelerator.tier_share.walk
core.accelerator.tier_share.plain evm.jit.execute_s
evm.jit.guard_failures evm.interpreter.execute_s evm.interpreter.calls
baseline.block_wall_s baseline.tx_per_s crit_speedup_wall
state.statedb.commit_s state.world.root_s edge.rpc.parse_s
edge.server.us_p50.send edge.server.us_p50.receipt
edge.server.us_p50.call edge.server.us_p50.trace
edge.server.req_wall_us_p99 edge.server.call_fastpath_share
edge.server.served_share edge.server.backpressure_share
edge.server.rate_limited_share edge.server.shed_share
fleet.router.dispatch_s fleet.router.us_p50.served
fleet.router.us_p50.rejected fleet.router.hops_mean
fleet.shardpool.add_s fleet.wire.send_s fleet.wire.flush_s
fleet.wire.encode_s fleet.wire.msgs_per_accepted_tx
fleet.wire.bytes_per_accepted_tx fleet.wire.acks fleet.wire.retries
fleet.wire.inflight_high_water fleet.supervisor.on_transaction_s
fleet.supervisor.tick_s fleet.supervisor.run_speculation_s
fleet.supervisor.process_block_s fleet.lease.elections
recovery.journal.append_s recovery.journal.appends
recovery.journal.syncs costmodel.spec_ns_per_unit
costmodel.exec_ns_per_unit obs.tracing_overhead_share
""".split()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- names and schema ------------------------------------------------------


def test_names_are_the_fixed_ones():
    assert tuple(workloads.WORKLOADS) == WORKLOADS
    assert {row.name for row in metrics.END_TO_END} == set(END_TO_END)
    layer_names = {row.name for row in metrics.LAYERS}
    assert set(LAYERS) <= layer_names
    reported = [name for name, _, _ in metrics.per_layer_rows()]
    assert len(reported) == len(set(reported)) <= 128
    assert not set(reported) & set(metrics.GATED)
    assert set(reported) | set(metrics.GATED) == \
        set(END_TO_END) | layer_names
    # Every traced self time has a row, so it counts as "named".
    assert {target.name + "_s" for target in trace.TARGETS} <= layer_names


def test_benchmark_json_is_the_tables_and_meets_the_contract():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        spec = json.load(handle)
    assert spec == metrics.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert any(row == {"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": row["bound"]}
               for row in spec["end_to_end"])
    for row in spec["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(row["name"]) and UNIT.match(row["unit"])
        assert row["better"] in ("higher", "lower")
    names = [row["name"] for row in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_run_prints_the_contract_line(workload, traced):
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = metrics.benchmark_json()
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    assert set(result["metrics"]) == {row["name"] for row in rows}
    for row in rows:
        reading = result["metrics"][row["name"]]
        assert set(reading) == {"value", "unit"}
        assert reading["unit"] == row["unit"]
        assert isinstance(reading["value"], (int, float))
        if not traced:
            assert reading["value"] > 0
    if traced:
        assert "# missing_spans: []" in done.stdout
        assert result["metrics"]["trace.accounted_share"]["value"] >= 0.9
        assert (ROOT / "perf" / "out" / f"trace_{workload}.jsonl").exists()


# -- the correctness gate ----------------------------------------------------


def test_tampered_root_trips_the_gate(monkeypatch, capsys):
    honest = loops.baseline_commitments

    def tampered(dataset):
        oracle, wall = honest(dataset)
        oracle[-1]["root"] ^= 1
        return oracle, wall

    monkeypatch.setattr(measure, "baseline_commitments", tampered)
    report = measure.run("replay_defi", seed=5, seconds=1.0)
    assert not report.correct
    assert report.failed == report.attempted > 0
    assert report.end_to_end["failed_share"] == 1.0
    assert one_run("replay_defi", 5, 1.0, trace=False) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_honest_run_passes_the_gate():
    report = measure.run("replay_unheard", seed=5, seconds=1.0)
    assert report.correct and report.failed == 0
    assert report.end_to_end["failed_share"] == 0.0
    assert report.samples["passes"] >= 2


# -- tracing -------------------------------------------------------------------


def test_vanished_target_is_reported_not_raised():
    tracer = trace.Tracer()
    gone = (trace.Target("gone.module", "repro.no_such_module", "f"),
            trace.Target("gone.attribute", "repro.edge.rpc", "no_such"),
            trace.Target("edge.rpc.encode", "repro.edge.rpc", "encode"))
    undo, missing = trace.install(tracer, gone)
    try:
        from repro.edge import rpc
        rpc.encode({"id": 1})
    finally:
        trace.uninstall(undo)
    assert missing == ["repro.no_such_module:f",
                       "repro.edge.rpc:no_such"]
    assert tracer.calls["edge.rpc.encode"] == 1
    assert tracer.self_ns["gone.module"] == 0
    assert not hasattr(rpc.encode, "__wrapped__")


def test_self_time_excludes_children():
    tracer = trace.Tracer()
    inner = tracer.wrap(trace.Target("inner", "", ""), lambda: sum(
        range(20_000)))
    outer = tracer.wrap(trace.Target("outer", "", ""), inner)
    tracer.ident = "block:7"
    outer()
    (outer_span, inner_span) = tracer.spans()
    assert inner_span[3] == 0 and outer_span[3] == -1
    assert inner_span[4] == outer_span[4] == "block:7"
    total = outer_span[2] - outer_span[1]
    assert tracer.self_ns["outer"] + tracer.self_ns["inner"] == total
    assert tracer.self_ns["inner"] == inner_span[2] - inner_span[1]


# -- perf's loops must not drift from the program's -----------------------------


@pytest.fixture(scope="module")
def small_dataset():
    return workloads.build("replay_defi", seed=11, scale=0.2).dataset


def test_replay_loop_matches_emulator(small_dataset):
    theirs = replay(small_dataset)
    system = loops.NodeSystem(small_dataset)
    ours = loops.run_loop(system, small_dataset)
    assert loops.commitments(system.reports()) == \
        loops.commitments(theirs.forerunner_node.reports)
    assert ours.jobs == theirs.speculation_jobs
    assert ours.committed == len(theirs.records)


def test_serving_loop_matches_run_serving(small_dataset):
    scenario = build_scenario(
        small_dataset, ScenarioConfig(seed=3, load=1.0, clients=48))
    theirs = run_serving(small_dataset, scenario)
    system = loops.NodeSystem(small_dataset, edge=True)
    ours = loops.run_loop(system, small_dataset, scenario)
    assert ours.final_status == theirs.final_status
    assert len(ours.frames) == len(theirs.trace_lines)
    assert ours.retries == theirs.retries_scheduled
    assert loops.commitments(system.reports()) == theirs.commitments()


def test_fleet_loop_matches_run_fleet_serving(small_dataset, tmp_path):
    storm = send_storm_scenario(seed=3, rate_per_second=600, duration=3)

    def config(name):
        (tmp_path / name).mkdir()
        return FleetConfig(shards=4, wire=WireConfig(),
                           journal_dir=str(tmp_path / name))

    theirs = run_fleet_serving(small_dataset, storm,
                               fleet_config=config("theirs"))
    system = loops.FleetSystem(small_dataset, config("ours"))
    ours = loops.run_loop(system, small_dataset, storm)
    assert ours.final_status == theirs.final_status
    assert len(ours.frames) == len(theirs.trace_lines)
    assert loops.commitments(system.reports()) == theirs.commitments()
    assert measure._summarise(system).accepted == theirs.accepted_txs
    assert system.supervisor.wire.summary() == \
        theirs.supervisor.wire.summary()


# -- compare -----------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [85.0, 86.0, 84.0], "higher",
                           0.10)[0] == "regressed"
    assert compare.verdict(steady, [99.5, 100.5, 100.0], "higher",
                           0.10)[0] == "unchanged"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher",
                           0.10)[0] == "improved"
    noisy = [100.0, 130.0, 70.0]
    assert compare.verdict(noisy, [98.0, 99.0, 97.0], "higher",
                           0.10)[0] == "unresolved"
    assert compare.verdict([0.0, 0.0], [0.5, 0.5], "lower",
                           0.0)[0] == "regressed"
