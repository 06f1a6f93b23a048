"""Ablation benches for the design choices DESIGN.md calls out:

* memoization on/off (shortcut skipping, §4.3),
* prefetcher on/off (the missed-prediction 1.21x, §4.4),
* number of speculated futures K (multi-future coverage, §4.4),
* optimization passes (folding / CSE / promotion / DCE, Figure 6).
"""

import pytest

from repro.bench import ascii_table, write_report
from repro.core import stats as S
from repro.core.node import ForerunnerConfig
from repro.core.optimize import PassConfig
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from benchmarks.conftest import SCALE


@pytest.fixture(scope="module")
def ablation_dataset():
    config = DatasetConfig(
        name="ABL",
        traffic=TrafficConfig(duration=max(60.0, SCALE * 0.6), seed=777,
                              compute_rate=0.0),
        observers={"live": LatencyModel()},
        seed=777)
    return record_dataset(config)


def run_with(dataset, **config_kwargs):
    config = ForerunnerConfig(**config_kwargs)
    return replay(dataset, "live", config=config)


@pytest.mark.benchmark(group="ablation")
def test_ablation_memoization(benchmark, ablation_dataset):
    with_memo = run_with(ablation_dataset, enable_memoization=True)
    without = benchmark.pedantic(
        run_with, args=(ablation_dataset,),
        kwargs=dict(enable_memoization=False), rounds=1, iterations=1)
    s_with = S.summarize(with_memo.records)
    s_without = S.summarize(without.records)
    report = ascii_table(
        ["Configuration", "Effective speedup", "% satisfied"],
        [["memoization ON", f"{s_with.effective_speedup:.2f}x",
          f"{s_with.satisfied_fraction:.2%}"],
         ["memoization OFF", f"{s_without.effective_speedup:.2f}x",
          f"{s_without.satisfied_fraction:.2%}"]],
        title="Ablation — memoized shortcuts")
    write_report("ablation_memoization", report)
    # Shortcuts speed things up without changing coverage.
    assert s_with.effective_speedup > s_without.effective_speedup
    assert abs(s_with.satisfied_fraction
               - s_without.satisfied_fraction) < 0.05
    # Correctness unaffected either way.
    assert without.roots_matched == without.blocks_executed


@pytest.mark.benchmark(group="ablation")
def test_ablation_prefetch(benchmark, ablation_dataset):
    with_prefetch = run_with(ablation_dataset, enable_prefetch=True)
    without = benchmark.pedantic(
        run_with, args=(ablation_dataset,),
        kwargs=dict(enable_prefetch=False), rounds=1, iterations=1)
    s_with = S.summarize(with_prefetch.records)
    s_without = S.summarize(without.records)

    def missed_speedup(run):
        missed = [r for r in run.records
                  if r.heard and r.outcome != "satisfied"]
        return S.aggregate_speedup(missed) if missed else 0.0

    report = ascii_table(
        ["Configuration", "Effective speedup", "Missed-class speedup"],
        [["prefetch ON", f"{s_with.effective_speedup:.2f}x",
          f"{missed_speedup(with_prefetch):.2f}x"],
         ["prefetch OFF", f"{s_without.effective_speedup:.2f}x",
          f"{missed_speedup(without):.2f}x"]],
        title="Ablation — state prefetcher")
    write_report("ablation_prefetch", report)
    assert s_with.effective_speedup >= s_without.effective_speedup * 0.95
    assert without.roots_matched == without.blocks_executed


@pytest.mark.benchmark(group="ablation")
def test_ablation_future_count(benchmark, ablation_dataset):
    def sweep():
        results = []
        for k in (1, 2, 4, 8):
            run = run_with(ablation_dataset, max_contexts_per_head=k)
            summary = S.summarize(run.records)
            results.append((k, summary))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[k, f"{s.effective_speedup:.2f}x",
             f"{s.satisfied_fraction:.2%}",
             f"{s.satisfied_weighted:.2%}"] for k, s in results]
    report = ascii_table(
        ["Futures per tx (K)", "Effective speedup", "% satisfied",
         "% (weighted)"],
        rows, title="Ablation — number of speculated futures")
    write_report("ablation_future_count", report)
    # More futures never hurt coverage.
    satisfied = [s.satisfied_fraction for _, s in results]
    assert satisfied[-1] >= satisfied[0] - 0.02


@pytest.mark.benchmark(group="ablation")
def test_ablation_optimization_passes(benchmark, ablation_dataset):
    configs = [
        ("all passes", PassConfig()),
        ("no constant folding", PassConfig(fold_constants=False)),
        ("no CSE", PassConfig(cse=False)),
        ("no promotion", PassConfig(promote=False)),
        ("no DCE", PassConfig(dce=False)),
    ]

    def sweep():
        results = []
        for label, pass_config in configs:
            run = run_with(ablation_dataset, pass_config=pass_config)
            summary = S.summarize(run.records)
            report_obj = S.synthesis_report(
                run.forerunner_node.speculator.tally, run.records)
            results.append((label, summary, report_obj, run))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[label, f"{s.effective_speedup:.2f}x",
             f"{rep.final_pct:.1f}%", f"{s.satisfied_fraction:.2%}"]
            for label, s, rep, _ in results]
    report = ascii_table(
        ["Configuration", "Effective speedup", "AP size (% of trace)",
         "% satisfied"],
        rows, title="Ablation — specialization passes")
    write_report("ablation_passes", report)

    baseline_pct = results[0][2].final_pct
    for label, summary, rep, run in results[1:]:
        # Every disabled pass inflates the AP (folding is the largest).
        assert rep.final_pct >= baseline_pct - 0.5, label
        # Correctness never depends on optimizations.
        assert run.roots_matched == run.blocks_executed, label
