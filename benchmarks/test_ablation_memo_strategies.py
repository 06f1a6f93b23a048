"""Ablation: memoization heuristics (paper fn. 12's "more refined
memoization heuristics" as future work).

Sweeps shortcut-selection strategies from coarse (one shortcut per
segment) through the paper's default (segment + m5-style sub-segment)
to fine (every input-shrinking suffix).
"""

import pytest

from repro.bench import ascii_table, write_report
from repro.core import stats as S
from repro.core.node import ForerunnerConfig
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from benchmarks.conftest import SCALE


@pytest.fixture(scope="module")
def strategy_dataset():
    config = DatasetConfig(
        name="MEMO",
        traffic=TrafficConfig(duration=max(60.0, SCALE * 0.5), seed=888,
                              compute_rate=0.0),
        observers={"live": LatencyModel()},
        seed=888)
    return record_dataset(config)


@pytest.mark.benchmark(group="ablation-memo")
def test_memoization_strategies(benchmark, strategy_dataset):
    def sweep():
        results = []
        for strategy in ("coarse", "default", "fine"):
            run = replay(strategy_dataset, "live",
                         config=ForerunnerConfig(
                             memoization_strategy=strategy))
            summary = S.summarize(run.records)
            report = S.synthesis_report(
                run.forerunner_node.speculator.tally, run.records)
            results.append((strategy, summary, report, run))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[strategy, f"{s.effective_speedup:.2f}x",
             f"{rep.skip_rate:.1%}", f"{rep.shortcuts_avg:.1f}"]
            for strategy, s, rep, _ in results]
    report = ascii_table(
        ["Strategy", "Effective speedup", "Skip rate", "Shortcuts/AP"],
        rows, title="Ablation — memoization heuristics")
    write_report("ablation_memo_strategies", report)

    by_name = {strategy: (s, rep, run)
               for strategy, s, rep, run in results}
    # Finer strategies place at least as many shortcut nodes...
    assert by_name["fine"][1].shortcuts_avg >= \
        by_name["coarse"][1].shortcuts_avg
    # ...and correctness never depends on the heuristic.
    for strategy, _, _, run in results:
        assert run.roots_matched == run.blocks_executed, strategy
