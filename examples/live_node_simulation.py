"""Live-node simulation: the paper's §5 evaluation, end to end.

Generates a period of DeFi-shaped traffic (oracle rounds, token
transfers, AMM swaps, auctions, registrations, plain transfers),
disseminates it over a simulated gossip network to eight PoW miners and
an observer, mines blocks with realistic packing (gas-price priority,
random tie-breaks, self-priority, temporary forks), and replays the
recorded stream through a baseline node and a Forerunner node.

Prints the paper's headline numbers: Table 1 (heard rates), Table 2
(effective speedup vs. perfect matching), Table 3 (prediction-outcome
breakdown), and the §5.2 Merkle-root correctness check.

Run:  python examples/live_node_simulation.py [duration-seconds]
"""

import sys

from repro.core import stats as S
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig


def main(duration: float = 150.0):
    print(f"Recording {duration:.0f}s of simulated Ethereum traffic...")
    config = DatasetConfig(
        name="demo",
        traffic=TrafficConfig(duration=duration, seed=2021),
        observers={"live": LatencyModel()},
        seed=2021,
    )
    dataset = record_dataset(config)
    lo, hi = dataset.block_number_range()
    print(f"  blocks {lo}-{hi} "
          f"({dataset.block_count} incl. {len(dataset.fork_blocks)} "
          f"temporary forks), {dataset.tx_count} transactions\n")

    print("Replaying through a baseline node and a Forerunner node...")
    run = replay(dataset, "live")
    summary = S.summarize(run.records)

    print(f"\n=== Correctness (paper §5.2) ===")
    print(f"  Merkle roots matched: {run.roots_matched}/"
          f"{run.blocks_executed} blocks")

    print(f"\n=== Dissemination (paper Table 1 / Figure 11) ===")
    print(f"  heard before execution: {summary.heard_fraction:.2%} "
          f"({summary.heard_weighted:.2%} weighted)")
    for x, fraction in S.heard_delay_reverse_cdf(run.records,
                                                 [0, 4, 8, 16, 32]):
        print(f"    delay > {x:>4.0f}s : {fraction:.2%} of heard txs")

    print(f"\n=== Speedup (paper Table 2) ===")
    for row in S.table2(run.records):
        print(f"  {row.name:<44} {row.speedup:>6.2f}x  "
              f"satisfied {row.satisfied_fraction:.2%} "
              f"(weighted {row.satisfied_weighted:.2%})")
    print(f"  {'End-to-end (incl. unheard)':<44} "
          f"{summary.end_to_end_speedup:>6.2f}x")

    print(f"\n=== Prediction outcomes (paper Table 3) ===")
    for row in S.table3(run.records):
        print(f"  {row.name:<22} {row.tx_fraction:>7.2%} of txs "
              f"({row.weighted_fraction:.2%} weighted)  "
              f"{row.speedup:>6.2f}x")

    report = S.synthesis_report(
        run.forerunner_node.speculator.tally, run.records)
    print(f"\n=== AP synthesis (paper Figure 15 / §5.5) ===")
    print(f"  avg EVM trace: {report.trace_len_avg:.0f} instrs -> "
          f"S-EVM {report.sevm_unoptimized_pct:.1f}% -> "
          f"AP {report.final_pct:.1f}% "
          f"(constraints {report.constraint_pct:.1f}% + "
          f"fast path {report.fastpath_pct:.1f}%)")
    print(f"  critical-path instructions skipped by shortcuts: "
          f"{report.skip_rate:.1%}")
    print(f"  AP paths per tx: {dict(sorted(report.paths_per_ap.items()))}")

    overhead = S.offpath_overhead(run)
    print(f"\n=== Off-critical-path overhead (paper §5.6) ===")
    print(f"  speculation work / on-path baseline work: "
          f"{overhead.ratio:.1f}x")
    print(f"\nWall-clock on the critical path: baseline "
          f"{run.wall_seconds_baseline:.2f}s vs Forerunner "
          f"{run.wall_seconds_forerunner:.2f}s")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 150.0)
