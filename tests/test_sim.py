"""Recorder / emulator integration tests (paper §5.1, §5.4)."""

import dataclasses

import pytest

from repro.core import stats as S
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig


@pytest.fixture(scope="module")
def dataset():
    config = DatasetConfig(
        name="T1",
        traffic=TrafficConfig(duration=90.0, seed=21),
        observers={"live": LatencyModel(),
                   "replay": LatencyModel(median=2.2)},
        seed=21,
    )
    return record_dataset(config)


@pytest.fixture(scope="module")
def retired_and_run(dataset):
    """The live replay plus every AP its speculator retired, in the
    order the §5.5 tally saw them."""
    retired = []
    add = S.SynthesisTally.add

    def capturing(self, ap):
        retired.append(ap)
        add(self, ap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S.SynthesisTally, "add", capturing)
        run = replay(dataset, "live")
    return retired, run


@pytest.fixture(scope="module")
def run(retired_and_run):
    return retired_and_run[1]


def reference_synthesis_report(aps, exec_records):
    """Figure 15 / §5.5 aggregated AP by AP, each tree walked for its
    distinct paths: what the running tally must reproduce."""
    report = S.SynthesisReport()
    total_trace = 0
    sums = dict(decomposed=0, stack=0, control=0, mem=0, state=0,
                guards=0, data=0, constant=0, duplicate=0, dead=0,
                promoted=0, unopt=0, final=0, constraint=0, fastpath=0)
    shortcut_total = 0
    path_count = 0
    ap_count = 0
    paths_per_ap = {}
    contexts_per_ap = {}
    for ap in aps:
        if not ap.paths:
            continue
        ap_count += 1
        distinct_paths = len(ap._terminals())
        paths_per_ap[distinct_paths] = \
            paths_per_ap.get(distinct_paths, 0) + 1
        ctxs = len(ap.context_ids)
        contexts_per_ap[ctxs] = contexts_per_ap.get(ctxs, 0) + 1
        shortcut_total += ap.shortcut_count
        for path in ap.paths:
            stats = path.stats
            path_count += 1
            total_trace += stats.trace_len
            sums["decomposed"] += stats.decomposed_added
            sums["stack"] += stats.eliminated_stack
            sums["control"] += stats.eliminated_control
            sums["mem"] += stats.eliminated_mem
            sums["state"] += stats.eliminated_state
            sums["guards"] += stats.inserted_guards
            sums["data"] += stats.inserted_data_constraints
            sums["constant"] += stats.eliminated_constant
            sums["duplicate"] += stats.eliminated_duplicate
            sums["dead"] += stats.eliminated_dead
            sums["promoted"] += stats.eliminated_promoted_reads
            sums["unopt"] += stats.sevm_unoptimized_len()
            sums["final"] += stats.final_len
            sums["constraint"] += stats.constraint_section_len
            sums["fastpath"] += stats.fast_path_len
    if not path_count or not total_trace:
        return report
    pct = 100.0 / total_trace
    report.paths = path_count
    report.trace_len_avg = total_trace / path_count
    report.decomposed_pct = sums["decomposed"] * pct
    report.eliminated_stack_pct = sums["stack"] * pct
    report.eliminated_control_pct = sums["control"] * pct
    report.eliminated_mem_pct = sums["mem"] * pct
    report.eliminated_state_pct = sums["state"] * pct
    report.inserted_guards_pct = sums["guards"] * pct
    report.inserted_data_pct = sums["data"] * pct
    report.eliminated_constant_pct = sums["constant"] * pct
    report.eliminated_duplicate_pct = sums["duplicate"] * pct
    report.eliminated_dead_pct = sums["dead"] * pct
    report.eliminated_promoted_pct = sums["promoted"] * pct
    report.sevm_unoptimized_pct = sums["unopt"] * pct
    report.final_pct = sums["final"] * pct
    report.constraint_pct = sums["constraint"] * pct
    report.fastpath_pct = sums["fastpath"] * pct
    report.ap_instrs_avg = sums["final"] / path_count
    report.shortcuts_avg = shortcut_total / max(1, ap_count)
    report.paths_per_ap = paths_per_ap
    report.contexts_per_ap = contexts_per_ap
    executed = sum(r.executed_nodes for r in exec_records)
    skipped = sum(r.skipped_nodes for r in exec_records)
    if executed + skipped:
        report.skip_rate = skipped / (executed + skipped)
    return report


class TestRecorder:
    def test_blocks_pack_all_heard_traffic(self, dataset):
        assert dataset.tx_count > 50
        assert len(dataset.blocks) > 2

    def test_block_numbers_sequential(self, dataset):
        numbers = [b.number for _, b in dataset.blocks]
        assert numbers == list(range(1, len(numbers) + 1))

    def test_state_roots_stamped(self, dataset):
        assert all(b.state_root is not None for _, b in dataset.blocks)

    def test_no_duplicate_packing(self, dataset):
        seen = set()
        for _, block in dataset.blocks:
            for tx in block.transactions:
                assert tx.hash not in seen
                seen.add(tx.hash)

    def test_nonce_order_within_chain(self, dataset):
        next_nonce = {}
        for _, block in dataset.blocks:
            for tx in block.transactions:
                expected = next_nonce.get(tx.sender, 0)
                assert tx.nonce == expected
                next_nonce[tx.sender] = expected + 1

    def test_observers_have_distinct_streams(self, dataset):
        live = dict((tx.hash, t) for t, tx in dataset.tx_arrivals["live"])
        rep = dict((tx.hash, t) for t, tx in dataset.tx_arrivals["replay"])
        common = set(live) & set(rep)
        assert common
        assert any(abs(live[h] - rep[h]) > 0.01 for h in common)

    def test_timestamps_monotone(self, dataset):
        ts = [b.header.timestamp for _, b in dataset.blocks]
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestEmulator:
    def test_all_roots_match(self, run):
        """§5.2 correctness validation: every block's post-state root
        from the Forerunner node equals the baseline's."""
        assert run.roots_matched == run.blocks_executed > 0

    def test_heard_fraction_realistic(self, run):
        assert 0.85 <= run.heard_fraction() <= 1.0

    def test_majority_satisfied(self, run):
        summary = S.summarize(run.records)
        assert summary.satisfied_fraction > 0.75

    def test_effective_speedup_above_comparators(self, run):
        rows = S.table2(run.records)
        by_name = {row.name: row for row in rows}
        forerunner = by_name["Forerunner"]
        single = by_name["Perfect matching"]
        multi = by_name["Perfect matching + multi-future prediction"]
        assert forerunner.speedup > multi.speedup >= single.speedup > 1.0
        assert forerunner.satisfied_fraction > multi.satisfied_fraction

    def test_outcome_breakdown_ordering(self, run):
        rows = {r.name: r for r in S.table3(run.records)}
        assert rows["satisfied/perfect"].speedup > 1.0
        assert rows["satisfied/imperfect"].speedup > 1.0
        assert rows["unsatisfied/missed"].speedup >= 0.9

    def test_unheard_txs_slower(self, run):
        summary = S.summarize(run.records)
        if any(not r.heard for r in run.records):
            assert summary.unheard_speedup < 1.0

    def test_replay_observer_changes_heard_rate(self, dataset, run):
        other = replay(dataset, "replay")
        assert other.roots_matched == other.blocks_executed
        assert other.heard_fraction() != run.heard_fraction()

    def test_unknown_observer_rejected(self, dataset):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            replay(dataset, "nope")

    def test_speculation_happened(self, run):
        assert run.speculation_jobs > 0
        assert run.total_speculation_cost > 0

    def test_synthesis_report_populated(self, retired_and_run):
        retired, run = retired_and_run
        report = S.synthesis_report(
            run.forerunner_node.speculator.tally, run.records)
        reference = reference_synthesis_report(retired, run.records)
        for name, value in dataclasses.asdict(reference).items():
            assert getattr(report, name) == value, name
        assert list(report.paths_per_ap) == list(reference.paths_per_ap)
        assert list(report.contexts_per_ap) == \
            list(reference.contexts_per_ap)
        assert report.paths > 0
        assert 0 < report.final_pct < 50.0
        assert report.eliminated_stack_pct > 30.0
        assert report.skip_rate > 0.2

    def test_heard_delay_cdf_monotone(self, run):
        cdf = S.heard_delay_reverse_cdf(run.records)
        fractions = [f for _, f in cdf]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] > 0.5
