"""Figure 15 + §5.5: code reduction during AP synthesis.

Paper: EVM trace 100% -> unoptimized S-EVM 31.73% -> final AP 8.95%
(constraint set 8.39% + fast path 0.56%), with stack elimination the
largest single contribution (-59.37%); shortcuts let 80.92% of S-EVM
instructions be skipped on the critical path; 82.2% of transactions
have one AP path.
"""

import pytest

from repro.bench import ascii_table, write_report
from repro.core import stats as S


@pytest.mark.benchmark(group="fig15")
def test_fig15_code_reduction(benchmark, l1):
    tally = l1.forerunner_node.speculator.tally
    report_obj = benchmark(S.synthesis_report, tally, l1.records)

    rows = [
        ["EVM instruction trace", "100.00%"],
        ["+ complex instruction decomposition",
         f"+{report_obj.decomposed_pct:.2f}%"],
        ["- stack instructions", f"-{report_obj.eliminated_stack_pct:.2f}%"],
        ["- memory instructions", f"-{report_obj.eliminated_mem_pct:.2f}%"],
        ["- control instructions",
         f"-{report_obj.eliminated_control_pct:.2f}%"],
        ["- state/env constants", f"-{report_obj.eliminated_state_pct:.2f}%"],
        ["+ guards (control constraints)",
         f"+{report_obj.inserted_guards_pct:.2f}%"],
        ["+ data constraints", f"+{report_obj.inserted_data_pct:.2f}%"],
        ["= unoptimized S-EVM", f"{report_obj.sevm_unoptimized_pct:.2f}%"],
        ["- constant folding", f"-{report_obj.eliminated_constant_pct:.2f}%"],
        ["- duplicated (CSE)", f"-{report_obj.eliminated_duplicate_pct:.2f}%"],
        ["- promoted context reads",
         f"-{report_obj.eliminated_promoted_pct:.2f}%"],
        ["- dead code", f"-{report_obj.eliminated_dead_pct:.2f}%"],
        ["= final AP", f"{report_obj.final_pct:.2f}%"],
        ["    constraint set", f"{report_obj.constraint_pct:.2f}%"],
        ["    fast path", f"{report_obj.fastpath_pct:.2f}%"],
    ]
    report = ascii_table(["Stage", "% of EVM trace"], rows,
                         title="Figure 15 — code reduction during AP "
                               "synthesis (averages over all AP paths)")
    report += (
        f"\n\nAverage EVM trace length: {report_obj.trace_len_avg:.0f}"
        f"\nAverage AP path length: {report_obj.ap_instrs_avg:.0f}"
        f"\nShortcut nodes per AP: {report_obj.shortcuts_avg:.1f}"
        f"\nS-EVM instructions skipped by shortcuts on the critical "
        f"path: {report_obj.skip_rate:.2%}"
        f"\nAP paths per transaction: "
        f"{dict(sorted(report_obj.paths_per_ap.items()))}"
        f"\nDistinct contexts per transaction: "
        f"{dict(sorted(report_obj.contexts_per_ap.items()))}"
        f"\n\n(paper: S-EVM 31.73%, AP 8.95% = 8.39% constraints + "
        f"0.56% fast path; 80.92% skipped; 82.2% single-path)")
    write_report("fig15_code_reduction", report)

    assert report_obj.paths > 0
    # One order of magnitude reduction.
    assert report_obj.final_pct < 25.0
    assert report_obj.sevm_unoptimized_pct < 50.0
    # Stack traffic is the biggest elimination (paper: -59.37%).
    assert report_obj.eliminated_stack_pct > max(
        report_obj.eliminated_mem_pct, report_obj.eliminated_control_pct)
    # Shortcuts skip a large share of critical-path S-EVM instructions.
    assert report_obj.skip_rate > 0.30
    # Most transactions end with a single AP path (paper: 82.2%).
    single = report_obj.paths_per_ap.get(1, 0)
    assert single / sum(report_obj.paths_per_ap.values()) > 0.6
