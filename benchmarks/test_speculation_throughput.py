"""Speculation throughput: shared-prefix caching + synthesis dedup.

The predictor emits many future contexts whose predecessor lists share
prefixes (every context of a transaction carries the sender's mandatory
nonce chain; the greedy ordering reuses the same price-sorted
predecessors across targets).  The seed speculator re-executed each
shared prefix once per context; the prefix cache materializes it once
per head and synthesis dedup clones a known path, with neither
pre-execution nor re-synthesis, when the context reproduces the
recorded inputs of the run that produced it.

This benchmark replays the L1 period twice — caching layers on (the
shared ``l1`` fixture) and off — and checks that

* **redundant** predecessor EVM executions (re-executions of a prefix
  already materialized under the current head) drop at least 2x by
  instruction count — in fact the cache eliminates them entirely;
* every Merkle root still matches and the Table 2 / Table 3 evaluation
  rows are byte-identical: the layers change what speculation *costs*,
  never what it produces.
"""

import json
import os

import pytest

from repro.bench import ascii_table, write_report
from repro.core import stats as S
from repro.core.node import ForerunnerConfig
from repro.sim.emulator import replay

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def uncached_run(datasets):
    """The L1 replay with both caching layers disabled (seed behaviour)."""
    config = ForerunnerConfig(enable_prefix_cache=False,
                              enable_synth_dedup=False)
    return replay(datasets["L1"], "live", config=config)


def test_speculation_throughput(l1, uncached_run, datasets):
    cached = S.speculation_cache_report(l1)
    uncached = S.speculation_cache_report(uncached_run)

    # -- wall-clock regression gate -----------------------------------------
    # The caching layers must never make block processing *slower* in
    # wall-clock terms (the seed repo had exactly that inversion: the
    # interpreted AP walker's Python overhead outweighed the logical
    # saving).  Single runs are noisy and the session fixtures execute
    # the two arms far apart (cold caches, CPU frequency drift), so the
    # gate re-times both arms adjacently and takes min-of-2 per arm.
    uncached_config = ForerunnerConfig(enable_prefix_cache=False,
                                       enable_synth_dedup=False)
    wall_cached = min(
        l1.wall_seconds_forerunner,
        replay(datasets["L1"], "live").wall_seconds_forerunner)
    wall_uncached = min(
        uncached_run.wall_seconds_forerunner,
        replay(datasets["L1"], "live",
               config=uncached_config).wall_seconds_forerunner)
    regression = wall_cached > wall_uncached

    # Both runs demand the identical predecessor work; the cached run
    # serves part of it from materialized prefixes.
    demanded = cached.pred_instructions + cached.pred_instructions_avoided
    assert uncached.pred_instructions == demanded
    assert uncached.pred_instructions_avoided == 0

    # Redundant = re-execution of a (head, header, prefix) key already
    # materialized since the last invalidation; both runs measure it
    # directly.  The uncached run re-executes every repeat demand; with
    # the cache on only an LRU eviction can force one, so the repeats
    # served from cache plus the eviction-forced leftovers must add up
    # to exactly the uncached run's redundancy.
    redundant_uncached = uncached.pred_instructions_redundant
    redundant_cached = cached.pred_instructions_redundant
    assert redundant_uncached == (cached.pred_instructions_avoided
                                  + redundant_cached)
    assert redundant_uncached > 0
    assert redundant_uncached >= 2 * max(1, redundant_cached)

    total_work_ratio = demanded / max(1, cached.pred_instructions)
    assert total_work_ratio >= 1.25  # whole-run work also shrinks
    assert cached.dedup_hits > 0
    assert cached.cost_saved > 0
    # Worker scheduling uses the logical (seed-accounting) cost, which
    # must not depend on the caching layers.
    assert cached.logical_cost == uncached.logical_cost

    # -- equivalence: the layers must not change a single result ------------
    assert l1.blocks_executed == uncached_run.blocks_executed
    assert l1.roots_matched == l1.blocks_executed
    assert uncached_run.roots_matched == uncached_run.blocks_executed
    assert l1.records == uncached_run.records
    assert S.table2(l1.records) == S.table2(uncached_run.records)
    assert S.table3(l1.records) == S.table3(uncached_run.records)

    rows = [
        ["predecessor instructions demanded", f"{demanded:,}"],
        ["executed with caching layers on",
         f"{cached.pred_instructions:,}"],
        ["executed with caching layers off",
         f"{uncached.pred_instructions:,}"],
        ["redundant (repeat) instructions, layers off",
         f"{redundant_uncached:,}"],
        ["redundant (repeat) instructions, layers on",
         f"{redundant_cached:,}"],
        ["redundancy reduction (off/on)",
         f"{redundant_uncached / max(1, redundant_cached):.2f}x"],
        ["total predecessor work ratio (off/on)",
         f"{total_work_ratio:.2f}x"],
        ["prefix cache hit rate", f"{cached.prefix_hit_rate:.2%}"],
        ["predecessor executions run / served",
         f"{cached.pred_execs} / {cached.pred_execs_avoided}"],
        ["synthesis dedup hit rate", f"{cached.dedup_hit_rate:.2%}"],
        ["off-path cost paid (layers on)", f"{cached.actual_cost:,}"],
        ["off-path cost paid (layers off)", f"{uncached.actual_cost:,}"],
        ["seed (uncached) accounting cost",
         f"{cached.logical_cost:,}"],
        ["saved vs seed accounting", f"{cached.cost_saved:,}"],
        ["forerunner wall seconds (layers on, min of 2)",
         f"{wall_cached:.2f}"],
        ["forerunner wall seconds (layers off, min of 2)",
         f"{wall_uncached:.2f}"],
        ["wall-clock regression (on slower than off)",
         str(regression)],
        ["Merkle roots matched (both runs)",
         f"{l1.roots_matched}/{l1.blocks_executed}"],
    ]
    report = ascii_table(
        ["Metric", "Value"], rows,
        title="Speculation throughput — prefix cache + synthesis dedup")
    report += ("\n\n(redundant = re-execution of a predecessor prefix "
               "already materialized under the current head; the cache "
               "removes all of them while Table 2/3 and every Merkle "
               "root stay byte-identical)")
    write_report("speculation_throughput", report)

    payload = {
        "dataset": "L1",
        "pred_instructions_demanded": demanded,
        "pred_instructions_executed_cached": cached.pred_instructions,
        "pred_instructions_executed_uncached": uncached.pred_instructions,
        "redundant_instructions_uncached": redundant_uncached,
        "redundant_instructions_cached": redundant_cached,
        "redundant_reduction": round(
            redundant_uncached / max(1, redundant_cached), 4),
        "redundant_reduction_min_required": 2.0,
        "prefix_evictions": cached.prefix_evictions,
        "total_work_ratio": round(total_work_ratio, 4),
        "prefix_hit_rate": round(cached.prefix_hit_rate, 4),
        "pred_execs": cached.pred_execs,
        "pred_execs_avoided": cached.pred_execs_avoided,
        "dedup_hits": cached.dedup_hits,
        "dedup_misses": cached.dedup_misses,
        "dedup_hit_rate": round(cached.dedup_hit_rate, 4),
        "offpath_cost_cached": cached.actual_cost,
        "offpath_cost_uncached": uncached.actual_cost,
        "offpath_cost_logical": cached.logical_cost,
        "offpath_cost_saved": cached.cost_saved,
        "wall_seconds_cached": round(wall_cached, 3),
        "wall_seconds_uncached": round(wall_uncached, 3),
        "regression": regression,
        "roots_matched": l1.roots_matched,
        "blocks_executed": l1.blocks_executed,
    }
    with open(os.path.join(REPO_ROOT, "BENCH_speculation.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The gate proper: with the specialization tier in place the cached
    # run must win (or tie) on wall clock, not just on logical cost.
    assert not regression, (
        f"caching layers are a wall-clock regression: "
        f"{wall_cached:.3f}s cached vs {wall_uncached:.3f}s uncached")
