"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``  — run the full DiCE evaluation and print the paper's
  headline tables (a compact version of §5).
* ``record``    — record a traffic period to a JSON dataset (the
  paper publishes its datasets; so do we).
* ``replay``    — replay a recorded dataset through the nodes.
* ``compile``   — compile a minisol source file; print ABI, storage
  layout, and disassembly.
* ``synthesize``— trace the paper's Tx_e and print the synthesized
  accelerated program (Figure 8), or ``--merged`` for the FC1+FC4
  case-branching tree (Figure 10).
* ``crash``     — kill the node at every durability boundary
  (journal appends, fsyncs, snapshot writes, block commits), recover,
  and verify restart replay converges byte-identically.
* ``verify``    — replay a workload with witnesses on, re-derive every
  committed result via the witness checker (constraint replay + delta
  application, no re-execution), and run the differential conformance
  oracle; ``--json`` emits the canonical report, ``--witness-out``
  writes the byte-stable witness JSONL artifact.
* ``serve``     — run a seeded client load scenario against the
  JSON-RPC serving edge (repro.edge) and print the canonical serving
  report: per-method counts, shed rate, brownout transitions,
  p50/p99 cost-unit latency; ``--json-out`` / ``--trace-out`` emit
  the byte-stable report and serving trace.
* ``history``   — print the Figure 2 block-saturation series.
* ``report``    — record + replay a workload and print the stage
  breakdown; ``--metrics`` dumps the deterministic metrics snapshot,
  ``--sched`` adds the scheduler section (admission counters, and
  the lane what-if: conflict and abort rates and lane utilization of
  ``--lanes N`` optimistic lanes, derived offline from the committed
  blocks), ``--json`` emits the whole report as canonical JSON, and
  ``--trace-out PATH`` writes the canonical JSONL trace (two runs of
  the same workload produce byte-identical files).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core import stats as S


def _record(name: str, duration: float, seed: int, **overrides):
    """Record ``duration`` seconds of seeded mixed traffic: the
    one-observer (``live``) dataset every command replays."""
    from repro.p2p.latency import LatencyModel
    from repro.sim.recorder import DatasetConfig, record_dataset
    from repro.workloads.mixed import TrafficConfig

    return record_dataset(DatasetConfig(
        name=name, traffic=TrafficConfig(duration=duration, seed=seed),
        observers={"live": LatencyModel()}, seed=seed, **overrides))


def _write_json(path: str, payload, label: str) -> None:
    """Write ``payload`` as one canonical-JSON line (byte-stable)."""
    from repro.obs.export import canonical_json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
        handle.write("\n")
    print(f"wrote {label} -> {path}")


def _write_trace(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    print(f"wrote {len(lines)} serving trace lines -> {path}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.emulator import replay

    print(f"Recording {args.duration:.0f}s of traffic "
          f"(seed {args.seed})...")
    dataset = _record("cli", args.duration, args.seed)
    print(f"  {dataset.tx_count} txs / {len(dataset.blocks)} blocks "
          f"(+{len(dataset.fork_blocks)} forks)")
    run = replay(dataset, "live")
    summary = S.summarize(run.records)
    print(f"\nMerkle roots matched: {run.roots_matched}/"
          f"{run.blocks_executed}")
    print(f"Heard: {summary.heard_fraction:.2%} "
          f"({summary.heard_weighted:.2%} weighted)")
    for row in S.table2(run.records):
        print(f"  {row.name:<44} {row.speedup:>6.2f}x  "
              f"sat {row.satisfied_fraction:.2%}")
    print(f"  {'End-to-end':<44} {summary.end_to_end_speedup:>6.2f}x")
    for row in S.table3(run.records):
        print(f"  {row.name:<22} {row.tx_fraction:>7.2%}  "
              f"{row.speedup:>6.2f}x")
    _print_cache_report(run)
    return 0


def _print_cache_report(run) -> None:
    """Print the speculation caching-layer counters (§5.6 savings)."""
    cache = S.speculation_cache_report(run)
    print("\nSpeculation caching layers:")
    print(f"  prefix cache: {cache.prefix_hits} hits / "
          f"{cache.prefix_misses} misses "
          f"({cache.prefix_hit_rate:.2%} hit rate), "
          f"{cache.prefix_invalidations} invalidations")
    print(f"  predecessor executions: {cache.pred_execs} run, "
          f"{cache.pred_execs_avoided} served from cache "
          f"({cache.pred_reduction_factor:.2f}x instruction reduction, "
          f"{cache.pred_execs_redundant} redundant re-executions left)")
    print(f"  synthesis dedup: {cache.dedup_hits} hits / "
          f"{cache.dedup_misses} misses "
          f"({cache.dedup_hit_rate:.2%} hit rate)")
    compiles, aps = (run.registry.value(name)
                     for name in ("jit.compiles", "memo.inserts"))
    print(f"  AP finishing: {compiles} compiles for {aps} APs "
          f"({compiles / max(1, aps):.2f} per AP)")
    print(f"  off-path cost: {cache.actual_cost:,} paid vs "
          f"{cache.logical_cost:,} uncached "
          f"({cache.cost_saved:,} units saved)")


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.sim.storage import save_dataset

    dataset = _record(args.name, args.duration, args.seed)
    save_dataset(dataset, args.out)
    print(f"recorded {dataset.tx_count} txs / {len(dataset.blocks)} "
          f"blocks (+{len(dataset.fork_blocks)} forks) -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.sim.emulator import replay
    from repro.sim.storage import load_dataset

    dataset = load_dataset(args.dataset)
    run = replay(dataset, args.observer)
    summary = S.summarize(run.records)
    print(f"dataset {dataset.name}: {len(run.records)} txs, "
          f"roots matched {run.roots_matched}/{run.blocks_executed}")
    print(f"effective speedup {summary.effective_speedup:.2f}x, "
          f"end-to-end {summary.end_to_end_speedup:.2f}x, "
          f"satisfied {summary.satisfied_fraction:.2%}")
    _print_cache_report(run)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.evm.assembler import format_disassembly
    from repro.minisol import compile_contract

    with open(args.source, encoding="utf-8") as handle:
        source = handle.read()
    compiled = compile_contract(source)
    print(f"contract {compiled.name}: {len(compiled.code)} bytes\n")
    print("Functions:")
    for fn in compiled.functions.values():
        ret = " -> uint256" if fn.returns_value else ""
        print(f"  {fn.selector:#010x}  {fn.signature}{ret}")
    print("\nStorage layout:")
    for name, slot in compiled.storage_layout.items():
        print(f"  slot {slot}: {name}")
    if args.disassemble:
        print("\nDisassembly:")
        print(format_disassembly(compiled.code))
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.chain.block import BlockHeader
    from repro.chain.transaction import Transaction
    from repro.contracts import pricefeed
    from repro.core.ap import describe_ap
    from repro.core.speculator import FutureContext, Speculator, \
        synthesize_path
    from repro.core.trace import trace_transaction
    from repro.state.statedb import StateDB
    from repro.state.world import WorldState

    pf = pricefeed()
    round_id = 3990300

    def make_world(active_round=round_id):
        world = WorldState()
        world.create_account(0xA11CE, balance=10**24)
        world.create_account(0xFEED, code=pf.code)
        feed = world.get_account(0xFEED)
        feed.set_storage(pf.slot_of("activeRoundID"), active_round)
        if active_round == round_id:
            feed.set_storage(pf.slot_of("prices", round_id), 2000)
            feed.set_storage(pf.slot_of("submissionCounts", round_id), 4)
        return world

    tx = Transaction(sender=0xA11CE, to=0xFEED,
                     data=pf.calldata("submit", round_id, 1980), nonce=0)
    if args.merged:
        # Figure 10: FC1 (later submission) merged with FC4 (fresh
        # round) into one case-branching AP.
        speculator = Speculator(make_world())
        speculator.speculate(
            tx, FutureContext(1, BlockHeader(1, 3990462, 0xBEEF)))
        speculator.world = make_world(active_round=3990000)
        speculator.speculate(
            tx, FutureContext(4, BlockHeader(1, 3990478, 0xBEEF)))
        ap = speculator.get_ap(tx.hash)
        print("Merged AP of Tx_e over FC1 (else-branch) and FC4 "
              "(if-branch) — a textual Figure 10:\n")
        print(describe_ap(ap))
        return 0
    header = BlockHeader(1, args.timestamp, 0xBEEF)
    trace = trace_transaction(StateDB(make_world()), header, tx)
    path = synthesize_path(trace)
    stats = path.stats
    print(f"Tx_e traced in FC(timestamp={args.timestamp}): "
          f"{stats.trace_len} EVM instructions")
    print(f"Synthesized AP path ({stats.final_len} instructions, "
          f"{stats.final_len / stats.trace_len:.1%} of trace):\n")
    for instr in path.instrs:
        print(f"  {instr!r}")
    print(f"\nread set: {len(path.read_set)} entries, "
          f"gas (constant): {path.gas_used}")
    return 0


def _print_sched_report(sched: dict) -> None:
    """Print the scheduler section (``report --sched``)."""
    ex = sched.get("executor", {})
    adm = sched.get("admission", {})
    workers = sched.get("workers", {})
    aborted = ex.get("aborted", {})
    print(f"\nScheduler ({ex.get('lanes', 1)} lanes):")
    print(f"  blocks: {ex.get('blocks', 0)} "
          f"({ex.get('blocks_parallel', 0)} parallel), "
          f"txs: {ex.get('transactions', 0)} "
          f"in {ex.get('executions', 0)} executions")
    print(f"  clean commits: {ex.get('clean_commits', 0)}, aborted: "
          f"{aborted.get('conflict', 0)} conflict / "
          f"{aborted.get('entangled', 0)} entangled / "
          f"{aborted.get('faulted', 0)} faulted")
    print(f"  conflict rate: {ex.get('conflict_rate', 0.0):.4%} "
          f"({ex.get('conflict_pairs', 0)} of "
          f"{ex.get('possible_pairs', 0)} pairs)")
    print(f"  critical path: {ex.get('critical_path_units', 0):,} of "
          f"{ex.get('serial_cost_units', 0):,} serial units "
          f"({ex.get('speedup', 1.0):.2f}x)")
    utils = [b["lane_utilization_permille"]
             for b in sched.get("blocks", []) if b.get("lanes", 1) > 1]
    if utils:
        flat = [u for block in utils for u in block]
        print(f"  lane utilization: {sum(flat) // len(flat)} permille "
              f"mean over {len(utils)} parallel blocks")
    jobs = workers.get("jobs", [])
    print(f"  speculation lanes: {workers.get('lanes', 0)}, "
          f"jobs: {sum(jobs)}")
    prefetch = adm.get("prefetch", {})
    print(f"  admission: {adm.get('admitted', 0)} admitted / "
          f"{adm.get('dispatched', 0)} dispatched / "
          f"{adm.get('deferred', 0)} deferred / "
          f"{adm.get('dropped', 0)} dropped / "
          f"{adm.get('capped', 0)} capped")
    print(f"  prefetch queue: {prefetch.get('queued', 0)} queued / "
          f"{prefetch.get('drained', 0)} drained / "
          f"{prefetch.get('dropped', 0)} dropped")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import canonical_json, export_jsonl
    from repro.sim.emulator import replay

    dataset = _record("report", args.duration, args.seed)
    run = replay(dataset, args.observer)
    node = run.forerunner_node
    if args.sched:
        from repro.sched.whatif import derive_schedules
        sched = dict(node.sched_report(),
                     **derive_schedules(dataset, node.reports, args.lanes))
    if args.as_json:
        payload = {
            "dataset": dataset.name,
            "observer": run.observer,
            "seed": args.seed,
            "duration": args.duration,
            "txs": len(run.records),
            "roots_matched": run.roots_matched,
            "blocks_executed": run.blocks_executed,
            "state_root": hex(node.world.root()),
            "stages": run.tracer.stage_totals(),
            # CI gate: finalizes <= dedup misses (no per-merge finishing).
            "counters": {name: run.registry.value(name) for name in (
                "speculator.dedup_misses", "speculator.finalizes",
                "speculator.finalized_on_read")},
            # Full per-tx records (cost, cpu/io units, outcome, tier).
            "records": [dataclasses.asdict(record)
                        for report in node.reports
                        for record in report.records],
        }
        if args.sched:
            payload["sched"] = sched
        print(canonical_json(payload))
        return 0
    print(f"dataset {dataset.name}: {len(run.records)} txs, "
          f"roots matched {run.roots_matched}/{run.blocks_executed}")
    print("\nStage breakdown (logical cost units):")
    for name, entry in run.tracer.stage_totals().items():
        print(f"  {name:<20} {entry['count']:>7} spans  "
              f"{entry['cost']:>14,} units")
    _print_cache_report(run)
    if args.sched:
        _print_sched_report(sched)
    if args.metrics:
        print("\nMetrics snapshot (deterministic instruments):")
        for line in run.registry.render().splitlines():
            print(f"  {line}")
    if args.trace_out:
        written = export_jsonl(
            args.trace_out, run.tracer, run.registry,
            meta={"dataset": dataset.name, "observer": run.observer,
                  "seed": args.seed, "duration": args.duration})
        print(f"\nwrote {written} trace lines -> {args.trace_out}")
    return 0


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    """Per-site chaos over a serving run: ``--edge`` sweeps the
    ``edge`` layer of the site table on one node; ``--fleet`` /
    ``--net`` (either or both) the ``fleet`` and ``net`` layers on an
    N-replica fleet.  One site at a time (with its driver site, at the
    table's rate unless ``--rate``), five assertions per site: the
    fault actually fired; commitments (roots + receipt cores) are
    byte-identical to the fault-free run (for a fleet, itself
    byte-identical to the single node); two same-seed faulted runs are
    byte-identical to each other; no edge server let an error escape;
    and, on a fleet, the lease oracle holds single-holder-per-term on
    every run."""
    from repro.edge import ScenarioConfig, build_scenario, run_serving
    from repro.faults import compare_commitments, sweep_plans
    from repro.fleet import FleetConfig, run_fleet_serving

    fleet = args.fleet or args.net
    label = "fleet" if fleet else "edge"
    dataset = _record(f"{label}-chaos", args.duration, args.workload_seed)
    scenario = build_scenario(dataset,
                              ScenarioConfig(seed=args.seed, load=2.0))

    def serve(plan=None):
        if not fleet:
            return run_serving(dataset, scenario, fault_plan=plan,
                               observer=args.observer)
        result = run_fleet_serving(
            dataset, scenario,
            fleet_config=FleetConfig(shards=args.shards, fault_plan=plan),
            observer=args.observer)
        result.supervisor.lease.assert_single_holder_per_term()
        return result

    clean = serve()
    print(f"{label} chaos: dataset={dataset.name} seed={args.seed} "
          f"shards={clean.shards} ({len(scenario)} requests, "
          f"{len(dataset.blocks)} blocks)")
    print(f"clean run: goodput {clean.goodput:.3f}")
    rows = []
    ok = True
    for layer in [name for name in ("fleet", "net", "edge")
                  if getattr(args, name)]:
        print(f"\n{layer}.* sites:")
        for site, plan in sweep_plans(layer, args.seed, args.rate):
            # A sweep plan runs site and driver at the one rate.
            rate = plan.rules[0].probability
            faulted = serve(plan)
            again = serve(plan)
            fired = faulted.injector.fired(site)
            moved = compare_commitments(clean.commitments(),
                                        faulted.commitments())
            deterministic = faulted.commitments() == again.commitments()
            uncaught = sum(server.c_internal_errors.value
                           for server in faulted.servers)
            site_ok = (not moved and deterministic and fired > 0
                       and uncaught == 0)
            ok = ok and site_ok
            row = {"site": site, "rate": rate, "fired": fired,
                   "goodput": round(faulted.goodput, 6),
                   "contained": not moved,
                   "deterministic": deterministic,
                   "uncaught_errors": uncaught, "ok": site_ok}
            detail = ""
            if fleet:
                wire = faulted.supervisor.wire.summary()
                row.update(
                    generation=faulted.supervisor.shardmap.generation,
                    retries=wire["retries"],
                    dedup_dropped=wire["dedup_dropped"],
                    escalations=wire["escalations"])
                detail = (f"gen={row['generation']:3d} "
                          f"retries={wire['retries']:4d} "
                          f"dedup={wire['dedup_dropped']:4d} ")
            print(f"  {site:26s} rate={rate} fired={fired:5d} "
                  f"goodput={faulted.goodput:.3f} uncaught={uncaught} "
                  f"{detail}{'CONTAINED' if site_ok else 'FAILED'}")
            for line in moved:
                print(f"      {line}")
            if not deterministic:
                print("      same-seed rerun committed differently")
            rows.append(row)
    print()
    print(f"{label} containment: " + ("OK" if ok else "FAILED"))
    if args.json_out:
        payload = {
            "schema": 3, "dataset": dataset.name, "seed": args.seed,
            "shards": clean.shards, "requests": len(scenario),
            "clean_goodput": round(clean.goodput, 6),
            "sites": rows, "ok": ok}
        if fleet:
            payload["clean_wire"] = clean.supervisor.wire.summary()
        _write_json(args.json_out, payload, f"{label} chaos report")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    sweep = args.edge or args.fleet or args.net
    if args.edge and (args.fleet or args.net):
        args.error("--edge sweeps one node and --fleet/--net a fleet: "
                   "run them separately")
    if sweep:
        for flag, given in (("--trace-out", args.trace_out),
                            ("--max-rate", args.max_rate is not None)):
            if given:
                args.error(f"{flag} has no effect on an "
                           f"--edge/--fleet/--net sweep")
        return _cmd_chaos_sweep(args)
    from repro.faults import (
        FaultPlan,
        check_equivalence,
        format_report,
    )
    from repro.obs.export import export_jsonl

    dataset = _record("chaos", args.duration, args.workload_seed)
    if args.rate is not None:
        plan = FaultPlan.uniform(seed=args.seed, probability=args.rate)
    else:
        plan = FaultPlan.seeded_random(
            seed=args.seed,
            max_rate=0.3 if args.max_rate is None else args.max_rate)
    report = check_equivalence(dataset, plan, observer=args.observer)
    print(format_report(report))
    if args.json_out:
        print()
        _write_json(args.json_out, report.as_dict(),
                    "degradation report")
    if args.trace_out:
        from repro.sim.emulator import replay
        faulted = replay(dataset, args.observer, fault_plan=plan)
        written = export_jsonl(
            args.trace_out, faulted.tracer, faulted.registry,
            meta={"dataset": dataset.name, "observer": args.observer,
                  "chaos_seed": args.seed,
                  "workload_seed": args.workload_seed,
                  "duration": args.duration})
        print(f"wrote {written} trace lines -> {args.trace_out}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a seeded scenario through one node's edge
    server or, with ``--shards N``, through the fleet router and N
    per-replica edge servers (docs/FLEET.md), the replicas talking
    over the wire plane under ``--net-profile`` (default ``clean``)."""
    from repro.core.node import ForerunnerConfig
    from repro.edge import (
        EdgeConfig,
        ScenarioConfig,
        build_report,
        build_scenario,
        format_report,
        run_serving,
    )
    from repro.fleet import net_profile_config, run_fleet_serving

    dataset = _record("serve", args.duration, args.workload_seed)
    scenario = build_scenario(
        dataset,
        ScenarioConfig(seed=args.seed, load=args.load,
                       clients=args.clients,
                       deadline_units=args.deadline_units))
    meta = {"seed": args.seed, "load": args.load,
            "workload_seed": args.workload_seed,
            "duration": args.duration, "clients": args.clients,
            "deadline_units": args.deadline_units,
            "witness": args.witness, "verify": args.verify}
    if args.shards is None:
        result = run_serving(
            dataset, scenario,
            edge_config=EdgeConfig(attach_witnesses=args.witness,
                                   verify_responses=args.verify),
            node_config=ForerunnerConfig(enable_witness=args.witness),
            observer=args.observer)
    else:
        meta["net_profile"] = args.net_profile or "clean"
        result = run_fleet_serving(
            dataset, scenario,
            fleet_config=net_profile_config(
                meta["net_profile"], shards=args.shards, seed=args.seed),
            observer=args.observer)
        result.supervisor.lease.assert_single_holder_per_term()
    report = build_report(result, meta=meta)
    print(format_report(report))
    mismatches = sum(server.verify_mismatches
                     for server in result.servers)
    if mismatches:
        print(f"\nSERVING-EQUIVALENCE FAILED: "
              f"{mismatches} mismatched responses")
    if args.json_out:
        print()
        _write_json(args.json_out, report, "serving report")
    if args.trace_out:
        _write_trace(args.trace_out, result.trace_lines)
    return 1 if mismatches else 0


def _cmd_crash(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.faults import layer_sites
    from repro.recovery.replay import recovery_report

    if args.points == "all":
        sites = None
    else:
        sites = tuple(args.points.split(","))
        known = layer_sites("recovery")
        unknown = [site for site in sites if site not in known]
        if unknown:
            print(f"unknown crash site(s): {', '.join(unknown)}")
            print("known sites:")
            for site in known:
                print(f"  {site}")
            return 2
    dataset = _record("crash", args.duration, args.workload_seed,
                      mean_block_interval=args.block_interval)
    store_root = tempfile.mkdtemp(prefix="repro-crash-")
    try:
        report = recovery_report(dataset, store_root, seed=args.seed,
                                 sites=sites, observer=args.observer,
                                 snapshot_interval=args.snapshot_interval)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    print(f"crash: dataset={report['dataset']} seed={report['seed']} "
          f"({len(dataset.blocks)} blocks, {dataset.tx_count} txs)")
    print(f"clean digest sha256: {report['clean_digest_sha']}")
    print()
    for entry in report["sites"]:
        status = "CONVERGED" if entry["converged"] else "DIVERGED"
        detail = ""
        if entry["recoveries"]:
            info = entry["recoveries"][0]
            detail = (f" restored={info['blocks_restored']} "
                      f"verified={info['blocks_verified']} "
                      f"fresh={info['blocks_fresh']}")
            if info["torn_bytes_truncated"]:
                detail += f" torn={info['torn_bytes_truncated']}B"
        fired = "fired" if entry["fired"] else "NOT FIRED"
        print(f"  {entry['site']:<34} {fired:<9} "
              f"restarts={entry['restarts']} {status}{detail}")
    print()
    if report["converged"]:
        print("result: all crash points converged — recovered state, "
              "receipts and Table 2/3 columns byte-identical to the "
              "uninterrupted run")
    elif all(entry["converged"] for entry in report["sites"]):
        print("result: NOT FIRED — one or more crash points never "
              "fired at this occurrence seed; their recovery is "
              "unexercised")
    else:
        print("result: DIVERGENCE — recovery is broken at one or more "
              "crash points")
    if args.json_out:
        print()
        _write_json(args.json_out, report, "crash-recovery report")
    return 0 if report["converged"] else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.node import ForerunnerConfig
    from repro.obs.export import canonical_json, export_witness_jsonl
    from repro.sim.emulator import replay
    from repro.witness import WitnessChecker, run_oracle

    dataset = _record("verify", args.duration, args.seed)
    node_config = ForerunnerConfig(enable_witness=True)
    run = replay(dataset, args.observer, config=node_config)
    node = run.forerunner_node

    # Every committed transaction must carry a witness.
    executed = sum(len(report.records) for report in node.reports)
    covered = len(node.witnesses) == executed

    # Reconstruct the chain from witnesses alone on a shadow copy of
    # genesis: constraint replay + delta application, no re-execution.
    by_block: dict = {}
    for witness in node.witnesses:
        by_block.setdefault(witness.block_number, []).append(witness)
    headers = {block.number: block.header
               for _, block in dataset.blocks}
    blocks = [(headers[report.block_number],
               by_block.get(report.block_number, []),
               report.state_root)
              for report in node.reports]
    checker = WitnessChecker(dataset.genesis_world.copy())
    validation = checker.validate_run(blocks)
    spec_ratio = validation.speculative_cost_ratio()
    cost_ok = spec_ratio <= args.max_cost_ratio

    oracle_seeds = [int(s) for s in args.oracle_seeds.split(",") if s]
    oracle_reports = [run_oracle(seed, cases=args.oracle_cases)
                      for seed in oracle_seeds]
    oracle_ok = all(report.ok for report in oracle_reports)
    ok = validation.ok and covered and cost_ok and oracle_ok

    if args.as_json:
        payload = {
            "dataset": dataset.name,
            "seed": args.seed,
            "duration": args.duration,
            "transactions": executed,
            "witness_coverage": covered,
            "validation": validation.as_dict(),
            "oracle": [report.as_dict() for report in oracle_reports],
            "ok": ok,
        }
        print(canonical_json(payload))
    else:
        print(f"verify: {executed} txs / {len(node.reports)} blocks "
              f"(seed {args.seed})")
        print(f"  witness coverage: {len(node.witnesses)}/{executed} "
              f"{'OK' if covered else 'MISSING WITNESSES'}")
        print(f"  checker: {validation.constraints_checked} constraints "
              f"replayed, {validation.deltas_applied} deltas applied, "
              f"roots matched {validation.roots_matched}/"
              f"{validation.blocks_checked}")
        print(f"  checker cost: {validation.checker_cost_units:,} of "
              f"{validation.original_cost_units:,} execution units "
              f"({validation.cost_ratio():.2%} overall, "
              f"{spec_ratio:.2%} on the "
              f"{validation.speculative_witnesses} speculative txs; "
              f"bound {args.max_cost_ratio:.0%} "
              f"{'OK' if cost_ok else 'EXCEEDED'})")
        for failure in validation.failures[:10]:
            print(f"  FAILURE {failure.as_dict()}")
        for report in oracle_reports:
            cats = "/".join(f"{k}:{v}" for k, v in
                            sorted(report.by_category.items()))
            print(f"  oracle seed {report.seed}: {report.cases} cases "
                  f"({cats}), jit {report.jit_compiled} compiled / "
                  f"{report.jit_aborts} aborted, "
                  f"{report.evm_cross_checks} interpreter cross-checks, "
                  f"{len(report.divergences)} divergences")
            for divergence in report.divergences[:5]:
                print(f"    DIVERGENCE {canonical_json(divergence)}")
        print(f"  result: {'OK' if ok else 'FAILED'}")
    if args.witness_out:
        written = export_witness_jsonl(
            args.witness_out, node.witnesses,
            meta={"dataset": dataset.name, "seed": args.seed,
                  "duration": args.duration})
        if not args.as_json:
            print(f"  wrote {written} witness lines -> "
                  f"{args.witness_out}")
    return 0 if ok else 1


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.bench.history import simulate_block_history

    points = simulate_block_history(args.months)
    print(f"{'month':>5}  {'gas limit':>12}  {'gas used':>12}  util")
    for point in points[::args.step]:
        print(f"{point.month:>5}  {point.gas_limit:>11,.0f}k "
              f"{point.gas_used:>12,.0f}k  "
              f"{point.gas_used / point.gas_limit:>4.0%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Forerunner (SOSP 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run the DiCE evaluation end to end")
    simulate.add_argument("--duration", type=float, default=150.0,
                          help="seconds of simulated traffic")
    simulate.add_argument("--seed", type=int, default=2021)
    simulate.set_defaults(func=_cmd_simulate)

    record = sub.add_parser(
        "record", help="record a traffic period to a JSON dataset")
    record.add_argument("--out", required=True)
    record.add_argument("--name", default="dataset")
    record.add_argument("--duration", type=float, default=120.0)
    record.add_argument("--seed", type=int, default=2021)
    record.set_defaults(func=_cmd_record)

    replay_cmd = sub.add_parser(
        "replay", help="replay a recorded dataset through the nodes")
    replay_cmd.add_argument("dataset", help="path to a recorded .json")
    replay_cmd.add_argument("--observer", default="live")
    replay_cmd.set_defaults(func=_cmd_replay)

    compile_cmd = sub.add_parser(
        "compile", help="compile a minisol source file")
    compile_cmd.add_argument("source", help="path to .sol-like source")
    compile_cmd.add_argument("--disassemble", action="store_true")
    compile_cmd.set_defaults(func=_cmd_compile)

    synthesize = sub.add_parser(
        "synthesize",
        help="print the AP synthesized for the paper's Tx_e")
    synthesize.add_argument("--timestamp", type=int, default=3990462)
    synthesize.add_argument(
        "--merged", action="store_true",
        help="print the FC1+FC4 merged AP tree (Figure 10)")
    synthesize.set_defaults(func=_cmd_synthesize)

    report = sub.add_parser(
        "report",
        help="replay a workload and print the obs stage breakdown")
    report.add_argument("--duration", type=float, default=60.0,
                        help="seconds of simulated traffic")
    report.add_argument("--seed", type=int, default=2021)
    report.add_argument("--observer", default="live")
    report.add_argument("--metrics", action="store_true",
                        help="print the deterministic metrics snapshot")
    report.add_argument("--sched", action="store_true",
                        help="print the scheduler section: admission "
                             "drop/defer counters and the lane what-if "
                             "(utilization, conflict/abort rates)")
    report.add_argument("--lanes", type=int, default=4,
                        help="lanes of the what-if --sched derives "
                             "offline from the committed blocks (the "
                             "node executes each block once, serially)")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as canonical JSON "
                             "(byte-identical for a given seed)")
    report.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the canonical JSONL trace here")
    report.set_defaults(func=_cmd_report)

    chaos = sub.add_parser(
        "chaos",
        help="replay a workload under a seeded fault plan and verify "
             "graceful degradation (state roots stay byte-identical)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (the chaos draw)")
    chaos.add_argument("--duration", type=float, default=30.0,
                       help="seconds of simulated traffic")
    chaos.add_argument("--workload-seed", type=int, default=2021,
                       help="traffic generator seed")
    chaos.add_argument("--observer", default="live")
    chaos.add_argument("--rate", type=float, default=None,
                       help="flat fault probability at every site "
                            "(default: a seeded random plan; for a "
                            "sweep, each site's rate in the site table, "
                            "docs/ROBUSTNESS.md)")
    chaos.add_argument("--max-rate", type=float, default=None,
                       help="per-site probability cap of the random plan "
                            "(default 0.3)")
    chaos.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the degradation report as canonical "
                            "JSON (byte-identical for a given seed)")
    chaos.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the faulted run's canonical JSONL "
                            "obs trace here")
    chaos.add_argument("--edge", action="store_true",
                       help="sweep the edge.* serving fault sites "
                            "instead (docs/EDGE.md): each site at "
                            "--rate through a serving "
                            "scenario, asserting node commitments are "
                            "byte-identical to the fault-free run")
    chaos.add_argument("--fleet", action="store_true",
                       help="sweep the fleet.* lifecycle/routing fault "
                            "sites instead (docs/FLEET.md): replica "
                            "crashes, torn handoffs, route flaps and "
                            "stale shard maps at --rate, "
                            "asserting each site fires, fleet "
                            "commitments stay byte-identical to the "
                            "fault-free run and to a same-seed rerun, "
                            "and the lease oracle holds; combine with "
                            "--net to sweep both families in one run")
    chaos.add_argument("--shards", type=int, default=4,
                       help="fleet replica count for --fleet / --net")
    chaos.add_argument("--net", action="store_true",
                       help="sweep the net.* wire-plane fault sites "
                            "(docs/FLEET.md): drops, duplicates, "
                            "reorders, delays and partitions at --rate "
                            "on every inter-replica "
                            "link, under the same assertions as "
                            "--fleet")
    chaos.set_defaults(func=_cmd_chaos, error=chaos.error)

    serve = sub.add_parser(
        "serve",
        help="run a seeded client load scenario against the JSON-RPC "
             "serving edge and print the canonical serving report "
             "(docs/EDGE.md)")
    serve.add_argument("--seed", type=int, default=0,
                       help="scenario seed (client arrival + jitter "
                            "streams)")
    serve.add_argument("--load", type=float, default=1.0,
                       help="offered-load multiplier (1.0 = calibrated "
                            "base rate; 5.0 = heavy overload)")
    serve.add_argument("--duration", type=float, default=30.0,
                       help="seconds of simulated traffic")
    serve.add_argument("--workload-seed", type=int, default=2021,
                       help="traffic generator seed")
    serve.add_argument("--observer", default="live")
    serve.add_argument("--clients", type=int, default=6,
                       help="simulated client count")
    serve.add_argument("--deadline-units", type=int, default=120_000,
                       help="per-request cost-unit deadline budget")
    serve.add_argument("--witness", action="store_true",
                       help="record execution witnesses and attach "
                            "digest/body to receipt and trace responses")
    serve.add_argument("--verify", action="store_true",
                       help="cross-check every fast-path eth_call "
                            "response against fresh plain execution "
                            "(the serving-equivalence oracle)")
    serve.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the canonical serving report JSON")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the byte-stable serving trace "
                            "(one canonical JSON line per frame)")
    serve.add_argument("--shards", type=int, default=None,
                       help="serve through an N-replica fleet (shard "
                            "map routing + per-replica edge servers; "
                            "docs/FLEET.md) instead of a single node")
    serve.add_argument("--net-profile", default=None,
                       choices=["clean", "lossy", "partition"],
                       help="network profile between the fleet's "
                            "replicas (requires --shards; default "
                            "clean): no faults, 1%% loss/duplication/"
                            "reorder, or periodic coordinator "
                            "partitions with lease re-election")
    serve.set_defaults(func=_cmd_serve)

    crash = sub.add_parser(
        "crash",
        help="kill the node at every durability boundary and verify "
             "restart replay converges byte-identically")
    crash.add_argument("--seed", type=int, default=0,
                       help="crash seed; doubles as the occurrence "
                            "index (seed N dies at each site's N-th "
                            "evaluation)")
    crash.add_argument("--points", default="all", metavar="SITES",
                       help="comma-separated recovery.* sites, or "
                            "'all' (the default) for the full matrix")
    crash.add_argument("--duration", type=float, default=6.0,
                       help="seconds of simulated traffic")
    crash.add_argument("--workload-seed", type=int, default=2021,
                       help="traffic generator seed")
    crash.add_argument("--block-interval", type=float, default=6.0,
                       help="mean simulated block interval (smaller = "
                            "more blocks = later crash points)")
    crash.add_argument("--observer", default="live")
    crash.add_argument("--snapshot-interval", type=int, default=1,
                       help="snapshot every N committed blocks "
                            "(0 disables snapshots)")
    crash.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the crash-recovery report as "
                            "canonical JSON (byte-identical for a "
                            "given seed; contains no paths)")
    crash.set_defaults(func=_cmd_crash)

    verify = sub.add_parser(
        "verify",
        help="replay a workload with witnesses on, re-derive every "
             "result by constraint replay + delta application (no "
             "re-execution), and run the differential conformance "
             "oracle")
    verify.add_argument("--duration", type=float, default=45.0,
                        help="seconds of simulated traffic")
    verify.add_argument("--seed", type=int, default=2021)
    verify.add_argument("--observer", default="live")
    verify.add_argument("--oracle-seeds", default="0,1,2",
                        metavar="S,S,...",
                        help="comma-separated conformance oracle seeds")
    verify.add_argument("--oracle-cases", type=int, default=200,
                        help="generated cases per oracle seed (the "
                             "directed edge cases always run first)")
    verify.add_argument("--max-cost-ratio", type=float, default=0.2,
                        help="maximum checker/execution cost-unit "
                             "ratio on the speculative (satisfied) "
                             "slice")
    verify.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the verification report as "
                             "canonical JSON (byte-identical for a "
                             "given seed)")
    verify.add_argument("--witness-out", default=None, metavar="PATH",
                        help="write the canonical witness JSONL "
                             "artifact here (two runs produce "
                             "byte-identical files)")
    verify.set_defaults(func=_cmd_verify)

    history = sub.add_parser(
        "history", help="print the Figure-2 saturation series")
    history.add_argument("--months", type=int, default=66)
    history.add_argument("--step", type=int, default=3)
    history.set_defaults(func=_cmd_history)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
