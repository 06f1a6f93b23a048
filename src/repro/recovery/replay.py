"""Durable replay with restart-replay convergence.

:class:`DurableReplay` is the emulator's replay
(:func:`repro.sim.emulator.replay`: the same event loop, the same
evaluating commit step) with that step inside a durability boundary:
each transaction commit streams into the WAL, each block commit is
journaled (fsync'd) after it, and a snapshot of the full node state —
both worlds, both node caches, the txpool, the committed reports — is
atomically installed every ``snapshot_interval`` blocks, after which
the journal is compacted to the snapshot's sequence number.  The
journal holds only what :meth:`DurableReplay._restore` reads back:
``tx_commit`` and ``block_commit`` records.

Because the event timeline is deterministic (tx arrivals, speculation
ticks and block arrivals popped in ``(time, priority, insertion)``
order), resumption is a cursor: a snapshot pins how many events were
consumed, and recovery skips that many and replays the rest.  Blocks
whose ``block_commit`` record survived the crash are **re-driven and
verified**: the recovered node must reproduce the journaled state root
and receipts byte-for-byte or :class:`repro.errors.RecoveryError` is
raised.  Blocks past the journal's horizon are fresh.

The convergence bar (checked by :func:`recovery_report` and the
``repro crash`` CLI) is the strongest one available: the equivalence
digest (:func:`repro.faults.invariants.run_digest`) of the
crashed-and-recovered run must be byte-identical to an *uninterrupted*
:func:`~repro.sim.emulator.replay` of the same dataset — committed
roots, receipts, and the Table 2/3 baseline columns included.  The
baseline columns are the subtle part: per-transaction baseline cost
depends on cross-block :class:`~repro.state.nodecache.NodeCache`
warmth, which is why snapshots carry both nodes' warm-key lists in LRU
order.

Speculation capital (APs, memo table, prefix cache, dedup
index) is *derived* state: it is never journaled or
snapshotted — the recovered node re-runs speculation for in-flight
heads from the restored txpool, exactly as the paper's node would
re-speculate after a restart.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.transaction import tx_from_wire, tx_to_wire
from repro.core.node import (
    BaselineNode,
    BlockReport,
    ForerunnerConfig,
    ForerunnerNode,
    TxRecord,
)
from repro.errors import RecoveryError, SimulatedCrash
from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    sweep_plans,
)
from repro.faults.invariants import block_digest, digest_bytes
from repro.faults.sites import (
    LAYER_RECOVERY,
    SITE_BLOCK_POST_COMMIT,
    SITE_BLOCK_PRE_COMMIT,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NullTracer, SpanTracer
from repro.recovery.journal import (
    JournalWriter,
    read_journal,
    truncate_torn_tail,
)
from repro.recovery.snapshot import SnapshotStore
from repro.sim.emulator import (
    EvaluationRun,
    JoinedRecord,
    build_timeline,
    commitments,
    drive,
    evaluation_step,
    replay,
)
from repro.sim.storage import world_from_json, world_to_json


#: Newest snapshots retained on disk.
KEEP_SNAPSHOTS = 2
#: Give up after this many restart attempts (a crash-loop guard;
#: single-shot crash plans need exactly one).
MAX_RESTARTS = 5


@dataclass
class RecoveryInfo:
    """What one restart found and rebuilt."""

    torn_bytes_truncated: int = 0
    snapshot_block: Optional[int] = None
    journal_records: int = 0
    blocks_restored: int = 0
    blocks_verified: int = 0
    blocks_fresh: int = 0
    #: ``tx_commit`` records whose block never reached ``block_commit``
    #: (the crash landed mid-block; those effects were never durable).
    incomplete_tx_commits: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RecoveryOutcome:
    """One workload survived (or not) a crash plan."""

    run: EvaluationRun
    crashes: List[dict] = field(default_factory=list)
    restarts: int = 0
    recoveries: List[RecoveryInfo] = field(default_factory=list)
    #: ``faults.site.*`` summary of the injector that caused the crash.
    fire_summary: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _cache_to_json(cache) -> dict:
    return {"keys": [list(key) for key in cache.warm_keys()],
            "hits": cache.hits, "misses": cache.misses}


def _cache_from_json(cache, payload: dict) -> None:
    cache.restore([tuple(key) for key in payload["keys"]],
                  hits=int(payload["hits"]),
                  misses=int(payload["misses"]))


def _report_to_json(report: BlockReport) -> dict:
    return {"block_number": report.block_number,
            "state_root": report.state_root,
            "records": [dataclasses.asdict(r) for r in report.records]}


def _report_from_json(payload: dict) -> BlockReport:
    return BlockReport(
        block_number=int(payload["block_number"]),
        state_root=int(payload["state_root"]),
        records=[TxRecord(**r) for r in payload["records"]])


class DurableReplay:
    """One process lifetime of a durable evaluation node.

    ``resume=False`` starts a fresh store (journal truncated to a new
    magic header, snapshots untouched but superseded); ``resume=True``
    models a process restart: truncate the journal's torn tail, load
    the newest intact snapshot, rebuild both nodes, and continue the
    event timeline from the snapshot's cursor, verifying every
    journal-committed block it re-drives.

    A snapshot is installed every ``snapshot_interval`` committed
    blocks (0 disables snapshots; the journal then carries the whole
    history).
    """

    def __init__(self, dataset, store_dir: str, observer: str = "live",
                 config: Optional[ForerunnerConfig] = None,
                 snapshot_interval: int = 2,
                 crash_plan=None, resume: bool = False) -> None:
        self.dataset = dataset
        self.observer = observer
        self.config = config or ForerunnerConfig()
        self.snapshot_interval = snapshot_interval
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(self.registry) \
            if self.config.enable_obs else NullTracer()
        if crash_plan is not None:
            self.injector = FaultInjector(crash_plan,
                                          registry=self.registry)
        else:
            self.injector = NULL_INJECTOR
        obs = self.registry.scope("recovery")
        self._obs = obs
        self.c_restores = obs.counter("restores")
        self.c_blocks_restored = obs.counter("blocks_restored")
        self.c_blocks_verified = obs.counter("blocks_verified")
        self.c_blocks_fresh = obs.counter("blocks_fresh")
        self.c_torn_truncated = obs.counter("journal.torn_bytes_truncated")
        #: ``timeline.popped`` (events consumed) is the resumption
        #: cursor snapshots and ``block_commit`` records carry.
        self.timeline = build_timeline(dataset, observer)
        self.info = RecoveryInfo()
        #: block number -> journaled commit payload to verify against.
        self._verify: Dict[int, dict] = {}
        journal_path = os.path.join(store_dir, "journal.wal")
        self.snapshots = SnapshotStore(
            os.path.join(store_dir, "snapshots"),
            injector=self.injector, obs=obs,
            keep=KEEP_SNAPSHOTS)
        self.run_ = EvaluationRun(
            dataset_name=dataset.name, observer=observer,
            registry=self.registry, tracer=self.tracer,
            fault_injector=self.injector if self.injector.enabled
            else None)
        next_seq = 0
        if resume:
            next_seq = self._restore(journal_path)
        else:
            if os.path.exists(journal_path):
                os.remove(journal_path)
            self._fresh_nodes()
        self.journal = JournalWriter(journal_path,
                                     injector=self.injector,
                                     obs=obs, next_seq=next_seq)
        self.run_.forerunner_node = self.forerunner
        self._evaluate = evaluation_step(
            self.run_, self.baseline, self.forerunner, dataset.kinds)

    # -- node construction / restore --------------------------------------

    def _fresh_nodes(self) -> None:
        self.baseline = BaselineNode(self.dataset.genesis_world.copy(),
                                     registry=self.registry)
        self.forerunner = ForerunnerNode(
            self.dataset.genesis_world.copy(), self.config,
            registry=self.registry, tracer=self.tracer)
        self.forerunner.predictor.observe_block(
            self.dataset.genesis_block)

    def _restore(self, journal_path: str) -> int:
        """Truncate, scan, load, rebuild.  Returns the next journal
        sequence number for the re-opened writer."""
        self.c_restores.inc()
        if not os.path.exists(journal_path):
            # Crashed before the journal was even created: cold start.
            self._fresh_nodes()
            return 0
        self.info.torn_bytes_truncated = truncate_torn_tail(journal_path)
        self.c_torn_truncated.inc(self.info.torn_bytes_truncated)
        scan = read_journal(journal_path)
        self.info.journal_records = len(scan.records)
        loaded = self.snapshots.load_latest()
        base_seq = -1
        if loaded is not None:
            payload, block_number = loaded
            self._restore_from_snapshot(payload)
            self.info.snapshot_block = block_number
            base_seq = int(payload["journal_seq"])
        else:
            self._fresh_nodes()
        committed: Dict[int, dict] = {}
        tx_commit_blocks: List[int] = []
        for record in scan.records:
            if record.seq <= base_seq:
                continue
            if record.type == "block_commit":
                committed[int(record.data["number"])] = record.data
            elif record.type == "tx_commit":
                tx_commit_blocks.append(int(record.data["block"]))
        self._verify = committed
        self.info.incomplete_tx_commits = sum(
            1 for number in tx_commit_blocks if number not in committed)
        self.info.blocks_restored = len(self.forerunner.reports)
        self.c_blocks_restored.inc(self.info.blocks_restored)
        return scan.next_seq

    def _restore_from_snapshot(self, payload: dict) -> None:
        if payload.get("format") != 2:
            raise RecoveryError(
                f"unknown snapshot format {payload.get('format')!r}")
        if payload["dataset"] != self.dataset.name \
                or payload["observer"] != self.observer:
            raise RecoveryError(
                "snapshot belongs to a different dataset/observer")
        base = payload["baseline"]
        self.baseline = BaselineNode(world_from_json(base["world"]),
                                     registry=self.registry)
        _cache_from_json(self.baseline.node_cache, base["cache"])
        fore = payload["forerunner"]
        self.forerunner = ForerunnerNode(
            world_from_json(fore["world"]), self.config,
            registry=self.registry, tracer=self.tracer)
        _cache_from_json(self.forerunner.node_cache, fore["cache"])
        self.forerunner.predictor.observe_block(
            self.dataset.genesis_block)
        self.forerunner.head_number = int(fore["head_number"])
        for tx_json, heard_time in fore["pool"]:
            tx = tx_from_wire(tx_json)
            self.forerunner.pool[tx.hash] = (tx, float(heard_time))
        self.forerunner.heard = {
            int(tx_hash, 16): float(when)
            for tx_hash, when in fore["heard"]}
        self.forerunner.executed = {
            int(tx_hash, 16) for tx_hash in fore["executed"]}
        self.forerunner._pool_version = len(self.forerunner.pool) + 1
        self.forerunner.reports = [
            _report_from_json(entry) for entry in fore["reports"]]
        self.timeline.skip(int(payload["event_cursor"]))
        self.run_.records = [
            JoinedRecord(**entry) for entry in payload["records"]]
        self.run_.blocks_executed = int(payload["blocks_executed"])
        self.run_.roots_matched = int(payload["roots_matched"])
        self.run_.speculation_jobs = int(payload["speculation_jobs"])

    # -- capture -----------------------------------------------------------

    def _capture(self, block_number: int) -> dict:
        fore = self.forerunner
        pool = sorted(fore.pool.items())
        return {
            "format": 2,
            "dataset": self.dataset.name,
            "observer": self.observer,
            "block_number": block_number,
            "event_cursor": self.timeline.popped,
            "journal_seq": self.journal.next_seq - 1,
            "blocks_executed": self.run_.blocks_executed,
            "roots_matched": self.run_.roots_matched,
            "speculation_jobs": self.run_.speculation_jobs,
            "baseline": {
                "world": world_to_json(self.baseline.world),
                "cache": _cache_to_json(self.baseline.node_cache),
            },
            "forerunner": {
                "world": world_to_json(fore.world),
                "cache": _cache_to_json(fore.node_cache),
                "head_number": fore.head_number,
                "pool": [[dict(tx_to_wire(tx), origin_miner=tx.origin_miner),
                          heard]
                         for _, (tx, heard) in pool],
                "heard": [[f"{tx_hash:#x}", when] for tx_hash, when
                          in sorted(fore.heard.items())],
                "executed": [f"{tx_hash:#x}"
                             for tx_hash in sorted(fore.executed)],
                "reports": [_report_to_json(r) for r in fore.reports],
            },
            "records": [dataclasses.asdict(r)
                        for r in self.run_.records],
        }

    # -- journal clock -----------------------------------------------------

    def _clock(self) -> dict:
        return {
            "exec_cost": int(self.forerunner.c_cost.value),
            "spec_cost": int(
                self.forerunner.speculator.c_logical_cost.value),
            "sim_time": round(self.timeline.now, 6),
        }

    # -- the run -----------------------------------------------------------

    def run(self) -> EvaluationRun:
        """Consume the timeline from the cursor; returns the run.

        Raises :class:`SimulatedCrash` when the crash plan fires (the
        journal/snapshot store is left exactly as the dying process
        would leave it) and :class:`RecoveryError` when a re-driven
        block fails to reproduce its journaled commit."""
        fore = self.forerunner
        try:
            drive(self.timeline, fore, self.run_,
                  commit=self._process_block)
        finally:
            self.journal.close()
        self.run_.total_speculation_cost = \
            fore.speculator.c_actual_cost.value
        self.run_.prefetch_offpath_cost = \
            fore.prefetcher.c_offpath_cost.value
        return self.run_

    def _process_block(self, block, now: float) -> BlockReport:
        """The evaluating commit step inside its journal writes and
        crash points."""
        self.injector.maybe_crash(SITE_BLOCK_PRE_COMMIT, block=block.number)
        joined_before = len(self.run_.records)
        report = self._evaluate(block, now)
        clock = self._clock()
        for record, joined in zip(report.records,
                                  self.run_.records[joined_before:]):
            self.journal.append("tx_commit", {
                "tx": f"{record.tx_hash:#x}",
                "block": block.number,
                "gas_used": record.gas_used,
                "success": record.success,
                "baseline_cost": joined.baseline_cost,
                "baseline_cpu": joined.baseline_cpu,
                "baseline_io_units": joined.baseline_io_units,
                "baseline_io_reads": joined.baseline_io_reads,
            }, clock=clock)
        commit = dict(block_digest(commitments([report])[0]),
                      cursor=self.timeline.popped)
        self._check_against_journal(block.number, commit)
        self.journal.append("block_commit", commit, sync=True,
                            clock=self._clock())
        self.injector.maybe_crash(SITE_BLOCK_POST_COMMIT,
                                  block=block.number)
        interval = self.snapshot_interval
        if interval and block.number % interval == 0:
            payload = self._capture(block.number)
            self.snapshots.save(payload, block.number)
            self.journal.compact(
                keep_from_seq=int(payload["journal_seq"]) + 1)
        return report

    def _check_against_journal(self, number: int, commit: dict) -> None:
        """A re-driven block must reproduce its pre-crash commit."""
        expected = self._verify.get(number)
        if expected is None:
            self.info.blocks_fresh += 1
            self.c_blocks_fresh.inc()
            return
        for key in ("state_root", "receipts"):
            if expected[key] != commit[key]:
                raise RecoveryError(
                    f"restart replay diverged at block {number}: "
                    f"journaled {key} != recomputed {key}")
        self.info.blocks_verified += 1
        self.c_blocks_verified.inc()


def run_with_recovery(dataset, store_dir: str, crash_plan=None,
                      observer: str = "live",
                      config: Optional[ForerunnerConfig] = None,
                      snapshot_interval: int = 2) -> RecoveryOutcome:
    """Run durably under ``crash_plan``; on simulated death, restart
    and recover until the workload completes.

    Restarts run with **no plan**: the crash cause died with the
    process (and a restarted injector's per-site counts would re-fire a
    probability-1.0 rule forever otherwise).  :data:`MAX_RESTARTS`
    guards against a genuine crash loop."""
    outcome = RecoveryOutcome(run=None)
    while outcome.restarts <= MAX_RESTARTS:
        resume = outcome.restarts > 0
        node = DurableReplay(dataset, store_dir, observer=observer,
                             config=config,
                             snapshot_interval=snapshot_interval,
                             crash_plan=None if resume else crash_plan,
                             resume=resume)
        if resume:
            outcome.recoveries.append(node.info)
        try:
            outcome.run = node.run()
        except SimulatedCrash as crash:
            outcome.crashes.append({"site": crash.site, "seq": crash.seq})
            outcome.restarts += 1
        if not resume:
            outcome.fire_summary = node.injector.fire_summary()
        if outcome.run is not None:
            return outcome
    raise RecoveryError(
        f"crash loop: {MAX_RESTARTS} restarts exhausted "
        f"(crashes: {outcome.crashes})")


def recovery_report(dataset, store_root: str, seed: int = 0,
                    sites=None, observer: str = "live",
                    config: Optional[ForerunnerConfig] = None,
                    snapshot_interval: int = 2,
                    clean_run=None) -> dict:
    """Crash-matrix sweep: one single-shot crash per site, each run
    recovered and its equivalence digest compared byte-for-byte to an
    uninterrupted emulator replay.

    ``seed`` doubles as the crash *occurrence*: seed 0 dies at each
    site's first evaluation, seed 1 at its second, and so on — so a
    three-seed CI sweep covers early, mid and late crashes at every
    durability boundary.  The report's ``converged`` holds only when
    every site fired *and* its recovered digest matched: an occurrence
    past the run's last evaluation of a site is a failed sweep, not a
    trivial pass.  The returned payload is canonical-JSON-ready
    and contains no paths or timestamps: two runs of the same seed are
    byte-identical (CI diffs them).
    """
    if clean_run is None:
        clean_run = replay(dataset, observer, config=config)
    clean = digest_bytes(clean_run)
    entries = []
    plans = dict(sweep_plans(LAYER_RECOVERY, seed))
    chosen = [(site, plans[site]) for site in sites or plans]
    all_ok = True
    for index, (site, plan) in enumerate(chosen):
        store_dir = os.path.join(store_root, f"crash-{index:02d}")
        outcome = run_with_recovery(
            dataset, store_dir, crash_plan=plan, observer=observer,
            config=config, snapshot_interval=snapshot_interval)
        converged = digest_bytes(outcome.run) == clean
        fired = sum(entry["fired"]
                    for entry in outcome.fire_summary.values())
        # A plan that never fired proves nothing about its site.
        all_ok &= converged and fired > 0
        entries.append({
            "site": site,
            "fired": fired,
            "crashes": outcome.crashes,
            "restarts": outcome.restarts,
            "converged": converged,
            "recoveries": [info.as_dict()
                           for info in outcome.recoveries],
        })
    return {
        "dataset": dataset.name,
        "observer": observer,
        "seed": seed,
        "converged": all_ok,
        "clean_digest_sha": hashlib.sha256(clean).hexdigest(),
        "sites": entries,
    }
