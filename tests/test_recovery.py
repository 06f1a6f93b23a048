"""Crash-recovery tests (:mod:`repro.recovery`).

Covers the journal (framing, torn-tail truncation, compaction, crash
kinds), the snapshot store (atomic install, pruning, corrupt-skip),
the durable replay harness (byte-identical to the plain emulator), the
full crash-point matrix (every ``recovery.*`` site at three seeds, each
recovered run's equivalence digest byte-identical to an uninterrupted
run), snapshot+journal-suffix restore, report determinism, and the
reorg journal hook — plus the satellite fixes (memo-table LRU bounds,
txpool requeue ordering, admission release on reorg).
"""

import os

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.consensus.packing import pack_block
from repro.contracts import pricefeed
from repro.core import speculator as speculator_module
from repro.core.chainsync import ChainManager
from repro.core.node import ForerunnerNode
from repro.errors import RecoveryError, SimulatedCrash
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.invariants import run_digest
from repro.faults.sites import (
    SITE_BLOCK_POST_COMMIT,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_TORN,
    SITE_SNAPSHOT_TORN,
    layer_sites,
)
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.recovery import (
    DurableReplay,
    JournalWriter,
    SnapshotStore,
    read_journal,
    run_with_recovery,
    truncate_torn_tail,
)
from repro.recovery import replay as recovery_replay
from repro.recovery.replay import recovery_report
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.state.world import WorldState
from repro.txpool.pool import TxPool
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB, FEED, ROUND

PF = pricefeed()

#: Snapshot every block: maximizes distinct crash-point placements the
#: seed-as-occurrence sweep can reach within a small dataset.
SNAPSHOT_INTERVAL = 1


@pytest.fixture(scope="module")
def dataset():
    return record_dataset(DatasetConfig(
        name="recovery-sweep",
        traffic=TrafficConfig(duration=6.0, seed=2021),
        mean_block_interval=6.0,
        observers={"live": LatencyModel()},
        seed=2021))


@pytest.fixture(scope="module")
def clean_run(dataset):
    return replay(dataset, "live")


@pytest.fixture(scope="module")
def clean_digest(clean_run):
    return canonical_json(run_digest(clean_run))


def make_injector(plan):
    return FaultInjector(plan, registry=MetricsRegistry())


# -- journal ------------------------------------------------------------------

class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path)
        writer.append("edge.accept", {"number": 1}, sync=True,
                      clock={"sim_time": 1.5})
        writer.append("tx_commit", {"tx": "0xab", "block": 1})
        writer.append("block_commit", {"number": 1}, sync=True)
        writer.close()
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0, 1, 2]
        assert [r.type for r in scan.records] == [
            "edge.accept", "tx_commit", "block_commit"]
        assert scan.records[0].clock == {"sim_time": 1.5}
        assert scan.records[1].data == {"tx": "0xab", "block": 1}
        assert scan.torn_bytes == 0
        assert scan.next_seq == 3

    def test_torn_garbage_tail_detected_and_truncated(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path)
        for i in range(3):
            writer.append("tx_commit", {"i": i})
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\x07garbage")
        scan = read_journal(path)
        assert len(scan.records) == 3
        assert scan.torn_bytes == 8
        assert truncate_torn_tail(path) == 8
        rescan = read_journal(path)
        assert len(rescan.records) == 3
        assert rescan.torn_bytes == 0

    def test_torn_half_frame_detected(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path)
        record = writer.append("tx_commit", {"i": 0})
        writer.close()
        frame = record.encode()
        with open(path, "ab") as handle:
            handle.write(frame[:len(frame) // 2])
        scan = read_journal(path)
        assert len(scan.records) == 1
        assert scan.torn_bytes == len(frame) // 2
        truncate_torn_tail(path)
        assert read_journal(path).torn_bytes == 0

    def test_appends_resume_after_truncation(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path)
        writer.append("tx_commit", {"i": 0})
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        truncate_torn_tail(path)
        scan = read_journal(path)
        writer = JournalWriter(path, next_seq=scan.next_seq)
        writer.append("tx_commit", {"i": 1})
        writer.close()
        assert [r.seq for r in read_journal(path).records] == [0, 1]

    def test_compaction_drops_superseded_prefix(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path)
        for i in range(10):
            writer.append("tx_commit", {"i": i})
        assert writer.compact(keep_from_seq=6) == 6
        # The writer survives the rename and keeps the sequence going.
        writer.append("tx_commit", {"i": 10})
        writer.close()
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [6, 7, 8, 9, 10]

    def test_crash_before_write_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(
            path, injector=make_injector(
                FaultPlan.single_shot(0, SITE_JOURNAL_APPEND, occurrence=1)))
        writer.append("tx_commit", {"i": 0})
        with pytest.raises(SimulatedCrash) as exc:
            writer.append("tx_commit", {"i": 1})
        writer.close()
        assert exc.value.site == SITE_JOURNAL_APPEND
        scan = read_journal(path)
        assert len(scan.records) == 1  # the doomed record never landed
        assert scan.torn_bytes == 0

    def test_torn_write_leaves_detectable_partial(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(
            path, injector=make_injector(
                FaultPlan.single_shot(0, SITE_JOURNAL_TORN, occurrence=1)))
        writer.append("tx_commit", {"i": 0})
        with pytest.raises(SimulatedCrash):
            writer.append("tx_commit", {"i": 1})
        writer.close()
        scan = read_journal(path)
        assert len(scan.records) == 1
        assert scan.torn_bytes > 0
        truncate_torn_tail(path)
        assert read_journal(path).torn_bytes == 0

    def test_bad_magic_is_a_hard_error(self, tmp_path):
        path = str(tmp_path / "not-a-journal")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a journal")
        with pytest.raises(RecoveryError):
            read_journal(path)


# -- snapshots ----------------------------------------------------------------

class TestSnapshotStore:
    def payload(self, block):
        return {"block_number": block, "value": block * 11}

    def test_roundtrip_and_latest(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(self.payload(1), 1)
        store.save(self.payload(3), 3)
        loaded, number = store.load_latest()
        assert number == 3
        assert loaded == self.payload(3)

    def test_prunes_to_keep(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"), keep=2)
        for block in (1, 2, 3, 4):
            store.save(self.payload(block), block)
        names = sorted(os.listdir(str(tmp_path / "snaps")))
        assert names == ["snap-00000003.bin", "snap-00000004.bin"]

    def test_corrupt_snapshot_skipped(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(self.payload(2), 2)
        with open(store.path_for(5), "wb") as handle:
            handle.write(b"REPROSNP1 but then garbage")
        loaded, number = store.load_latest()
        assert number == 2

    def test_torn_write_produces_skippable_corruption(self, tmp_path):
        directory = str(tmp_path / "snaps")
        store = SnapshotStore(directory)
        store.save(self.payload(2), 2)
        crashing = SnapshotStore(
            directory, injector=make_injector(
                FaultPlan.single_shot(0, SITE_SNAPSHOT_TORN)))
        with pytest.raises(SimulatedCrash):
            crashing.save(self.payload(3), 3)
        assert os.path.exists(store.path_for(3))  # partial, on disk
        loaded, number = store.load_latest()
        assert number == 2  # the torn victim is skipped

    def test_empty_store_loads_nothing(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        assert store.load_latest() is None


# -- durable replay -----------------------------------------------------------

class TestDurableReplay:
    def test_uncrashed_run_matches_emulator_digest(
            self, dataset, clean_digest, tmp_path):
        node = DurableReplay(dataset, str(tmp_path),
                             snapshot_interval=SNAPSHOT_INTERVAL)
        run = node.run()
        assert canonical_json(run_digest(run)) == clean_digest

    def test_journal_records_the_durable_event_stream(
            self, dataset, tmp_path):
        # Disable snapshots so compaction never trims the history.
        node = DurableReplay(dataset, str(tmp_path), snapshot_interval=0)
        run = node.run()
        scan = read_journal(str(tmp_path / "journal.wal"))
        types = {record.type for record in scan.records}
        # Only what a restart reads back.
        assert types == {"tx_commit", "block_commit"}
        commits = [r for r in scan.records if r.type == "block_commit"]
        assert len(commits) == run.blocks_executed
        # Records carry the deterministic cost-unit clock.
        assert commits[-1].clock["exec_cost"] > 0

    def test_snapshots_bound_the_journal(self, dataset, tmp_path):
        node = DurableReplay(dataset, str(tmp_path),
                             snapshot_interval=SNAPSHOT_INTERVAL)
        node.run()
        scan = read_journal(str(tmp_path / "journal.wal"))
        # The last block's snapshot compacted everything before it.
        snaps = os.listdir(str(tmp_path / "snapshots"))
        assert 0 < len(snaps) <= recovery_replay.KEEP_SNAPSHOTS
        commits = [r for r in scan.records if r.type == "block_commit"]
        assert len(commits) <= 1


# -- the crash matrix ---------------------------------------------------------

class TestCrashMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_site_converges_and_reports_are_byte_stable(
            self, dataset, clean_run, clean_digest, tmp_path, seed):
        first = recovery_report(dataset, str(tmp_path / "a"), seed=seed,
                                snapshot_interval=SNAPSHOT_INTERVAL,
                                clean_run=clean_run)
        again = recovery_report(dataset, str(tmp_path / "b"), seed=seed,
                                snapshot_interval=SNAPSHOT_INTERVAL,
                                clean_run=clean_run)
        # Same seed, fresh stores: byte-identical reports (CI diffs).
        assert canonical_json(first) == canonical_json(again)
        assert first["converged"]
        assert [entry["site"] for entry in first["sites"]] == \
            list(layer_sites("recovery"))
        for entry in first["sites"]:
            assert entry["fired"] == 1, entry["site"]
            assert entry["restarts"] == 1, entry["site"]
            assert entry["converged"], entry["site"]
            assert entry["crashes"][0]["site"] == entry["site"]

    def test_a_site_that_never_fires_fails_the_sweep(
            self, dataset, clean_run, tmp_path):
        """An occurrence past the run's last block commit never fires:
        the site is unexercised, and the sweep must not call that
        converged."""
        report = recovery_report(dataset, str(tmp_path), seed=10_000,
                                 sites=(SITE_BLOCK_POST_COMMIT,),
                                 snapshot_interval=SNAPSHOT_INTERVAL,
                                 clean_run=clean_run)
        [entry] = report["sites"]
        assert entry["fired"] == 0 and entry["restarts"] == 0
        assert entry["converged"]  # the digest alone matches trivially
        assert not report["converged"]

    def test_snapshot_plus_suffix_restore(self, dataset, clean_digest,
                                          tmp_path):
        """A late crash recovers from snapshot + journal suffix, not a
        cold start: restored blocks come from the snapshot, the block
        committed after it is re-driven and verified, and the digest is
        still byte-identical."""
        outcome = run_with_recovery(
            dataset, str(tmp_path),
            crash_plan=FaultPlan.single_shot(0, SITE_BLOCK_POST_COMMIT,
                                             occurrence=6),
            snapshot_interval=SNAPSHOT_INTERVAL)
        assert outcome.restarts == 1
        info = outcome.recoveries[0]
        assert info.blocks_restored > 0
        assert info.blocks_verified >= 1
        assert info.snapshot_block is not None
        assert canonical_json(run_digest(outcome.run)) == clean_digest

    def test_torn_tail_truncated_on_restart(self, dataset,
                                            clean_digest, tmp_path):
        outcome = run_with_recovery(
            dataset, str(tmp_path),
            crash_plan=FaultPlan.single_shot(0, SITE_JOURNAL_TORN,
                                             occurrence=3),
            snapshot_interval=SNAPSHOT_INTERVAL)
        assert outcome.recoveries[0].torn_bytes_truncated > 0
        assert canonical_json(run_digest(outcome.run)) == clean_digest

    def test_crash_loop_guard(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(recovery_replay, "MAX_RESTARTS", 0)
        with pytest.raises(RecoveryError):
            run_with_recovery(
                dataset, str(tmp_path),
                crash_plan=FaultPlan.single_shot(0, SITE_JOURNAL_APPEND),
                snapshot_interval=SNAPSHOT_INTERVAL)


# -- chain helpers ------------------------------------------------------------

def fresh_world():
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    return world


def submit_tx(sender, nonce, price):
    return Transaction(sender=sender, to=FEED,
                       data=PF.calldata("submit", ROUND, price),
                       nonce=nonce)


def make_block(parent, txs, ts_offset=13, coinbase=0xE0):
    header = BlockHeader(
        number=parent.number + 1,
        timestamp=parent.header.timestamp + ts_offset,
        coinbase=coinbase,
        parent_hash=parent.hash)
    return Block(header=header, transactions=txs)


def genesis_block():
    return Block(header=BlockHeader(number=0, timestamp=ROUND + 10,
                                    coinbase=0))


# -- satellite fixes ----------------------------------------------------------

class TestMemoTableBounds:
    def test_capacity_one_still_commits_identically(self, dataset,
                                                    clean_digest,
                                                    monkeypatch):
        """The memo table is pure acceleration: squeezing it to a
        single entry forces constant LRU eviction yet every committed
        root, receipt and Table 2/3 baseline column stays
        byte-identical."""
        monkeypatch.setattr(speculator_module, "MEMO_CAPACITY", 1)
        run = replay(dataset, "live")
        assert canonical_json(run_digest(run)) == clean_digest
        speculator = run.forerunner_node.speculator
        assert speculator.c_memo_evictions.value > 0
        assert len(speculator.aps) <= 1

    def test_default_capacity_never_evicts_here(self, clean_run):
        speculator = clean_run.forerunner_node.speculator
        assert speculator.c_memo_evictions.value == 0


class TestRequeueOrdering:
    def test_txpool_requeue_reenters_nonce_queue(self):
        pool = TxPool(registry=MetricsRegistry())
        tx0 = submit_tx(ALICE, 0, 2000)
        tx1 = submit_tx(ALICE, 1, 2000)
        pool.add(tx0, now=1.0)
        pool.add(tx1, now=2.0)
        removed = pool.remove(tx0.hash)
        assert removed is tx0
        # Nonce gap: 1 is stuck.
        assert pack_block(pool.pending(), {ALICE: 0}) == []
        assert pool.requeue(tx0, now=9.0)
        # Back in the nonce run, un-gapping the successor.
        assert pack_block(pool.pending(), {ALICE: 0}) == [tx0, tx1]
        assert pool.c_requeued.value == 1
        assert pool.arrival_times[tx0.hash] == 9.0

    def test_txpool_requeue_respects_replacement_rule(self):
        pool = TxPool(registry=MetricsRegistry())
        rich = Transaction(sender=ALICE, to=FEED,
                           data=PF.calldata("submit", ROUND, 2000),
                           nonce=0, gas_price=2_000_000_000)
        pool.add(rich)
        stale = submit_tx(ALICE, 0, 1500)  # default (lower) gas price
        assert not pool.requeue(stale)
        assert pool.c_requeued.value == 0
        assert rich.hash in pool

    def test_node_requeue_resets_speculation_accounting(self):
        node = ForerunnerNode(fresh_world())
        manager = ChainManager(node, genesis_block())
        tx = submit_tx(ALICE, 0, 2000)
        node.on_transaction(tx, now=1.0)
        manager.receive_block(
            make_block(manager.chain.genesis, [tx]), now=2.0)
        assert tx.hash in node.executed
        # Simulate stale accounting from the abandoned branch.
        node.admission.total_spec[tx.hash] = 3
        node.admission.spec_counts[(tx.hash, 1)] = 2
        node.first_context[tx.hash] = 7
        node.requeue(tx, now=99.0)
        assert tx.hash in node.pool
        assert node.pool[tx.hash][1] == 1.0  # original heard time
        assert tx.hash not in node.executed
        assert node.admission.total_spec.get(tx.hash) is None
        assert node.admission.spec_counts.get((tx.hash, 1)) is None
        assert tx.hash not in node.first_context
        assert node.speculator.get_ap(tx.hash) is None
