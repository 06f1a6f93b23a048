"""Fleet chaos containment (``fleet.*`` fault sites).

Replica crashes, torn handoffs, route flaps, and stale shard maps may
cost latency, lose cache warmth, or change which replica serves a
frame — they must never change the fleet's commitments.  Every test
compares merged Merkle roots and receipt cores against the fault-free
run; the crash tests additionally check the restarted replica's
restart-replay convergence (the supervisor cross-checks every live
replica's root each block and raises on divergence).
"""

from __future__ import annotations

import pytest

import repro.fleet.supervisor as supervisor_module
from repro.edge import ScenarioConfig, build_scenario
from repro.faults.injector import FaultPlan, sweep_plans
from repro.faults.sites import (
    SITE_HANDOFF_TORN,
    SITE_REPLICA_CRASH,
    SITE_ROUTE_FLAP,
    SITE_STALE_SHARDMAP,
)
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    fleet_replay,
    run_fleet_serving,
)
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

#: The ``fleet`` layer's per-site sweep at a hot rate: site -> plan
#: (membership-window sites arrive paired with their driver site).
FLEET_SWEEP = dict(sweep_plans("fleet", seed=0, rate=0.25))
#: Which harness fires each row: a replay, or the serving path.
LIFECYCLE_SITES = (SITE_REPLICA_CRASH, SITE_HANDOFF_TORN)
ROUTING_SITES = (SITE_ROUTE_FLAP, SITE_STALE_SHARDMAP)
assert set(LIFECYCLE_SITES + ROUTING_SITES) == set(FLEET_SWEEP), \
    "a new fleet.* row needs a harness here"


@pytest.fixture(scope="module")
def chaos_dataset():
    return record_dataset(DatasetConfig(
        name="fleet-chaos",
        traffic=TrafficConfig(duration=30.0, seed=13),
        observers={"live": LatencyModel()}, seed=13))


@pytest.fixture(scope="module")
def clean_commitments(chaos_dataset):
    return replay(chaos_dataset, "live").commitments()


@pytest.mark.parametrize("site", LIFECYCLE_SITES)
def test_lifecycle_site_containment(site, chaos_dataset,
                                    clean_commitments):
    """Lifecycle sites fired at a hot rate through a replay:
    commitments byte-identical to the single-node fault-free run."""
    run = fleet_replay(chaos_dataset, "live",
                       FleetConfig(shards=4, fault_plan=FLEET_SWEEP[site]))
    assert run.supervisor.injector.fired(site) > 0, \
        f"{site} never fired: containment test is vacuous"
    assert run.roots_matched == run.blocks_executed
    assert run.commitments() == clean_commitments


@pytest.mark.parametrize("site", ROUTING_SITES)
def test_routing_site_containment(site, chaos_dataset):
    """Routing sites fire on the serving path: misroutes and
    stale-generation placements cost hops/latency, never commitments
    or goodput collapse."""
    scenario = build_scenario(chaos_dataset,
                              ScenarioConfig(seed=0, load=2.0))
    clean = run_fleet_serving(chaos_dataset, scenario,
                              fleet_config=FleetConfig(shards=4))
    faulted = run_fleet_serving(
        chaos_dataset, scenario,
        fleet_config=FleetConfig(shards=4, fault_plan=FLEET_SWEEP[site]))
    assert faulted.supervisor.injector.fired(site) > 0, \
        f"{site} never fired: containment test is vacuous"
    assert faulted.commitments() == clean.commitments()
    if site == SITE_ROUTE_FLAP:
        assert faulted.router.c_flaps.value > 0
        # Flapped requests paid the forwarding penalty.
        flapped = [r for r in faulted.routes if r.hops > 1]
        assert flapped and all(r.penalty_units > 0 for r in flapped)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_crash_restart_converges_across_seeds(seed, chaos_dataset,
                                              clean_commitments):
    """Seeds 0-2 of sustained crash chaos: every restarted replica
    replays the supervisor's block store and converges
    byte-for-byte (the per-block root cross-check would raise on any
    divergence)."""
    plan = FaultPlan.uniform(seed, 0.3, sites=(SITE_REPLICA_CRASH,))
    run = fleet_replay(chaos_dataset, "live",
                       FleetConfig(shards=4, fault_plan=plan))
    supervisor = run.supervisor
    assert supervisor.c_crashes.value > 0
    assert supervisor.c_restarts.value > 0
    assert run.commitments() == clean_commitments


def test_crash_chaos_is_deterministic(chaos_dataset):
    """Same chaos seed, same lifecycle: crash counts, generations and
    commitments agree between two runs."""
    plan = FaultPlan.uniform(1, 0.3, sites=(SITE_REPLICA_CRASH,))
    first = fleet_replay(chaos_dataset, "live",
                         FleetConfig(shards=4, fault_plan=plan))
    second = fleet_replay(chaos_dataset, "live",
                          FleetConfig(shards=4, fault_plan=plan))
    assert first.supervisor.c_crashes.value == \
        second.supervisor.c_crashes.value
    assert first.supervisor.shardmap.generation == \
        second.supervisor.shardmap.generation
    assert first.commitments() == second.commitments()


def test_torn_handoffs_are_repaired_from_journals(chaos_dataset,
                                                  clean_commitments):
    """Torn handoffs (withdrawn, never delivered) are repaired from
    the shard journals — no pending transaction is lost, and the
    commitments still match."""
    plan = FaultPlan.uniform(0, 0.5, sites=(SITE_REPLICA_CRASH,
                                            SITE_HANDOFF_TORN))
    run = fleet_replay(chaos_dataset, "live",
                       FleetConfig(shards=4, fault_plan=plan))
    supervisor = run.supervisor
    assert supervisor.shardpool.c_torn.value > 0, "no handoff torn"
    assert supervisor.c_torn_repaired.value > 0
    assert run.commitments() == clean_commitments


def test_torn_handoffs_are_repaired_from_journaled_shards(
        chaos_dataset, clean_commitments, tmp_path, monkeypatch):
    """With ``journal_dir`` set, torn handoffs are repaired from the
    shard journals — the accepted-tx logs, read back through
    ``recover_accepted`` — not from the supervisor's gossip memory:
    the torn hashes are hidden from ``seen`` while the repair runs,
    and the commitments still match the clean run."""
    scanned = []
    real_recover = supervisor_module.recover_accepted
    real_repair = FleetSupervisor._repair_torn

    def recover(path):
        scanned.append(path)
        return real_recover(path)

    def repair(self, hashes):
        hidden = {tx_hash: self.seen.pop(tx_hash) for tx_hash in hashes
                  if tx_hash in self.seen}
        try:
            real_repair(self, hashes)
        finally:
            self.seen.update(hidden)

    monkeypatch.setattr(supervisor_module, "recover_accepted", recover)
    monkeypatch.setattr(FleetSupervisor, "_repair_torn", repair)
    plan = FaultPlan.uniform(0, 0.5, sites=(SITE_REPLICA_CRASH,
                                            SITE_HANDOFF_TORN))
    run = fleet_replay(chaos_dataset, "live", FleetConfig(
        shards=4, fault_plan=plan, journal_dir=str(tmp_path)))
    supervisor = run.supervisor
    assert supervisor.shardpool.c_torn.value > 0, "no handoff torn"
    # ``seen`` was hidden: every repair came out of a shard journal.
    assert supervisor.c_torn_repaired.value > 0
    assert set(scanned) == {
        replica.journal_path for replica in supervisor.replicas.values()}
    assert run.commitments() == clean_commitments
