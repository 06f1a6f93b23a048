"""The one event loop's contract (:func:`repro.sim.emulator.drive`),
stated once against a fake system and a fake front — the seam exists so
a test can substitute them.  docs/PIPELINE.md ("Drivers") is the prose.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.edge import rpc
from repro.edge.clients import ScheduledRequest
from repro.edge.serve import ServingResult, run_serving
from repro.edge.server import RequestOutcome, RouteInfo
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, FaultPlan, FaultRule
from repro.faults.sites import SITE_STORM
from repro.fleet import FleetConfig, fleet_replay, run_fleet_serving
from repro.fleet.supervisor import FleetSupervisor
from repro.obs.registry import MetricsRegistry
from repro.sim.emulator import (
    STORM_COPIES,
    build_timeline,
    drive,
    replay,
)


class FakeSystem:
    """Logs every seam call; ``process_block`` may be told to raise."""

    def __init__(self, fail_on_block=None):
        self.log = []
        self.fail_on_block = fail_on_block
        self.closed = False

    def on_transaction(self, tx, now):
        self.log.append(("tx", now, tx.hash))

    def tick(self, now):
        self.log.append(("tick", now))

    def run_speculation(self, now):
        self.log.append(("speculate", now))
        return 1

    def process_block(self, block, now):
        if block.number == self.fail_on_block:
            raise SimulationError(f"root divergence at block {block.number}")
        self.log.append(("commit", now, block.number))
        return SimpleNamespace(block_number=block.number)

    def close(self):
        self.closed = True


class FakeFront:
    """Answers every frame with the next scripted JSON-RPC error code
    (``None`` = served; an exhausted script serves)."""

    config = SimpleNamespace(service_rate=1000.0)

    def __init__(self, system, codes=()):
        self.system = system
        self.codes = list(codes)
        self.frames = []
        self.closed = False

    def dispatch(self, raw, client_id, now, weight, deadline, attempt):
        code = self.codes.pop(0) if self.codes else None
        self.system.log.append(("request", now, attempt))
        self.frames.append((now, attempt, deadline))
        outcome = RequestOutcome(
            method="eth_call", client=client_id,
            status="served" if code is None else "rejected", code=code,
            latency_units=7, cost_units=7, cheap=True, stale=False,
            level=0, attempt=attempt)
        return {"id": 1}, outcome, RouteInfo()

    def on_block(self, block, report):
        self.system.log.append(("refresh", None, block.number))

    def close(self):
        self.closed = True


def tx(number):
    return SimpleNamespace(hash=number)


def fake_dataset(txs=(), blocks=()):
    return SimpleNamespace(
        name="fake", tx_arrivals={"live": list(txs)},
        blocks=[(at, SimpleNamespace(number=number))
                for at, number in blocks])


def request(at, req_id="r0", client_id=3):
    return ScheduledRequest(at=at, client_id=client_id, req_id=req_id,
                            method="eth_call", params=[], weight=1.0,
                            deadline_units=5000, raw="{}")


def gossip_injector(kind):
    return FaultInjector(
        FaultPlan(seed=0, rules=(FaultRule("gossip.deliver", kind),)),
        registry=MetricsRegistry())


def run_fake(dataset, requests=(), codes=(), **kwargs):
    system = FakeSystem()
    front = FakeFront(system, codes) if requests else None
    result = ServingResult("fake", offered=len(requests))
    drive(build_timeline(dataset, "live", requests), system, result,
          front=front, **kwargs)
    return system, front, result


# -- dispatch order --------------------------------------------------------


def test_equal_time_order_is_gossip_tick_block_request():
    dataset = fake_dataset(txs=[(2.0, tx(1))], blocks=[(2.0, 1), (5.0, 2)])
    system, _, _ = run_fake(dataset, [request(2.0)])
    at_two = [entry[0] for entry in system.log if entry[1] == 2.0]
    assert at_two == ["tx", "tick", "speculate",
                      "speculate", "commit", "request"]
    # The front is refreshed with the commit's report before any
    # request at that instant is dispatched.
    assert system.log.index(("refresh", None, 1)) < \
        system.log.index(("request", 2.0, 1))


def test_exactly_one_speculation_immediately_before_every_commit():
    dataset = fake_dataset(blocks=[(0.5, 1), (3.0, 2), (3.0, 3)])
    system, _, result = run_fake(dataset)
    commits = [i for i, entry in enumerate(system.log)
               if entry[0] == "commit"]
    assert len(commits) == 3
    for index in commits:
        assert system.log[index - 1] == ("speculate", system.log[index][1])
    # ...and no other: one per tick (t=2) + one per block, in total,
    # each returning one job from the fake.
    assert sum(entry[0] == "speculate" for entry in system.log) == 4
    assert result.speculation_jobs == 4


def test_ticks_run_to_the_later_of_last_block_and_last_request():
    def ticks(system):
        return [entry[1] for entry in system.log if entry[0] == "tick"]

    dataset = fake_dataset(blocks=[(5.0, 1)])
    assert ticks(run_fake(dataset)[0]) == [2.0, 4.0]
    system, _, _ = run_fake(dataset, [request(9.5)])
    assert ticks(system) == [2.0, 4.0, 6.0, 8.0]
    # Every tick is lifecycle first, speculation second.
    for index, entry in enumerate(system.log):
        if entry[0] == "tick":
            assert system.log[index + 1] == ("speculate", entry[1])


# -- the clients' side -----------------------------------------------------


def test_retry_refires_with_next_attempt_and_the_original_deadline():
    dataset = fake_dataset(blocks=[(1.0, 1)])
    _, front, result = run_fake(dataset, [request(0.5)],
                                codes=[rpc.OVERLOADED, rpc.RATE_LIMITED])
    assert [attempt for _, attempt, _ in front.frames] == [1, 2, 3]
    times = [now for now, _, _ in front.frames]
    assert times == sorted(times) and times[0] < times[1] < times[2]
    deadlines = [deadline for _, _, deadline in front.frames]
    assert deadlines[0] is deadlines[1] is deadlines[2]
    assert deadlines[0].expires_at == 0.5 + 5000 / 1000.0
    assert result.retries_scheduled == 2
    assert result.final_status == {(3, "r0"): "served"}
    assert result.good == 1 and result.served_latencies == [7]
    assert len(result.trace_lines) == len(result.routes) == 3


def test_permanent_rejection_is_not_retried():
    dataset = fake_dataset(blocks=[(1.0, 1)])
    _, front, result = run_fake(dataset, [request(0.5)],
                                codes=[rpc.INVALID_PARAMS])
    assert len(front.frames) == 1
    assert result.retries_scheduled == 0 and result.good == 0


def test_storm_copies_are_traced_but_never_resolve_or_retry():
    injector = FaultInjector(
        FaultPlan.uniform(0, 1.0, sites=(SITE_STORM,)),
        registry=MetricsRegistry())
    # Every copy is refused with a retryable code; only the original —
    # dispatched last, at the same instant — is served.
    _, front, result = run_fake(
        fake_dataset(blocks=[(1.0, 1)]), [request(0.5)],
        codes=[rpc.OVERLOADED] * STORM_COPIES, injector=injector)
    assert result.storm_copies == STORM_COPIES
    assert len(front.frames) == len(result.trace_lines) == STORM_COPIES + 1
    assert {now for now, _, _ in front.frames} == {0.5}
    assert result.retries_scheduled == 0
    assert result.final_status == {(3, "r0"): "served"}
    copies = [line for line in result.trace_lines if '"copy":true' in line]
    assert len(copies) == STORM_COPIES


# -- gossip.deliver --------------------------------------------------------


def heard(system):
    return [(entry[1], entry[2]) for entry in system.log
            if entry[0] == "tx"]


def test_gossip_drop_duplicate_reorder():
    dataset = fake_dataset(txs=[(1.0, tx(1)), (1.5, tx(2))],
                           blocks=[(3.0, 1)])
    assert heard(run_fake(dataset)[0]) == [(1.0, 1), (1.5, 2)]
    dropped, _, _ = run_fake(dataset, injector=gossip_injector("drop"))
    assert heard(dropped) == []
    doubled, _, _ = run_fake(dataset,
                             injector=gossip_injector("duplicate"))
    assert heard(doubled) == [(1.0, 1), (1.0, 1), (1.5, 2), (1.5, 2)]


def test_full_rate_reorder_delays_once_and_terminates():
    dataset = fake_dataset(txs=[(1.0, tx(1)), (1.5, tx(2))],
                           blocks=[(3.0, 1)])
    system, _, _ = run_fake(dataset, injector=gossip_injector("reorder"))
    # Redeliveries are never re-evaluated: each tx arrives exactly
    # once, 6 s (the default reorder delay) late — after the block.
    assert heard(system) == [(7.0, 1), (7.5, 2)]
    assert system.log.index(("commit", 3.0, 1)) < \
        system.log.index(("tx", 7.0, 1))


# -- failures --------------------------------------------------------------


def test_system_and_front_are_closed_when_a_commit_raises():
    system = FakeSystem(fail_on_block=2)
    front = FakeFront(system)
    dataset = fake_dataset(blocks=[(1.0, 1), (2.0, 2), (3.0, 3)])
    with pytest.raises(SimulationError, match="block 2"):
        drive(build_timeline(dataset, "live", [request(0.5)]), system,
              ServingResult("fake"), front=front)
    assert system.closed and front.closed
    assert [entry[2] for entry in system.log
            if entry[0] == "commit"] == [1]


@pytest.fixture(scope="module")
def dataset():
    from repro.p2p.latency import LatencyModel
    from repro.sim.recorder import DatasetConfig, record_dataset
    from repro.workloads.mixed import TrafficConfig

    return record_dataset(DatasetConfig(
        name="driver", traffic=TrafficConfig(duration=8.0, seed=13),
        observers={"live": LatencyModel()}, seed=13))


def test_fleet_journals_are_closed_when_the_run_diverges(
        dataset, tmp_path, monkeypatch):
    """A root divergence mid-run must not leak the per-shard journals
    (before the one loop, only the happy path closed them)."""
    closed = []
    real_close = FleetSupervisor.close

    def close(self):
        real_close(self)
        closed.append([replica.journal
                       for replica in self.replicas.values()])

    def diverge(self, block, now=0.0):
        raise SimulationError("root divergence (injected)")

    monkeypatch.setattr(FleetSupervisor, "close", close)
    monkeypatch.setattr(FleetSupervisor, "process_block", diverge)
    with pytest.raises(SimulationError, match="injected"):
        fleet_replay(dataset, config=FleetConfig(
            shards=2, journal_dir=str(tmp_path)))
    assert closed == [[None, None]]


ENTRY_POINTS = {
    "replay": lambda dataset: replay(dataset, "typo"),
    "fleet_replay": lambda dataset: fleet_replay(dataset, "typo"),
    "run_serving": lambda dataset: run_serving(
        dataset, [], observer="typo"),
    "run_fleet_serving": lambda dataset: run_fleet_serving(
        dataset, [], observer="typo"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_observer_is_refused_by_every_entry_point(entry, dataset):
    """Used to replay an all-unheard run without complaint on three of
    the four (``dataset.tx_arrivals.get(observer, [])``)."""
    with pytest.raises(SimulationError, match=r"no observer 'typo'.*live"):
        ENTRY_POINTS[entry](dataset)
