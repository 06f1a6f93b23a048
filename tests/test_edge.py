"""Serving edge: deadlines, backpressure, brownout, durability, and
serving determinism (docs/EDGE.md)."""

from __future__ import annotations

import pytest

from repro.chain.transaction import Transaction
from repro.core.node import ForerunnerConfig, ForerunnerNode
from repro.edge import (
    AcceptedTxLog,
    BrownoutController,
    Bulkhead,
    Deadline,
    EdgeConfig,
    EdgeServer,
    RetryBudget,
    RetryConfig,
    ScenarioConfig,
    TokenBucket,
    build_scenario,
    recover_accepted,
    restore_pool,
    run_serving,
)
from repro.edge import brownout, rpc
from repro.edge import server as server_module
from repro.edge.brownout import LEVEL_DEGRADED, LEVEL_FULL, LEVEL_SHED
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sched.admission import AdmissionController, SpeculationRequest
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.state.world import WorldState
from repro.witness.format import witness_digest
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, BOB, make_tx


# -- primitives --------------------------------------------------------------


def test_token_bucket_refill():
    bucket = TokenBucket(capacity=2.0, refill_per_second=1.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    assert bucket.try_take(1.0)  # one token refilled
    assert not bucket.try_take(1.0)


def test_bulkhead_deterministic_queueing():
    bulkhead = Bulkhead("m", capacity=2, service_rate=1000.0)
    start, finish = bulkhead.occupy(0.0, 500)
    assert (start, finish) == (0.0, 0.5)
    start, finish = bulkhead.occupy(0.0, 500)
    assert (start, finish) == (0.5, 1.0)  # queued behind the first
    assert bulkhead.depth(0.0) == 2
    assert not bulkhead.has_room(0.0)
    assert bulkhead.has_room(0.6)  # first finished at 0.5
    assert bulkhead.depth(2.0) == 0


def test_deadline_budget_translation():
    deadline = Deadline.from_budget(10.0, 5000, service_rate=1000.0)
    assert deadline.expires_at == 15.0
    assert not deadline.expired(14.999)
    assert deadline.expired(15.0)


def test_retry_carries_original_deadline_and_is_seeded():
    config = RetryConfig(max_attempts=3, base_backoff_seconds=0.5)
    deadline = Deadline(expires_at=0.6, budget_units=1)
    budget_a = RetryBudget(config, seed=7)
    budget_b = RetryBudget(config, seed=7)
    # A retry that could only land after the original deadline is not
    # scheduled at all.
    assert budget_a.next_retry(1, 1, 0.2, deadline) is None
    # Same seed -> identical jitter draws, attempt for attempt (a
    # fresh client stream on both sides).
    patient = Deadline(expires_at=100.0, budget_units=1)
    first_a = budget_a.next_retry(2, 1, 0.0, patient)
    first_b = budget_b.next_retry(2, 1, 0.0, patient)
    assert first_a == first_b and first_a is not None
    assert budget_a.next_retry(2, 3, 0.0, patient) is None  # attempts


def test_retry_token_pool_bounds_amplification():
    config = RetryConfig(budget_tokens=2.0,
                         budget_refill_per_success=0.0)
    budget = RetryBudget(config, seed=0)
    patient = Deadline(expires_at=1000.0, budget_units=1)
    assert budget.next_retry(1, 1, 0.0, patient) is not None
    assert budget.next_retry(2, 1, 0.0, patient) is not None
    assert budget.next_retry(3, 1, 0.0, patient) is None
    assert budget.denied == 1


# -- brownout ladder ---------------------------------------------------------


def _ladder(monkeypatch):
    for name, value in (("DEPTH_DEGRADED", 4), ("DEPTH_SHED", 8),
                        ("LATENCY_DEGRADED", 1000), ("LATENCY_SHED", 5000),
                        ("MIN_DWELL_SECONDS", 1.0), ("EXIT_FRACTION", 0.5)):
        monkeypatch.setattr(brownout, name, value)
    return BrownoutController(MetricsRegistry())


def test_brownout_ladder_enters_and_exits_with_hysteresis(monkeypatch):
    ladder = _ladder(monkeypatch)
    assert ladder.observe(0.0, depth=0) == LEVEL_FULL
    assert ladder.observe(1.0, depth=5) == LEVEL_DEGRADED
    # Dwell: an immediate worse reading cannot transition yet.
    assert ladder.observe(1.5, depth=20) == LEVEL_DEGRADED
    assert ladder.observe(2.5, depth=20) == LEVEL_SHED
    # Exit needs the gauge *below* the hysteresis band, plus dwell.
    assert ladder.observe(4.0, depth=5) == LEVEL_SHED
    assert ladder.observe(5.5, depth=3) == LEVEL_DEGRADED
    assert ladder.observe(7.0, depth=1) == LEVEL_FULL
    assert [t.new_level for t in ladder.transitions] == [1, 2, 1, 0]


def test_brownout_shedding_decision(monkeypatch):
    ladder = _ladder(monkeypatch)
    ladder.score(1, weight=2.0)  # max weight seen -> shed floor 1.0
    assert ladder.admits(0.1, cheap=True)  # full: everything goes
    ladder.level = LEVEL_DEGRADED
    assert ladder.admits(0.1, cheap=True)
    assert not ladder.admits(9.9, cheap=False)  # no fresh execution
    ladder.level = LEVEL_SHED
    assert ladder.admits(1.5, cheap=True)  # top-priority cheap only
    assert not ladder.admits(0.5, cheap=True)
    assert not ladder.admits(1.5, cheap=False)
    assert ladder.c_shed.value == 3


# -- deadline propagation into the scheduler ---------------------------------


def test_admission_cancels_expired_speculation():
    admission = AdmissionController(registry=MetricsRegistry())
    tx = make_tx()
    admission.set_deadline(tx.hash, 5.0)
    request = SpeculationRequest(tx=tx, context=None, seq=0, score=1.0,
                                 head=1, deadline=5.0)
    assert admission.allows_dispatch(request, now=4.9)
    assert not admission.allows_dispatch(request, now=5.0)
    assert admission.c_expired.value == 1
    assert admission.snapshot()["expired"] == 1
    # Without a clock the check is inert (plain replay is unchanged).
    assert admission.allows_dispatch(request)
    # A release forgets the stamp.
    admission.release(tx.hash)
    assert admission._deadlines.get(tx.hash) is None


# -- the server's admission pipeline -----------------------------------------


def _server(world, **overrides):
    registry = MetricsRegistry()
    node = ForerunnerNode(world, ForerunnerConfig(), registry=registry)
    config = EdgeConfig(**overrides)
    return EdgeServer(node, config, registry=registry)


def _call_frame(req_id, value=1, data="0x"):
    return rpc.make_request("eth_call", [{
        "from": ALICE, "to": BOB, "value": value, "data": data}], req_id)


def test_rate_limit_per_client(world, monkeypatch):
    monkeypatch.setattr(server_module, "BUCKET_CAPACITY", 2.0)
    monkeypatch.setattr(server_module, "BUCKET_REFILL_PER_SECOND", 0.0)
    server = _server(world)
    for index in range(2):
        response, outcome = server.handle_raw(
            _call_frame(index, value=index), client_id=1, now=0.0)
        assert outcome.status == "served"
    response, outcome = server.handle_raw(
        _call_frame(9, value=9), client_id=1, now=0.0)
    assert response["error"]["code"] == rpc.RATE_LIMITED
    # Another client has its own bucket.
    _, outcome = server.handle_raw(_call_frame(0, value=0),
                                   client_id=2, now=0.0)
    assert outcome.status == "served"


def test_backpressure_when_queue_full(world, monkeypatch):
    monkeypatch.setattr(server_module, "BULKHEAD_CAPACITY", 1)
    server = _server(world, service_rate=50.0)
    _, first = server.handle_raw(_call_frame(0, value=1), 1, now=0.0)
    assert first.status in ("served", "deadline_expired")
    response, second = server.handle_raw(
        _call_frame(1, value=2), 2, now=0.0)
    assert response["error"]["code"] == rpc.OVERLOADED
    assert server.c_backpressure.value == 1


def test_expired_queued_work_is_cancelled_not_executed(world):
    # Slow server: the first call occupies it for many seconds; the
    # second one's deadline passes before its start slot, so it is
    # cancelled at admission and the node never executes it.
    server = _server(world, service_rate=200.0)
    _, first = server.handle_raw(_call_frame(0, value=1), 1, now=0.0,
                                 deadline_units=10_000_000)
    assert first.status == "served"
    executed_before = server.c_call_plain.value
    response, second = server.handle_raw(
        _call_frame(1, value=2), 1, now=0.0, deadline_units=100)
    assert response["error"]["code"] == rpc.DEADLINE_EXCEEDED
    assert response["error"]["data"]["phase"] == "queued"
    assert server.c_deadline_cancelled.value == 1
    assert server.c_call_plain.value == executed_before  # never ran


def test_inflight_deadline_overrun_is_reported(world):
    server = _server(world, service_rate=50.0)
    response, outcome = server.handle_raw(
        _call_frame(0, value=1), 1, now=0.0, deadline_units=10)
    assert response["error"]["code"] == rpc.DEADLINE_EXCEEDED
    assert response["error"]["data"]["phase"] == "inflight"
    assert server.c_deadline_overrun.value == 1


def test_internal_faults_are_contained_and_trip_the_breaker(world,
                                                            monkeypatch):
    monkeypatch.setattr(server_module, "BREAKER_THRESHOLD", 3)
    server = _server(world)

    def boom(request, now, stale):
        raise RuntimeError("handler bug")

    server._dispatch = boom
    codes = []
    for index in range(5):
        response, _ = server.handle_raw(
            _call_frame(index, value=index), 1, now=float(index))
        codes.append(response["error"]["code"])
    assert codes[:3] == [rpc.INTERNAL_ERROR] * 3
    assert rpc.BREAKER_OPEN in codes[3:]
    assert server.c_internal_errors.value == 3


def test_send_raw_transaction_enters_pool_with_deadline(world):
    server = _server(world)
    tx = make_tx(nonce=0, value=5, to=BOB)
    frame = rpc.make_request("eth_sendRawTransaction", [{
        "from": tx.sender, "to": tx.to, "value": tx.value,
        "data": "0x", "gasPrice": tx.gas_price, "gas": tx.gas_limit,
        "nonce": tx.nonce}], "send-1")
    response, outcome = server.handle_raw(frame, 1, now=2.0)
    assert outcome.status == "served"
    assert response["result"]["accepted"] is True
    node = server.node
    assert tx.hash in node.pool
    stamp = node.admission._deadlines.get(tx.hash)
    assert stamp == 2.0 + server_module.SPECULATION_DEADLINE_SECONDS
    # Idempotent: a duplicate send is acknowledged but not re-added.
    response, _ = server.handle_raw(frame, 1, now=3.0)
    assert response["result"]["accepted"] is False
    assert server.c_accepted.value == 1


def test_accepted_tx_log_recovery(world, tmp_path):
    path = str(tmp_path / "accepted.wal")
    registry = MetricsRegistry()
    node = ForerunnerNode(world, registry=registry)
    log = AcceptedTxLog(path, obs=registry)
    server = EdgeServer(node, EdgeConfig(), registry=registry,
                        accepted_log=log)
    txs = [make_tx(nonce=n, value=n + 1, to=BOB) for n in range(3)]
    for index, tx in enumerate(txs):
        frame = rpc.make_request("eth_sendRawTransaction", [{
            "from": tx.sender, "to": tx.to, "value": tx.value,
            "data": "0x", "gasPrice": tx.gas_price,
            "gas": tx.gas_limit, "nonce": tx.nonce}], f"s{index}")
        _, outcome = server.handle_raw(frame, 1, now=float(index))
        assert outcome.status == "served"
    log.close()
    # A fresh edge (post-crash) replays the journal into a new node.
    entries, torn, next_seq = recover_accepted(path)
    assert torn == 0 and len(entries) == 3 and next_seq == 3
    assert [heard for _, heard in entries] == [0.0, 1.0, 2.0]
    fresh = ForerunnerNode(WorldState(), registry=MetricsRegistry())
    assert restore_pool(fresh, entries) == 3
    assert sorted(fresh.pool) == sorted(tx.hash for tx in txs)
    # Transactions already committed are skipped on restore.
    fresh2 = ForerunnerNode(WorldState(), registry=MetricsRegistry())
    assert restore_pool(fresh2, entries,
                        committed={txs[0].hash}) == 2


# -- serving scenarios (integration) -----------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return record_dataset(DatasetConfig(
        name="edge-test",
        traffic=TrafficConfig(duration=12.0, seed=2021),
        observers={"live": LatencyModel()},
        seed=2021))


def test_serving_trace_is_byte_identical(dataset):
    scenario = build_scenario(dataset, ScenarioConfig(seed=3, load=1.5))
    assert scenario, "scenario must generate requests"
    runs = [run_serving(dataset, scenario,
                        edge_config=EdgeConfig(verify_responses=True))
            for _ in range(2)]
    assert runs[0].trace_lines == runs[1].trace_lines
    assert runs[0].trace_lines  # non-empty
    assert runs[0].server.verify_mismatches == 0


def test_fast_path_responses_equal_direct_execution(dataset):
    scenario = build_scenario(dataset, ScenarioConfig(seed=3, load=2.0))
    result = run_serving(dataset, scenario,
                         edge_config=EdgeConfig(verify_responses=True))
    server = result.server
    # The speculative fast paths genuinely fired ...
    assert server.c_call_memo_hits.value + server.c_call_ap_hits.value > 0
    # ... and every fast-path answer matched fresh plain execution.
    assert server.verify_mismatches == 0
    assert result.goodput > 0.5


def test_witness_carrying_responses(dataset):
    scenario = build_scenario(dataset, ScenarioConfig(seed=5, load=1.0))
    config = EdgeConfig(attach_witnesses=True)
    node_config = ForerunnerConfig(enable_witness=True)
    results = [run_serving(dataset, scenario, edge_config=config,
                           node_config=node_config) for _ in range(2)]
    result = results[0]
    # Byte-stable across runs, witness bodies included.
    assert results[0].trace_lines == results[1].trace_lines
    witnessed = [line for line in result.trace_lines
                 if '"witness"' in line]
    assert witnessed, "no witness-carrying response was served"
    # The digest in a trace response is the digest of the node's own
    # witness for that transaction.
    import json
    by_hash = {w.tx_hash: w for w in result.node.witnesses}
    checked = 0
    for line in witnessed:
        entry = json.loads(line)
        response_result = entry["response"].get("result") or {}
        witness = response_result.get("witness")
        if not witness or "body" not in witness:
            continue
        tx_hash = int(response_result["transactionHash"], 16)
        assert witness["digest"] == witness_digest(by_hash[tx_hash])
        checked += 1
    assert checked > 0


def test_overload_degrades_gracefully(dataset):
    scenario_1x = build_scenario(dataset, ScenarioConfig(seed=3, load=1.0))
    scenario_8x = build_scenario(dataset, ScenarioConfig(seed=3, load=8.0))
    calm = run_serving(dataset, scenario_1x)
    storm = run_serving(dataset, scenario_8x)
    assert calm.goodput >= 0.9
    # Overload protections engaged instead of collapsing: goodput
    # holds a floor and rejections are explicit, structured outcomes.
    assert storm.goodput >= 0.5
    server = storm.server
    engaged = (server.c_backpressure.value + server.c_rate_limited.value
               + server.brownout.c_shed.value
               + server.c_deadline_cancelled.value)
    assert engaged > 0
    assert server.c_internal_errors.value == 0


def test_serving_report_is_canonical(dataset):
    from repro.edge import build_report
    scenario = build_scenario(dataset, ScenarioConfig(seed=3, load=1.0))
    reports = [
        canonical_json(build_report(run_serving(dataset, scenario)))
        for _ in range(2)]
    assert reports[0] == reports[1]
