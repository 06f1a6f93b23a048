"""Deterministic simulated client load for the serving edge.

The load generator turns a recorded dataset into an open-loop request
schedule: clients fire requests at seeded arrival times regardless of
how the edge is coping (which is exactly what makes overload possible),
and every request references *real* dataset content —

* receipt / trace lookups target transactions the dataset will commit
  (mostly ones already committed at request time),
* ``eth_call`` shapes are drawn from transactions currently in flight
  (gossiped but not yet committed), so the edge's speculative fast
  path — a ready accelerated program for the matching pending
  transaction — genuinely fires,
* ``eth_sendRawTransaction`` submits upcoming dataset transactions
  slightly ahead of their gossip arrival, so the edge's accepted-tx
  journal and the scheduler's deadline stamps cover transactions that
  really commit.

Three arrival shapes model the overload patterns the ISSUE calls out:
``steady`` (Poisson arrivals), ``burst`` (a thundering herd around
every block arrival), and ``slow`` (a patient, low-rate client whose
requests carry extended deadlines — the chaos ``edge.slow_client``
site adds the drip-feed service-time stall).

Every draw comes from a per-client seeded RNG stream, so the schedule
is byte-identical run to run and one client's traffic never perturbs
another's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.edge import rpc
from repro.utils.hashing import hash_words, keccak_int

SHAPE_STEADY = "steady"
SHAPE_BURST = "burst"
SHAPE_SLOW = "slow"

#: Method mix (weights) of the canonical read-heavy serving workload.
METHOD_MIX: Tuple[Tuple[str, float], ...] = (
    ("eth_getTransactionReceipt", 0.40),
    ("eth_call", 0.30),
    ("debug_traceTransaction", 0.15),
    ("eth_sendRawTransaction", 0.15),
)
#: Per-client request rate at 1x load (requests per simulated second,
#: before the shape modulates it).
BASE_RATE = 1.2
#: How many of the clients are thundering-herd / slow shaped.
BURST_CLIENTS = 2
SLOW_CLIENTS = 1
#: Burst shape: rate multiplier inside the herd window.
BURST_FACTOR = 8.0
BURST_WINDOW_SECONDS = 1.5
#: Slow clients are patient: their deadline budget is multiplied by
#: this.
SLOW_DEADLINE_FACTOR = 4


@dataclass
class ScenarioConfig:
    """Tunables of one serving scenario."""

    seed: int = 0
    #: Offered-load multiplier (1.0 = the calibrated base rate).
    load: float = 1.0
    clients: int = 6
    #: Cost-unit deadline budget attached to each request.
    deadline_units: int = 120_000


@dataclass
class ScheduledRequest:
    """One client request with its precomputed arrival time."""

    at: float
    client_id: int
    req_id: str
    method: str
    params: list
    weight: float
    deadline_units: int
    raw: str = field(default="", repr=False)


def client_shape(client_id: int) -> str:
    if client_id < BURST_CLIENTS:
        return SHAPE_BURST
    if client_id < BURST_CLIENTS + SLOW_CLIENTS:
        return SHAPE_SLOW
    return SHAPE_STEADY


def client_weight(client_id: int) -> float:
    """Deterministic fee weight (the brownout's priority input)."""
    return 0.5 + 0.5 * (client_id % 4)


def _client_rng(seed: int, client_id: int):
    import random
    return random.Random(hash_words(
        (seed, keccak_int(b"edge.client"), client_id)))


def _pick_weighted(rng, mix) -> str:
    total = sum(weight for _, weight in mix)
    draw = rng.random() * total
    for method, weight in mix:
        draw -= weight
        if draw <= 0:
            return method
    return mix[-1][0]


def _tx_params(tx) -> dict:
    return {"from": tx.sender, "to": tx.to, "data": "0x" + tx.data.hex(),
            "value": tx.value, "gasPrice": tx.gas_price,
            "gas": tx.gas_limit, "nonce": tx.nonce}


def _call_params(tx) -> dict:
    return {"from": tx.sender, "to": tx.to, "data": "0x" + tx.data.hex(),
            "value": tx.value}


def build_scenario(dataset, config: Optional[ScenarioConfig] = None,
                   observer: str = "live") -> List[ScheduledRequest]:
    """The full request schedule for one serving run, time-sorted.

    Deterministic: same dataset + config -> byte-identical schedule.
    """
    config = config or ScenarioConfig()
    blocks = dataset.blocks
    if not blocks:
        return []
    horizon = blocks[-1][0]
    block_times = [arrival for arrival, _ in blocks]
    # Commit time of every transaction (receipt/trace targets).
    committed: List[Tuple[float, object]] = []
    for arrival, block in blocks:
        for tx in block.transactions:
            committed.append((arrival, tx))
    # Gossip window of every transaction (eth_call AP-hit targets):
    # heard at `heard`, committed at commit_of[tx.hash].
    commit_of: Dict[int, float] = {tx.hash: at for at, tx in committed}
    arrivals = dataset.tx_arrivals.get(observer, [])
    in_flight: List[Tuple[float, float, object]] = [
        (heard, commit_of.get(tx.hash, horizon), tx)
        for heard, tx in arrivals]
    requests: List[ScheduledRequest] = []
    for client_id in range(config.clients):
        rng = _client_rng(config.seed, client_id)
        shape = client_shape(client_id)
        weight = client_weight(client_id)
        rate = BASE_RATE * config.load
        if shape == SHAPE_SLOW:
            rate *= 0.5
        deadline_units = config.deadline_units
        if shape == SHAPE_SLOW:
            deadline_units *= SLOW_DEADLINE_FACTOR
        now, seq = 0.0, 0
        # Pointer into the committed tx list for this client's sends
        # (spread across clients so sends do not all duplicate).
        send_cursor = client_id
        while True:
            effective = rate
            if shape == SHAPE_BURST and _in_burst(now, block_times):
                effective = rate * BURST_FACTOR
            now += rng.expovariate(effective)
            if now >= horizon:
                break
            method = _pick_weighted(rng, METHOD_MIX)
            params, send_cursor = _build_params(
                method, now, rng, committed, in_flight, send_cursor,
                config.clients)
            if params is None:
                continue
            req_id = f"c{client_id}-{seq}"
            requests.append(ScheduledRequest(
                at=now, client_id=client_id, req_id=req_id,
                method=method, params=params, weight=weight,
                deadline_units=deadline_units,
                raw=rpc.make_request(method, params, req_id)))
            seq += 1
    requests.sort(key=lambda r: (r.at, r.client_id, r.req_id))
    return requests


def _in_burst(now: float, block_times: List[float]) -> bool:
    """Is ``now`` inside a thundering-herd window after a block?"""
    import bisect
    index = bisect.bisect_right(block_times, now)
    if index == 0:
        return False
    return now - block_times[index - 1] <= BURST_WINDOW_SECONDS


def _build_params(method: str, now: float, rng, committed, in_flight,
                  send_cursor: int, stride: int):
    """Request params referencing real dataset content."""
    if method == "eth_getTransactionReceipt" \
            or method == "debug_traceTransaction":
        # Mostly transactions already committed (a real answer);
        # sometimes a future one (a well-formed null response).
        ready = [tx for at, tx in committed if at <= now]
        pool = ready if ready and rng.random() < 0.8 \
            else [tx for _, tx in committed]
        tx = pool[rng.randrange(len(pool))]
        return [f"{tx.hash:#x}"], send_cursor
    if method == "eth_call":
        # Prefer a transaction currently in flight (gossiped, not yet
        # committed): its shape matches a pending-pool entry, so the
        # edge can answer from a ready accelerated program.
        flight = [tx for heard, commit, tx in in_flight
                  if heard <= now < commit]
        if flight and rng.random() < 0.7:
            tx = flight[rng.randrange(len(flight))]
        else:
            tx = committed[rng.randrange(len(committed))][1]
        return [_call_params(tx)], send_cursor
    # eth_sendRawTransaction: submit an upcoming dataset transaction
    # (round-robin striped across clients).
    future = [tx for at, tx in committed if at > now]
    if not future:
        return None, send_cursor
    index = send_cursor % len(future)
    return [_tx_params(future[index])], send_cursor + stride
