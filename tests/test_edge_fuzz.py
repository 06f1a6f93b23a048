"""Seeded JSON-RPC fuzzing: hostile frames never crash the edge.

Every malformed input — truncated frames, wrong field types, oversized
params, unknown methods, garbage hex — must surface as a *structured*
JSON-RPC error response: no uncaught exception, no stuck queue state,
and the metrics registry stays cleanly snapshotable afterwards.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.node import ForerunnerNode
from repro.edge import EdgeServer
from repro.edge import rpc
from repro.edge import server as server_module
from repro.obs.registry import MetricsRegistry
from repro.utils.hashing import hash_words

from tests.conftest import ALICE, BOB


@pytest.fixture(autouse=True)
def generous_buckets(monkeypatch):
    """Rejections in these tests must come from parsing, not from
    overload protection."""
    monkeypatch.setattr(server_module, "BUCKET_CAPACITY", 1e9)
    monkeypatch.setattr(server_module, "BUCKET_REFILL_PER_SECOND", 1e9)


def _server(world):
    registry = MetricsRegistry()
    node = ForerunnerNode(world, registry=registry)
    return EdgeServer(node, registry=registry), registry


def _valid_frame(rng) -> str:
    method = rng.choice(["eth_call", "eth_getTransactionReceipt",
                         "eth_sendRawTransaction",
                         "debug_traceTransaction"])
    if method == "eth_call":
        params = [{"from": ALICE, "to": BOB, "value": 1, "data": "0x"}]
    elif method == "eth_sendRawTransaction":
        params = [{"from": ALICE, "to": BOB, "value": 1, "data": "0x",
                   "nonce": 0}]
    else:
        params = [f"{rng.getrandbits(64):#x}"]
    return rpc.make_request(method, params, rng.randrange(1000))


def _mutate(rng, frame: str) -> str:
    mode = rng.randrange(6)
    if mode == 0:  # truncation
        return frame[:rng.randrange(len(frame))]
    if mode == 1:  # garbled byte
        index = rng.randrange(len(frame))
        return frame[:index] + chr(33 + rng.randrange(90)) \
            + frame[index + 1:]
    if mode == 2:  # wrong top-level type
        return rng.choice(['[]', '42', '"x"', 'null', 'true',
                           '[1,2,3]'])
    if mode == 3:  # wrong field types
        return json.dumps({
            "jsonrpc": rng.choice(["1.0", 2.0, None, "2.0"]),
            "id": rng.choice([True, [1], {"a": 1}, 3]),
            "method": rng.choice([None, 7, "", "eth_call"]),
            "params": rng.choice(["not-a-list", {"a": 1}, 9, [1]]),
        })
    if mode == 4:  # oversized params / frames
        if rng.random() < 0.5:
            return rpc.make_request("eth_call", list(range(20)), 1)
        return '{"jsonrpc":"2.0","id":1,"method":"eth_call",' \
               '"params":["' + "A" * rpc.MAX_FRAME_BYTES + '"]}'
    # unknown methods / garbage params for known methods
    if rng.random() < 0.5:
        return rpc.make_request(
            "eth_" + "".join(rng.choice("abcdefgh")
                             for _ in range(8)), [], 1)
    return rpc.make_request(rng.choice([
        "eth_call", "eth_getTransactionReceipt",
        "eth_sendRawTransaction", "debug_traceTransaction",
    ]), rng.choice([
        [], ["zzz-not-hex"], [{"from": "0xNOPE", "to": -1}],
        [{"from": [], "to": {}, "data": 5}], [None], [1, 2],
        [{"from": ALICE, "to": BOB, "data": "0x" + "ff" * 9000}],
    ]), 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzzed_frames_always_yield_structured_errors(world, seed):
    server, registry = _server(world)
    rng = random.Random(hash_words((seed, 0xF022)))
    outcomes = {}
    for index in range(300):
        frame = _mutate(rng, _valid_frame(rng))
        response, outcome = server.handle_raw(
            frame, client_id=index % 7, now=float(index))
        # Structured response, always: a dict with the protocol
        # envelope, encodable canonically.
        assert isinstance(response, dict)
        assert response["jsonrpc"] == "2.0"
        assert ("result" in response) != ("error" in response)
        encoded = rpc.encode(response)
        assert json.loads(encoded)["jsonrpc"] == "2.0"
        if "error" in response:
            error = response["error"]
            assert isinstance(error["code"], int)
            assert isinstance(error["message"], str)
        outcomes[outcome.status] = outcomes.get(outcome.status, 0) + 1
    # The fuzzer genuinely exercised the defensive surface.
    assert sum(count for status, count in outcomes.items()
               if status != "served") > 50
    # No queue residue: every bulkhead drains, the depth gauge is
    # clean, and the registry snapshots deterministically.
    late = 10_000.0
    assert all(b.depth(late) == 0 for b in server.bulkheads.values())
    snapshot = registry.snapshot()
    assert snapshot["edge.requests"]["value"] == 300
    assert server.c_internal_errors.value == 0


def test_fuzz_is_deterministic(world):
    def run():
        server, _ = _server(world)
        rng = random.Random(hash_words((9, 0xF022)))
        lines = []
        for index in range(120):
            frame = _mutate(rng, _valid_frame(rng))
            response, _ = server.handle_raw(frame, index % 5,
                                            float(index))
            lines.append(rpc.encode(response))
        return lines

    assert run() == run()


def test_specific_hostile_frames(world):
    server, _ = _server(world)
    cases = [
        ("", rpc.PARSE_ERROR),
        ("{", rpc.PARSE_ERROR),
        ("[1,2]", rpc.INVALID_REQUEST),
        ('{"jsonrpc":"2.0","id":1}', rpc.INVALID_REQUEST),  # no method
        ('{"jsonrpc":"1.0","id":1,"method":"eth_call"}',
         rpc.INVALID_REQUEST),
        ('{"jsonrpc":"2.0","id":true,"method":"eth_call"}',
         rpc.INVALID_REQUEST),
        ('{"jsonrpc":"2.0","id":1,"method":"eth_call",'
         '"params":"nope"}', rpc.INVALID_REQUEST),
        (rpc.make_request("web3_clientVersion", [], 1),
         rpc.METHOD_NOT_FOUND),
        (rpc.make_request("eth_call", [1, 2, 3, 4, 5, 6, 7, 8, 9], 1),
         rpc.INVALID_PARAMS),
        (rpc.make_request("eth_call", [{"from": "0xZZ", "to": 1}], 1),
         rpc.INVALID_PARAMS),
        (rpc.make_request("eth_getTransactionReceipt", ["nope"], 1),
         rpc.INVALID_PARAMS),
        ("x" * (rpc.MAX_FRAME_BYTES + 1), rpc.INVALID_REQUEST),
    ]
    for index, (frame, expected) in enumerate(cases):
        response, _ = server.handle_raw(frame, 1, float(index))
        assert response["error"]["code"] == expected, frame[:60]
