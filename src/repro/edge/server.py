"""The serving edge: JSON-RPC answered from the speculation pipeline.

One :class:`EdgeServer` fronts one :class:`~repro.core.node.ForerunnerNode`
and serves four methods:

``eth_sendRawTransaction``
    Journals the acceptance (durability promise), injects the
    transaction into the node's pending pool, and stamps a speculation
    deadline into the scheduler's admission controller — expired
    speculation work is cancelled there, never executed.
``eth_call``
    Answered from the speculation pipeline when possible: a memoized
    result at the current world version, or a ready accelerated
    program for a matching pending transaction, costs a few hundred
    units; a miss falls back to on-demand plain execution (thousands).
``eth_getTransactionReceipt``
    Index lookup over committed block reports; optionally carries the
    transaction's execution witness digest + body.
``debug_traceTransaction``
    Served from the recorded execution witness when one exists (cheap);
    otherwise the trace is rebuilt by simulated re-execution at the
    recorded cost.

Every request runs the same admission pipeline — parse, rate limit,
circuit breaker, brownout ladder, bulkhead backpressure, deadline check
— and every outcome is a structured JSON-RPC response.  All latencies
and costs are deterministic simulated quantities; two runs of the same
scenario produce byte-identical responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.edge import rpc
from repro.edge.brownout import BrownoutController
from repro.edge.limits import (
    CLIENT_STATE_CAPACITY,
    Bulkhead,
    Deadline,
    TokenBucket,
)
from repro.faults.guard import CircuitBreaker
from repro.faults.injector import NULL_INJECTOR, corrupt_frame
from repro.faults.sites import (
    SITE_HANDLER_STALL,
    SITE_MALFORMED,
    SITE_SLOW_CLIENT,
)
from repro.obs.export import canonical_json
from repro.obs.registry import MetricsRegistry, get_registry
from repro.state.statedb import StateDB
from repro.utils.lru import LruMap
from repro.witness.format import witness_digest, witness_to_dict

#: The methods the edge serves, in breaker-contract-id order.
METHODS = (
    "eth_sendRawTransaction",
    "eth_call",
    "eth_getTransactionReceipt",
    "debug_traceTransaction",
)

# -- handler cost constants (cost units) -------------------------------------
#: Validate + journal + pool insert for an accepted transaction.
ACCEPT_COST = 500
#: Committed-index lookup (receipts, witness-backed traces).
LOOKUP_COST = 150
#: Serving a memoized call result (cache probe + encode).
MEMO_COST = 200
#: Assembling a trace response from a recorded witness.
WITNESS_TRACE_COST = 400
#: Flat latency charged to rejected frames (parse, shed, limits);
#: rejections never occupy a bulkhead.
REJECT_COST = 40

#: Memoized ``eth_call`` results kept.  A FIFO window, not an LRU: the
#: oldest *inserted* result goes first, however often it was served.
CALL_MEMO_CAPACITY = 512

# -- admission tunables -------------------------------------------------------
#: Bounded per-method queue depth (the bulkhead capacity).
BULKHEAD_CAPACITY = 10
#: Default request deadline budget in cost units (clients may attach
#: their own; this is the admission stamp for the rest).
DEFAULT_DEADLINE_UNITS = 120_000
#: Per-client token bucket (requests; continuous refill).
BUCKET_CAPACITY = 30.0
BUCKET_REFILL_PER_SECOND = 15.0
#: Circuit breaker per method (clock = served cost units).
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN_UNITS = 240_000
#: Speculation deadline stamped into sched admission for accepted
#: transactions (simulated seconds of useful speculation).
SPECULATION_DEADLINE_SECONDS = 30.0
#: Serve memo entries up to this many world versions old while the
#: brownout ladder is at ``degraded`` or above (stale reads).
STALE_READ_VERSIONS = 1


@dataclass
class EdgeConfig:
    """Tunables for the serving edge."""

    #: Handler throughput, cost units per simulated second per method
    #: server (each method has its own single-server bulkhead).
    service_rate: float = 60_000.0
    #: Attach execution witness digest + body to receipt/trace
    #: responses (requires the node's ``enable_witness``).
    attach_witnesses: bool = False
    #: Cross-check every fast-path (memo/AP) ``eth_call`` response
    #: against a fresh plain execution — the serving-equivalence
    #: oracle.  Costs nothing in simulated time.
    verify_responses: bool = False


@dataclass
class RequestOutcome:
    """Per-request accounting row (one line of the serving trace)."""

    method: str
    client: int
    status: str
    code: Optional[int]
    latency_units: int
    cost_units: int
    cheap: bool
    stale: bool
    level: int
    attempt: int

    def as_dict(self) -> dict:
        row = {"method": self.method, "client": self.client,
               "status": self.status, "latency": self.latency_units,
               "cost": self.cost_units, "level": self.level,
               "attempt": self.attempt}
        if self.code is not None:
            row["code"] = self.code
        if self.stale:
            row["stale"] = True
        return row


@dataclass
class RouteInfo:
    """Where one request actually went, and what routing cost it.  One
    server is its own placement: replica 0, one hop, no penalties; the
    fleet router (:mod:`repro.fleet.router`) fills in the rest."""

    replica: int = 0
    hops: int = 1
    penalty_units: int = 0
    stale: bool = False
    failover: bool = False
    #: A warmth-weighted read placement moved this request off the
    #: owner onto a warmer full replica.
    warmth: bool = False


class EdgeServer:
    """The overload-resilient JSON-RPC front end."""

    def __init__(self, node, config: Optional[EdgeConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 injector=NULL_INJECTOR,
                 accepted_log=None) -> None:
        self.node = node
        self.config = config or EdgeConfig()
        self.registry = registry or get_registry()
        self.injector = injector
        self.accepted_log = accepted_log
        self.bulkheads: Dict[str, Bulkhead] = {
            method: Bulkhead(method, BULKHEAD_CAPACITY,
                             self.config.service_rate)
            for method in METHODS}
        self.buckets = LruMap(CLIENT_STATE_CAPACITY)
        self.brownout = BrownoutController(self.registry)
        #: Monotone served-cost clock driving the breaker cool-downs.
        self._served_units = 0
        self.breaker = CircuitBreaker(
            clock=lambda: self._served_units,
            threshold=BREAKER_THRESHOLD,
            cooldown_units=BREAKER_COOLDOWN_UNITS,
            registry=self.registry)
        obs = self.registry.scope("edge")
        self.c_requests = obs.counter("requests")
        self.c_served = obs.counter("served")
        self.c_backpressure = obs.counter("backpressure")
        self.c_rate_limited = obs.counter("rate_limited")
        self.c_deadline_cancelled = obs.counter("deadline_cancelled")
        self.c_deadline_overrun = obs.counter("deadline_overrun")
        self.c_breaker_rejects = obs.counter("breaker_rejects")
        self.c_malformed = obs.counter("malformed")
        self.c_internal_errors = obs.counter("internal_errors")
        self.c_accepted = obs.counter("accepted_txs")
        self.c_call_memo_hits = obs.counter("call_memo_hits")
        self.c_call_ap_hits = obs.counter("call_ap_hits")
        self.c_call_plain = obs.counter("call_plain")
        self.c_stale_reads = obs.counter("stale_reads")
        self.g_depth = obs.gauge("queue_depth")
        self._method_stats: Dict[str, dict] = {}
        for method in METHODS:
            scope = self.registry.scope("edge.method." + method)
            self._method_stats[method] = {
                "requests": scope.counter("requests"),
                "served": scope.counter("served"),
                "rejected": scope.counter("rejected"),
                "latency": scope.histogram("latency_units"),
            }
        # -- serving indexes over the node's committed history ----------
        self.head_header: Optional[BlockHeader] = None
        self._receipt_index: Dict[int, tuple] = {}
        self._reports_seen = 0
        self._witness_index: Dict[int, object] = {}
        self._witnesses_seen = 0
        # eth_call memo: key -> (world_version, result_dict, tx_used),
        # in insertion order.
        self._call_memo: "Dict[tuple, tuple]" = {}
        # Pending-pool call index: key -> tx_hash (rebuilt on pool change).
        self._pool_index: Dict[tuple, int] = {}
        self._pool_index_version = -1
        #: Fast-path responses that failed the plain-execution
        #: cross-check (must stay zero; the serving-equivalence gate).
        self.verify_mismatches = 0
        #: Optional acceptance hook ``(tx, now) -> None``, called after
        #: a send is newly accepted.  The fleet router uses it to hand
        #: accepted transactions to the supervisor (shard journal +
        #: broadcast to every replica).
        self.on_accept = None

    # -- node lifecycle hooks --------------------------------------------

    def on_block(self, block, report) -> None:
        """A block committed: refresh the serving indexes."""
        self.head_header = block.header
        self._refresh_indexes()

    def _refresh_indexes(self) -> None:
        node = self.node
        for report in node.reports[self._reports_seen:]:
            for record in report.records:
                self._receipt_index[record.tx_hash] = (report.block_number,
                                                       record)
        self._reports_seen = len(node.reports)
        for witness in node.witnesses[self._witnesses_seen:]:
            self._witness_index[witness.tx_hash] = witness
        self._witnesses_seen = len(node.witnesses)

    def close(self) -> None:
        """End of the run: sync and close the accepted-tx log."""
        if self.accepted_log is not None:
            self.accepted_log.close()

    # -- the admission pipeline ------------------------------------------

    def dispatch(self, raw: str, client_id: int, now: float,
                 **kwargs) -> Tuple[dict, RequestOutcome, RouteInfo]:
        """:meth:`handle_raw` (same keywords) as a driver *front* — the
        call :meth:`repro.fleet.router.FleetRouter.dispatch` answers
        for a fleet: ``(response, outcome, route)``."""
        response, outcome = self.handle_raw(raw, client_id, now, **kwargs)
        return response, outcome, RouteInfo()

    def handle_raw(self, raw: str, client_id: int, now: float,
                   weight: float = 1.0,
                   deadline_units: Optional[int] = None,
                   deadline: Optional[Deadline] = None,
                   attempt: int = 1
                   ) -> Tuple[dict, RequestOutcome]:
        """Serve one raw frame; returns ``(response, outcome)``.

        ``deadline`` (when given) is the request's *original* deadline
        — retries pass it through so backing off never buys more time.
        Never raises: every fate — malformed frame, overload rejection,
        handler bug — becomes a structured JSON-RPC response.
        """
        self.c_requests.inc()
        # Chaos: a malformed-request fault mangles the frame before the
        # parser ever sees it.
        if self.injector.evaluate(SITE_MALFORMED, client=client_id) \
                is not None:
            raw = corrupt_frame(raw, self.injector.rng(SITE_MALFORMED))
        try:
            request = rpc.parse_request(raw)
        except rpc.RpcError as exc:
            self.c_malformed.inc()
            return self._reject(None, None, client_id, exc.code,
                                exc.message, exc.data, now, attempt)
        if request.method not in METHODS:
            return self._reject(request.id, None, client_id,
                                rpc.METHOD_NOT_FOUND,
                                data={"method": request.method[:64]},
                                now=now, attempt=attempt)
        method = request.method
        stats = self._method_stats[method]
        stats["requests"].inc()
        # Rate limit (per-client token bucket).
        bucket = self.buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(BUCKET_CAPACITY, BUCKET_REFILL_PER_SECOND)
            self.buckets.set(client_id, bucket)
        if not bucket.try_take(now):
            self.c_rate_limited.inc()
            return self._reject(request.id, method, client_id,
                                rpc.RATE_LIMITED, now=now, attempt=attempt)
        if deadline is None:
            deadline = Deadline.from_budget(
                now, deadline_units or DEFAULT_DEADLINE_UNITS,
                self.config.service_rate)
        # Brownout: classify the request (cheap = answerable from the
        # speculation pipeline without fresh on-demand execution),
        # then ask the ladder.
        cheap, stale = self._classify(request, now)
        depth = sum(b.depth(now) for b in self.bulkheads.values())
        self.g_depth.set(depth)
        level = self.brownout.observe(now, depth)
        score = self.brownout.score(client_id, weight)
        if not self.brownout.admits(score, cheap):
            self.brownout.observe_outcome(client_id, False)
            return self._reject(request.id, method, client_id, rpc.SHED,
                                data={"level": level}, now=now,
                                attempt=attempt)
        # Circuit breaker (fail-fast on a persistently faulting method).
        method_id = METHODS.index(method)
        if not self.breaker.allows(method_id):
            self.c_breaker_rejects.inc()
            return self._reject(request.id, method, client_id,
                                rpc.BREAKER_OPEN, now=now, attempt=attempt)
        # Backpressure: bounded per-method queue.
        bulkhead = self.bulkheads[method]
        if not bulkhead.has_room(now):
            self.c_backpressure.inc()
            self.brownout.observe_outcome(client_id, False)
            return self._reject(request.id, method, client_id,
                                rpc.OVERLOADED,
                                data={"queue": bulkhead.depth(now)},
                                now=now, attempt=attempt)
        # Deadline propagation: if the request would only *start* after
        # its deadline, it is cancelled here — the work never executes.
        start = bulkhead.start_time(now)
        if deadline.expired(start):
            self.c_deadline_cancelled.inc()
            self.brownout.observe_outcome(client_id, False)
            return self._reject(
                request.id, method, client_id, rpc.DEADLINE_EXCEEDED,
                data={"phase": "queued",
                      "budget": deadline.budget_units},
                now=now, attempt=attempt)
        # Execute the handler inside a containment boundary.
        stall = self.injector.stall_units(SITE_SLOW_CLIENT,
                                          client=client_id)
        stall += self.injector.stall_units(SITE_HANDLER_STALL,
                                           method=method)
        try:
            result, cost = self._dispatch(request, now, stale)
        except rpc.RpcError as exc:
            return self._reject(request.id, method, client_id, exc.code,
                                exc.message, exc.data, now, attempt)
        except Exception:  # noqa: BLE001 — the containment boundary
            self.c_internal_errors.inc()
            self.breaker.record_fault(method_id)
            return self._reject(request.id, method, client_id,
                                rpc.INTERNAL_ERROR, now=now,
                                attempt=attempt)
        cost = int(cost) + stall
        _, finish = bulkhead.occupy(now, cost)
        self._served_units += cost
        latency_units = int(round((finish - now)
                                  * self.config.service_rate))
        if finish > deadline.expires_at:
            # The deadline expired mid-service: the client is told, the
            # spent work is accounted as overrun (not goodput).
            self.c_deadline_overrun.inc()
            self.breaker.record_fault(method_id)
            self.brownout.observe_latency(latency_units)
            self.brownout.observe_outcome(client_id, False)
            return self._reject(
                request.id, method, client_id, rpc.DEADLINE_EXCEEDED,
                data={"phase": "inflight",
                      "budget": deadline.budget_units},
                now=now, attempt=attempt,
                latency_units=latency_units, cost_units=cost)
        self.breaker.record_success(method_id)
        self.brownout.observe_latency(latency_units)
        self.brownout.observe_outcome(client_id, True)
        self.c_served.inc()
        stats["served"].inc()
        stats["latency"].observe(latency_units)
        outcome = RequestOutcome(
            method=method, client=client_id, status="served", code=None,
            latency_units=latency_units, cost_units=cost, cheap=cheap,
            stale=stale, level=self.brownout.level, attempt=attempt)
        return rpc.success_response(request.id, result), outcome

    def _reject(self, req_id, method: Optional[str], client_id: int,
                code: int, message: Optional[str] = None,
                data: Optional[dict] = None, now: float = 0.0,
                attempt: int = 1, latency_units: int = REJECT_COST,
                cost_units: int = 0) -> Tuple[dict, RequestOutcome]:
        status, _ = rpc.classify(code)
        if method is not None:
            self._method_stats[method]["rejected"].inc()
        outcome = RequestOutcome(
            method=method or "?", client=client_id, status=status,
            code=code, latency_units=latency_units, cost_units=cost_units,
            cheap=False, stale=False, level=self.brownout.level,
            attempt=attempt)
        return rpc.error_response(req_id, code, message, data), outcome

    # -- request classification (the brownout's cheap/expensive axis) -----

    def _classify(self, request: rpc.RpcRequest, now: float
                  ) -> Tuple[bool, bool]:
        """``(cheap, stale)`` without executing anything.

        Cheap = the speculation pipeline can answer without fresh
        on-demand execution.  ``stale`` marks a memoized call result
        from an allowed older world version (degraded-mode only).
        """
        method = request.method
        if method == "eth_sendRawTransaction":
            return True, False  # fixed-cost accept path
        if method == "eth_getTransactionReceipt":
            return True, False  # index lookup
        if method == "debug_traceTransaction":
            tx_hash = self._param_hash(request.params)
            if tx_hash is None:
                return True, False  # will be an invalid-params reject
            if tx_hash in self._witness_index:
                return True, False
            return tx_hash not in self._receipt_index, False
        # eth_call: cheap iff memoized (fresh or allowed-stale) or a
        # ready AP exists for a matching pending transaction.
        try:
            key = self._call_key(request.params)
        except rpc.RpcError:
            return True, False  # will be an invalid-params reject
        entry = self._call_memo.get(key)
        if entry is not None:
            version = entry[0]
            current = self.node.world.version
            if version == current:
                return True, False
            if (self.brownout.level > 0
                    and current - version <= STALE_READ_VERSIONS):
                return True, True
        return self._pool_match(key, now) is not None, False

    @staticmethod
    def _param_hash(params: list) -> Optional[int]:
        if len(params) != 1 or not isinstance(params[0], str):
            return None
        try:
            return int(params[0], 16)
        except ValueError:
            return None

    @staticmethod
    def _call_key(params: list) -> tuple:
        if len(params) != 1 or not isinstance(params[0], dict):
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "expected one call object"})
        call = params[0]
        sender = _as_int(call.get("from"), "from")
        to = _as_int(call.get("to"), "to")
        data = _as_data(call.get("data", "0x"))
        value = _as_int(call.get("value", 0), "value")
        return (sender, to, data, value)

    def _pool_match(self, key: tuple, now: float) -> Optional[int]:
        """A pending pool transaction matching ``key`` with a ready AP."""
        node = self.node
        if self._pool_index_version != node._pool_version:
            self._pool_index = {
                (tx.sender, tx.to, tx.data, tx.value): tx_hash
                for tx_hash, (tx, _) in node.pool.items()}
            self._pool_index_version = node._pool_version
        tx_hash = self._pool_index.get(key)
        if tx_hash is None:
            return None
        ap = node.speculator.get_ap(tx_hash)
        if ap is not None and ap.root is not None and ap.ready_at <= now:
            return tx_hash
        return None

    # -- method handlers ---------------------------------------------------

    def _dispatch(self, request: rpc.RpcRequest, now: float,
                  stale: bool) -> Tuple[object, int]:
        method = request.method
        if method == "eth_sendRawTransaction":
            return self._handle_send(request.params, now)
        if method == "eth_getTransactionReceipt":
            return self._handle_receipt(request.params)
        if method == "debug_traceTransaction":
            return self._handle_trace(request.params)
        return self._handle_call(request.params, now, stale)

    def _handle_send(self, params: list, now: float) -> Tuple[dict, int]:
        if len(params) != 1 or not isinstance(params[0], dict):
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "expected one tx object"})
        raw = params[0]
        tx = Transaction(
            sender=_as_int(raw.get("from"), "from"),
            to=_as_int(raw.get("to"), "to"),
            data=_as_data(raw.get("data", "0x")),
            value=_as_int(raw.get("value", 0), "value"),
            gas_price=_as_int(raw.get("gasPrice", 1), "gasPrice"),
            gas_limit=_as_int(raw.get("gas", 1_000_000), "gas"),
            nonce=_as_int(raw.get("nonce", 0), "nonce"))
        known = (tx.hash in self.node.pool or tx.hash in self.node.heard
                 or tx.hash in self.node.executed)
        if not known:
            # Durability before acknowledgement: journal first.
            if self.accepted_log is not None:
                self.accepted_log.record(tx, now)
            self.node.on_transaction(tx, now)
            # Deadline propagation into the scheduler: speculation for
            # this transaction is only useful for so long.
            self.node.admission.set_deadline(
                tx.hash, now + SPECULATION_DEADLINE_SECONDS)
            self.c_accepted.inc()
            if self.on_accept is not None:
                self.on_accept(tx, now)
        return ({"txHash": _hex(tx.hash), "accepted": not known},
                ACCEPT_COST)

    def _handle_receipt(self, params: list) -> Tuple[object, int]:
        tx_hash = self._param_hash(params)
        if tx_hash is None:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "expected one tx hash"})
        self._refresh_indexes()
        entry = self._receipt_index.get(tx_hash)
        if entry is None:
            return None, LOOKUP_COST  # unknown or still pending -> null
        block_number, record = entry
        result = {
            "transactionHash": _hex(tx_hash),
            "blockNumber": block_number,
            "gasUsed": record.gas_used,
            "status": "0x1" if record.success else "0x0",
            "outcome": record.outcome,
            "tier": record.tier,
        }
        cost = LOOKUP_COST
        if self.config.attach_witnesses:
            witness = self._witness_index.get(tx_hash)
            if witness is not None:
                result["witness"] = {"digest": witness_digest(witness)}
                cost += LOOKUP_COST
        return result, cost

    def _handle_trace(self, params: list) -> Tuple[object, int]:
        tx_hash = self._param_hash(params)
        if tx_hash is None:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "expected one tx hash"})
        self._refresh_indexes()
        entry = self._receipt_index.get(tx_hash)
        if entry is None:
            return None, LOOKUP_COST
        block_number, record = entry
        result = {
            "transactionHash": _hex(tx_hash),
            "blockNumber": block_number,
            "gasUsed": record.gas_used,
            "success": record.success,
            "tier": record.tier,
            "outcome": record.outcome,
            "costUnits": record.cost,
        }
        witness = self._witness_index.get(tx_hash)
        if witness is not None:
            # Cheap path: the trace is assembled from the recorded
            # execution witness, no re-execution needed.
            if self.config.attach_witnesses:
                result["witness"] = {
                    "digest": witness_digest(witness),
                    "body": witness_to_dict(witness),
                }
            return result, WITNESS_TRACE_COST
        # No witness: the trace is rebuilt by re-executing the
        # transaction (simulated at its recorded execution cost).
        return result, max(record.cost, WITNESS_TRACE_COST)

    def _handle_call(self, params: list, now: float,
                     stale: bool) -> Tuple[dict, int]:
        key = self._call_key(params)
        entry = self._call_memo.get(key)
        current = self.node.world.version
        if entry is not None:
            version, result, tx_used = entry
            if version == current:
                self.c_call_memo_hits.inc()
                if self.config.verify_responses:
                    self._verify_call(tx_used, result)
                return result, MEMO_COST
            if stale:
                # Degraded-mode stale read: the bytes the direct
                # execution produced at `version`, explicitly marked.
                self.c_stale_reads.inc()
                return result, MEMO_COST
        tx_hash = self._pool_match(key, now)
        if tx_hash is not None:
            tx, _ = self.node.pool[tx_hash]
            ap = self.node.speculator.get_ap(tx_hash)
            state = StateDB(self.node.world)
            receipt = self.node.accelerator.execute(
                tx, self._call_header(now), state, ap)
            result = self._call_result(receipt, current)
            self.c_call_ap_hits.inc()
            if self.config.verify_responses:
                self._verify_call(tx, result)
            self._memoize_call(key, current, result, tx)
            return result, max(int(receipt.tally.total), MEMO_COST)
        # Miss: on-demand plain execution.
        sender, to, data, value = key
        state = StateDB(self.node.world)
        tx = Transaction(sender=sender, to=to, data=data, value=value,
                         gas_price=1, gas_limit=1_000_000,
                         nonce=state.get_nonce(sender))
        receipt = self.node.accelerator.execute_plain(
            tx, self._call_header(now), state)
        result = self._call_result(receipt, current)
        self.c_call_plain.inc()
        self._memoize_call(key, current, result, tx)
        return result, int(receipt.tally.total)

    def _call_header(self, now: float) -> BlockHeader:
        if self.head_header is not None:
            return self.head_header
        return BlockHeader(number=self.node.head_number,
                           timestamp=int(now), coinbase=0)

    @staticmethod
    def _call_result(receipt, version: int) -> dict:
        result = receipt.result
        return {
            "returnData": "0x" + result.return_data.hex(),
            "success": result.success,
            "gasUsed": result.gas_used,
            "version": version,
        }

    def _memoize_call(self, key: tuple, version: int, result: dict,
                      tx: Transaction) -> None:
        memo = self._call_memo
        memo[key] = (version, result, tx)
        if len(memo) > CALL_MEMO_CAPACITY:
            del memo[next(iter(memo))]

    def _verify_call(self, tx: Transaction, served: dict) -> None:
        """The serving-equivalence oracle: re-execute plainly at the
        current world state and compare byte-for-byte."""
        state = StateDB(self.node.world)
        receipt = self.node.accelerator.execute_plain(
            tx, self._call_header(0.0), state)
        expected = self._call_result(receipt, self.node.world.version)
        if canonical_json(expected) != canonical_json(served):
            self.verify_mismatches += 1

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Canonical serving summary (part of the byte-stable report)."""
        per_method = {}
        for method in METHODS:
            stats = self._method_stats[method]
            per_method[method] = {
                "requests": stats["requests"].value,
                "served": stats["served"].value,
                "rejected": stats["rejected"].value,
            }
        return {
            "requests": self.c_requests.value,
            "served": self.c_served.value,
            "accepted_txs": self.c_accepted.value,
            "backpressure": self.c_backpressure.value,
            "rate_limited": self.c_rate_limited.value,
            "deadline_cancelled": self.c_deadline_cancelled.value,
            "deadline_overrun": self.c_deadline_overrun.value,
            "breaker_rejects": self.c_breaker_rejects.value,
            "malformed": self.c_malformed.value,
            "internal_errors": self.c_internal_errors.value,
            "call_memo_hits": self.c_call_memo_hits.value,
            "call_ap_hits": self.c_call_ap_hits.value,
            "call_plain": self.c_call_plain.value,
            "stale_reads": self.c_stale_reads.value,
            "verify_mismatches": self.verify_mismatches,
            "per_method": per_method,
            "brownout": self.brownout.summary(),
        }


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or value is None:
        raise rpc.RpcError(rpc.INVALID_PARAMS,
                           data={"reason": "bad field", "field": name})
    if isinstance(value, int):
        if value < 0:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "negative", "field": name})
        return value
    if isinstance(value, str):
        try:
            parsed = int(value, 16)
        except ValueError:
            raise rpc.RpcError(
                rpc.INVALID_PARAMS,
                data={"reason": "bad hex", "field": name}) from None
        if parsed < 0:
            raise rpc.RpcError(rpc.INVALID_PARAMS,
                               data={"reason": "negative", "field": name})
        return parsed
    raise rpc.RpcError(rpc.INVALID_PARAMS,
                       data={"reason": "bad type", "field": name})


def _as_data(value) -> bytes:
    if not isinstance(value, str):
        raise rpc.RpcError(rpc.INVALID_PARAMS,
                           data={"reason": "data not hex text"})
    text = value[2:] if value.startswith("0x") else value
    if len(text) > 8192:
        raise rpc.RpcError(rpc.INVALID_PARAMS,
                           data={"reason": "data too large"})
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise rpc.RpcError(rpc.INVALID_PARAMS,
                           data={"reason": "bad data hex"}) from None


def _hex(value: int) -> str:
    return f"{value:#x}"
