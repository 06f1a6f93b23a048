"""Node assemblies: a baseline node and a Forerunner node.

The evaluation (paper §5) runs Forerunner as a node processing the same
stream of transactions and blocks as an unmodified client.  Here both
node types consume an identical stream; the baseline's per-transaction
execution cost is the speedup denominator.

The Forerunner node wires together the multi-future predictor, the
speculator (with a simulated worker pool, so APs only become available
when their synthesis would really have finished), the prefetcher, and
the transaction execution accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.chain.transaction import (
    Transaction,
    tx_from_wire,
    tx_to_wire,
)
from repro.core import costmodel
from repro.core.accelerator import OUTCOME_NO_AP, TransactionAccelerator
from repro.core.predictor import MultiFuturePredictor
from repro.core.prefetcher import Prefetcher
from repro.core.speculator import Speculator
from repro.errors import ChainError
from repro.evm.jit.tier import JitTier
from repro.faults.guard import SpeculationGuard
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import NullTracer, SpanTracer
from repro.sched.admission import AdmissionController
from repro.sched.executor import ParallelBlockExecutor
from repro.sched.lanes import LaneSet
from repro.state.nodecache import NodeCache
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.witness.format import ExecutionWitness
from repro.witness.recorder import ap_context_ids, build_witness


@dataclass
class TxRecord:
    """Everything the evaluation needs about one executed transaction."""

    tx_hash: int
    block_number: int
    gas_used: int
    success: bool
    cost: int
    cpu_units: int = 0
    io_units: int = 0
    #: Number of state lookups (cold + warm) this execution performed.
    io_reads: int = 0
    heard: bool = True
    heard_delay: float = 0.0
    outcome: str = OUTCOME_NO_AP
    ap_ready: bool = False
    perfect: bool = False
    first_context_perfect: bool = False
    speculated_contexts: int = 0
    shortcut_hits: int = 0
    executed_nodes: int = 0
    skipped_nodes: int = 0
    #: Executor that produced the committed result ("plain" | "jit").
    tier: str = "plain"


@dataclass
class BlockReport:
    """Per-block outcome: records plus the post-state Merkle root."""

    block_number: int
    state_root: int
    records: List[TxRecord] = field(default_factory=list)


class BaselineNode:
    """Unmodified execution node (the speedup denominator)."""

    def __init__(self, world: Optional[WorldState] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.world = world if world is not None else WorldState()
        self.node_cache = NodeCache()
        self.accelerator = TransactionAccelerator()
        self.reports: List[BlockReport] = []
        obs = (registry or get_registry()).scope("baseline")
        self.c_blocks = obs.counter("blocks")
        self.c_txs = obs.counter("transactions")
        self.c_cost = obs.counter("execution_cost")

    def process_block(self, block: Block) -> BlockReport:
        """Execute every transaction in order; commit; return the report."""
        state = StateDB(self.world, node_cache=self.node_cache)
        records: List[TxRecord] = []
        for tx in block.transactions:
            stats = state.disk.stats
            reads_before = (stats.cold_account_loads
                            + stats.cold_slot_loads + stats.warm_hits)
            receipt = self.accelerator.execute_plain(
                tx, block.header, state)
            reads_after = (stats.cold_account_loads
                           + stats.cold_slot_loads + stats.warm_hits)
            records.append(TxRecord(
                tx_hash=tx.hash,
                block_number=block.number,
                gas_used=receipt.result.gas_used,
                success=receipt.result.success,
                cost=receipt.tally.total,
                cpu_units=receipt.tally.cpu_units,
                io_units=receipt.tally.io_units,
                io_reads=reads_after - reads_before,
            ))
        state.commit()
        self.c_blocks.inc()
        self.c_txs.inc(len(records))
        self.c_cost.inc(sum(r.cost for r in records))
        report = BlockReport(block.number, self.world.root(), records)
        self.reports.append(report)
        return report


#: Parallel speculation workers (pre-computation does not compete with
#: the critical path — paper §2 fn. 4).
WORKERS = 8
#: Simulated worker throughput in cost units per second.
WORKER_SPEED = 1.8e7
#: Backpressure: defer dispatch once the least-loaded worker lane is
#: backlogged further than this many simulated seconds.
MAX_LANE_BACKLOG_SECONDS = 120.0


@dataclass
class ForerunnerConfig:
    """Tunables for the Forerunner node."""

    #: Upper bound on contexts speculated per transaction per head.
    max_contexts_per_head: int = 4
    #: Ablation switches.
    enable_memoization: bool = True
    enable_prefetch: bool = True
    #: Shared-prefix context cache: materialize each distinct
    #: (header, predecessor-prefix) once per head and fork it.
    enable_prefix_cache: bool = True
    #: Synthesis dedup: a context that reproduces the recorded inputs
    #: of an already-merged path clones it instead of pre-executing
    #: and re-running translate/optimize.
    enable_synth_dedup: bool = True
    #: Shortcut-selection heuristic: "coarse" | "default" | "fine".
    memoization_strategy: str = "default"
    #: Optional :class:`repro.core.optimize.PassConfig` ablating the
    #: specialization passes.
    pass_config: object = None
    #: Observability: record per-stage spans (deterministic cost-unit
    #: timing).  Disabling swaps in a no-op tracer; pipeline outputs
    #: (traces, APs, Merkle roots, Tables 2/3) are identical either way.
    enable_obs: bool = True
    #: Chaos testing: a :class:`repro.faults.injector.FaultPlan` to run
    #: the node under.  ``None`` (the default) installs the no-op
    #: injector; the guard/breaker machinery is always active either
    #: way, so real faults degrade gracefully too.
    fault_plan: object = None
    #: Lanes of the block executor's derived optimistic-concurrency
    #: schedule (repro.sched).  Execution is one serial pass at any
    #: value, so every lane count commits byte-identical state;
    #: parallelism shows up only in the scheduler's own critical-path
    #: metrics, and 1 also skips access recording.
    lanes: int = 4
    #: Emit a per-transaction execution witness (repro.witness):
    #: constraints, net state delta, and digests, assembled from the
    #: master journal before each block commits.  Off by default —
    #: commits and every Table 2/3 number are byte-identical either
    #: way; ``repro verify`` turns it on to run the WitnessChecker.
    enable_witness: bool = False


class LocalSpecPlane:
    """Default speculation plane: every job runs on the owning node.

    The *speculation plane* is the seam between one node's prediction/
    admission machinery and the speculator that performs each admitted
    job.  A single node is its own plane; the fleet runtime
    (:mod:`repro.fleet.supervisor`) installs a sharded plane on its
    coordinator so that one global admission cycle — identical, request
    for request, to the single-node cycle — dispatches each job to the
    replica owning the transaction's shard.  Because the *lane clocks*
    stay with the plane's owner, AP readiness times (and with them
    every Table 2/3 number) are byte-identical however the work is
    spread.

    The plane also owns the *serialize/deliver* seam: a speculation job
    crossing a replica boundary travels as :meth:`serialize_job` output
    and is reconstructed by :meth:`deliver_job`, which asserts the
    frame decoded to the transaction it was cut from.  A local job
    never leaves the process, so it is never framed.
    """

    __slots__ = ("node",)

    def __init__(self, node: "ForerunnerNode") -> None:
        self.node = node

    def components(self, tx: Transaction):
        """``(speculator, sink)`` for one job: the speculator that runs
        it and the node whose bookkeeping records the outcome."""
        return self.node.speculator, self.node

    def serialize_job(self, tx: Transaction) -> dict:
        """The canonical frame payload for one speculation job."""
        return {"hash": tx.hash, "tx": tx_to_wire(tx)}

    def deliver_job(self, payload: dict) -> Transaction:
        """Reconstruct a dispatched job, asserting hash fidelity."""
        tx = tx_from_wire(payload["tx"])
        if tx.hash != int(payload["hash"]):
            raise ChainError(
                f"speculation job frame corrupt: hash "
                f"{int(payload['hash']):#x} decoded to {tx.hash:#x}")
        return tx

    def prefetch_targets(self):
        """Nodes whose caches a drained prefetch request must warm."""
        return (self.node,)

    def ap_for(self, tx_hash: int):
        """The AP block execution should use for ``tx_hash``.

        Locally that is the node's own speculator's; the fleet plane
        serves a per-block snapshot taken from the owning replicas, so
        every replica executes with the same APs a single node would.
        """
        return self.node.speculator.get_ap(tx_hash)


class ForerunnerNode:
    """Full Forerunner node (paper Figure 3)."""

    def __init__(self, world: Optional[WorldState] = None,
                 config: Optional[ForerunnerConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None) -> None:
        self.world = world if world is not None else WorldState()
        self.config = config or ForerunnerConfig()
        self.registry = registry or get_registry()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.enable_obs:
            self.tracer = SpanTracer(self.registry)
        else:
            self.tracer = NullTracer()
        obs = self.registry.scope("node")
        self.c_blocks = obs.counter("blocks")
        self.c_txs = obs.counter("transactions")
        self.c_cost = obs.counter("execution_cost")
        self.c_heard = obs.counter("heard")
        self.c_satisfied = obs.counter("satisfied")
        self.c_spec_cycles = obs.counter("speculation_cycles")
        self.c_reorgs = obs.counter("reorgs")
        self.node_cache = NodeCache()
        # Chaos layer: the injector evaluates the configured fault plan
        # (no-op without one); the guard contains every speculative
        # fault and hosts the per-contract circuit breaker.  One guard
        # serves all components so containment counts are centralized.
        if self.config.fault_plan is not None:
            self.fault_injector = FaultInjector(self.config.fault_plan,
                                                registry=self.registry)
        else:
            self.fault_injector = NULL_INJECTOR
        self.guard = SpeculationGuard(registry=self.registry)
        self.predictor = MultiFuturePredictor(registry=self.registry,
                                              injector=self.fault_injector)
        self.jit = JitTier(registry=self.registry)
        self.speculator = Speculator(
            self.world,
            pass_config=self.config.pass_config,
            enable_memoization=self.config.enable_memoization,
            memoization_strategy=self.config.memoization_strategy,
            enable_prefix_cache=self.config.enable_prefix_cache,
            enable_synth_dedup=self.config.enable_synth_dedup,
            registry=self.registry,
            tracer=self.tracer,
            injector=self.fault_injector,
            guard=self.guard,
            jit=self.jit)
        self.prefetcher = Prefetcher(self.world, self.node_cache,
                                     registry=self.registry,
                                     injector=self.fault_injector)
        self.accelerator = TransactionAccelerator(
            jit=self.jit,
            record_witnesses=self.config.enable_witness,
            guard=self.guard,
            injector=self.fault_injector)
        self.reports: List[BlockReport] = []
        #: Execution witnesses in commit order (``enable_witness`` only).
        self.witnesses: List[ExecutionWitness] = []
        # Pending pool: hash -> (tx, heard_time).
        self.pool: Dict[int, Tuple[Transaction, float]] = {}
        #: All hashes ever heard before execution (Table 1's heard set).
        self.heard: Dict[int, float] = {}
        #: Already-executed hashes (late gossip arrivals are ignored).
        self.executed: set = set()
        self._pool_version = 0
        self._last_spec_state: Tuple[int, int] = (-1, -1)
        # Speculation dispatch goes through admission control: scoring,
        # per-(tx, head)/total caps, per-head budgets, bounded deferral
        # and the bounded prefetch queue all live there.
        self.admission = AdmissionController(
            max_contexts_per_head=self.config.max_contexts_per_head,
            registry=self.registry,
            injector=self.fault_injector,
            breaker=self.guard.breaker)
        #: Simulated speculation worker pool: one lane per worker,
        #: clocks in simulated seconds (same dispatch rule the scalar
        #: pool used: least-loaded lane, ties to the lowest id).
        self._worker_lanes = LaneSet(WORKERS)
        #: Block executor: one serial pass plus, at ``lanes > 1``, the
        #: lane schedule derived from its access sets.
        self.executor = ParallelBlockExecutor(
            lanes=self.config.lanes,
            registry=self.registry,
            injector=self.fault_injector,
            guard=self.guard)
        self.head_number = 0
        #: Transactions whose AP merge produced a first-context record
        #: (for the single-future comparator): tx -> first context id.
        self.first_context: Dict[int, int] = {}
        #: Speculation plane: where admitted jobs run.  The default is
        #: this node itself; the fleet supervisor installs a sharded
        #: plane on its coordinator (see :class:`LocalSpecPlane`).
        self.spec_plane = LocalSpecPlane(self)

    # -- the driver seam (``FleetSupervisor`` answers the same calls) --------

    def tick(self, now: float) -> None:
        """Lifecycle heartbeat: a single node has no replicas to
        restart and no wire to service."""

    def close(self) -> None:
        """End of the run: a bare node holds nothing open."""

    # -- dissemination ---------------------------------------------------------

    def on_transaction(self, tx: Transaction, now: float) -> None:
        """A pending transaction arrived from the P2P network."""
        if (tx.hash in self.pool or tx.hash in self.heard
                or tx.hash in self.executed):
            return
        self.pool[tx.hash] = (tx, now)
        self.heard[tx.hash] = now
        self._pool_version += 1

    def on_reorg(self) -> None:
        """The chain manager switched branches: the world's contents
        were restored in place (no commit, no version bump), so cached
        prefixes AND the dedup index's known paths must be dropped
        explicitly — both reference state of the abandoned branch."""
        self.c_reorgs.inc()
        self.speculator.on_reorg()

    def requeue(self, tx: Transaction, now: float) -> None:
        """Return an abandoned (reorged-out) transaction to the pool,
        preserving its original heard time.

        The transaction re-enters speculation *from scratch* on the new
        branch: its admission counters, first-context bookkeeping, any
        deferred speculation requests and its AP are all dropped — they
        were produced against heads of the abandoned branch, so reusing
        them would speculate (and score priorities) against stale
        state.  The cleared caps also mean the predictor can re-admit
        it under the winning head instead of finding it capped out.
        """
        self.executed.discard(tx.hash)
        # Stale speculation capital: the AP (and its known paths) were
        # synthesized against abandoned-branch contexts; discard rather
        # than drop so §5.5 aggregates don't count dead-branch work.
        self.speculator.discard(tx.hash)
        self.first_context.pop(tx.hash, None)
        self.admission.release(tx.hash)
        if tx.hash in self.pool:
            return
        heard_time = self.heard.get(tx.hash, now)
        self.pool[tx.hash] = (tx, heard_time)
        self.heard.setdefault(tx.hash, heard_time)
        self._pool_version += 1

    # -- speculation (off the critical path) -------------------------------------

    def run_speculation(self, now: float,
                        budget_seconds: Optional[float] = None) -> int:
        """One prediction + speculation cycle starting at sim time ``now``.

        Jobs are assigned to the simulated worker pool; each AP's
        ``ready_at`` reflects when its last merge would really finish.
        Returns the number of pre-executions performed.
        """
        if not self.pool and not self.admission.has_backlog():
            return 0
        state_key = (self.head_number, self._pool_version)
        if state_key == self._last_spec_state \
                and not self.admission.has_backlog():
            return 0  # nothing changed since the last cycle
        self._last_spec_state = state_key
        self.c_spec_cycles.inc()
        pending = [tx for tx, _ in self.pool.values()]
        # A predictor fault costs one speculation cycle, nothing more:
        # the guard contains it and the node simply has no candidates.
        prediction, _ = self.guard.run(
            "predictor.predict",
            lambda: self.predictor.predict(
                pending, block_gas_limit=15_000_000),
            fallback=None)
        candidates: List[Tuple[Transaction, list]] = []
        if prediction is not None:
            candidates = [(tx, prediction.contexts.get(tx.hash, []))
                          for tx in prediction.candidates]
        # Admission: score (hit-likelihood x gas price), order, apply
        # the context caps / per-head budget / queue bound, re-admit
        # deferred carry-over.  A contained admission fault skips the
        # whole cycle (no speculation, nothing else lost).
        admitted, _ = self.guard.run(
            "sched.admit",
            lambda: self.admission.admit(candidates, self.head_number),
            fallback=[], count_fallback=False)
        jobs = 0
        deadline = now + budget_seconds if budget_seconds else None
        lanes = self._worker_lanes
        touched: List[Speculator] = []  # ran a job this cycle
        for request in admitted or []:
            # Deferred requests were admitted a cycle ago: re-check the
            # caps, which may have filled since.
            if not self.admission.allows_dispatch(request, now):
                continue
            lane = lanes.least_loaded()
            start = max(now, lane.clock)
            if deadline is not None and start >= deadline:
                # Out of cycle budget: carry the request over instead
                # of silently skipping it.
                self.admission.defer([request], self.head_number)
                continue
            if start - now > MAX_LANE_BACKLOG_SECONDS:
                # Backpressure: every lane is backlogged beyond the
                # configured horizon; don't pile further work on.
                self.admission.defer([request], self.head_number)
                continue
            tx, context = request.tx, request.context
            # The plane decides which speculator runs this job (the
            # local one, or — under the fleet — the owning replica's).
            speculator, sink = self.spec_plane.components(tx)
            if speculator not in touched:
                touched.append(speculator)
            # Workers are scheduled by the *logical* cost — what an
            # uncached speculator would pay — so AP readiness (and
            # with it every Table 2/3 number) is identical whether
            # the prefix cache / synthesis dedup are on or off (a
            # dedup hit runs nothing, but charges the known run's
            # step count and replays its loads); the actual
            # (cheaper) cost feeds §5.6 accounting instead.
            cost_before = speculator.c_logical_cost.value
            path = speculator.speculate(tx, context)
            job_cost = (speculator.c_logical_cost.value
                        - cost_before)
            # Chaos: a stalled worker "timeout" adds cost units to
            # this job's schedule, delaying when its AP is ready.
            job_cost += self.fault_injector.stall_units("worker.stall",
                                                        tx=tx.hash)
            completion = lanes.dispatch(
                job_cost / WORKER_SPEED,
                not_before=now, payload=tx.hash)
            jobs += 1
            self.admission.note_dispatched(request)
            # Feed the hit-likelihood estimator: a merged path means
            # this contract's speculations are landing.
            self.admission.observe(tx.to, path is not None)
            if path is not None:
                # Annotate only (no hand-out, no LRU touch): the AP is
                # finished when the cycle ends.
                ap = speculator.aps.peek(tx.hash)
                if ap is not None:
                    if ap.ready_at == 0.0 or len(ap.paths) == 1:
                        # First successful merge decides readiness;
                        # later merges refine an already-usable AP.
                        ap.ready_at = completion.finish
                    sink.first_context.setdefault(
                        tx.hash, context.context_id)
                    if self.config.enable_prefetch:
                        self.admission.queue_prefetch(
                            ap.prefetch_keys, tx_sender=tx.sender,
                            tx_to=tx.to, score=request.score)
        # Finish (prune, shortcuts, compile) each AP a merge changed.
        for speculator in touched:
            speculator.finalize_dirty()
        self._drain_prefetch_queue()
        return jobs

    def _drain_prefetch_queue(self) -> None:
        """Drain the bounded prefetch queue (FIFO, so cost accounting
        matches the legacy immediate-prefetch order)."""
        targets = self.spec_plane.prefetch_targets()
        for request in self.admission.drain_prefetches():
            # Chaos: a queue fault drops the request — the keys stay
            # cold (slower reads, same values).
            if self.fault_injector.evaluate(
                    "sched.prefetch_queue",
                    tx_sender=request.tx_sender) is not None:
                continue
            # Contained: a prefetch fault leaves the keys cold.  Under
            # the fleet plane every replica's cache is warmed — cache
            # state (and therefore every execution cost) must stay
            # identical across replicas.
            for target in targets:
                self.guard.run(
                    "prefetcher.prefetch",
                    lambda request=request, target=target:
                        target.prefetcher.prefetch(
                            request.keys,
                            tx_sender=request.tx_sender,
                            tx_to=request.tx_to),
                    count_fallback=False)

    # -- execution (the critical path) ----------------------------------------------

    def process_block(self, block: Block, now: float = 0.0) -> BlockReport:
        """Execute a freshly decided block through the accelerator.

        Each transaction executes once, in block order
        (:class:`repro.sched.executor.ParallelBlockExecutor`), so
        committed state, receipts and all Table 2/3 numbers are the
        serial ones at every ``config.lanes``; the lane what-if
        derived from the pass surfaces only in the ``sched.*`` metrics
        attached to the report.
        """
        self.predictor.observe_block(block)
        self.head_number = block.number
        state = StateDB(self.world, node_cache=self.node_cache)
        records: List[TxRecord] = []
        #: Per transaction, the AP it executed with (``None``: no AP
        #: was ready at ``now`` and it took the plain path).
        ready_aps: list = []

        def execute_one(tx: Transaction, exec_state: StateDB):
            ap = self.spec_plane.ap_for(tx.hash)
            if ap is None or ap.root is None or ap.ready_at > now:
                ready_aps.append(None)
                return self.accelerator.execute_plain(
                    tx, block.header, exec_state)
            ready_aps.append(ap)
            return self.accelerator.execute(tx, block.header, exec_state, ap)

        outcomes = self.executor.execute_block(
            block, state, list(block.transactions), execute_one)
        # Net per-tx state deltas, reconstructed from the master
        # journal while it still exists (commit clears it).
        deltas = (state.witness_deltas(
            [outcome.journal_span for outcome in outcomes])
            if self.config.enable_witness else None)
        traced = self.tracer.enabled
        for index, outcome in enumerate(outcomes):
            tx = outcome.tx
            receipt = outcome.receipt
            heard_time = self.heard.get(tx.hash)
            heard = heard_time is not None
            ap = ready_aps[index]
            ap_ready = ap is not None
            cost = receipt.tally.total
            if traced:
                # One span per tx, in block order with the serial
                # costs: traces look the same at every lane count
                # apart from the lane annotations.
                with self.tracer.span("execute", cost=cost,
                                      tx=f"{tx.hash:#x}",
                                      block=block.number,
                                      ap_ready=ap_ready) as span:
                    span.set(outcome=receipt.outcome,
                             lane=outcome.lane_id,
                             aborted=outcome.aborted)
            if not heard:
                # Forerunner's bookkeeping slows unheard transactions
                # slightly (paper: 0.81x on unheard).
                cost = int(cost * costmodel.UNHEARD_OVERHEAD_FACTOR)
            record = TxRecord(
                tx_hash=tx.hash,
                block_number=block.number,
                gas_used=receipt.result.gas_used,
                success=receipt.result.success,
                cost=cost,
                cpu_units=receipt.tally.cpu_units,
                io_units=receipt.tally.io_units,
                heard=heard,
                heard_delay=(now - heard_time) if heard else 0.0,
                outcome=receipt.outcome,
                ap_ready=ap_ready,
                perfect=bool(receipt.perfect_context_ids),
                first_context_perfect=(
                    self.first_context.get(tx.hash) in
                    receipt.perfect_context_ids),
                speculated_contexts=self.admission.total_spec.get(
                    tx.hash, 0),
                tier=receipt.tier,
            )
            if receipt.ap_stats is not None:
                record.shortcut_hits = receipt.ap_stats.shortcut_hits
                record.executed_nodes = receipt.ap_stats.executed_nodes
                record.skipped_nodes = receipt.ap_stats.skipped_nodes
            records.append(record)
            if deltas is not None:
                logs_start, logs_end = outcome.logs_span
                self.witnesses.append(build_witness(
                    tx_hash=tx.hash, block_number=block.number,
                    receipt=receipt, span_delta=deltas[index],
                    logs=state.logs[logs_start:logs_end],
                    context_ids=(ap_context_ids(ap)
                                 if receipt.used_ap else ())))
            if heard:
                self.c_heard.inc()
            if ap_ready:
                self.c_satisfied.inc()
            self.executed.add(tx.hash)
            if self.pool.pop(tx.hash, None) is not None:
                self._pool_version += 1
            self.speculator.drop(tx.hash)
        self.c_blocks.inc()
        self.c_txs.inc(len(records))
        self.c_cost.inc(sum(r.cost for r in records))
        state.commit()
        # The canonical head advanced: every cached predecessor prefix
        # was built on the previous head's state and is now stale.
        # (Commit also bumped world.version, so stale entries could
        # never be *hit*.)  This is the prefixes' freeing rule: drop()
        # above leaves every prefix its tx appears in to die here.
        self.speculator.invalidate_prefixes("new-head")
        root = self.world.root()
        if block.state_root is not None and block.state_root != root:
            raise ChainError(
                f"state root mismatch at block {block.number}: "
                f"{root:#x} != {block.state_root:#x}")
        report = BlockReport(block.number, root, records)
        self.reports.append(report)
        return report

    # -- scheduler reporting ---------------------------------------------------

    def sched_report(self) -> dict:
        """Canonical scheduler report: parallel-executor aggregates,
        admission/backpressure counters, and worker-lane state."""
        return {
            "executor": self.executor.report(),
            "admission": self.admission.snapshot(),
            "workers": {
                "lanes": len(self._worker_lanes),
                "clocks": [round(clock, 6)
                           for clock in self._worker_lanes.clocks],
                "jobs": [lane.jobs
                         for lane in self._worker_lanes.lanes],
            },
            "blocks": [schedule.as_dict()
                       for schedule in self.executor.schedules],
        }
