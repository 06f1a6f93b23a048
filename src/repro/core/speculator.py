"""The speculator: pre-execute, specialize, memoize, merge (paper §4.1).

Off the critical path, the speculator takes (transaction, predicted
future context) pairs from the multi-future predictor, runs the traced
pre-execution, synthesizes an AP path through the specialization
pipeline, and merges it into the transaction's accelerated program.

Speculation cost is accounted (§5.6 reports pre-execution + synthesis at
~12x a plain execution) and, in the simulated node, charged against a
worker pool so that APs only become available once synthesis would
really have finished.

Two redundancy-elimination layers sit between the predictor and the
pipeline:

* a **prefix cache** (:mod:`repro.core.prefix_cache`): distinct
  predecessor prefixes are materialized once per head as frozen
  copy-on-write :class:`StateDB` forks and shared across contexts;
* **synthesis dedup**: before pre-executing, a job checks the
  materialized context against the recorded inputs of every path the
  transaction's dedup index holds — the read set (through
  :func:`repro.core.accelerator.context_matches`), the sender nonce,
  whether each debited balance still covers its debit, and the code of
  every account executed or called.  A context that reproduces them
  all would produce the same trace, so the known path is cloned: no
  pre-execution, no synthesis.  The job still replays the run's
  recorded account and slot loads on its view, so the I/O it charges
  is exactly what the run would have charged.

Both layers change what the speculator *pays*, never what it produces:
APs, records' logical costs and Merkle roots are byte-identical with
the layers on or off.  Each :class:`SpeculationRecord` therefore
carries two costs — the ``synthesis_cost`` actually paid (§5.6
accounting reflects the saving) and the ``logical_cost`` an uncached
speculator would have paid, which the worker pool schedules by so AP
readiness stays deterministic.

Every stage is instrumented through :mod:`repro.obs`: counters live
under the speculator's scope (``speculator.*``, ``merge.*``,
``prefix_exec.*``) and each pre-execution emits a per-transaction span
tree (``speculate`` → ``materialize_prefix`` / ``check`` /
``pre_execute`` / ``synthesize`` / ``merge``; ``finalize`` once per
changed AP), all in logical cost units so traces are deterministic.

The synthesis-dedup index stores *detached* copies of merged paths
(fresh stats / read-set / write-set containers): later mutation of a
merged path — :func:`prune_tree` rewriting the AP, stats aggregation,
ablation experiments — can never leak into a future dedup clone.  The
index is bounded per transaction (LRU) and cleared on drop/discard and
on reorgs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core import costmodel
from repro.core.accelerator import context_matches
from repro.core.ap import AcceleratedProgram, APPath
from repro.core.memoize import build_shortcuts
from repro.core.merge import MergeMetrics, merge_path, prune_tree
from repro.core.optimize import optimize_path
from repro.core.prefix_cache import PrefixCache, PrefixEntry, context_key
from repro.core.stats import SynthesisTally
from repro.core.trace import TraceResult, trace_transaction
from repro.core.translate import translate_trace
from repro.errors import InsufficientBalance, SpeculationError
from repro.evm.interpreter import EvmMetrics
from repro.faults.guard import SpeculationGuard
from repro.faults.injector import (
    NULL_INJECTOR,
    corrupt_guard_branch,
    corrupt_shortcut,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import NullTracer
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.utils.lru import LruMap

#: APs the memo table keeps (LRU-evicted beyond).  Far above any
#: evaluation-sized pool, so Tables 2/3 match an unbounded table; only
#: a long-running live node ever evicts.
MEMO_CAPACITY = 4096
#: Merged paths the synthesis-dedup index keeps per transaction
#: (LRU-evicted beyond).
DEDUP_CAPACITY_PER_TX = 16


def synthesize_path(trace: TraceResult, path_id: int = 0,
                    context_id: int = 0,
                    pass_config=None) -> APPath:
    """Full per-trace pipeline: translate -> optimize -> APPath.

    Raises :class:`SpeculationError` when the trace uses a feature
    outside the supported subset (the transaction then simply gets no
    AP and executes normally).
    """
    translation = translate_trace(trace)
    optimize_path(translation, pass_config)
    return APPath.from_translation(translation, path_id, context_id)


@dataclass
class SpeculationRecord:
    """Bookkeeping for one pre-execution."""

    tx_hash: int
    context_id: int
    trace_length: int
    #: Off-path work actually paid, after prefix-cache and dedup savings.
    synthesis_cost: int
    merged: bool
    error: Optional[str] = None
    #: What an uncached, dedup-free speculator would have paid (the
    #: seed's accounting); the worker pool schedules by this.
    logical_cost: int = 0
    #: True when the context reproduced the recorded inputs of a path
    #: the dedup index holds: that path was cloned, with neither
    #: pre-execution nor synthesis.
    deduped: bool = False
    #: Predecessors actually executed vs. served by the prefix cache.
    preds_executed: int = 0
    preds_cached: int = 0
    #: True when this speculation died to a contained fault (injected
    #: or unexpected) rather than an expected pipeline outcome.
    faulted: bool = False
    #: Predicted witness footprint of the synthesized path: how many
    #: constraint checks (reads) and delta entries (writes) a satisfied
    #: execution of it will record.
    read_set_size: int = 0
    write_set_size: int = 0


@dataclass
class _PrefixOutcome:
    """Cost summary of materializing one context's predecessor prefix."""

    #: Instruction count / I/O units of the *full* prefix, cached or not
    #: (inputs to the logical cost).
    instructions_full: int = 0
    io_full: int = 0
    #: Cost units actually paid executing the uncached suffix.
    paid: int = 0
    executed: int = 0
    cached: int = 0


@dataclass
class FutureContext:
    """One predicted future context for a transaction (paper §4.2).

    ``predecessors`` are pending transactions speculated to execute
    before the target within the same block (the "Tx order" of Figure
    5); ``header`` is the predicted next-block header.
    """

    context_id: int
    header: BlockHeader
    predecessors: Tuple[Transaction, ...] = ()

    def describe(self) -> str:
        pre = ",".join(t.short_id() for t in self.predecessors) or "-"
        return (f"FC{self.context_id}(ts={self.header.timestamp} "
                f"coinbase={self.header.coinbase:#x} pre=[{pre}])")


def _detach_path(path: APPath) -> APPath:
    """A copy of ``path`` sharing only immutable payload.

    The instruction lists and return layout are treated as frozen by
    every consumer; the stats object and the read/write/concrete maps
    are mutable and get fresh containers, so mutating one copy (e.g. a
    merged path's stats during aggregation) never aliases the other.
    """
    return replace(
        path,
        stats=replace(path.stats),
        concrete=dict(path.concrete),
        read_set=dict(path.read_set),
        write_set=dict(path.write_set),
    )


class _LeafView(StateDB):
    """The view a job pre-executes on: a fork of the context's prefix
    (or of the world) that also records what a dedup check and its
    replay need.

    * ``loads``: the run's state loads in order — an address per
      account load, ``(address, slot)`` per storage read and
      ``(address, slot, None)`` per storage write (which marks the slot
      loaded without charging);
    * ``fee_mark``: where in ``loads`` the envelope's coinbase fee
      credit starts (the run's last ``add_balance`` to the coinbase);
    * ``debits``: per ``sub_balance``, ``(address, threshold, paid)``:
      the debit succeeds iff the account held at least ``threshold``
      before the transaction;
    * ``codes``: the first code read at each address.

    Only this leaf records; the shared :class:`StateDB` accessors that
    the critical path and the dataset recorder run stay as they are.
    """

    def __init__(self, world: WorldState, coinbase: int,
                 parent: Optional[StateDB] = None) -> None:
        super().__init__(world, parent=parent)
        if parent is not None:
            parent._frozen = True  # as ``fork`` does
        self.coinbase = coinbase
        self.loads: list = []
        self.fee_mark = 0
        self.debits: List[Tuple[int, int, bool]] = []
        self.codes: Dict[int, bytes] = {}

    def sibling(self) -> StateDB:
        """A plain view on the same prefix: reading it charges, warms
        and faults nothing of this one."""
        return StateDB(self.world, parent=self._parent)

    def _load_account(self, address: int):
        self.loads.append(address)
        return super()._load_account(address)

    def get_storage(self, address: int, slot: int) -> int:
        value = super().get_storage(address, slot)
        # The account load the read began with becomes the slot read,
        # whose replay makes both.
        self.loads[-1] = (address, slot)
        return value

    def set_storage(self, address: int, slot: int, value: int) -> None:
        super().set_storage(address, slot, value)
        self.loads.append((address, slot, None))

    def add_balance(self, address: int, amount: int) -> None:
        if address == self.coinbase:
            self.fee_mark = len(self.loads)
        super().add_balance(address, amount)

    def sub_balance(self, address: int, amount: int) -> None:
        before = self._inherited_account(address)
        if before is None:
            before = self.world.get_account(address)
        base = before.balance if before is not None else 0
        try:
            super().sub_balance(address, amount)
        except InsufficientBalance:
            self.debits.append(
                (address, base + amount - self._cache[address].balance,
                 False))
            raise
        self.debits.append(
            (address, base - self._cache[address].balance, True))

    def get_code(self, address: int) -> bytes:
        code = super().get_code(address)
        self.codes.setdefault(address, code)
        return code

    def replay(self, loads: tuple, coinbase: int) -> None:
        """Make a recorded run's ``loads`` (fee credit excluded) on this
        view, then the fee credit to ``coinbase``: the same charges, in
        the same order, through the same fault hook as running it."""
        for load in loads:
            if load.__class__ is int:
                self._load_account(load)
            elif len(load) == 2:
                self.get_storage(*load)
            else:
                self._loaded_slots.add(load[:2])
        self.add_balance(coinbase, 0)


@dataclass
class _KnownPath:
    """One dedup entry: a merged path (detached) and the inputs and
    loads of the run that produced it."""

    path: APPath
    steps: int
    loads: tuple
    debits: Tuple[Tuple[int, int, bool], ...]
    codes: Dict[int, bytes]

    @property
    def inputs(self) -> int:
        """Inputs :meth:`holds` compares: the nonce, each debit, each
        code and each read-set entry."""
        return (1 + len(self.debits) + len(self.codes)
                + len(self.path.read_set))

    def holds(self, view: StateDB, header: BlockHeader,
              tx: Transaction) -> bool:
        """Would ``tx`` run on ``view`` under ``header`` exactly as the
        recorded run did?  The coinbase fee credit commutes and is not
        an input."""
        if view.get_nonce(tx.sender) != tx.nonce:
            return False
        for address, threshold, paid in self.debits:
            if (view.get_balance(address) >= threshold) != paid:
                return False
        for address, code in self.codes.items():
            if view.get_code(address) != code:
                return False
        return context_matches(self.path.read_set, view, header)


class Speculator:
    """Synthesizes and maintains APs for pending transactions."""

    def __init__(self, world: WorldState,
                 pass_config=None,
                 enable_memoization: bool = True,
                 memoization_strategy: str = "default",
                 enable_prefix_cache: bool = True,
                 enable_synth_dedup: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None,
                 injector=None,
                 guard: Optional[SpeculationGuard] = None,
                 jit=None) -> None:
        self.world = world
        self.pass_config = pass_config
        self.enable_memoization = enable_memoization
        self.memoization_strategy = memoization_strategy
        self.enable_synth_dedup = enable_synth_dedup
        registry = registry or get_registry()
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Chaos layer (:mod:`repro.faults`): fault source + containment.
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.guard = guard if guard is not None \
            else SpeculationGuard(registry=registry)
        # The guard's breaker cool-downs and retry backoffs tick in the
        # speculator's deterministic logical-cost currency.
        self.guard.clock = lambda: self.c_logical_cost.value
        self.guard.charge_cost = self._charge_backoff
        #: Optional :class:`repro.evm.jit.tier.JitTier` — the AP
        #: compiler.  The speculator compiles an AP when it finishes
        #: it, off the critical path; the accelerator runs it, and
        #: compiles there only an AP that arrives without a current
        #: closure.
        self.jit = jit
        self.prefix_cache = PrefixCache(
            enabled=enable_prefix_cache, registry=registry,
            injector=self.injector if self.injector.enabled else None,
            jit=jit)
        #: The memo table: tx hash -> AcceleratedProgram.  Recency
        #: updates happen at deterministic points of the
        #: speculation/execution schedule, so eviction order is a pure
        #: function of the workload — two same-seed runs evict the same
        #: transactions at the same cost-unit times.
        self.aps = LruMap(MEMO_CAPACITY)
        self.records: List[SpeculationRecord] = []
        #: §5.5 totals over every AP that left the pipeline (executed
        #: or memo-evicted); all the speculator keeps of a retired AP.
        self.tally = SynthesisTally()
        # -- instruments -------------------------------------------------
        obs = registry.scope("speculator")
        self._obs = obs
        self.c_speculations = obs.counter("speculations")
        self.c_merged = obs.counter("merged")
        self.c_errors = obs.counter("errors")
        #: Total off-critical-path work performed, in cost units (§5.6),
        #: net of prefix-cache and dedup savings.
        self.c_actual_cost = obs.counter("actual_cost")
        #: Total work an uncached speculator would have performed; the
        #: node's worker pool schedules by this so AP readiness (and
        #: with it Table 2/3) is independent of the caching layers.
        self.c_logical_cost = obs.counter("logical_cost")
        #: Synthesis-dedup counters.
        self.c_dedup_hits = obs.counter("dedup_hits")
        self.c_dedup_misses = obs.counter("dedup_misses")
        self.c_dedup_cost_saved = obs.counter("dedup_cost_saved")
        self.c_dedup_evictions = obs.counter("dedup_evictions")
        #: AP finishing (:meth:`_finalize`): runs, merges that needed
        #: none, and runs forced by a hand-out instead of the cycle end.
        self.c_finalizes = obs.counter("finalizes")
        self.c_clone_enriched = obs.counter("clone_enriched")
        self.c_finalized_on_read = obs.counter("finalized_on_read")
        self.h_trace_len = obs.histogram("trace_len")
        memo_obs = registry.scope("memo")
        self.c_memo_inserts = memo_obs.counter("inserts")
        self.c_memo_evictions = memo_obs.counter("evictions")
        self.g_memo_size = memo_obs.gauge("size")
        self._merge_metrics = MergeMetrics(registry.scope("merge"))
        self._prefix_evm = EvmMetrics(registry.scope("prefix_exec"))
        #: Per-tx dedup index: tx -> (path id -> :class:`_KnownPath`),
        #: LRU-bounded per transaction, cleared on drop/discard/reorg.
        self._dedup: Dict[int, LruMap] = {}
        #: APs a merge changed since they were last finished (by tx).
        self._dirty: Dict[int, Transaction] = {}
        self._next_path_id = 0

    # -- chaos plumbing --------------------------------------------------

    def _charge_backoff(self, units: int) -> None:
        """Retry backoff is real (simulated) work: it delays the worker
        (logical cost) and is billed to §5.6 overhead (actual cost)."""
        self.c_logical_cost.inc(units)
        self.c_actual_cost.inc(units)

    def _storage_hook(self) -> None:
        self.injector.maybe_raise("storage.read")

    # -- public API ----------------------------------------------------------

    def get_ap(self, tx_hash: int) -> Optional[AcceleratedProgram]:
        """The finished AP for ``tx_hash`` (an LRU touch).  In-cycle
        bookkeeping that only annotates the AP reads ``aps`` instead."""
        ap = self.aps.get(tx_hash)
        if ap is not None:
            ap = self._finalize(tx_hash, ap)
        return ap

    def _finalize(self, tx_hash: int, ap: AcceleratedProgram,
                  on_read: bool = True) -> Optional[AcceleratedProgram]:
        """Finish ``ap`` if a merge changed it since it was last
        finished: prune, rebuild shortcuts, run the corruption sites,
        compile — in that order, so the closure bakes a consistent tree.

        Merging only grows the tree, so this runs once per changed AP
        per cycle (:meth:`finalize_dirty`), not per merge; a hand-out
        of a still-dirty AP runs it first (``on_read``: :meth:`get_ap`
        and :meth:`drop`, which may sit on the critical path — an
        in-cycle eviction does not).  Shortcuts and the closure are
        pure bonuses, each contained on its own; the corruption sites
        are safe by construction (a corrupted key can only miss or fall
        back).  Any other exception discards the AP, like a bug in a
        merge: ``None``.
        """
        tx = self._dirty.pop(tx_hash, None)
        if tx is None:
            return ap
        self.c_finalizes.inc()
        if on_read:
            self.c_finalized_on_read.inc()
        injector, where = self.injector, {"tx": tx_hash, "contract": tx.to}

        def shortcuts() -> None:
            injector.maybe_raise("memoize.build")
            build_shortcuts(ap, self.memoization_strategy)

        def closure() -> None:
            injector.maybe_raise("jit.compile", **where)
            self.jit.compile(ap)

        def finish() -> None:
            prune_tree(ap, self._merge_metrics)
            if self.enable_memoization:
                self.guard.run("memoize.build", shortcuts,
                               count_fallback=False)
            if injector.enabled:
                if injector.evaluate("memoize.corrupt", **where) is not None:
                    corrupt_shortcut(ap, injector.rng("memoize.corrupt"))
                if injector.evaluate("ap.corrupt", **where) is not None:
                    corrupt_guard_branch(ap, injector.rng("ap.corrupt"))
            if self.jit is not None:
                self.guard.run("jit.compile", closure, count_fallback=False)
        with self.tracer.span("finalize", tx=tx_hash):
            if self.guard.run("speculator.finalize", finish,
                              count_fallback=False)[1]:
                self.discard(tx_hash)
                return None
        return ap

    def finalize_dirty(self) -> None:
        """Finish every AP this speculation cycle changed (the node
        calls this when the cycle ends, still off the critical path)."""
        for tx_hash in list(self._dirty):
            self._finalize(tx_hash, self.aps.peek(tx_hash), on_read=False)

    def _memo_insert(self, tx_hash: int, ap: AcceleratedProgram) -> None:
        """Insert a fresh AP, LRU-evicting past :data:`MEMO_CAPACITY`.

        An evicted AP is tallied like a dropped one (its synthesis
        happened; §5.5 must still see it) — the transaction simply
        loses its acceleration and, if it is ever packed, executes the
        plain path: eviction can never change committed state.
        """
        evicted = self.aps.set(tx_hash, ap)
        self.c_memo_inserts.inc()
        if evicted is not None:
            victim_hash, victim = evicted
            self._dedup.pop(victim_hash, None)
            # Inserts happen in-cycle, off the critical path: not a read.
            self._finalize(victim_hash, victim, on_read=False)
            self.tally.add(victim)
            self.c_memo_evictions.inc()
        self.g_memo_size.set(len(self.aps))

    def drop(self, tx_hash: int) -> None:
        """Forget a transaction's AP (e.g. after it was executed),
        adding its synthesis statistics to the §5.5 tally.  Prefixes it
        was a predecessor in are not chased: they die with their head
        (:meth:`invalidate_prefixes`)."""
        self._dedup.pop(tx_hash, None)
        ap = self.aps.pop(tx_hash, None)
        if ap is not None:
            self._finalize(tx_hash, ap)
            self.tally.add(ap)
            self.g_memo_size.set(len(self.aps))

    def discard(self, tx_hash: int) -> None:
        """Forget a transaction's AP *and* its dedup entries
        without tallying (mid-reorg abandonment: the AP may refer to a
        head that no longer exists, so its stats must not pollute §5.5
        aggregates and its paths must never be cloned again)."""
        self._dedup.pop(tx_hash, None)
        self._dirty.pop(tx_hash, None)
        if self.aps.pop(tx_hash, None) is not None:
            self.g_memo_size.set(len(self.aps))

    def invalidate_prefixes(self, reason: str = "") -> int:
        """Drop every cached prefix (new canonical head or reorg)."""
        return self.prefix_cache.invalidate(reason)

    def on_reorg(self) -> int:
        """Reorg handling: the world's contents were restored in place,
        so both redundancy-elimination indexes are stale — cached
        prefixes reference dead state forks and cached dedup paths were
        synthesized against contexts of the abandoned branch.  Drops
        both; returns the number of prefix entries dropped."""
        self._dedup.clear()
        return self.invalidate_prefixes("reorg")

    # -- context materialization --------------------------------------------

    def _materialize_context(self, context: FutureContext
                             ) -> Tuple[_LeafView, _PrefixOutcome]:
        """Build the speculative pre-state for ``context``.

        Returns a private leaf view (:class:`_LeafView`) positioned
        after the context's predecessors, plus the prefix cost summary.
        The longest cached predecessor prefix is reused; every extension is
        cached for later contexts.  With the cache disabled the same
        fork chain is built but never stored, so the I/O classification
        (and hence the trace) is identical in both modes.
        """
        outcome = _PrefixOutcome()
        hook = self._storage_hook if self.injector.enabled else None
        predecessors = context.predecessors
        header = context.header
        if not predecessors:
            state = _LeafView(self.world, header.coinbase)
            state.disk.fault_hook = hook
            return state, outcome
        from repro.evm.interpreter import EVM  # local: cycle-free

        cache = self.prefix_cache
        hashes = tuple(p.hash for p in predecessors)
        version = self.world.version
        entry: Optional[PrefixEntry] = None
        start = 0
        if cache.enabled:
            for length in range(len(predecessors), 0, -1):
                found = cache.lookup(
                    context_key(version, header, hashes[:length]))
                if found is not None:
                    entry, start = found, length
                    break
            if start:
                cache.c_hits.inc()
            else:
                cache.c_misses.inc()
        if entry is not None:
            outcome.instructions_full = entry.instructions
            outcome.io_full = entry.io_units
            outcome.cached = start
            cache.c_pred_execs_avoided.inc(start)
            cache.c_pred_instructions_avoided.inc(entry.instructions)

        parent: Optional[StateDB] = entry.state if entry is not None else None
        for index in range(start, len(predecessors)):
            child = parent.fork() if parent is not None \
                else StateDB(self.world)
            child.disk.fault_hook = hook
            evm = EVM(child, header, predecessors[index],
                      obs=self._prefix_evm)
            evm.execute_transaction()
            io_units = child.disk.stats.cost_units
            outcome.instructions_full += evm.instruction_count
            outcome.io_full += io_units
            outcome.paid += (evm.instruction_count * costmodel.EVM_STEP
                             + io_units)
            outcome.executed += 1
            cache.c_pred_execs.inc()
            cache.c_pred_instructions.inc(evm.instruction_count)
            key = context_key(version, header, hashes[:index + 1])
            cache.note_execution(key, evm.instruction_count)
            cache.store(
                key,
                PrefixEntry(child, outcome.instructions_full,
                            outcome.io_full))
            parent = child
        state = _LeafView(self.world, header.coinbase, parent)
        state.disk.fault_hook = hook
        return state, outcome

    # -- dedup index -----------------------------------------------------

    def _check(self, index: LruMap, state: _LeafView, header: BlockHeader,
               tx: Transaction) -> Tuple[Optional[_KnownPath], int]:
        """The indexed path whose recorded inputs ``state`` reproduces
        (touched as most recent), or ``None``; plus the check's cost.

        Compares on a sibling of ``state``, most recent entry first;
        each entry tried is charged for all its inputs."""
        view = state.sibling()
        cost = 0
        for key, known in reversed(index.items()):
            cost += known.inputs * costmodel.WITNESS_CHECK
            if known.holds(view, header, tx):
                index.get(key)
                return known, cost
        return None, cost

    def _dedup_store(self, tx_hash: int, path: APPath, steps: int,
                     state: _LeafView) -> None:
        index = self._dedup.get(tx_hash)
        if index is None:
            index = self._dedup[tx_hash] = LruMap(DEDUP_CAPACITY_PER_TX)
        # Detach: the merged path's mutable parts (stats, sets) keep
        # evolving with the AP; the indexed copy must not alias them.
        known = _KnownPath(_detach_path(path), steps,
                           tuple(state.loads[:state.fee_mark]),
                           tuple(state.debits), state.codes)
        if index.set(path.path_id, known) is not None:
            self.c_dedup_evictions.inc()

    # -- speculation ---------------------------------------------------------

    def speculate(self, tx: Transaction,
                  context: FutureContext) -> Optional[APPath]:
        """Pre-execute ``tx`` in ``context`` and merge the resulting path.

        Returns the APPath (None if synthesis failed).  The speculative
        overlay state is built on the committed world and discarded.

        Containment boundary: *any* exception a stage raises — injected
        or a genuine bug — is absorbed by the guard here, recorded as a
        failed (``faulted``) :class:`SpeculationRecord`, and reported to
        the per-contract circuit breaker.  One broken context can never
        abort a batch or escape to the node; transient storage faults
        are retried with cost-unit backoff first.
        """
        with self.tracer.span("speculate", tx=tx.hash,
                              context=context.context_id) as root_span:
            path, faulted = self.guard.run(
                "speculate",
                lambda: self._speculate(tx, context, root_span),
                fallback=None,
                contract=tx.to)
            if faulted:
                # Stages append their record before returning, so an
                # escaped exception means no record exists yet for this
                # context — write the failure down.
                self.c_errors.inc()
                root_span.set(outcome="faulted")
                if not self.guard.last_injected:
                    # A *real* bug may have died mid-merge and left the
                    # AP tree half-rewritten: discard it defensively
                    # (injected faults fire before any mutation, so the
                    # AP stays usable for those).
                    self.discard(tx.hash)
                self.records.append(SpeculationRecord(
                    tx_hash=tx.hash, context_id=context.context_id,
                    trace_length=0, synthesis_cost=0, merged=False,
                    error=self.guard.last_error, faulted=True))
            return path

    def _speculate(self, tx: Transaction, context: FutureContext,
                   root_span) -> Optional[APPath]:
        self.c_speculations.inc()
        if tx.to == 0:
            # Contract deployments run init code and install new
            # accounts — outside the specialized subset; they execute
            # through the normal path (and are rare on the wire).
            self.c_errors.inc()
            root_span.set(outcome="unsupported")
            self.records.append(SpeculationRecord(
                tx_hash=tx.hash, context_id=context.context_id,
                trace_length=0, synthesis_cost=0, merged=False,
                error="deployment transactions are not specialized"))
            return None
        with self.tracer.span("materialize_prefix",
                              preds=len(context.predecessors)) as sp:
            self.injector.maybe_raise("speculator.materialize_prefix",
                                      tx=tx.hash, contract=tx.to)
            state, prefix = self._materialize_context(context)
            sp.add_cost(prefix.paid)
            sp.set(executed=prefix.executed, cached=prefix.cached)

        header = context.header
        known: Optional[_KnownPath] = None
        check_cost = 0
        index = self._dedup.get(tx.hash)
        if index:
            with self.tracer.span("check") as sp:
                known, check_cost = self._check(index, state, header, tx)
                sp.add_cost(check_cost)

        with self.tracer.span("pre_execute") as sp:
            self.injector.maybe_raise("speculator.pre_execute",
                                      tx=tx.hash, contract=tx.to)
            if known is not None:
                # The context reproduces a known run's inputs, so it
                # would reproduce its trace: make the run's loads
                # instead of running it.
                state.replay(known.loads, header.coinbase)
                steps = known.steps
                sp.add_cost(state.disk.stats.cost_units)
            else:
                trace = trace_transaction(state, header, tx)
                trace.context_id = context.context_id
                steps = len(trace.steps)
                sp.add_cost(steps * costmodel.EVM_STEP
                            + state.disk.stats.cost_units)
        if known is None and trace.result.error:
            # Envelope-level failure (bad nonce / unaffordable gas) in
            # this speculated context: no bytecode ran, so there is
            # nothing to specialize — and the accelerator's native
            # envelope cannot be guarded by an AP.  Skip this future.
            # Only the predecessor work and the check actually
            # performed are charged; the logical (scheduling) cost
            # stays zero as before.
            paid = prefix.paid + check_cost
            self.c_actual_cost.inc(paid)
            self.c_errors.inc()
            root_span.set(outcome="envelope")
            root_span.add_cost(paid)
            self.records.append(SpeculationRecord(
                tx_hash=tx.hash, context_id=context.context_id,
                trace_length=0, synthesis_cost=paid,
                merged=False, error=f"envelope: {trace.result.error}",
                preds_executed=prefix.executed,
                preds_cached=prefix.cached))
            return None
        self.h_trace_len.observe(steps)
        io_units = state.disk.stats.cost_units
        target_cost = steps * costmodel.EVM_STEP + io_units
        full_synthesis = int(target_cost * costmodel.SPECULATION_COST_FACTOR)
        logical_cost = int(
            (target_cost + prefix.io_full)
            * costmodel.SPECULATION_COST_FACTOR
        ) + prefix.instructions_full * costmodel.EVM_STEP
        self.c_logical_cost.inc(logical_cost)

        path_id = self._next_path_id
        self._next_path_id += 1
        if known is not None:
            # Clone the known path (fresh ids, shared immutable
            # instruction/stats payload): the hit pays the replayed I/O
            # and the check, not the pre-execution or the ~11x
            # synthesis surcharge.
            self.c_dedup_hits.inc()
            actual_cost = prefix.paid + io_units + check_cost
            self.c_dedup_cost_saved.inc(
                full_synthesis - io_units - check_cost)
            # Detach again: two clones of the same indexed path must
            # not share mutable containers with each other either.
            path = replace(_detach_path(known.path), path_id=path_id,
                           context_id=context.context_id)
        else:
            if self.enable_synth_dedup:
                self.c_dedup_misses.inc()
            actual_cost = prefix.paid + full_synthesis + check_cost
            try:
                # The synthesize span carries only the translate/optimize
                # surcharge; the check and the pre-execution are charged
                # on their own spans, so sibling stages partition the
                # actual cost without double counting.
                with self.tracer.span("synthesize") as sp:
                    # InjectedFault is not a SpeculationError: it flies
                    # past the except below, up to the guard boundary.
                    self.injector.maybe_raise("speculator.synthesize",
                                              tx=tx.hash, contract=tx.to)
                    path = synthesize_path(trace, path_id=path_id,
                                           context_id=context.context_id,
                                           pass_config=self.pass_config)
                    sp.add_cost(full_synthesis - target_cost)
            except SpeculationError as exc:
                self.c_actual_cost.inc(actual_cost)
                self.c_errors.inc()
                root_span.set(outcome="synthesis-error")
                root_span.add_cost(actual_cost)
                self.records.append(SpeculationRecord(
                    tx_hash=tx.hash, context_id=context.context_id,
                    trace_length=steps,
                    synthesis_cost=actual_cost,
                    logical_cost=logical_cost,
                    merged=False, error=str(exc),
                    preds_executed=prefix.executed,
                    preds_cached=prefix.cached))
                return None
        self.c_actual_cost.inc(actual_cost)

        ap = self.aps.get(tx.hash)
        if ap is None:
            ap = AcceleratedProgram(tx.hash)
            self._memo_insert(tx.hash, ap)
        enriched = self._merge_metrics.enriched.value
        with self.tracer.span("merge") as sp:
            self.injector.maybe_raise("speculator.merge",
                                      tx=tx.hash, contract=tx.to)
            merged = merge_path(ap, path, self._merge_metrics)
            sp.set(merged=merged)
        if merged:
            self.c_merged.inc()
            if known is not None \
                    and self._merge_metrics.enriched.value > enriched:
                # A clone folded into an existing terminal: same tree,
                # no new shortcut key, and the closure bakes neither
                # path nor context ids — a finished AP stays finished.
                self.c_clone_enriched.inc()
            else:
                # The tree or its shortcut entries changed: the closure
                # is stale until :meth:`_finalize` recompiles.
                ap.jit = None
                self._dirty[tx.hash] = tx
                # Index only merged paths: no clones of rejected ones.
                if self.enable_synth_dedup and known is None:
                    self._dedup_store(tx.hash, path, steps, state)
        root_span.set(outcome="merged" if merged else "merge-failed",
                      deduped=known is not None)
        root_span.add_cost(actual_cost)
        self.records.append(SpeculationRecord(
            tx_hash=tx.hash, context_id=context.context_id,
            trace_length=steps, synthesis_cost=actual_cost,
            logical_cost=logical_cost, merged=merged,
            deduped=known is not None,
            preds_executed=prefix.executed,
            preds_cached=prefix.cached,
            read_set_size=len(path.read_set),
            write_set_size=len(path.write_set)))
        return path
