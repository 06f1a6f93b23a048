"""Transaction execution accelerator: the on-critical-path component.

Runs each transaction through its accelerated program — as the AP's
compiled closure (:mod:`repro.evm.jit`) — when one exists and compiles,
and through the full EVM otherwise.  Both run inside the one
transaction envelope, :func:`repro.evm.interpreter.run_envelope` (nonce
check, gas purchase, refund, coinbase fee); only the top-level message
differs: the accelerated path moves the value and runs the AP instead
of interpreting the callee's code.  An accelerated attempt that
satisfies no constraint set, or whose fault the guard contains, takes
the one fallback: revert to the state before the attempt and execute
plainly.  Either way the state transition is bit-identical to a plain
execution — which the Merkle-root checks in the test suite and benches
verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chain.block import BlockHeader, blockhash
from repro.chain.transaction import Transaction
from repro.core import costmodel
from repro.core.ap import AcceleratedProgram
from repro.core.costmodel import CostTally
from repro.errors import ConstraintViolation
from repro.evm.interpreter import (
    EVM,
    ExecutionResult,
    run_envelope,
    transfer,
)
from repro.evm.jit.specialize import APExecStats
from repro.evm.jit.tier import JitTier
from repro.faults.injector import NULL_INJECTOR
from repro.obs.registry import MetricsRegistry
from repro.state.statedb import StateDB
from repro.witness.recorder import ReadSetRecorder

#: Outcome labels (Table 3's prediction-outcome breakdown).
OUTCOME_NO_AP = "no_ap"          # heard/unheard but nothing speculated
OUTCOME_VIOLATED = "violated"    # AP existed, no constraint set matched
OUTCOME_SATISFIED = "satisfied"  # fast path executed
#: The accelerated attempt died to a contained fault (chaos layer or a
#: real bug); the accelerator reverted and re-ran the plain path.
#: Counted in Table 3's unsatisfied bucket like any other non-satisfied
#: outcome.
OUTCOME_FAULTED = "faulted"

#: The fixed units each outcome's tally carries (see
#: :meth:`TransactionAccelerator.execute`): a violated transaction pays
#: its aborted AP attempt and the fallback.
FIXED_UNITS = {
    OUTCOME_NO_AP: costmodel.TX_FIXED,
    OUTCOME_SATISFIED: costmodel.AP_FIXED,
    OUTCOME_VIOLATED: costmodel.FALLBACK_FIXED + costmodel.AP_FIXED,
    OUTCOME_FAULTED: costmodel.FALLBACK_FIXED,
}


@dataclass
class AcceleratedReceipt:
    """Execution result plus acceleration telemetry for one transaction."""

    result: ExecutionResult
    outcome: str
    tally: CostTally
    ap_stats: Optional[APExecStats] = None
    #: Ids of speculated contexts whose full read set matched reality
    #: (non-empty => the traditional "perfect prediction" would have hit).
    perfect_context_ids: Tuple[int, ...] = ()
    used_ap: bool = False
    #: Context values the execution observed, in read-set convention
    #: ((kind, key) -> value).  The AP closure collects these anyway;
    #: the plain path fills them only when witness recording is on.
    observed_reads: Optional[Dict[tuple, int]] = None

    @property
    def tier(self) -> str:
        """Which executor produced the result: "jit" (the AP's closure)
        or "plain" (full EVM)."""
        return "jit" if self.used_ap else "plain"


def context_matches(read_set: Dict[tuple, int], state: StateDB,
                    header: BlockHeader) -> bool:
    """Is the actual context identical to a speculated one (on its
    read set)?  This is the traditional speculative-execution test."""
    for (kind, key), expected in read_set.items():
        if kind == "storage":
            actual = state.get_storage(key[0], key[1])
        elif kind == "balance":
            actual = state.get_balance(key[0])
        elif kind == "header":
            actual = getattr(header, key[0])
        elif kind == "blockhash":
            actual = blockhash(key[0])
        elif kind == "extcodesize":
            actual = len(state.get_code(key[0]))
        else:
            return False
        if actual != expected:
            return False
    return True


class TransactionAccelerator:
    """Executes transactions, preferring accelerated programs."""

    def __init__(self, jit=None, record_witnesses: bool = False,
                 guard=None, injector=NULL_INJECTOR) -> None:
        #: The :class:`~repro.evm.jit.tier.JitTier` every AP runs
        #: through; without one, a tier with its own registry, so a
        #: bare accelerator adds no ``jit`` scope to the global one.
        self.jit = jit if jit is not None \
            else JitTier(registry=MetricsRegistry())
        #: When on, plain executions trace their context read set (via
        #: :class:`repro.witness.recorder.ReadSetRecorder`) so every
        #: receipt carries witness constraints.  Off by default: the
        #: AP closure observes its reads for free, but the plain path
        #: pays one dict probe per context read.
        self.record_witnesses = record_witnesses
        #: Optional :class:`repro.faults.guard.SpeculationGuard` around
        #: each accelerated attempt.  An exception it contains (an
        #: injected fault or a bug) takes the fallback, as a constraint
        #: violation does; without a guard the exception propagates.
        self.guard = guard
        #: Fault source of the ``accelerator.execute`` site.
        self.injector = injector

    # -- plain path ---------------------------------------------------------

    def execute_plain(self, tx: Transaction, header: BlockHeader,
                      state: StateDB,
                      fixed_cost: int = costmodel.TX_FIXED
                      ) -> AcceleratedReceipt:
        """Full EVM execution with cost accounting."""
        io_before = state.disk.stats.cost_units
        recorder = ReadSetRecorder() if self.record_witnesses else None
        evm = EVM(state, header, tx, tracer=recorder)
        result = evm.execute_transaction()
        tally = costmodel.evm_execution_cost(
            evm.instruction_count,
            state.disk.stats.cost_units - io_before,
            fixed=fixed_cost,
            write_ops=evm.write_op_count)
        return AcceleratedReceipt(
            result=result, outcome=OUTCOME_NO_AP, tally=tally,
            observed_reads=recorder.reads if recorder else None)

    # -- accelerated path ------------------------------------------------------

    def execute(self, tx: Transaction, header: BlockHeader, state: StateDB,
                ap: Optional[AcceleratedProgram]) -> AcceleratedReceipt:
        """Execute ``tx``: AP fast path if possible, else the fallback.

        An AP the compiler rejects leaves ``tx`` to run plainly, before
        the envelope opens, so there is nothing to undo."""
        if ap is None or ap.root is None or not self.jit.ready(ap):
            return self.execute_plain(tx, header, state)

        tally = CostTally(fixed_units=costmodel.AP_FIXED)
        io_before = state.disk.stats.cost_units
        snap = state.snapshot()
        logs_mark = len(state.logs)

        def attempt() -> Optional[AcceleratedReceipt]:
            self.injector.maybe_raise("accelerator.execute",
                                      tx=tx.hash, contract=tx.to)
            try:
                return self._run_ap(tx, header, state, ap, tally)
            except ConstraintViolation:
                return None

        if self.guard is None:
            receipt, faulted = attempt(), False
        else:
            receipt, faulted = self.guard.run("accelerator.execute",
                                              attempt)
        if receipt is not None:
            tally.io_units += state.disk.stats.cost_units - io_before
            return receipt
        # The one fallback, for a violation and a contained fault alike.
        state.revert_to(snap)
        del state.logs[logs_mark:]
        receipt = self.execute_plain(
            tx, header, state, fixed_cost=costmodel.FALLBACK_FIXED)
        if faulted:
            receipt.outcome = OUTCOME_FAULTED
        else:
            receipt.outcome = OUTCOME_VIOLATED
            # The aborted constraint check's work counts too.
            receipt.tally.cpu_units += tally.cpu_units
            receipt.tally.fixed_units += tally.fixed_units
        return receipt

    def _run_ap(self, tx: Transaction, header: BlockHeader,
                state: StateDB, ap: AcceleratedProgram,
                tally: CostTally) -> AcceleratedReceipt:
        """``tx`` in the shared envelope, with ``ap`` as its message.
        Raises :class:`ConstraintViolation` to trigger the fallback."""
        outcome = None

        def message(gas: int) -> Tuple[bool, bytes, int]:
            nonlocal outcome
            if tx.value and not transfer(state, tx.sender, tx.to,
                                         tx.value):
                return False, b"", gas
            outcome = self.jit.execute(ap, state, header, tally)
            return (outcome.success, outcome.return_data,
                    tx.gas_limit - outcome.gas_used)

        result = run_envelope(state, header, tx, message)
        if outcome is None:
            # The envelope or the value transfer ended the transaction
            # before the AP ran.
            return AcceleratedReceipt(
                result=result, outcome=OUTCOME_SATISFIED, tally=tally,
                used_ap=True, observed_reads={})
        return AcceleratedReceipt(
            result=result, outcome=OUTCOME_SATISFIED, tally=tally,
            ap_stats=outcome.stats, used_ap=True,
            observed_reads=outcome.observed_reads,
            perfect_context_ids=self._classify_from_observation(
                ap, outcome.observed_reads, header))

    def _classify_from_observation(
            self, ap: AcceleratedProgram,
            observed_reads: Dict[tuple, int],
            header: BlockHeader) -> Tuple[int, ...]:
        """Which speculated contexts matched reality perfectly.

        Uses the values the AP execution itself observed — no extra
        state reads, no cache-warming side effects.  A path is a
        perfect prediction when every entry of its speculated read set
        equals the observed value (header fields are checked against
        the actual header even if the AP never read them via a node,
        since promotion may have folded duplicate reads).
        """
        perfect = []
        for path in ap.paths:
            matched = True
            for (kind, key), expected in path.read_set.items():
                if kind == "header":
                    actual = getattr(header, key[0])
                else:
                    actual = observed_reads.get((kind, key))
                if actual != expected:
                    matched = False
                    break
            if matched:
                perfect.append(path.context_id)
        return tuple(dict.fromkeys(perfect))
