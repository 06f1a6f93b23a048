"""Transaction execution accelerator: the on-critical-path component.

Runs each transaction through its accelerated program when one exists
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
from repro.core.ap_exec import APExecStats, execute_ap
from repro.core.costmodel import CostTally
from repro.errors import ConstraintViolation
from repro.evm.interpreter import (
    EVM,
    ExecutionResult,
    run_envelope,
    transfer,
)
from repro.faults.injector import NULL_INJECTOR
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
    #: Which execution tier produced the result: "plain" (full EVM),
    #: "walk" (interpreted AP), or "jit" (specialized closure).
    tier: str = "plain"
    #: Context values the execution observed, in read-set convention
    #: ((kind, key) -> value).  The AP tiers collect these anyway; the
    #: plain path fills them only when witness recording is on.
    observed_reads: Optional[Dict[tuple, int]] = None


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
        #: Optional :class:`repro.evm.jit.tier.JitTier`: AP execution
        #: routes through the tier (specialized closure when a valid
        #: artifact exists, the interpreted walker otherwise).
        self.jit = jit
        #: When on, plain executions trace their context read set (via
        #: :class:`repro.witness.recorder.ReadSetRecorder`) so every
        #: receipt carries witness constraints.  Off by default: the
        #: AP tiers observe their reads for free, but the plain path
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
        """Execute ``tx``: AP fast path if possible, else the fallback."""
        if ap is None or ap.root is None:
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
            if self.jit is not None:
                outcome = self.jit.execute(ap, state, header, tally)
            else:
                outcome = execute_ap(ap, state, header, tally)
            return (outcome.success, outcome.return_data,
                    tx.gas_limit - outcome.gas_used)

        result = run_envelope(state, header, tx, message)
        if outcome is None:
            # The envelope or the value transfer ended the transaction
            # before the AP ran.
            return AcceleratedReceipt(
                result=result, outcome=OUTCOME_SATISFIED, tally=tally,
                used_ap=True, tier="walk", observed_reads={})
        return AcceleratedReceipt(
            result=result, outcome=OUTCOME_SATISFIED, tally=tally,
            ap_stats=outcome.stats, used_ap=True,
            tier=self.jit.last_used if self.jit is not None else "walk",
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
