"""The shared witness recording hook.

Both execution tiers feed the same recorder:

* the **plain interpreter** drives it through the
  :class:`repro.evm.tracing.Tracer` protocol — the recorder overrides
  only the context hooks, so the interpreter keeps its fast step
  dispatch (see ``EVM.__init__``);
* the **AP closures** hand over the ``observed_reads`` their execution
  collected anyway — zero extra work on the fast path;
* the **state delta** comes from the StateDB journal for every tier
  (:meth:`repro.state.statedb.StateDB.witness_deltas`), so witness
  emission never adds a single state read to the critical path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.evm.tracing import Tracer
from repro.witness.format import ExecutionWitness


class ReadSetRecorder(Tracer):
    """Tracer that collects the interpreter's context read set.

    Overrides *only* the context hooks — never ``on_step`` — so the
    interpreter builds no step records (``EVM.tracing`` stays off):
    recording a witness costs one dict probe per context read, nothing
    per instruction.  First read wins (``setdefault``), matching the
    read-set convention of :mod:`repro.core.trace` and the AP closures.
    """

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: Dict[tuple, int] = {}
        self.writes: int = 0

    def on_context_read(self, kind: str, key: tuple, value: int) -> None:
        self.reads.setdefault((kind, key), value)

    def on_state_write(self, kind: str, key: tuple, value: Any) -> None:
        self.writes += 1


def build_witness(*, tx_hash: int, block_number: int, receipt,
                  span_delta: dict, logs,
                  context_ids=()) -> ExecutionWitness:
    """Assemble one transaction's witness.

    ``receipt`` is an :class:`repro.core.accelerator.AcceleratedReceipt`
    carrying tier/observed-read telemetry; ``span_delta`` is one entry
    of :meth:`StateDB.witness_deltas` for this transaction's journal
    span; ``logs`` is the master log-list slice of the same span (one
    source for all tiers).
    """
    stats = receipt.ap_stats
    return ExecutionWitness.assemble(
        tx_hash=tx_hash,
        block_number=block_number,
        tier=receipt.tier,
        outcome=receipt.outcome,
        success=receipt.result.success,
        gas_used=receipt.result.gas_used,
        cost_units=receipt.tally.total,
        observed_reads=receipt.observed_reads,
        delta=span_delta["delta"],
        created=span_delta["created"],
        guards_checked=stats.guards_checked if stats is not None else 0,
        logs=logs,
        return_data=receipt.result.return_data,
        context_ids=context_ids,
    )


def ap_context_ids(ap) -> Tuple[int, ...]:
    """Speculated context ids of the AP a receipt ran (if any)."""
    if ap is None:
        return ()
    return tuple(sorted(ap.context_ids))
