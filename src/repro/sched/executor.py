"""Block executor: one serial pass over a decided block.

Every transaction executes once, in block order, on the master
StateDB, through the node's strategy (AP fast path with containment,
or the plain EVM); the caller commits.  What N optimistic lanes would
have made of the block is an offline analysis of the committed blocks
(:mod:`repro.sched.whatif`): nothing here records for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.state.statedb import StateDB


@dataclass
class TxOutcome:
    """One transaction's committed result and where it sits in the
    master journal."""

    tx: object
    receipt: object
    #: Master-journal positions (start, end) spanning this tx.
    #: Consumed by :meth:`StateDB.witness_deltas` before the block
    #: commits.
    journal_span: Tuple[int, int]
    #: Master log-list span (start, end) for this transaction.
    logs_span: Tuple[int, int]


#: ``execute_fn(tx, state) -> AcceleratedReceipt`` — the node's
#: execution strategy (AP fast path with containment, or plain EVM).
ExecuteFn = Callable[[object, StateDB], object]


class ParallelBlockExecutor:
    """The node's block loop.  The name outlives the lanes it once
    scheduled: the benchmark harness's span table (``perf/trace.py``)
    times the critical path's block loop under it."""

    def execute_block(self, master: StateDB, plans: Sequence[object],
                      execute_fn: ExecuteFn) -> List[TxOutcome]:
        """Execute ``plans`` (the block's transactions, in order) onto
        ``master``, uncommitted; returns per-tx outcomes in block
        order."""
        outcomes: List[TxOutcome] = []
        end, logs_end = master.snapshot(), len(master.logs)
        for tx in plans:
            start, logs_start = end, logs_end
            receipt = execute_fn(tx, master)
            end, logs_end = master.snapshot(), len(master.logs)
            outcomes.append(TxOutcome(tx, receipt, (start, end),
                                      (logs_start, logs_end)))
        return outcomes
