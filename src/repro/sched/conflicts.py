"""Read/write-set conflict analysis over transaction traces.

Follows Saraph & Herlihy ("An Empirical Study of Speculative
Concurrency in Ethereum Smart Contracts", PAPERS.md): two transactions
conflict when one's accesses intersect the other's writes.  Keys are
fine-grained — ``("bal", addr)``, ``("nonce", addr)``, ``("code",
addr)``, ``("exist", addr)`` and ``("slot", addr, slot)`` — so two
token transfers touching different balances of the same contract do
not conflict.  Commutative coinbase fee credits are excluded from the
access sets entirely (they commute under addition); a transaction that
reads or writes the coinbase balance *explicitly* is flagged
``entangled`` and always yields to serial order.

The executor's derivation
(:meth:`repro.sched.executor.ParallelBlockExecutor.derive`) computes
the conflict pairs and greedy-schedule depth in one sweep; the
readable pairwise definitions it is tested against live in
``tests/test_sched_derive.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional


@dataclass
class AccessSet:
    """One transaction's state accesses, as its execution in block
    order recorded them (:class:`repro.state.statedb.AccessLog`).

    Commutative coinbase fee credits are in neither set; an account
    the transaction created is in ``writes`` under all four of its
    ``exist`` / ``bal`` / ``nonce`` / ``code`` keys.
    """

    reads: AbstractSet[tuple] = frozenset()
    #: Every key written, including writes reverted later in the tx.
    writes: AbstractSet[tuple] = frozenset()
    #: The writes still in place when the tx ended, where some were
    #: reverted (``None``: all of ``writes``) — what the tx contributes
    #: when it aborts and re-executes serially.
    kept: Optional[AbstractSet[tuple]] = None
    #: True when the tx touched the coinbase balance non-commutatively
    #: (explicit read/write) — it must then execute in serial order.
    entangled: bool = False

