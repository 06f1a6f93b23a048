"""Journaled accepted-transaction log (edge and fleet durability).

``eth_sendRawTransaction`` acknowledges acceptance to the client; that
acknowledgement is a durability promise — an accepted-but-not-yet-
committed transaction must survive an edge crash.  The log reuses the
recovery layer's CRC-framed write-ahead journal
(:mod:`repro.recovery.journal`): one synced ``edge.accept`` record per
accepted transaction, appended *before* the transaction enters the
node's pool, torn tails truncated on recovery exactly like the node's
own WAL.

It is the one durable transaction-log format: a fleet's per-shard
journal (:class:`repro.fleet.supervisor.FleetSupervisor`) is this log,
holding the first sighting of every transaction the shard is home to,
and :func:`recover_accepted` is its reader at replica restart and
torn-handoff repair alike.

Recovery replays the log against a fresh node: transactions whose
hashes already appear in committed blocks are skipped (they were
served), the rest re-enter the pending pool with their original heard
times — so a restarted edge resumes speculating on exactly the
accepted-but-unserved backlog.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.chain.transaction import (
    Transaction,
    tx_from_wire,
    tx_to_wire,
)
from repro.faults.injector import NULL_INJECTOR
from repro.recovery.journal import (
    JournalWriter,
    read_journal,
    truncate_torn_tail,
)

RECORD_ACCEPT = "edge.accept"


class AcceptedTxLog:
    """Durable log of transactions the edge acknowledged."""

    def __init__(self, path: str, injector=NULL_INJECTOR,
                 obs=None, next_seq: int = 0) -> None:
        self.path = path
        self._writer = JournalWriter(path, injector=injector, obs=obs,
                                     next_seq=next_seq)
        self.accepted = 0

    def record(self, tx: Transaction, now: float) -> None:
        """Append one acceptance (synced: it is an acknowledgement)."""
        self._writer.append(
            RECORD_ACCEPT, tx_to_wire(tx), sync=True,
            clock={"sim_seconds": round(now, 6), "tx": tx.hash})
        self.accepted += 1

    def close(self) -> None:
        self._writer.close()


def recover_accepted(path: str) -> Tuple[List[Tuple[Transaction, float]],
                                         int, int]:
    """Scan an accepted-tx log after a crash.

    Truncates any torn tail, then returns
    ``(entries, torn_bytes, next_seq)`` where ``entries`` is the
    ``(tx, heard_time)`` list in acceptance order.  A missing file is
    an empty log (the edge never accepted anything).
    """
    if not os.path.exists(path):
        return [], 0, 0
    torn = truncate_torn_tail(path)
    scan = read_journal(path)
    entries: List[Tuple[Transaction, float]] = []
    for record in scan.records:
        if record.type != RECORD_ACCEPT:
            continue
        heard = float(record.clock.get("sim_seconds", 0.0))
        entries.append((tx_from_wire(record.data), heard))
    return entries, torn, scan.next_seq


def restore_pool(node, entries, committed: Optional[set] = None) -> int:
    """Re-inject accepted-but-unserved transactions into ``node``.

    ``committed`` is the set of tx hashes already in committed blocks
    (those were served; re-injecting them would double-execute).
    Returns the number of transactions restored.
    """
    committed = committed if committed is not None else {
        record.tx_hash
        for report in node.reports for record in report.records}
    restored = 0
    for tx, heard in entries:
        if tx.hash in committed:
            continue
        node.on_transaction(tx, heard)
        restored += 1
    return restored
