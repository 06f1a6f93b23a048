"""Deterministic crash-recovery: WAL, snapshots, crash points, replay.

Forerunner runs as a long-lived live node (the paper's 10-day L1/R1-R5
experiments): it must be able to die mid-block and come back without
corrupting chain state; its speculation capital (APs, the memo
table, prefix caches) is re-derived, never restored.  This package adds the durability boundary the emulator lacked:

* :mod:`repro.recovery.journal` — a cost-unit-ordered write-ahead log
  of durable events with CRC-framed, canonical-JSON records that
  tolerate torn tails;
* :mod:`repro.recovery.snapshot` — periodic copy-on-write snapshots of
  chain / state / txpool with atomic install and bounded
  journal truncation;
* seeded crash injection at every journal append, fsync and snapshot
  boundary: the ``recovery`` layer of the one fault-site table
  (:mod:`repro.faults.sites`), fired through the injector's
  ``maybe_crash`` / ``torn_fires``;
* :mod:`repro.recovery.replay` — the durable replay harness plus
  restart replay that rebuilds the node, re-runs speculation for
  in-flight heads, and verifies convergence against the journal and
  the uncrashed equivalence digest.

The acceptance bar is the Dafny-style one: recovery is correct only if
the replayed post-state is *byte-identical* to an uninterrupted run —
checked with the same digests :mod:`repro.faults.invariants` uses.
"""

from repro.recovery.journal import (  # noqa: F401
    JournalRecord,
    JournalScan,
    JournalWriter,
    read_journal,
    truncate_torn_tail,
)
from repro.recovery.replay import (  # noqa: F401
    DurableReplay,
    RecoveryOutcome,
    recovery_report,
    run_with_recovery,
)
from repro.recovery.snapshot import SnapshotStore  # noqa: F401
