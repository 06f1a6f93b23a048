"""Cost-unit-ordered write-ahead journal with torn-tail tolerance.

The journal is the node's durability spine: every event a restart
reads back — transaction and block commits (:mod:`repro.recovery.
replay`), accepted transactions (:mod:`repro.edge.journal`) — is
appended *before* (or atomically with) the effect it makes durable, so
a restart can always reconstruct the durable prefix of history.

Record framing (all little-endian)::

    file   := magic  record*  [torn tail]
    magic  := b"REPROWAL1"
    record := header payload
    header := <II>  (payload length, CRC32 of payload)
    payload:= canonical JSON {"seq", "type", "clock", "data"}

Canonical JSON (sorted keys, compact separators, ASCII) makes frames
byte-stable across runs; the CRC makes *any* torn or bit-flipped tail
detectable: the scanner stops at the first short header, short payload,
CRC mismatch, or unparsable payload and reports the last good offset so
:func:`truncate_torn_tail` can chop the garbage off.  Records after a
torn record are unreachable by construction — a real WAL behaves the
same way — which is exactly the semantics the crash-matrix sweep
verifies.

``clock`` stamps each record with the deterministic cost-unit clocks
(critical-path execution cost, speculation cost, simulated seconds), so
the journal is ordered by the reproduction's own currencies rather than
wall time and two runs of the same seed produce byte-identical logs.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import RecoveryError, SimulatedCrash
from repro.faults.injector import NULL_INJECTOR
from repro.faults.sites import (
    SITE_JOURNAL_AFTER_SYNC,
    SITE_JOURNAL_AFTER_WRITE,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_TORN,
)
from repro.obs.export import canonical_json

MAGIC = b"REPROWAL1"
_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class JournalRecord:
    """One durable event: a monotone sequence number, a type tag, the
    deterministic clock stamp, and the event payload."""

    seq: int
    type: str
    data: dict
    clock: dict = field(default_factory=dict)

    def encode(self) -> bytes:
        payload = canonical_json({
            "seq": self.seq, "type": self.type,
            "clock": self.clock, "data": self.data,
        }).encode("ascii")
        return _HEADER.pack(len(payload),
                            zlib.crc32(payload)) + payload


@dataclass
class JournalScan:
    """Result of scanning a journal file from disk."""

    records: List[JournalRecord]
    #: Byte offset just past the last intact record (truncation point).
    good_offset: int
    #: Bytes of torn/corrupt tail found past ``good_offset``.
    torn_bytes: int
    #: Sequence number the next appended record should carry.
    next_seq: int


def read_journal(path: str) -> JournalScan:
    """Scan ``path``, returning every intact record plus tail status.

    Never raises on a torn tail — that is the expected post-crash shape
    — but a missing/garbled *magic header* is a real corruption and
    raises :class:`RecoveryError` (the file was never a journal).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        raise RecoveryError(f"{path}: not a journal (bad magic)")
    records: List[JournalRecord] = []
    offset = len(MAGIC)
    good = offset
    while offset < len(blob):
        header = blob[offset:offset + _HEADER.size]
        if len(header) < _HEADER.size:
            break  # torn header
        length, crc = _HEADER.unpack(header)
        start = offset + _HEADER.size
        payload = blob[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break  # torn or corrupt payload
        try:
            decoded = json.loads(payload.decode("ascii"))
            record = JournalRecord(
                seq=int(decoded["seq"]), type=str(decoded["type"]),
                data=decoded["data"],
                clock=decoded.get("clock", {}))
        except (ValueError, KeyError, UnicodeDecodeError):
            break  # CRC collided with garbage; treat as torn
        records.append(record)
        offset = start + length
        good = offset
    next_seq = records[-1].seq + 1 if records else 0
    return JournalScan(records=records, good_offset=good,
                       torn_bytes=len(blob) - good, next_seq=next_seq)


def truncate_torn_tail(path: str) -> int:
    """Chop any torn tail off ``path``; returns the bytes removed."""
    scan = read_journal(path)
    if scan.torn_bytes:
        with open(path, "r+b") as handle:
            handle.truncate(scan.good_offset)
    return scan.torn_bytes


class JournalWriter:
    """Appends framed records, with crashpoints at every boundary.

    ``sync=True`` appends model an fsync'd commit record (block
    commits, accepted transactions); unsync'd appends model the page
    cache — in this simulation both are durable once written, but the
    crashpoint *sites* differ, so the sweep exercises each boundary.

    ``obs`` is the ``recovery`` metrics scope (or ``None``): appends,
    syncs, bytes and compactions are counted there.
    """

    def __init__(self, path: str, injector=NULL_INJECTOR,
                 obs=None, next_seq: int = 0) -> None:
        self.path = path
        self.injector = injector
        self.next_seq = next_seq
        if obs is not None:
            self._c_appends = obs.counter("journal.appends")
            self._c_synced = obs.counter("journal.synced")
            self._c_bytes = obs.counter("journal.bytes")
            self._c_compactions = obs.counter("journal.compactions")
            self._c_compacted = obs.counter("journal.compacted_records")
        else:
            self._c_appends = self._c_synced = self._c_bytes = None
            self._c_compactions = self._c_compacted = None
        fresh = (not os.path.exists(path)
                 or os.path.getsize(path) < len(MAGIC))
        if fresh:
            with open(path, "wb") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
        self._handle = open(path, "ab")

    def append(self, type: str, data: dict, sync: bool = False,
               clock: Optional[dict] = None) -> JournalRecord:
        """Append one record; returns it.  May raise
        :class:`SimulatedCrash` at any of the four journal sites."""
        seq = self.next_seq
        self.injector.maybe_crash(SITE_JOURNAL_APPEND, seq=seq, type=type)
        record = JournalRecord(seq=seq, type=type, data=data,
                               clock=clock or {})
        frame = record.encode()
        if self.injector.torn_fires(SITE_JOURNAL_TORN, seq=seq, type=type):
            # Die mid-write: half the frame reaches the file.  The
            # scanner must detect this tail and truncate it.
            self._handle.write(frame[:max(1, len(frame) // 2)])
            self._handle.flush()
            raise SimulatedCrash(SITE_JOURNAL_TORN, seq=seq)
        self._handle.write(frame)
        self._handle.flush()
        self.next_seq = seq + 1
        if self._c_appends is not None:
            self._c_appends.inc()
            self._c_bytes.inc(len(frame))
        self.injector.maybe_crash(SITE_JOURNAL_AFTER_WRITE,
                                  seq=seq, type=type)
        if sync:
            os.fsync(self._handle.fileno())
            if self._c_synced is not None:
                self._c_synced.inc()
            self.injector.maybe_crash(SITE_JOURNAL_AFTER_SYNC,
                                      seq=seq, type=type)
        return record

    def compact(self, keep_from_seq: int) -> int:
        """Drop every record with ``seq < keep_from_seq`` (they are
        superseded by a snapshot).  Atomic: the new file is written to
        a temp path and renamed over the old one, so a crash mid-compact
        leaves the previous journal intact.  Returns records dropped."""
        self._handle.flush()
        self._handle.close()
        scan = read_journal(self.path)
        kept = [r for r in scan.records if r.seq >= keep_from_seq]
        dropped = len(scan.records) - len(kept)
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            for record in kept:
                handle.write(record.encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        # os.replace left the old handle on a dead inode — reopen.
        self._handle = open(self.path, "ab")
        if self._c_compactions is not None:
            self._c_compactions.inc()
            self._c_compacted.inc(dropped)
        return dropped

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()
