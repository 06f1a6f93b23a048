"""Atomic, CRC-framed snapshots with corrupt-skip loading.

A snapshot is one canonical-JSON payload framed exactly like a journal
record (magic + ``<II`` length/CRC header), written to a temp file,
fsync'd, and atomically installed with ``os.replace`` — so a reader
can never observe a half-written snapshot *unless* the torn-write
crashpoint deliberately writes partial bytes to the final path, which
is precisely the corruption :meth:`SnapshotStore.load_latest` must
survive by falling back to the next-newest intact snapshot (or to a
cold start).

The store keeps the newest ``keep`` snapshots and prunes the rest,
which — together with journal compaction up to the snapshot's sequence
number — bounds durable storage for arbitrarily long runs.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import List, Optional, Tuple

from repro.errors import SimulatedCrash
from repro.faults.injector import NULL_INJECTOR
from repro.faults.sites import (
    SITE_SNAPSHOT_AFTER_WRITE,
    SITE_SNAPSHOT_TORN,
    SITE_SNAPSHOT_WRITE,
)
from repro.obs.export import canonical_json

MAGIC = b"REPROSNP1"
_HEADER = struct.Struct("<II")


def _encode(payload: dict) -> bytes:
    data = canonical_json(payload).encode("ascii")
    return MAGIC + _HEADER.pack(len(data), zlib.crc32(data)) + data


def _decode(blob: bytes) -> dict:
    """Parse a snapshot file; raises ``ValueError`` on any corruption."""
    if not blob.startswith(MAGIC):
        raise ValueError("bad magic")
    header = blob[len(MAGIC):len(MAGIC) + _HEADER.size]
    if len(header) < _HEADER.size:
        raise ValueError("torn header")
    length, crc = _HEADER.unpack(header)
    start = len(MAGIC) + _HEADER.size
    data = blob[start:start + length]
    if len(data) < length or zlib.crc32(data) != crc:
        raise ValueError("torn or corrupt payload")
    return json.loads(data.decode("ascii"))


class SnapshotStore:
    """Directory of ``snap-<block>.bin`` files, newest-``keep`` kept."""

    def __init__(self, directory: str, injector=NULL_INJECTOR,
                 obs=None, keep: int = 2) -> None:
        self.directory = directory
        self.injector = injector
        self.keep = keep
        os.makedirs(directory, exist_ok=True)
        if obs is not None:
            self._c_saves = obs.counter("snapshot.saves")
            self._c_loads = obs.counter("snapshot.loads")
            self._c_corrupt = obs.counter("snapshot.corrupt_skipped")
            self._c_pruned = obs.counter("snapshot.pruned")
        else:
            self._c_saves = self._c_loads = None
            self._c_corrupt = self._c_pruned = None

    def path_for(self, block_number: int) -> str:
        return os.path.join(self.directory,
                            f"snap-{block_number:08d}.bin")

    def save(self, payload: dict, block_number: int) -> str:
        """Atomically install a snapshot for ``block_number``.

        Crashpoints: before the write (nothing durable), mid-write to
        the *final* path (a corrupt snapshot), and after the temp file
        is synced but before the rename (a stray ``.tmp``)."""
        self.injector.maybe_crash(SITE_SNAPSHOT_WRITE, block=block_number)
        frame = _encode(payload)
        final = self.path_for(block_number)
        if self.injector.torn_fires(SITE_SNAPSHOT_TORN,
                                    block=block_number):
            with open(final, "wb") as handle:
                handle.write(frame[:max(1, len(frame) // 2)])
                handle.flush()
            raise SimulatedCrash(SITE_SNAPSHOT_TORN)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        self.injector.maybe_crash(SITE_SNAPSHOT_AFTER_WRITE,
                                  block=block_number)
        os.replace(tmp, final)
        if self._c_saves is not None:
            self._c_saves.inc()
        self._prune()
        return final

    def _snapshot_files(self) -> List[str]:
        """Snapshot basenames, newest (highest block) first."""
        names = [name for name in os.listdir(self.directory)
                 if name.startswith("snap-") and name.endswith(".bin")]
        return sorted(names, reverse=True)

    def _prune(self) -> None:
        names = self._snapshot_files()
        for name in names[self.keep:]:
            os.remove(os.path.join(self.directory, name))
            if self._c_pruned is not None:
                self._c_pruned.inc()
        for name in os.listdir(self.directory):
            # Stray temp files are leftovers of a crash between the
            # temp-file sync and the rename; they hold no live data.
            if name.endswith(".tmp"):
                os.remove(os.path.join(self.directory, name))

    def load_latest(self) -> Optional[Tuple[dict, int]]:
        """Newest *intact* snapshot as ``(payload, block_number)``.

        Corrupt snapshots (torn-write crash victims) are skipped with a
        counter bump; returns ``None`` when nothing usable exists —
        recovery then cold-starts and replays the journal from the
        beginning."""
        for name in self._snapshot_files():
            path = os.path.join(self.directory, name)
            with open(path, "rb") as handle:
                blob = handle.read()
            try:
                payload = _decode(blob)
            except ValueError:
                if self._c_corrupt is not None:
                    self._c_corrupt.inc()
                continue
            if self._c_loads is not None:
                self._c_loads.inc()
            return payload, int(payload["block_number"])
        return None
