"""The reference trace fingerprint: a content hash of one pre-execution.

The speculator decides that a job would reproduce a known path by
checking the path's recorded inputs against the materialized context
(:meth:`repro.core.speculator._KnownPath.holds`); it never hashes a
trace.  This hash is what the tests hold that check to: a check hit
must be a context whose traced fingerprint equals the cloned path's,
and a miss one whose fingerprint equals no indexed path's.  It is not
collected by pytest.
"""

from __future__ import annotations

import hashlib
import marshal

from repro.core.trace import TraceResult


def trace_fingerprint(trace: TraceResult) -> str:
    """Content hash of a trace: instruction stream, read/write sets,
    frame shape, and the execution outcome.

    Two pre-executions with equal fingerprints synthesize the same AP
    path.  The fingerprint deliberately excludes the context id — that
    is exactly the dimension dedup collapses.

    The whole payload, step rows included, is serialized by one
    ``marshal.dumps`` call at version 2.  Later versions mark repeated
    objects and interned strings by identity and refcount, so equal
    content could encode differently; version 2 encodes by value only.
    Each row's ``extra`` dict is encoded in insertion order, which is
    fixed per step name: each name is emitted from one ``_emit`` site
    with fixed keywords.
    """
    result = trace.result
    frames = [(frame_id, event.parent_id, event.code_address, event.depth,
               event.start_index, event.end_index, event.success,
               event.return_data)
              for frame_id, event in sorted(trace.frames.items())]
    payload = ((result.success, result.gas_used, result.return_data,
                result.error, result.logs),
               trace.steps,
               sorted(trace.read_set.items()),
               sorted(trace.write_set.items()),
               frames)
    return hashlib.sha256(marshal.dumps(payload, 2)).hexdigest()
