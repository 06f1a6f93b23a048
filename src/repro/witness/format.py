"""The execution-witness record and its canonical byte-stable encoding.

One witness certifies one transaction's effect on the chain:

* **constraints** — the context values the execution *depended on*
  (the AP's observed read set, or the interpreter's traced reads),
  each a ``[kind, key, value]`` triple in read-set convention;
* **delta** — the net state change, ``[kind, key, pre, post]`` per
  touched account field / storage slot, plus created accounts;
* **accounting** — gas used, cost units charged, guard checks run;
* **digests** — SHA-256 over the canonical encodings of the log
  records and return data.

Everything encodes through :func:`repro.obs.export.canonical_json`
(sorted keys, compact separators), so a witness line — and the digest
of a witness — is byte-identical run to run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.export import canonical_json

WITNESS_VERSION = 1

#: Execution tiers that can emit a witness (the shared recording hook
#: serves both).
TIER_PLAIN = "plain"    # full EVM interpretation
TIER_JIT = "jit"        # the AP's compiled closure


def logs_digest(logs) -> str:
    """SHA-256 over the canonical encoding of one tx's log records.

    Accepts ``(address, topics, data)`` tuples (interpreter results)
    or :class:`repro.state.statedb.LogEntry` records interchangeably.
    """
    rows = []
    for entry in logs:
        if isinstance(entry, tuple):
            address, topics, data = entry
        else:
            address, topics, data = entry.address, entry.topics, entry.data
        rows.append([address, list(topics), data.hex()])
    payload = canonical_json(rows)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def data_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_value(value) -> object:
    """JSON-stable encoding of a delta value (int, bytes, or None)."""
    if isinstance(value, bytes):
        return ["b", value.hex()]
    return value


def decode_value(value) -> object:
    if isinstance(value, list) and len(value) == 2 and value[0] == "b":
        return bytes.fromhex(value[1])
    return value


def _account_desc(account) -> Optional[list]:
    """Pre-image of a (re)created account: None when absent before."""
    if account is None:
        return None
    return [account.balance, account.nonce, account.code.hex()]


@dataclass
class ExecutionWitness:
    """Checkable record of one transaction's execution."""

    tx_hash: int
    block_number: int
    #: Which tier produced the result: "plain" | "jit".
    tier: str
    #: Accelerator outcome label (no_ap/satisfied/violated/faulted).
    outcome: str
    success: bool
    gas_used: int
    #: Total cost units the original execution charged.
    cost_units: int
    #: Sorted ``[kind, key, value]`` constraint triples.
    constraints: List[list] = field(default_factory=list)
    #: Sorted ``[kind, key, pre, post]`` net-delta entries.
    delta: List[list] = field(default_factory=list)
    #: ``[address, pre_account_desc]`` per account created in the tx.
    created: List[list] = field(default_factory=list)
    guards_checked: int = 0
    logs_count: int = 0
    logs_sha256: str = logs_digest([])
    return_sha256: str = data_digest(b"")
    #: Distinct speculated context ids folded into the AP that ran
    #: (empty for plain executions).
    context_ids: List[int] = field(default_factory=list)

    @classmethod
    def assemble(cls, *, tx_hash: int, block_number: int, tier: str,
                 outcome: str, success: bool, gas_used: int,
                 cost_units: int,
                 observed_reads: Optional[Dict[tuple, int]],
                 delta: Dict[tuple, Tuple[object, object]],
                 created: List[tuple],
                 guards_checked: int,
                 logs: List[Tuple[int, Tuple[int, ...], bytes]],
                 return_data: bytes,
                 context_ids=()) -> "ExecutionWitness":
        constraints = sorted(
            [kind, list(key), value]
            for (kind, key), value in (observed_reads or {}).items())
        delta_rows = sorted(
            [kind, list(key), _encode_value(pre), _encode_value(post)]
            for (kind, key), (pre, post) in delta.items())
        return cls(
            tx_hash=tx_hash,
            block_number=block_number,
            tier=tier,
            outcome=outcome,
            success=success,
            gas_used=gas_used,
            cost_units=cost_units,
            constraints=constraints,
            delta=delta_rows,
            created=sorted([addr, _account_desc(prev)]
                           for addr, prev in created),
            guards_checked=guards_checked,
            logs_count=len(logs),
            logs_sha256=logs_digest(logs),
            return_sha256=data_digest(return_data),
            context_ids=sorted(context_ids),
        )


def witness_to_dict(witness: ExecutionWitness) -> dict:
    """Canonical plain-dict form (the JSONL line payload)."""
    return {
        "v": WITNESS_VERSION,
        "tx_hash": witness.tx_hash,
        "block": witness.block_number,
        "tier": witness.tier,
        "outcome": witness.outcome,
        "success": witness.success,
        "gas_used": witness.gas_used,
        "cost_units": witness.cost_units,
        "constraints": witness.constraints,
        "delta": witness.delta,
        "created": witness.created,
        "guards_checked": witness.guards_checked,
        "logs_count": witness.logs_count,
        "logs_sha256": witness.logs_sha256,
        "return_sha256": witness.return_sha256,
        "context_ids": witness.context_ids,
    }


def witness_digest(witness: ExecutionWitness) -> str:
    """SHA-256 of the canonical witness encoding (its identity)."""
    payload = canonical_json(witness_to_dict(witness))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
