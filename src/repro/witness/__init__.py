"""Execution witnesses + differential conformance (ROADMAP item 4).

A witness is a per-transaction, independently checkable record of what
an execution did: every touched account/slot with pre/post values, the
constraint checks the fast path performed, gas and cost accounting,
and digests of the logs and return data — in the zkEVM-constraint
style (*Constraint-Level Design of zkEVMs*, PAPERS.md).

:mod:`repro.witness.recorder` is the shared recording hook: the plain
interpreter feeds it through the :class:`repro.evm.tracing.Tracer`
protocol, the AP closures feed it their observed read sets, and both share the StateDB journal for the
state delta.  :mod:`repro.witness.checker` validates a speculative
result from its witness *without re-execution* — constraint replay
plus delta application, at a small fraction of the original cost
units.  :mod:`repro.witness.oracle` drives seeded programs through
the AP closure, the witness checker and the plain interpreter and
reports any divergence from an independent reference semantics as a
byte-stable artifact.
"""

from repro.witness.checker import (
    CheckFailure,
    RunValidation,
    WitnessChecker,
)
from repro.witness.format import (
    WITNESS_VERSION,
    ExecutionWitness,
    logs_digest,
    witness_digest,
    witness_to_dict,
)
from repro.witness.oracle import OracleReport, run_oracle
from repro.witness.recorder import ReadSetRecorder, build_witness

__all__ = [
    "CheckFailure",
    "ExecutionWitness",
    "OracleReport",
    "ReadSetRecorder",
    "RunValidation",
    "WITNESS_VERSION",
    "WitnessChecker",
    "build_witness",
    "logs_digest",
    "run_oracle",
    "witness_digest",
    "witness_to_dict",
]
