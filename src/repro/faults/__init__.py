"""Deterministic fault injection + graceful degradation (chaos layer).

Four pieces:

* :mod:`repro.faults.sites` — the one site table: every injection site
  of every layer (pipeline, edge, fleet, net, recovery) with its kind,
  magnitude, sweep rate, driver site and containment contract;
* :mod:`repro.faults.injector` — declarative :class:`FaultPlan`\\ s
  built from the table, :func:`sweep_plans`, and the
  :class:`FaultInjector` consulted at the sites;
* :mod:`repro.faults.guard` — :class:`SpeculationGuard` containment,
  transient-storage retry, and the per-contract
  :class:`CircuitBreaker`;
* :mod:`repro.faults.invariants` — :func:`check_equivalence`, the
  paper's "speculation is pure acceleration" safety property as an
  executable check, and :func:`compare_commitments`, the one
  human-readable comparer of two commitment lists.

See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.guard import (
    CircuitBreaker,
    RetryPolicy,
    SpeculationGuard,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.faults.injector import (
    DEFAULT_REORDER_SECONDS,
    DEFAULT_STALL_UNITS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    NULL_INJECTOR,
    NullInjector,
    corrupt_frame,
    corrupt_guard_branch,
    corrupt_shortcut,
    sweep_plans,
)
from repro.faults.invariants import (
    EquivalenceReport,
    check_equivalence,
    compare_commitments,
    format_report,
    run_digest,
)
from repro.faults.sites import (
    KINDS,
    LAYERS,
    SITE_TABLE,
    Site,
    layer_sites,
    site_row,
)

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "SpeculationGuard",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "DEFAULT_REORDER_SECONDS",
    "DEFAULT_STALL_UNITS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "NULL_INJECTOR",
    "NullInjector",
    "corrupt_frame",
    "corrupt_guard_branch",
    "corrupt_shortcut",
    "sweep_plans",
    "EquivalenceReport",
    "check_equivalence",
    "compare_commitments",
    "format_report",
    "run_digest",
    "KINDS",
    "LAYERS",
    "SITE_TABLE",
    "Site",
    "layer_sites",
    "site_row",
]
