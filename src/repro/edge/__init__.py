"""repro.edge — the overload-resilient JSON-RPC serving edge.

A deterministic, single-process simulation of the serving front end a
production Forerunner deployment would put in front of its nodes:
JSON-RPC requests answered from the speculation pipeline where
possible, with per-method bulkheads, cost-unit deadline propagation,
per-client rate limiting, a three-level brownout ladder, and per-method
circuit breaking.  See ``docs/EDGE.md``.
"""

from repro.edge.brownout import (  # noqa: F401
    BrownoutController,
    LEVEL_DEGRADED,
    LEVEL_FULL,
    LEVEL_NAMES,
    LEVEL_SHED,
)
from repro.edge.clients import (  # noqa: F401
    ScenarioConfig,
    ScheduledRequest,
    build_scenario,
)
from repro.edge.journal import (  # noqa: F401
    AcceptedTxLog,
    recover_accepted,
    restore_pool,
)
from repro.edge.limits import (  # noqa: F401
    Bulkhead,
    Deadline,
    RetryBudget,
    RetryConfig,
    TokenBucket,
)
from repro.edge.report import build_report, format_report  # noqa: F401
from repro.edge.serve import ServingResult, run_serving  # noqa: F401
from repro.edge.server import EdgeConfig, EdgeServer, METHODS  # noqa: F401
