"""The fault plane's one site table.

Every place the system consults the injector is one row of
:data:`SITE_TABLE`: its name, the layer it belongs to, the fault kind
a generic plan uses there, the magnitude and per-evaluation rate a
sweep applies, the *driver* site that must be live for it to have a
window at all, whether it is lethal to speculation at p = 1.0, and a
one-line containment contract.  Plans
(:class:`repro.faults.injector.FaultPlan`), sweeps
(:func:`repro.faults.injector.sweep_plans`), the CLI, the tests'
parameter lists and the table in ``docs/ROBUSTNESS.md`` are all read
off it; adding a site is adding a row.

Layers
------

============ ==========================================================
``pipeline``  the speculation pipeline of one node; the layer generic
              plans (``FaultPlan.uniform`` / ``seeded_random`` with no
              ``sites``) draw from, in table order
``jit``       a pipeline site kept out of generic plans, because
              adding it to them would reseed every plan
``edge``      the serving edge's hostile-input surface; fires only
              inside a serving scenario
``fleet``     replica lifecycle, handoff and routing of the fleet
``net``       the wire plane: one evaluation per framed message (or,
              for the partition, per supervisor tick)
``recovery``  the durability boundaries; a fault there kills the
              simulated process (:class:`repro.errors.SimulatedCrash`,
              which no containment layer may catch), so a sweep fires
              it exactly once
============ ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# -- fault kinds -----------------------------------------------------------

KIND_RAISE = "raise"
KIND_CORRUPT = "corrupt"
KIND_DROP = "drop"
KIND_DUPLICATE = "duplicate"
KIND_REORDER = "reorder"
KIND_STORAGE = "storage_error"
KIND_STALL = "stall"
#: ``crash`` kills the simulated process (or replica, or link) at the
#: site; ``torn`` kills it midway through a durable write or handoff,
#: leaving the partial effect behind.
KIND_CRASH = "crash"
KIND_TORN = "torn"

KINDS = (KIND_RAISE, KIND_CORRUPT, KIND_DROP, KIND_DUPLICATE,
         KIND_REORDER, KIND_STORAGE, KIND_STALL, KIND_CRASH, KIND_TORN)

# -- layers ----------------------------------------------------------------

LAYER_PIPELINE = "pipeline"
LAYER_JIT = "jit"
LAYER_EDGE = "edge"
LAYER_FLEET = "fleet"
LAYER_NET = "net"
LAYER_RECOVERY = "recovery"

LAYERS = (LAYER_PIPELINE, LAYER_JIT, LAYER_EDGE, LAYER_FLEET, LAYER_NET,
          LAYER_RECOVERY)

# -- site names the consumers import ---------------------------------------

SITE_MALFORMED = "edge.malformed_request"
SITE_SLOW_CLIENT = "edge.slow_client"
SITE_STORM = "edge.request_storm"
SITE_HANDLER_STALL = "edge.handler_stall"

SITE_REPLICA_CRASH = "fleet.replica_crash"
SITE_HANDOFF_TORN = "fleet.handoff_torn"
SITE_ROUTE_FLAP = "fleet.route_flap"
SITE_STALE_SHARDMAP = "fleet.stale_shardmap"

SITE_NET_DROP = "net.drop"
SITE_NET_DUPLICATE = "net.duplicate"
SITE_NET_REORDER = "net.reorder"
SITE_NET_DELAY = "net.delay"
SITE_NET_PARTITION = "net.partition"

SITE_JOURNAL_APPEND = "recovery.journal.append"
SITE_JOURNAL_TORN = "recovery.journal.torn_write"
SITE_JOURNAL_AFTER_WRITE = "recovery.journal.after_write"
SITE_JOURNAL_AFTER_SYNC = "recovery.journal.after_sync"
SITE_SNAPSHOT_WRITE = "recovery.snapshot.write"
SITE_SNAPSHOT_TORN = "recovery.snapshot.torn_write"
SITE_SNAPSHOT_AFTER_WRITE = "recovery.snapshot.after_write"
SITE_BLOCK_PRE_COMMIT = "recovery.block.pre_commit"
SITE_BLOCK_POST_COMMIT = "recovery.block.post_commit"


@dataclass(frozen=True)
class Site:
    """One row of the site table."""

    name: str
    layer: str
    #: The fault kind a table-built plan uses here.
    kind: str
    #: What a fault at this site may cost, and why commitments hold.
    contract: str
    #: Kind-specific magnitude a table-built plan carries (cost units
    #: for ``stall``, simulated seconds for ``reorder`` / partition
    #: length); 0 leaves the choice to the kind's or consumer's default.
    magnitude: float = 0.0
    #: Per-evaluation probability the layer sweep runs this site at.
    rate: float = 1.0
    #: Site that must be live in the same plan for this one to have a
    #: window (swept together, at the same rate).
    driver: Optional[str] = None
    #: At p = 1.0 this site disables speculation entirely: effective
    #: speedup collapses to exactly 1.0 (other sites only shave it).
    lethal: bool = False


_FAILED_SPECULATION = ("the speculation is recorded failed; the tx "
                       "gets no AP path for that context")
_LANE_WHAT_IF = ("only moves the derived lane schedule (the block "
                 "already executed once, serially)")

SITE_TABLE: Tuple[Site, ...] = (
    # -- pipeline: today's generic-plan order; never reorder ------------
    Site("predictor.predict", LAYER_PIPELINE, KIND_RAISE,
         "no contexts are predicted: the tx executes unspeculated",
         lethal=True),
    Site("speculator.materialize_prefix", LAYER_PIPELINE, KIND_RAISE,
         _FAILED_SPECULATION, lethal=True),
    Site("speculator.pre_execute", LAYER_PIPELINE, KIND_RAISE,
         _FAILED_SPECULATION, lethal=True),
    Site("speculator.synthesize", LAYER_PIPELINE, KIND_RAISE,
         _FAILED_SPECULATION, lethal=True),
    Site("speculator.merge", LAYER_PIPELINE, KIND_RAISE,
         _FAILED_SPECULATION, lethal=True),
    Site("memoize.build", LAYER_PIPELINE, KIND_RAISE,
         "the AP keeps fewer or no shortcuts"),
    Site("memoize.corrupt", LAYER_PIPELINE, KIND_CORRUPT,
         "a re-keyed shortcut can only miss"),
    Site("ap.corrupt", LAYER_PIPELINE, KIND_CORRUPT,
         "a re-keyed guard branch raises ConstraintViolation: plain "
         "fallback"),
    Site("prefix_cache.lookup", LAYER_PIPELINE, KIND_RAISE,
         "a miss: the predecessors re-execute"),
    Site("prefix_cache.store", LAYER_PIPELINE, KIND_RAISE,
         "the prefix is not cached"),
    Site("prefetcher.prefetch", LAYER_PIPELINE, KIND_RAISE,
         "the keys stay cold: slower reads, same values"),
    Site("gossip.deliver", LAYER_PIPELINE, KIND_DROP,
         "the observer never hears the tx (or twice, or late): it "
         "executes unspeculated", lethal=True),
    Site("worker.stall", LAYER_PIPELINE, KIND_STALL,
         "the job's AP is ready later"),
    Site("storage.read", LAYER_PIPELINE, KIND_STORAGE,
         "retried with cost-unit backoff, then the speculation fails",
         lethal=True),
    Site("accelerator.execute", LAYER_PIPELINE, KIND_RAISE,
         "the state snapshot is reverted and the tx re-executed plainly"),
    Site("sched.admit", LAYER_PIPELINE, KIND_RAISE,
         "the speculation cycle is skipped", lethal=True),
    Site("sched.fork", LAYER_PIPELINE, KIND_RAISE,
         "that tx yields to serial order; " + _LANE_WHAT_IF),
    Site("sched.conflict_scan", LAYER_PIPELINE, KIND_RAISE,
         "the whole block yields to serial order; " + _LANE_WHAT_IF),
    Site("sched.commit", LAYER_PIPELINE, KIND_RAISE,
         "that clean tx yields to serial order; " + _LANE_WHAT_IF),
    Site("sched.prefetch_queue", LAYER_PIPELINE, KIND_DROP,
         "the queued prefetch is dropped: colder reads, same values"),
    # -- jit ---------------------------------------------------------------
    Site("jit.compile", LAYER_JIT, KIND_RAISE,
         "the AP is compiled when it first executes"),
    # -- edge ----------------------------------------------------------
    Site(SITE_MALFORMED, LAYER_EDGE, KIND_CORRUPT,
         "the mangled frame gets a structured parse error, never an "
         "exception"),
    Site(SITE_SLOW_CLIENT, LAYER_EDGE, KIND_STALL,
         "the request occupies bulkhead capacity longer",
         magnitude=30_000),
    Site(SITE_STORM, LAYER_EDGE, KIND_DUPLICATE,
         "rate limiting and backpressure absorb the copies"),
    Site(SITE_HANDLER_STALL, LAYER_EDGE, KIND_STALL,
         "deadline blow-outs trip the method's circuit breaker",
         magnitude=80_000),
    # -- fleet ---------------------------------------------------------
    Site(SITE_REPLICA_CRASH, LAYER_FLEET, KIND_CRASH,
         "the replica restarts from genesis + the block store, "
         "byte-identical; only warm speculation state is lost",
         rate=0.2),
    Site(SITE_HANDOFF_TORN, LAYER_FLEET, KIND_TORN,
         "journal repair restores the withdrawn-but-undelivered tx",
         rate=0.2, driver=SITE_REPLICA_CRASH),
    Site(SITE_ROUTE_FLAP, LAYER_FLEET, KIND_REORDER,
         "the misroute is detected and re-dispatched to the owner: one "
         "wasted hop", rate=0.2),
    Site(SITE_STALE_SHARDMAP, LAYER_FLEET, KIND_DROP,
         "the stale owner forwards: one extra hop, never a drop",
         rate=0.2, driver=SITE_REPLICA_CRASH),
    # -- net -----------------------------------------------------------
    Site(SITE_NET_DROP, LAYER_NET, KIND_DROP,
         "ack/retry with backoff, then forced escalation"),
    Site(SITE_NET_DUPLICATE, LAYER_NET, KIND_DUPLICATE,
         "the receiver's per-(sender, channel) sequence window dedups"),
    Site(SITE_NET_REORDER, LAYER_NET, KIND_REORDER,
         "receiver-side holdback releases in order"),
    Site(SITE_NET_DELAY, LAYER_NET, KIND_REORDER,
         "a latency spike; same sequencing machinery as reorder"),
    Site(SITE_NET_PARTITION, LAYER_NET, KIND_CRASH,
         "lease expiry, quorum re-election, parked traffic replayed on "
         "heal"),
    # -- recovery ------------------------------------------------------
    Site(SITE_JOURNAL_APPEND, LAYER_RECOVERY, KIND_CRASH,
         "dies before the record is written: nothing durable"),
    Site(SITE_JOURNAL_TORN, LAYER_RECOVERY, KIND_TORN,
         "dies mid-frame: the scanner detects and truncates the tail"),
    Site(SITE_JOURNAL_AFTER_WRITE, LAYER_RECOVERY, KIND_CRASH,
         "dies after write+flush, before fsync: the record is durable"),
    Site(SITE_JOURNAL_AFTER_SYNC, LAYER_RECOVERY, KIND_CRASH,
         "dies right after fsync: fully durable"),
    Site(SITE_SNAPSHOT_WRITE, LAYER_RECOVERY, KIND_CRASH,
         "dies before the snapshot file is written"),
    Site(SITE_SNAPSHOT_TORN, LAYER_RECOVERY, KIND_TORN,
         "dies mid-snapshot at the final path: the loader skips it"),
    Site(SITE_SNAPSHOT_AFTER_WRITE, LAYER_RECOVERY, KIND_CRASH,
         "dies before the atomic rename: the stray .tmp is ignored"),
    Site(SITE_BLOCK_PRE_COMMIT, LAYER_RECOVERY, KIND_CRASH,
         "dies before the block executes"),
    Site(SITE_BLOCK_POST_COMMIT, LAYER_RECOVERY, KIND_CRASH,
         "dies right after the block-commit record: re-driven and "
         "verified"),
)

_ROWS: Dict[str, Site] = {site.name: site for site in SITE_TABLE}


def site_row(name: str) -> Site:
    """The table row of ``name``; ``ValueError`` names the known sites."""
    try:
        return _ROWS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault site {name!r}; known sites: "
            f"{', '.join(_ROWS)}") from None


def layer_sites(layer: str) -> Tuple[str, ...]:
    """The site names of ``layer``, in table order."""
    if layer not in LAYERS:
        raise ValueError(f"unknown fault layer {layer!r}; "
                         f"known layers: {', '.join(LAYERS)}")
    return tuple(site.name for site in SITE_TABLE if site.layer == layer)


#: The ``net.*`` sites that perturb one message — every one but the
#: partition, which cuts links.  The ``lossy`` network profile and the
#: loss-rate sweeps run these together.
NET_LOSS_SITES: Tuple[str, ...] = tuple(
    name for name in layer_sites(LAYER_NET) if name != SITE_NET_PARTITION)
