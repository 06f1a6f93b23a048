"""Deterministic, seed-driven fault injection for the speculation pipeline.

Forerunner's safety property (paper §2, §7) is that speculation is pure
acceleration: a failed, corrupted, or missing speculative artifact must
never change committed state — the node simply falls back to baseline
execution.  This module provides the machinery to *exercise* that
property on demand:

* a :class:`FaultPlan` — a declarative schedule of :class:`FaultRule`\\ s
  (injection site, fault kind, seeded probability, optional trigger
  predicate / contract filter / firing window);
* a :class:`FaultInjector` that components consult at named injection
  sites and that draws **per-site RNG streams**, so the decision made at
  one site can never perturb the draws of another — two runs with the
  same plan make bitwise-identical decisions regardless of how sites
  interleave.

Everything is denominated in the reproduction's deterministic
currencies: probabilities are drawn from seeded streams, stalls are
cost units, reorder delays are simulated seconds.  No wall clock.

Fault kinds
-----------

========== ==================================================================
``raise``   raise :class:`repro.errors.InjectedFault` at the site
``corrupt`` corrupt a memo/AP payload (shortcut key or guard branch key);
            corruption is *detectable by construction* — every memoized
            payload is only ever applied under an exact-match key, so a
            corrupted key degrades to a miss or a constraint violation,
            never to wrong committed state
``drop``    drop a gossip message (the observer never hears the tx)
``duplicate`` deliver a gossip message twice (dedup at the pool absorbs it)
``reorder`` delay a gossip message by ``magnitude`` simulated seconds
``storage_error`` raise :class:`repro.errors.TransientStorageError` on a
            cold simulated-disk read (retryable; see the guard's policy)
``stall``   stall a speculation worker for ``magnitude`` cost units
========== ==================================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InjectedFault, TransientStorageError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.utils.hashing import hash_words, keccak_int

# -- fault kinds -----------------------------------------------------------

KIND_RAISE = "raise"
KIND_CORRUPT = "corrupt"
KIND_DROP = "drop"
KIND_DUPLICATE = "duplicate"
KIND_REORDER = "reorder"
KIND_STORAGE = "storage_error"
KIND_STALL = "stall"
#: Crash-recovery kinds (:mod:`repro.recovery.crashpoints`): ``crash``
#: kills the simulated process at the site; ``torn`` kills it midway
#: through a durable write, leaving a partial record on disk.  Their
#: sites are custom ``recovery.*`` rules and deliberately *not* part of
#: :data:`SITES`, so generic chaos plans (``FaultPlan.uniform``) never
#: raise an uncontainable :class:`repro.errors.SimulatedCrash`.
KIND_CRASH = "crash"
KIND_TORN = "torn"

KINDS = (KIND_RAISE, KIND_CORRUPT, KIND_DROP, KIND_DUPLICATE,
         KIND_REORDER, KIND_STORAGE, KIND_STALL, KIND_CRASH, KIND_TORN)

#: Default worker stall, in cost units (~0.1 s of simulated worker time).
DEFAULT_STALL_UNITS = 2_000_000
#: Default gossip reorder delay, in simulated seconds.
DEFAULT_REORDER_SECONDS = 6.0

#: Injection sites and the fault kind a generic plan uses there.  Sites
#: cover every speculative component: the predictor, all speculator
#: stages, the memo table, the prefix cache, the prefetcher, the gossip
#: delivery path, the simulated worker pool, simulated storage reads,
#: and the critical-path AP dispatch (whose containment is the node's
#: last line of defence).
SITE_KINDS: Dict[str, str] = {
    "predictor.predict": KIND_RAISE,
    "speculator.materialize_prefix": KIND_RAISE,
    "speculator.pre_execute": KIND_RAISE,
    "speculator.synthesize": KIND_RAISE,
    "speculator.merge": KIND_RAISE,
    "memoize.build": KIND_RAISE,
    "memoize.corrupt": KIND_CORRUPT,
    "ap.corrupt": KIND_CORRUPT,
    "prefix_cache.lookup": KIND_RAISE,
    "prefix_cache.store": KIND_RAISE,
    "prefetcher.prefetch": KIND_RAISE,
    "gossip.deliver": KIND_DROP,
    "worker.stall": KIND_STALL,
    "storage.read": KIND_STORAGE,
    "accelerator.execute": KIND_RAISE,
    # Concurrency scheduler (repro.sched).  Containments: an admission
    # fault skips the speculation cycle; a prefetch-queue fault drops
    # the request (colder reads, same values).  The block executes
    # once, serially, and its lane schedule is derived afterwards, so
    # the three executor sites only move that what-if: a fork fault
    # yields that transaction to serial order, a conflict-scan fault
    # the whole block, a commit fault that clean transaction.  None of
    # them can change committed state.
    "sched.admit": KIND_RAISE,
    "sched.fork": KIND_RAISE,
    "sched.conflict_scan": KIND_RAISE,
    "sched.commit": KIND_RAISE,
    "sched.prefetch_queue": KIND_DROP,
}

#: Like the ``recovery.*`` crash sites, the serving edge's ``edge.*``
#: sites (:data:`repro.edge.faults.EDGE_SITES`) are deliberately not
#: listed here: they only fire inside a serving scenario, which generic
#: pipeline chaos plans never run (a plain replay would leave them
#: unevaluated and the per-site degradation sweep would see zero
#: fires).  Build edge plans with
#: :func:`repro.edge.faults.edge_fault_plan` instead.
SITES: Tuple[str, ...] = tuple(SITE_KINDS)

#: Sites that, at 100% probability, disable speculation entirely (the
#: degradation sweep asserts speedup collapses to ~1.0 there; the other
#: sites only shave the acceleration).
LETHAL_SITES: Tuple[str, ...] = (
    "predictor.predict",
    "speculator.materialize_prefix",
    "speculator.pre_execute",
    "speculator.synthesize",
    "speculator.merge",
    "gossip.deliver",
    "storage.read",
    "sched.admit",
)


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    ``predicate`` (if given) receives the site's keyword context (tx
    hash, contract, ...) and must return True for the rule to be
    eligible; ``contract`` is a shorthand predicate on the context's
    ``contract`` key.  ``after``/``max_fires`` bound the firing window
    in per-site evaluation counts.
    """

    site: str
    kind: str
    probability: float = 1.0
    contract: Optional[int] = None
    predicate: Optional[Callable[[dict], bool]] = None
    #: Skip the first ``after`` evaluations of this site.
    after: int = 0
    #: Fire at most this many times (None = unlimited).
    max_fires: Optional[int] = None
    #: Kind-specific magnitude: cost units for ``stall``, simulated
    #: seconds for ``reorder``.  0 selects the kind's default.
    magnitude: float = 0.0

    def stall_units(self) -> int:
        return int(self.magnitude) if self.magnitude else DEFAULT_STALL_UNITS

    def reorder_seconds(self) -> float:
        return self.magnitude if self.magnitude else DEFAULT_REORDER_SECONDS


@dataclass
class FaultPlan:
    """A declarative, seeded fault schedule."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    @classmethod
    def uniform(cls, seed: int, probability: float,
                sites: Optional[Tuple[str, ...]] = None,
                magnitude: float = 0.0) -> "FaultPlan":
        """One rule per site at a flat probability (default kind)."""
        chosen = sites if sites is not None else SITES
        rules = tuple(
            FaultRule(site=site, kind=SITE_KINDS[site],
                      probability=probability, magnitude=magnitude)
            for site in chosen)
        return cls(seed=seed, rules=rules)

    @classmethod
    def seeded_random(cls, seed: int, max_rate: float = 0.3,
                      sites: Optional[Tuple[str, ...]] = None
                      ) -> "FaultPlan":
        """A random plan drawn from ``seed``: a seeded subset of sites,
        each with a probability in (0, max_rate].  The same seed always
        produces the same plan."""
        rng = random.Random(hash_words((seed, 0xFA017)))
        chosen = sites if sites is not None else SITES
        rules: List[FaultRule] = []
        for site in chosen:
            if rng.random() >= 0.7:
                continue
            probability = round(rng.uniform(0.01, max_rate), 4)
            kind = SITE_KINDS[site]
            if site == "gossip.deliver":
                kind = rng.choice((KIND_DROP, KIND_DUPLICATE, KIND_REORDER))
            rules.append(FaultRule(site=site, kind=kind,
                                   probability=probability))
        if not rules:  # degenerate draw: fall back to one mild rule
            rules.append(FaultRule(site="speculator.pre_execute",
                                   kind=KIND_RAISE,
                                   probability=round(max_rate / 2, 4)))
        return cls(seed=seed, rules=tuple(rules))

    def sites(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(rule.site for rule in self.rules))

    def describe(self) -> List[str]:
        """Deterministic one-line-per-rule description."""
        lines = []
        for rule in self.rules:
            extra = ""
            if rule.magnitude:
                extra += f" magnitude={rule.magnitude:g}"
            if rule.contract is not None:
                extra += f" contract={rule.contract:#x}"
            if rule.after:
                extra += f" after={rule.after}"
            if rule.max_fires is not None:
                extra += f" max_fires={rule.max_fires}"
            lines.append(f"{rule.site}: {rule.kind} "
                         f"p={rule.probability:g}{extra}")
        return lines


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named injection sites.

    Each site owns an independent RNG stream seeded from
    ``(plan.seed, site)``, so draws depend only on the per-site
    evaluation sequence — never on how sites interleave.  All counters
    live under the ``faults.*`` obs scope and are pre-registered for
    every known site, so two runs of the same plan produce identical
    metric snapshots.
    """

    enabled = True

    def __init__(self, plan: FaultPlan,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.plan = plan
        registry = registry or get_registry()
        obs = registry.scope("faults")
        self._obs = obs
        self.c_evaluated = obs.counter("evaluated")
        self.c_fired = obs.counter("fired")
        self._site_evaluated = {
            site: obs.counter(f"site.{site}.evaluated") for site in SITES}
        self._site_fired = {
            site: obs.counter(f"site.{site}.fired") for site in SITES}
        self._kind_fired = {
            kind: obs.counter(f"kind.{kind}.fired") for kind in KINDS}
        self._rules_by_site: Dict[str, List[FaultRule]] = {}
        for rule in plan.rules:
            self._rules_by_site.setdefault(rule.site, []).append(rule)
            if rule.site not in self._site_evaluated:
                # Custom (test-defined) site: register deterministically.
                self._site_evaluated[rule.site] = \
                    obs.counter(f"site.{rule.site}.evaluated")
                self._site_fired[rule.site] = \
                    obs.counter(f"site.{rule.site}.fired")
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(hash_words(
                (plan.seed, keccak_int(site.encode("utf-8")))))
            for site in self._rules_by_site}
        self._evaluations: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}

    # -- draws -----------------------------------------------------------

    def rng(self, site: str) -> random.Random:
        """The site's private RNG stream (corruption masks draw here)."""
        return self._rngs.setdefault(site, random.Random(hash_words(
            (self.plan.seed, keccak_int(site.encode("utf-8"))))))

    def evaluate(self, site: str, **ctx) -> Optional[FaultRule]:
        """Should a fault fire at ``site`` now?  Returns the rule or None.

        Every call advances the site's evaluation count; rules draw from
        the site's stream only when eligible, keeping the stream aligned
        with the schedule across runs.
        """
        rules = self._rules_by_site.get(site)
        if not rules:
            return None
        sequence = self._evaluations.get(site, 0)
        self._evaluations[site] = sequence + 1
        self.c_evaluated.inc()
        self._site_evaluated[site].inc()
        rng = self._rngs[site]
        for index, rule in enumerate(rules):
            if sequence < rule.after:
                continue
            key = id(rule) ^ index
            if (rule.max_fires is not None
                    and self._fires.get(key, 0) >= rule.max_fires):
                continue
            if (rule.contract is not None
                    and ctx.get("contract") != rule.contract):
                continue
            if rule.predicate is not None and not rule.predicate(ctx):
                continue
            if rule.probability < 1.0 and rng.random() >= rule.probability:
                continue
            self._fires[key] = self._fires.get(key, 0) + 1
            self.c_fired.inc()
            self._site_fired[site].inc()
            self._kind_fired[rule.kind].inc()
            return rule
        return None

    # -- convenience wrappers --------------------------------------------

    def maybe_raise(self, site: str, **ctx) -> None:
        """Raise the site's fault if a raise/storage rule fires."""
        rule = self.evaluate(site, **ctx)
        if rule is None:
            return
        if rule.kind == KIND_STORAGE:
            raise TransientStorageError(site)
        if rule.kind == KIND_RAISE:
            raise InjectedFault(site, rule.kind)

    def stall_units(self, site: str = "worker.stall", **ctx) -> int:
        """Cost units of worker stall to add (0 when no rule fires)."""
        rule = self.evaluate(site, **ctx)
        if rule is None or rule.kind != KIND_STALL:
            return 0
        return rule.stall_units()

    def fired(self, site: str) -> int:
        return self._site_fired[site].value if site in self._site_fired \
            else 0

    def total_fired(self) -> int:
        return self.c_fired.value

    def fire_summary(self) -> Dict[str, Dict[str, int]]:
        """site -> {evaluated, fired} for every site the plan covers."""
        return {
            site: {"evaluated": self._site_evaluated[site].value,
                   "fired": self._site_fired[site].value}
            for site in sorted(self._rules_by_site)
        }


class NullInjector:
    """No-op injector: the default when chaos is not requested."""

    enabled = False
    plan = FaultPlan()

    def evaluate(self, site: str, **ctx) -> None:
        return None

    def maybe_raise(self, site: str, **ctx) -> None:
        return None

    def stall_units(self, site: str = "worker.stall", **ctx) -> int:
        return 0

    def fired(self, site: str) -> int:
        return 0

    def total_fired(self) -> int:
        return 0

    def fire_summary(self) -> Dict[str, Dict[str, int]]:
        return {}


#: Shared no-op instance (stateless, safe to share).
NULL_INJECTOR = NullInjector()


# -- payload corruption (detectable by construction) -----------------------

def corrupt_shortcut(ap, rng: random.Random) -> bool:
    """Corrupt one memoization-shortcut key in ``ap``.

    The entry's key tuple is extended with a sentinel, so the runtime
    lookup (a tuple of observed register values, fixed arity) can never
    match it again: the memo entry silently degrades to a miss.  Picks
    the corruption point from ``rng`` so repeated faults spread over
    the table.  Returns True if something was corrupted.
    """
    carriers = [node for node in ap.all_nodes()
                if node.shortcut is not None and node.shortcut.entries]
    if not carriers:
        return False
    node = carriers[rng.randrange(len(carriers))]
    entries = node.shortcut.entries
    keys = list(entries)
    key = keys[rng.randrange(len(keys))]
    entries[key + ("#corrupted",)] = entries.pop(key)
    return True


def corrupt_guard_branch(ap, rng: random.Random) -> bool:
    """Corrupt one guard node's branch key in ``ap``.

    The branch is re-keyed under an unobservable sentinel tuple —
    runtime branch keys are ints/bools, so execution reaching the guard
    with the original expectation finds no branch and raises
    ``ConstraintViolation``, which the accelerator converts into the
    baseline fallback.  Returns True if something was corrupted.
    """
    guards = [node for node in ap.all_nodes()
              if node.is_guard() and node.branches]
    if not guards:
        return False
    node = guards[rng.randrange(len(guards))]
    keys = list(node.branches)
    key = keys[rng.randrange(len(keys))]
    node.branches[("#corrupted", repr(key))] = node.branches.pop(key)
    return True
