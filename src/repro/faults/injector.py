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
``corrupt`` corrupt a memo/AP payload (shortcut key or guard branch key)
            or a raw request frame; corruption is *detectable by
            construction* — every memoized payload is only ever applied
            under an exact-match key, so a corrupted key degrades to a
            miss or a constraint violation, never to wrong committed state
``drop``    drop a gossip or wire message
``duplicate`` deliver a message (or request) more than once
``reorder`` delay a message by ``magnitude`` simulated seconds
``storage_error`` raise :class:`repro.errors.TransientStorageError` on a
            cold simulated-disk read (retryable; see the guard's policy)
``stall``   stall a worker or handler for ``magnitude`` cost units
``crash``   kill the simulated process at a ``recovery.*`` site
            (:class:`repro.errors.SimulatedCrash`), a replica, or a link
``torn``    die midway through a durable write or handoff, leaving the
            partial effect behind
========== ==================================================================

Which site takes which kind, at what magnitude and rate, is the site
table's business (:mod:`repro.faults.sites`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import InjectedFault, SimulatedCrash, TransientStorageError
from repro.faults.sites import (
    KIND_CRASH,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_RAISE,
    KIND_REORDER,
    KIND_STALL,
    KIND_STORAGE,
    KIND_TORN,
    KINDS,
    LAYER_PIPELINE,
    LAYER_RECOVERY,
    layer_sites,
    site_row,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.utils.hashing import hash_words, keccak_int

#: Default worker stall, in cost units (~0.1 s of simulated worker time).
DEFAULT_STALL_UNITS = 2_000_000
#: Default gossip reorder delay, in simulated seconds.
DEFAULT_REORDER_SECONDS = 6.0


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


def _table_rule(site: str, probability: float, **window) -> FaultRule:
    """One rule at ``site`` with the table's kind and magnitude."""
    row = site_row(site)
    return FaultRule(site=site, kind=row.kind, probability=probability,
                     magnitude=row.magnitude, **window)


@dataclass
class FaultPlan:
    """A declarative, seeded fault schedule.

    Every rule must name a row of the site table and a known kind: a
    misspelt plan is a ``ValueError`` here, not a fault-free run that
    reports containment."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        for rule in self.rules:
            site_row(rule.site)
            if rule.kind not in KINDS:
                raise ValueError(
                    f"unknown fault kind {rule.kind!r} at {rule.site}; "
                    f"known kinds: {', '.join(KINDS)}")

    @classmethod
    def uniform(cls, seed: int, probability: float,
                sites: Optional[Tuple[str, ...]] = None) -> "FaultPlan":
        """One rule per site at a flat probability, kind and magnitude
        from the table; ``sites`` may mix layers (default: the
        ``pipeline`` layer)."""
        chosen = sites if sites is not None else layer_sites(LAYER_PIPELINE)
        return cls(seed=seed, rules=tuple(
            _table_rule(site, probability) for site in chosen))

    @classmethod
    def seeded_random(cls, seed: int, max_rate: float = 0.3,
                      sites: Optional[Tuple[str, ...]] = None
                      ) -> "FaultPlan":
        """A random plan drawn from ``seed``: a seeded subset of sites,
        each with a probability in (0, max_rate].  The same seed always
        produces the same plan."""
        rng = random.Random(hash_words((seed, 0xFA017)))
        chosen = sites if sites is not None else layer_sites(LAYER_PIPELINE)
        rules: List[FaultRule] = []
        for site in chosen:
            if rng.random() >= 0.7:
                continue
            rule = _table_rule(site, round(rng.uniform(0.01, max_rate), 4))
            if site == "gossip.deliver":
                rule = replace(rule, kind=rng.choice(
                    (KIND_DROP, KIND_DUPLICATE, KIND_REORDER)))
            rules.append(rule)
        if not rules:  # degenerate draw: fall back to one mild rule
            rules.append(_table_rule("speculator.pre_execute",
                                     round(max_rate / 2, 4)))
        return cls(seed=seed, rules=tuple(rules))

    @classmethod
    def single_shot(cls, seed: int, site: str,
                    occurrence: int = 0) -> "FaultPlan":
        """Fire at the ``occurrence``-th evaluation of ``site``
        (0-based), exactly once.

        ``max_fires=1`` matters beyond hygiene for a crash site: a
        restarted process has fresh per-site evaluation counts, so
        without it the same crash would re-fire on every restart and
        the node could never converge.  (The recovery harness
        additionally restarts with no plan at all, modelling a crash
        cause that died with the process.)"""
        return cls(seed=seed, rules=(
            _table_rule(site, 1.0, after=occurrence, max_fires=1),))

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


def sweep_plans(layer: str, seed: int, rate: Optional[float] = None
                ) -> Iterator[Tuple[str, FaultPlan]]:
    """``(site, plan)`` for every site of ``layer``: the per-site sweep.

    Each plan runs its site at ``rate`` (default: the row's own sweep
    rate) with the table's kind and magnitude, together with the row's
    driver site when it needs one to have a window.  ``recovery`` sites
    kill the process that evaluates them, so theirs is the single-shot
    plan, and ``seed`` doubles as the occurrence: seed N dies at each
    site's N-th evaluation.
    """
    for site in layer_sites(layer):
        row = site_row(site)
        if layer == LAYER_RECOVERY:
            yield site, FaultPlan.single_shot(seed, site, occurrence=seed)
            continue
        sites = (row.driver, site) if row.driver else (site,)
        yield site, FaultPlan.uniform(
            seed, row.rate if rate is None else rate, sites=sites)


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
        # Pre-registered for the pipeline layer plus whatever the plan
        # names, so a plan's metric snapshot has the same shape whether
        # or not its rules ever fire.
        known = tuple(dict.fromkeys(
            layer_sites(LAYER_PIPELINE) + plan.sites()))
        self._site_evaluated = {
            site: obs.counter(f"site.{site}.evaluated") for site in known}
        self._site_fired = {
            site: obs.counter(f"site.{site}.fired") for site in known}
        self._kind_fired = {
            kind: obs.counter(f"kind.{kind}.fired") for kind in KINDS}
        self._rules_by_site: Dict[str, List[FaultRule]] = {}
        for rule in plan.rules:
            self._rules_by_site.setdefault(rule.site, []).append(rule)
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

    def stall_units(self, site: str, **ctx) -> int:
        """Cost units of stall to add at ``site`` (0 when no rule fires)."""
        rule = self.evaluate(site, **ctx)
        if rule is None or rule.kind != KIND_STALL:
            return 0
        return rule.stall_units()

    def maybe_crash(self, site: str, **ctx) -> None:
        """Die here if a ``crash`` rule fires (``torn`` rules are handled
        by the writers, which must leave partial bytes behind first)."""
        rule = self.evaluate(site, **ctx)
        if rule is not None and rule.kind == KIND_CRASH:
            raise SimulatedCrash(site, seq=int(ctx.get("seq", -1)))

    def torn_fires(self, site: str, **ctx) -> bool:
        """True when a ``torn`` rule fires at ``site`` — the caller must
        write the partial frame, then raise ``SimulatedCrash`` itself."""
        rule = self.evaluate(site, **ctx)
        return rule is not None and rule.kind == KIND_TORN

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

    def stall_units(self, site: str, **ctx) -> int:
        return 0

    def maybe_crash(self, site: str, **ctx) -> None:
        return None

    def torn_fires(self, site: str, **ctx) -> bool:
        return False

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


def corrupt_frame(raw: str, rng: random.Random) -> str:
    """Deterministically mangle one raw request frame.

    Three mangle modes — truncation, byte garbling, and type swap —
    all of which must surface as a structured parse/invalid error.
    """
    mode = rng.randrange(3)
    if mode == 0 and len(raw) > 2:
        return raw[:rng.randrange(1, len(raw))]
    if mode == 1 and raw:
        index = rng.randrange(len(raw))
        return raw[:index] + chr(0x21 + rng.randrange(64)) + raw[index + 1:]
    return "[" + raw
