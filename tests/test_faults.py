"""Unit tests of the fault-injection layer (:mod:`repro.faults`).

Covers the declarative plan machinery (rules, triggers, seeded
probabilities, per-site RNG streams), the injector's raise/stall
wrappers, payload corruption helpers, and the guard layer (containment,
transient-storage retry, per-contract circuit breaker).
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import pricefeed
from repro.core.speculator import FutureContext, Speculator
from repro.errors import InjectedFault, TransientStorageError
from repro.faults.guard import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
    SpeculationGuard,
)
from repro.faults.injector import (
    DEFAULT_STALL_UNITS,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultRule,
    corrupt_guard_branch,
    corrupt_shortcut,
)
from repro.faults.sites import LAYERS, SITE_TABLE, layer_sites, site_row
from repro.obs.registry import MetricsRegistry
from repro.state.world import WorldState

from tests.conftest import ALICE, BOB, FEED, ROUND

PF = pricefeed()


def registry():
    return MetricsRegistry()


class TestFaultPlan:
    def test_uniform_covers_every_site_with_its_kind(self):
        plan = FaultPlan.uniform(seed=5, probability=0.25)
        assert plan.sites() == layer_sites("pipeline")
        for rule in plan.rules:
            assert rule.kind == site_row(rule.site).kind
            assert rule.probability == 0.25

    def test_uniform_builds_for_any_row_and_mixes_layers(self):
        """Kind and magnitude come from the table for every site of
        every layer; one plan may name several layers."""
        for row in SITE_TABLE:
            rule, = FaultPlan.uniform(0, 0.5, sites=(row.name,)).rules
            assert (rule.kind, rule.magnitude) == (row.kind, row.magnitude)
        mixed = FaultPlan.uniform(0, 0.1, sites=tuple(
            layer_sites(layer)[0] for layer in LAYERS))
        assert len({site.split(".")[0] for site in mixed.sites()}) \
            == len(LAYERS)

    def test_unknown_site_or_kind_is_rejected_at_build(self):
        """A typo'd plan is an error naming the known sites/kinds, not
        a fault-free run that reports containment."""
        with pytest.raises(ValueError, match="memoize.build"):
            FaultPlan.uniform(0, 1.0, sites=("memoize.biuld",))
        with pytest.raises(ValueError, match="known sites"):
            FaultPlan(seed=0, rules=(FaultRule("nowhere", "raise"),))
        with pytest.raises(ValueError, match="known kinds.*raise"):
            FaultPlan(seed=0, rules=(FaultRule("memoize.build", "riase"),))

    def test_seeded_random_is_deterministic(self):
        a = FaultPlan.seeded_random(seed=42)
        b = FaultPlan.seeded_random(seed=42)
        assert a.describe() == b.describe()
        assert a.rules == b.rules

    def test_seeded_random_rates_bounded(self):
        for seed in range(8):
            plan = FaultPlan.seeded_random(seed=seed, max_rate=0.2)
            assert plan.rules, "a plan is never empty"
            for rule in plan.rules:
                assert 0.0 < rule.probability <= 0.2

    def test_different_seeds_draw_different_plans(self):
        plans = {tuple(FaultPlan.seeded_random(seed=s).describe())
                 for s in range(6)}
        assert len(plans) > 1

    def test_describe_mentions_window_fields(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="worker.stall", kind="stall",
                      probability=0.5, magnitude=1000,
                      after=2, max_fires=3, contract=0xAB),))
        line = plan.describe()[0]
        assert "magnitude=1000" in line
        assert "contract=0xab" in line
        assert "after=2" in line
        assert "max_fires=3" in line


class TestFaultInjector:
    def test_probability_one_always_fires(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise"),))
        injector = FaultInjector(plan, registry=registry())
        assert all(injector.evaluate("memoize.build") is not None
                   for _ in range(20))
        assert injector.fired("memoize.build") == 20

    def test_probability_zero_never_fires(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise",
                      probability=0.0),))
        injector = FaultInjector(plan, registry=registry())
        assert all(injector.evaluate("memoize.build") is None
                   for _ in range(50))

    def test_unplanned_site_is_free(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise"),))
        injector = FaultInjector(plan, registry=registry())
        assert injector.evaluate("predictor.predict") is None
        assert injector.total_fired() == 0

    def test_after_window(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise", after=3),))
        injector = FaultInjector(plan, registry=registry())
        fired = [injector.evaluate("memoize.build") is not None
                 for _ in range(6)]
        assert fired == [False, False, False, True, True, True]

    def test_max_fires(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise", max_fires=2),))
        injector = FaultInjector(plan, registry=registry())
        fired = sum(injector.evaluate("memoize.build") is not None
                    for _ in range(10))
        assert fired == 2

    def test_contract_filter(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise",
                      contract=0xFEED),))
        injector = FaultInjector(plan, registry=registry())
        assert injector.evaluate("memoize.build", contract=0xBEEF) is None
        assert injector.evaluate("memoize.build", contract=0xFEED) \
            is not None

    def test_predicate_trigger(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise",
                      predicate=lambda ctx: ctx.get("tx", 0) % 2 == 0),))
        injector = FaultInjector(plan, registry=registry())
        assert injector.evaluate("memoize.build", tx=3) is None
        assert injector.evaluate("memoize.build", tx=4) is not None

    def test_per_site_streams_are_interleaving_independent(self):
        """The decisions at one site never depend on how other sites'
        evaluations interleave — the core determinism property."""
        plan = FaultPlan(seed=9, rules=(
            FaultRule(site="memoize.build", kind="raise",
                      probability=0.5),
            FaultRule(site="prefetcher.prefetch", kind="raise",
                      probability=0.5),))

        grouped = FaultInjector(plan, registry=registry())
        seq_a = [grouped.evaluate("memoize.build") is not None
                 for _ in range(30)]
        seq_b = [grouped.evaluate("prefetcher.prefetch") is not None
                 for _ in range(30)]

        interleaved = FaultInjector(plan, registry=registry())
        got_a, got_b = [], []
        for _ in range(30):
            got_a.append(
                interleaved.evaluate("memoize.build") is not None)
            got_b.append(
                interleaved.evaluate("prefetcher.prefetch") is not None)
        assert got_a == seq_a
        assert got_b == seq_b

    def test_maybe_raise_kinds(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise"),
            FaultRule(site="storage.read", kind="storage_error"),
            FaultRule(site="worker.stall", kind="stall"),))
        injector = FaultInjector(plan, registry=registry())
        with pytest.raises(InjectedFault) as excinfo:
            injector.maybe_raise("memoize.build")
        assert excinfo.value.site == "memoize.build"
        with pytest.raises(TransientStorageError):
            injector.maybe_raise("storage.read")
        # A stall rule never raises; it only reports cost units.
        injector.maybe_raise("worker.stall")

    def test_stall_units_default_and_magnitude(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="worker.stall", kind="stall"),))
        injector = FaultInjector(plan, registry=registry())
        assert injector.stall_units("worker.stall") == DEFAULT_STALL_UNITS
        sized = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(site="worker.stall", kind="stall",
                      magnitude=12345),)), registry=registry())
        assert sized.stall_units("worker.stall") == 12345

    def test_null_injector_is_inert(self):
        assert NULL_INJECTOR.enabled is False
        assert NULL_INJECTOR.evaluate("storage.read") is None
        NULL_INJECTOR.maybe_raise("storage.read")
        assert NULL_INJECTOR.stall_units("worker.stall") == 0
        NULL_INJECTOR.maybe_crash("recovery.journal.append")
        assert NULL_INJECTOR.torn_fires("recovery.journal.torn_write") \
            is False
        assert NULL_INJECTOR.fire_summary() == {}

    def test_fire_summary_counts(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="memoize.build", kind="raise", max_fires=1),))
        injector = FaultInjector(plan, registry=registry())
        for _ in range(4):
            injector.evaluate("memoize.build")
        assert injector.fire_summary() == {
            "memoize.build": {"evaluated": 4, "fired": 1}}


def _speculated_ap():
    """A real AP (pricefeed submit) to corrupt."""
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(BOB, balance=10**24)
    world.create_account(FEED, code=PF.code)
    account = world.get_account(FEED)
    account.set_storage(PF.slot_of("activeRoundID"), ROUND)
    account.set_storage(PF.slot_of("prices", ROUND), 2000)
    account.set_storage(PF.slot_of("submissionCounts", ROUND), 4)
    speculator = Speculator(world)
    tx = Transaction(sender=ALICE, to=FEED,
                     data=PF.calldata("submit", ROUND, 1980))
    header = BlockHeader(number=1, timestamp=3990462, coinbase=0xBEEF)
    assert speculator.speculate(tx, FutureContext(1, header)) is not None
    return speculator.get_ap(tx.hash)


class TestCorruption:
    def test_corrupt_shortcut_rekeys_with_sentinel(self):
        ap = _speculated_ap()
        import random as _random
        assert corrupt_shortcut(ap, _random.Random(1)) is True
        corrupted = [key for node in ap.all_nodes()
                     if node.shortcut is not None
                     for key in node.shortcut.entries
                     if key and key[-1] == "#corrupted"]
        assert corrupted, "one shortcut key carries the sentinel"

    def test_corrupt_guard_branch_rekeys_with_sentinel(self):
        ap = _speculated_ap()
        import random as _random
        assert corrupt_guard_branch(ap, _random.Random(1)) is True
        corrupted = [key for node in ap.all_nodes() if node.is_guard()
                     for key in node.branches
                     if isinstance(key, tuple) and key
                     and key[0] == "#corrupted"]
        assert corrupted, "one guard branch carries the sentinel"


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_backoff_units=5_000, backoff_factor=2.0)
        assert [policy.backoff_units(n) for n in (1, 2, 3)] == \
            [5_000, 10_000, 20_000]


class ManualClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def make(self, clock, threshold=3, cooldown=100):
        return CircuitBreaker(clock=clock, threshold=threshold,
                              cooldown_units=cooldown,
                              registry=registry())

    def test_stays_closed_below_threshold(self):
        clock = ManualClock()
        breaker = self.make(clock)
        breaker.record_fault(0xA)
        breaker.record_fault(0xA)
        assert breaker.state(0xA) == STATE_CLOSED
        assert breaker.allows(0xA)

    def test_success_resets_consecutive_count(self):
        clock = ManualClock()
        breaker = self.make(clock)
        breaker.record_fault(0xA)
        breaker.record_fault(0xA)
        breaker.record_success(0xA)
        breaker.record_fault(0xA)
        breaker.record_fault(0xA)
        assert breaker.state(0xA) == STATE_CLOSED

    def test_opens_after_threshold_and_skips(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        assert breaker.state(0xA) == STATE_OPEN
        assert not breaker.allows(0xA)
        assert breaker.c_skipped.value == 1
        # Other contracts are unaffected.
        assert breaker.allows(0xB)

    def test_half_open_probe_closes_on_success(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        clock.t = 150  # past the cool-down
        assert breaker.allows(0xA)
        assert breaker.state(0xA) == STATE_HALF_OPEN
        breaker.record_success(0xA)
        assert breaker.state(0xA) == STATE_CLOSED

    def test_probe_failure_doubles_cooldown(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        first_until = breaker._open_until[0xA]
        assert first_until == 100
        clock.t = 150
        assert breaker.allows(0xA)  # half-open probe
        breaker.record_fault(0xA)   # probe fails -> doubled cool-down
        assert breaker.state(0xA) == STATE_OPEN
        assert breaker._open_until[0xA] == 150 + 200

    def test_transitions_are_recorded(self):
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        summary = breaker.summary()
        assert summary["opened"] == 1
        assert summary["transitions"][0]["to"] == STATE_OPEN

    def test_half_open_admits_single_probe(self):
        """While a half-open probe is in flight, further attempts are
        skipped — one probe at a time, like a real breaker."""
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        clock.t = 150
        assert breaker.allows(0xA)       # the probe
        skipped = breaker.c_skipped.value
        clock.t = 160                    # within the probe window
        assert not breaker.allows(0xA)   # second caller must wait
        assert breaker.c_skipped.value == skipped + 1
        assert breaker.state(0xA) == STATE_HALF_OPEN
        breaker.record_success(0xA)
        assert breaker.state(0xA) == STATE_CLOSED
        assert breaker.allows(0xA)

    def test_stuck_probe_expires_without_livelock(self):
        """A probe whose outcome never lands (its speculation job was
        dropped) must not wedge the breaker half-open forever: once a
        full cool-down passes, a fresh probe is admitted."""
        clock = ManualClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_fault(0xA)
        clock.t = 150
        assert breaker.allows(0xA)       # probe admitted, never resolves
        clock.t = 150 + 100              # probe window (cooldown) elapsed
        assert breaker.allows(0xA)       # fresh probe, no livelock
        assert breaker.state(0xA) == STATE_HALF_OPEN
        breaker.record_fault(0xA)        # second probe fails
        assert breaker.state(0xA) == STATE_OPEN


class TestSpeculationGuard:
    def make(self):
        return SpeculationGuard(registry=registry())

    def test_success_passes_through(self):
        guard = self.make()
        result, faulted = guard.run("stage", lambda: 41 + 1)
        assert (result, faulted) == (42, False)
        assert guard.c_contained.value == 0

    def test_contains_arbitrary_exceptions(self):
        guard = self.make()
        def boom():
            raise RuntimeError("kaboom")
        result, faulted = guard.run("stage", boom, fallback="fb")
        assert (result, faulted) == ("fb", True)
        assert guard.c_contained.value == 1
        assert guard.c_unexpected.value == 1
        assert guard.last_injected is False
        assert "kaboom" in guard.last_error

    def test_injected_faults_counted_under_their_site(self):
        guard = self.make()
        def boom():
            raise InjectedFault("memoize.build", "raise")
        guard.run("stage", boom)
        assert guard.c_injected.value == 1
        assert guard.summary()["by_stage"] == {"memoize.build": 1}

    def test_transient_storage_retry_succeeds(self):
        guard = self.make()
        charged = []
        guard.charge_cost = charged.append
        attempts = {"n": 0}
        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientStorageError("storage.read")
            return "ok"
        result, faulted = guard.run("stage", flaky)
        assert (result, faulted) == ("ok", False)
        assert guard.c_retries.value == 2
        assert charged == [5_000, 10_000]

    def test_transient_storage_retry_exhausts(self):
        guard = self.make()
        def always():
            raise TransientStorageError("storage.read")
        result, faulted = guard.run("stage", always, fallback=None)
        assert (result, faulted) == (None, True)
        assert guard.c_retry_exhausted.value == 1
        assert guard.c_retries.value == 2

    def test_faults_feed_the_breaker(self):
        guard = self.make()
        def boom():
            raise RuntimeError("bug")
        for _ in range(3):
            guard.run("speculate", boom, contract=0xFEED)
        assert guard.breaker.state(0xFEED) == STATE_OPEN
        assert not guard.breaker.allows(0xFEED)

    def test_success_heals_the_breaker(self):
        guard = self.make()
        def boom():
            raise RuntimeError("bug")
        guard.run("speculate", boom, contract=0xFEED)
        guard.run("speculate", boom, contract=0xFEED)
        guard.run("speculate", lambda: 1, contract=0xFEED)
        guard.run("speculate", boom, contract=0xFEED)
        assert guard.breaker.state(0xFEED) == STATE_CLOSED
