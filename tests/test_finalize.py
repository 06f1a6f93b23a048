"""Finish an AP only when it changed (ISSUE 22).

Three contracts:

* **linear = quadratic** — the one-pass ``_best_suffix`` /
  ``_fine_suffixes`` / ``prune_tree`` pick exactly what the old
  per-suffix / ``while changed`` bodies (kept below as references)
  picked, on generated segments and trees, and ``_segment_io`` work
  stays linear in the segment length;
* **same AP, fewer builds** — finishing once per changed AP per
  speculation cycle hands out the AP a rebuild after every merge
  would have: same tree, same shortcuts, same closure source, at every
  head of a recorded DeFi + compute period;
* **the hand-out contract** — whoever takes a still-dirty AP out of the
  speculator (``get_ap``, eviction, ``drop``) gets a finished one;
  ``discard`` forgets it, an AP that survives ``on_reorg`` is still
  finished before it is handed out; nothing is finished on the critical
  path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.contracts import pricefeed
from repro.core import memoize, node as node_module, speculator as spec_module
from repro.core.ap import (
    AcceleratedProgram,
    APNode,
    APPath,
    Terminal,
    describe_ap,
)
from repro.core.memoize import STRATEGIES, build_shortcuts
from repro.core.merge import merge_path, prune_tree
from repro.core.sevm import GuardMode, Reg, SInstr, SKind, is_reg
from repro.core.speculator import FutureContext, Speculator
from repro.core.stats import SynthesisTally
from repro.core.translate import SynthStats
from repro.evm.jit.specialize import SpecializeAbort, compile_ap
from repro.evm.jit.tier import JitTier
from repro.faults.injector import FaultPlan
from repro.fleet import FleetConfig, fleet_replay
from repro.obs.registry import MetricsRegistry
from repro.p2p.latency import LatencyModel
from repro.sim.emulator import replay
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.conftest import ALICE, FEED, ROUND, make_tx


# -- the old bodies, kept as references ----------------------------------------

def reference_best_suffix(nodes, concrete, liveness):
    if len(nodes) < 2:
        return None
    full_inputs, _ = memoize._segment_io(nodes, liveness)
    for split in range(1, len(nodes)):
        suffix = nodes[split:]
        suffix_inputs, _ = memoize._segment_io(suffix, liveness)
        if len(set(suffix_inputs)) < len(set(full_inputs)):
            return suffix[0], suffix
    return None


def reference_fine_suffixes(nodes, resume, concrete, liveness, budget):
    created = 0
    previous_inputs = set(memoize._segment_io(nodes, liveness)[0])
    for split in range(1, len(nodes)):
        if created >= budget:
            break
        suffix = nodes[split:]
        suffix_inputs = set(memoize._segment_io(suffix, liveness)[0])
        if len(suffix_inputs) < len(previous_inputs):
            created += memoize.self_register(suffix[0], suffix, resume,
                                             concrete, liveness)
            previous_inputs = suffix_inputs
    return created


def reference_prune_tree(ap):
    nodes = ap.all_nodes()
    used = {piece[1] for terminal in ap._terminals()
            for _, piece in terminal.return_pieces if piece[0] == "reg"}
    changed = True
    live_ids = set()
    while changed:
        changed = False
        for node in nodes:
            if id(node) in live_ids:
                continue
            instr = node.instr
            if instr.kind in (SKind.GUARD, SKind.WRITE) or (
                    instr.dest is not None and instr.dest in used):
                live_ids.add(id(node))
                for arg in instr.args:
                    if is_reg(arg) and arg not in used:
                        used.add(arg)
                        changed = True
    return {id(node) for node in nodes} - live_ids


# -- generated segments and trees ------------------------------------------------

#: Registers defined before the segment (its possible inputs) and
#: registers this path has no concrete value for (foreign-branch).
OUTER = [Reg(10**6 + i) for i in range(6)]
FOREIGN = [Reg(2 * 10**6 + i) for i in range(2)]


def make_path(instrs, concrete, return_regs=(), path_id=0) -> APPath:
    return APPath(
        path_id=path_id, context_id=path_id, instrs=instrs,
        pre_dce_instrs=instrs, concrete=concrete,
        return_pieces=[(32 * i, ("reg", reg, 0, 32))
                       for i, reg in enumerate(return_regs)],
        return_size=32 * len(return_regs), success=True, gas_used=21000,
        stats=SynthStats(), read_set={}, write_set={})


def segment_path(rng, length: int, foreign: bool) -> APPath:
    """One compute/guard segment: redefinition-free dests, operands
    drawn from earlier dests, outer registers, constants and (rarely)
    registers this path has no concrete for."""
    instrs, defined = [], []
    concrete = {reg: rng.randrange(8) for reg in OUTER}
    for i in range(length):
        pool = defined[-4:] + OUTER[:rng.randrange(1, len(OUTER) + 1)]
        if foreign and rng.random() < 0.1:
            pool = pool + FOREIGN
        args = tuple(rng.choice(pool) if rng.random() < 0.8
                     else rng.randrange(4)
                     for _ in range(rng.randrange(1, 3)))
        if defined and rng.random() < 0.2:
            value = concrete[defined[-1]]
            instrs.append(SInstr(
                kind=SKind.GUARD, op="GUARD", args=(defined[-1],),
                guard_mode=GuardMode.TRUTH, expected=bool(value)))
            continue
        dest = Reg(i)
        instrs.append(SInstr(kind=SKind.COMPUTE, op="ADD", dest=dest,
                             args=args))
        concrete[dest] = rng.randrange(8)
        defined.append(dest)
    live_out = defined[-2:] if defined else []
    return make_path(instrs, concrete, return_regs=live_out)


def shortcut_table(ap: AcceleratedProgram) -> list:
    """Every shortcut as plain data: anchor position, ``input_regs``,
    ``length`` and entries (outputs + resume position)."""
    nodes = ap.all_nodes()
    position = {id(node): index for index, node in enumerate(nodes)}

    def where(target):
        if isinstance(target, Terminal):
            return ("terminal", tuple(target.path_ids))
        return position[id(target)]

    return [(index, node.shortcut.input_regs, node.shortcut.length,
             sorted((key, sorted(outputs.items()), where(resume))
                    for key, (outputs, resume)
                    in node.shortcut.entries.items()))
            for index, node in enumerate(nodes)
            if node.shortcut is not None]


def ap_of(path: APPath) -> AcceleratedProgram:
    ap = AcceleratedProgram(1)
    assert merge_path(ap, path)
    return ap


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 40),
       st.booleans())
def test_suffix_selection_matches_the_quadratic_reference(
        rng, length, foreign):
    path = segment_path(rng, length, foreign)
    ap = ap_of(path)
    nodes = ap.all_nodes()
    if nodes:
        liveness = memoize._Liveness(ap)
        fast = memoize._best_suffix(nodes, path.concrete, liveness)
        slow = reference_best_suffix(nodes, path.concrete, liveness)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast[0] is slow[0] and fast[1] == slow[1]
    for strategy in STRATEGIES:
        fast_ap, slow_ap = ap_of(path), ap_of(path)
        fast_count = build_shortcuts(fast_ap, strategy)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memoize, "_best_suffix", reference_best_suffix)
            patch.setattr(memoize, "_fine_suffixes",
                          reference_fine_suffixes)
            slow_count = build_shortcuts(slow_ap, strategy)
        assert fast_count == slow_count, strategy
        assert shortcut_table(fast_ap) == shortcut_table(slow_ap), strategy


def random_tree(rng, size: int):
    """A guard tree whose operands may name any register of the tree —
    own route, a sibling branch (foreign), or none at all."""
    dests = [Reg(i) for i in range(size)]
    counter = iter(range(size))

    def chain(depth: int):
        head = tail = None
        for _ in range(rng.randrange(1, 5)):
            index = next(counter, None)
            if index is None:
                break
            args = tuple(rng.choice(dests)
                         for _ in range(rng.randrange(0, 3)))
            roll = rng.random()
            if roll < 0.15:
                instr = SInstr(kind=SKind.GUARD, op="GUARD",
                               args=args[:1] or (dests[0],),
                               guard_mode=GuardMode.EQ, expected=0)
            elif roll < 0.25:
                instr = SInstr(kind=SKind.WRITE, op="SSTORE", args=args)
            else:
                instr = SInstr(kind=SKind.COMPUTE, op="ADD",
                               dest=dests[index], args=args)
            node = APNode(instr)
            if tail is None:
                head = node
            else:
                tail.next = node
            tail = node
            if node.branches is not None:
                for key in range(rng.randrange(1, 4 - min(depth, 2))):
                    node.branches[key] = chain(depth + 1)
                return head
        terminal = Terminal(
            path_ids=[0], success=True, gas_used=0, return_size=0,
            return_pieces=[(0, ("reg", rng.choice(dests), 0, 32))]
            if rng.random() < 0.5 else [], read_set={})
        if tail is None:
            return terminal
        tail.next = terminal
        return head

    ap = AcceleratedProgram(1)
    ap.root = chain(0)
    return ap


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 60))
def test_one_pass_prune_matches_the_fixed_point_reference(rng, size):
    ap = random_tree(rng, size)
    nodes = ap.all_nodes()
    dead = reference_prune_tree(ap)
    removed = prune_tree(ap)
    assert removed == len(dead)
    survivors = ap.all_nodes()
    assert [id(node) for node in survivors] == \
        [id(node) for node in nodes if id(node) not in dead]


def test_prune_revisits_a_definition_passed_over_as_dead():
    """The shape one reverse pass cannot settle: a register defined in
    a later-visited branch and used in an earlier-visited one."""
    guard = APNode(SInstr(kind=SKind.GUARD, op="GUARD", args=(Reg(9),),
                          guard_mode=GuardMode.EQ, expected=0))
    end = Terminal([0], True, 0, [], 0, {})
    define = APNode(SInstr(kind=SKind.COMPUTE, op="ADD", dest=Reg(1),
                           args=(1, 2)))
    define.next = end
    use = APNode(SInstr(kind=SKind.WRITE, op="SSTORE", args=(Reg(1),)))
    use.next = end
    for first, second in ((define, use), (use, define)):
        guard.branches = {0: first, 1: second}
        ap = AcceleratedProgram(1)
        ap.root = guard
        assert reference_prune_tree(ap) == set()
        assert prune_tree(ap) == 0


def long_chain(length: int) -> APPath:
    """A mixing loop: every node folds the previous value with one of
    four outer registers, each last used a quarter further in — so the
    input set shrinks three times along the chain."""
    instrs, concrete = [], {reg: 1 for reg in OUTER}
    previous = OUTER[0]
    for i in range(length):
        dest = Reg(i)
        instrs.append(SInstr(kind=SKind.COMPUTE, op="ADD", dest=dest,
                             args=(previous, OUTER[1 + 4 * i // length])))
        concrete[dest] = i
        previous = dest
    return make_path(instrs, concrete, return_regs=(previous,))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_segment_io_work_is_linear_in_segment_length(strategy,
                                                     monkeypatch):
    length = 6000
    visited = []
    real = memoize._segment_io

    def counting(nodes, liveness):
        visited.append(len(nodes))
        return real(nodes, liveness)

    monkeypatch.setattr(memoize, "_segment_io", counting)
    ap = ap_of(long_chain(length))
    built = build_shortcuts(ap, strategy)
    # One call per registered shortcut, none per candidate suffix: the
    # quadratic bodies made ~length calls and visited ~length^2 / 2.
    assert built == {"coarse": 1, "default": 2, "fine": 4}[strategy]
    assert len(visited) == built
    assert sum(visited) <= built * length


# -- same AP, fewer builds ---------------------------------------------------------

class PerMergeSpeculator(Speculator):
    """The old contract, spelled out locally: prune, rebuild every
    shortcut and recompile after *every* accepted merge."""

    def speculate(self, tx, context):
        path = super().speculate(tx, context)
        ap = self.aps.peek(tx.hash)
        if path is not None and ap is not None and self.records[-1].merged:
            self._dirty.pop(tx.hash, None)
            prune_tree(ap)
            build_shortcuts(ap, self.memoization_strategy)
            try:
                ap.jit = compile_ap(ap, version=self.jit.version)
            except SpecializeAbort:
                ap.jit = None
        return path


def ap_snapshot(ap: AcceleratedProgram) -> tuple:
    return (describe_ap(ap), shortcut_table(ap), ap.shortcut_count,
            (ap.jit.source, ap.jit.literals) if ap.jit is not None
            else None,
            ap.ready_at, sorted(ap.context_ids),
            [path.path_id for path in ap.paths])


@pytest.fixture(scope="module")
def dataset():
    """DeFi traffic plus a steady trickle of long compute transactions."""
    return record_dataset(DatasetConfig(
        name="finalize",
        traffic=TrafficConfig(duration=30.0, seed=2021,
                              compute_rate=0.15),
        observers={"live": LatencyModel()}, seed=2021))


def replay_with_snapshots(dataset, speculator_class):
    """Replay, photographing every memoized AP (in LRU order) as each
    block arrives — without going through ``get_ap``."""
    heads = []
    process_block = node_module.ForerunnerNode.process_block

    def photographing(self, block, now=0.0):
        heads.append([(tx_hash, ap_snapshot(ap))
                      for tx_hash, ap in self.speculator.aps.items()])
        return process_block(self, block, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(node_module, "Speculator", speculator_class)
        patch.setattr(node_module.ForerunnerNode, "process_block",
                      photographing)
        run = replay(dataset, "live")
    return run, heads


@pytest.fixture(scope="module")
def finalize_once(dataset):
    return replay_with_snapshots(dataset, Speculator)


def test_finalize_once_hands_out_the_per_merge_ap(dataset, finalize_once):
    run, heads = finalize_once
    reference_run, reference_heads = replay_with_snapshots(
        dataset, PerMergeSpeculator)
    assert len(heads) == len(reference_heads) == run.blocks_executed > 0
    assert sum(len(head) for head in heads) > 50
    for number, (head, reference) in enumerate(zip(heads,
                                                   reference_heads)):
        assert [h for h, _ in head] == [h for h, _ in reference], number
        for (tx_hash, mine), (_, theirs) in zip(head, reference):
            assert mine == theirs, (number, hex(tx_hash))
    assert run.commitments() == reference_run.commitments()
    speculator = run.forerunner_node.speculator
    reference = reference_run.forerunner_node.speculator
    assert speculator.records == reference.records
    assert speculator.tally == reference.tally
    assert speculator.tally.aps > 0


def test_finalize_counters_over_a_whole_replay(finalize_once):
    run, _ = finalize_once
    value = run.registry.value
    assert value("speculator.finalizes") > 0
    assert value("jit.compiles") + value("jit.compile_aborts") == \
        value("speculator.finalizes") == value("span.finalize.count")
    assert value("span.finalize.cost") == 0
    assert value("jit.compiles") <= value("speculator.dedup_misses")
    assert value("speculator.clone_enriched") > 0
    assert value("speculator.clone_enriched") <= \
        value("speculator.dedup_hits")
    # Nothing is finished inside process_block (or by any other read).
    assert value("speculator.finalized_on_read") == 0
    # Every merge is either a clone folded into a finished AP or a
    # change some finalise picked up.
    assert value("speculator.finalizes") <= \
        value("speculator.merged") - value("speculator.clone_enriched")


def test_fleet_snapshots_finished_aps(dataset):
    """Owners ship their APs at block time, after the coordinator's
    cycle flushed every speculator the plane touched."""
    run = fleet_replay(dataset, config=FleetConfig(shards=2))
    assert run.roots_matched == run.blocks_executed > 0
    finalizes = 0
    for replica in run.supervisor.replicas.values():
        finalizes += replica.registry.value("speculator.finalizes")
        assert replica.registry.value("speculator.finalized_on_read") == 0
        assert not replica.node.speculator._dirty
    assert finalizes > 0


def test_finalize_sites_at_full_rate_are_contained(dataset, finalize_once):
    clean, _ = finalize_once
    sites = ("memoize.build", "jit.compile", "memoize.corrupt",
             "ap.corrupt")
    plan = FaultPlan.uniform(seed=3, probability=1.0, sites=sites)
    faulted = replay(dataset, "live", fault_plan=plan)
    assert faulted.commitments() == clean.commitments()
    value = faulted.registry.value
    for site in sites:
        # One evaluation per finalise, not one per merge.
        assert faulted.fault_injector.fired(site) == \
            value("speculator.finalizes") > 0, site
    # Every compile happens when the AP first executes.
    assert value("jit.compiles") == value("jit.misses")
    assert faulted.forerunner_node.guard.summary()[
        "contained_unexpected"] == 0


# -- the hand-out contract -----------------------------------------------------------

def submit(price, nonce=0, sender=ALICE):
    return make_tx(sender=sender, to=FEED, nonce=nonce,
                   data=pricefeed().calldata("submit", ROUND, price))


def context(context_id, timestamp=3990462):
    return FutureContext(context_id, BlockHeader(1, timestamp, 0xBEEF))


def make_speculator(world):
    registry = MetricsRegistry()
    return Speculator(world, registry=registry,
                      jit=JitTier(registry=registry)), registry


def test_get_ap_finishes_a_dirty_ap(oracle_world):
    speculator, registry = make_speculator(oracle_world)
    tx = submit(1980)
    for context_id in range(3):
        speculator.speculate(tx, context(context_id, 3990462 + context_id))
    raw = speculator.aps.peek(tx.hash)
    assert raw.jit is None and raw.shortcut_count == 0
    assert registry.value("speculator.finalizes") == 0
    ap = speculator.get_ap(tx.hash)
    assert ap is raw and ap.jit is not None and ap.shortcut_count > 0
    assert registry.value("speculator.finalizes") == 1
    assert registry.value("speculator.finalized_on_read") == 1
    assert registry.value("jit.compiles") == 1
    speculator.get_ap(tx.hash)
    speculator.finalize_dirty()
    assert registry.value("speculator.finalizes") == 1


def test_clone_enrich_leaves_a_finished_ap_alone(oracle_world):
    speculator, registry = make_speculator(oracle_world)
    tx = submit(1980)
    speculator.speculate(tx, context(0))
    ap = speculator.get_ap(tx.hash)
    closure, shortcuts = ap.jit, shortcut_table(ap)
    speculator.speculate(tx, context(1))  # same trace, new context id
    assert speculator.records[-1].deduped and speculator.records[-1].merged
    assert registry.value("speculator.clone_enriched") == 1
    assert not speculator._dirty
    assert speculator.get_ap(tx.hash).jit is closure
    assert shortcut_table(ap) == shortcuts
    assert ap.context_ids == {0, 1} and len(ap.paths) == 2
    assert registry.value("speculator.finalizes") == 1


def test_eviction_and_drop_archive_a_finished_ap(oracle_world, monkeypatch):
    reference, _ = make_speculator(oracle_world)
    monkeypatch.setattr(spec_module, "MEMO_CAPACITY", 1)
    speculator, registry = make_speculator(oracle_world)
    first, second = submit(1980), submit(1990, sender=0xB0B)
    speculator.speculate(first, context(0))
    speculator.speculate(second, context(0))   # evicts ``first``, dirty
    speculator.drop(second.hash)               # dropped while dirty
    for tx in (first, second):
        reference.speculate(tx, context(0))
        reference.get_ap(tx.hash)
        reference.drop(tx.hash)
    assert speculator.tally == reference.tally
    assert speculator.tally.aps == 2 and speculator.tally.shortcuts > 0
    # The eviction ran in-cycle; only the drop was a read.
    assert registry.value("speculator.finalizes") == 2
    assert registry.value("speculator.finalized_on_read") == 1
    assert not speculator._dirty and not speculator.aps


def test_discard_forgets_a_dirty_ap_and_reorg_keeps_it_dirty(oracle_world):
    speculator, registry = make_speculator(oracle_world)
    first, second = submit(1980), submit(1990, sender=0xB0B)
    speculator.speculate(first, context(0))
    speculator.speculate(second, context(0))
    speculator.discard(first.hash)
    speculator.on_reorg()
    # ``second`` survives the reorg in ``aps``, so it is still owed a
    # finish: ``get_ap`` never hands out an unfinished AP.
    assert list(speculator._dirty) == [second.hash]
    assert speculator.get_ap(first.hash) is None
    ap = speculator.get_ap(second.hash)
    assert ap.jit is not None and ap.shortcut_count > 0
    assert registry.value("speculator.finalizes") == 1
    assert not speculator._dirty and speculator.tally == SynthesisTally()


def test_cycle_bookkeeping_reads_without_finishing(oracle_world):
    """``run_speculation`` annotates the AP (``ready_at``, first
    context, prefetch keys) mid-cycle and finishes it once, when the
    cycle ends."""
    from repro.core.node import ForerunnerNode

    registry = MetricsRegistry()
    node = ForerunnerNode(oracle_world, registry=registry)
    tx = submit(1980)
    node.on_transaction(tx, 0.0)
    jobs = node.run_speculation(0.0)
    assert jobs > 1
    ap = node.speculator.aps.peek(tx.hash)
    assert ap.ready_at > 0.0 and ap.jit is not None
    assert node.first_context[tx.hash] is not None
    assert registry.value("speculator.finalizes") == 1
    assert registry.value("speculator.finalized_on_read") == 0
    assert registry.value("jit.compiles") == 1
