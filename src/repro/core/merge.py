"""AP merging (paper §4.3, "AP merging") and cross-branch pruning.

Two APs synthesized from different pre-executions of the same
transaction share a non-empty common instruction prefix and diverge only
at guard instructions (control-flow split points).  Merging folds a new
path into the existing tree by walking both in lockstep: at each guard
the path's expected outcome picks (or creates) a branch.

After merging, :func:`prune_tree` runs dead-code elimination across the
whole tree (an instruction in the shared prefix is live if *any* branch
uses it).
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Set

from repro.core.ap import (
    AcceleratedProgram,
    APNode,
    APPath,
    Terminal,
    branch_key_for,
    build_chain,
    make_terminal,
)
from repro.core.sevm import Reg, SInstr, SKind, is_reg


class MergeMetrics:
    """Instrument bundle for merge/prune accounting.

    Owned by the caller (the speculator allocates one under its scope
    as ``merge.*``); :func:`merge_path` and :func:`prune_tree` accept
    it optionally so library users pay nothing when uninstrumented.
    """

    __slots__ = ("attempts", "accepted", "rejected", "enriched",
                 "new_branches", "pruned_nodes")

    def __init__(self, scope) -> None:
        self.attempts = scope.counter("attempts")
        self.accepted = scope.counter("accepted")
        self.rejected = scope.counter("rejected")
        #: Structurally identical path folded into an existing terminal.
        self.enriched = scope.counter("enriched")
        #: Merges that opened a new branch at a guard.
        self.new_branches = scope.counter("new_branches")
        self.pruned_nodes = scope.counter("pruned_nodes")


def _meta_key(instr: SInstr) -> tuple:
    """Hashable identity of the meta fields that affect semantics."""
    meta = instr.meta
    if instr.op == "MCONCAT":
        return tuple(
            (e[0], e[1], bytes(e[2])) if e[0] == "bytes" else tuple(e)
            for e in meta["layout"]) + (meta.get("size", 32),)
    if instr.op == "SHA3":
        return (meta["size"],)
    if instr.op == "LOG":
        return (meta["topic_count"], meta["data_size"])
    return ()


def structurally_equal(a: SInstr, b: SInstr) -> bool:
    """Same instruction shape (guard expectations excluded)."""
    return (a.kind is b.kind
            and a.op == b.op
            and a.dest == b.dest
            and a.args == b.args
            and a.key == b.key
            and a.guard_mode is b.guard_mode
            and _meta_key(a) == _meta_key(b))


def _accept(ap: AcceleratedProgram, path: APPath,
            metrics: Optional[MergeMetrics], new_path: bool) -> bool:
    """Record an accepted ``path`` on ``ap``: its paths, distinct path
    count, §5.5 stat totals, prefetch keys and contexts."""
    ap.paths.append(path)
    if new_path:
        ap.path_count += 1
    ap.synth_totals = tuple(map(add, ap.synth_totals, path.stats.counts()))
    ap.prefetch_keys.update(path.read_set.keys())
    ap.context_ids.add(path.context_id)
    if metrics is not None:
        metrics.accepted.inc()
    return True


def _reject(ap: AcceleratedProgram, metrics: Optional[MergeMetrics]
            ) -> bool:
    ap.merge_failures += 1
    if metrics is not None:
        metrics.rejected.inc()
    return False


def merge_path(ap: AcceleratedProgram, path: APPath,
               metrics: Optional[MergeMetrics] = None) -> bool:
    """Fold ``path`` into ``ap``'s tree; returns True on success.

    A path that builds the root chain or opens a new branch adds one to
    ``ap.path_count``; one folded into an existing terminal does not.
    Every accepted path adds its stats to ``ap.synth_totals``.  So
    nothing has to walk the tree or the paths when the AP retires.

    On a structural mismatch that is not at a guard (which cannot
    happen for deterministic synthesis, but is handled defensively) the
    path is dropped and ``ap.merge_failures`` is bumped.
    """
    if metrics is not None:
        metrics.attempts.inc()
    terminal = make_terminal(path)
    instrs = path.pre_dce_instrs
    if ap.root is None:
        ap.root = build_chain(instrs, terminal)
        return _accept(ap, path, metrics, new_path=True)

    node = ap.root
    index = 0
    while True:
        if isinstance(node, Terminal):
            if index != len(instrs):
                return _reject(ap, metrics)
            # Structurally identical path (e.g. same control path in a
            # different context): enrich the terminal and record the
            # path for extra shortcut entries.
            node.path_ids.append(path.path_id)
            if metrics is not None:
                metrics.enriched.inc()
            return _accept(ap, path, metrics, new_path=False)
        if index >= len(instrs):
            return _reject(ap, metrics)
        instr = instrs[index]
        if not structurally_equal(node.instr, instr):
            return _reject(ap, metrics)
        if node.branches is not None:
            key = branch_key_for(instr)
            child = node.branches.get(key)
            if child is None:
                node.branches[key] = build_chain(instrs[index + 1:], terminal)
                if metrics is not None:
                    metrics.new_branches.inc()
                return _accept(ap, path, metrics, new_path=True)
            node = child
        else:
            node = node.next
        index += 1


def prune_tree(ap: AcceleratedProgram,
               metrics: Optional[MergeMetrics] = None) -> int:
    """Tree-wide dead-code elimination; returns removed node count.

    A node is live if it is a guard, a write, or defines a register used
    by any live node in any branch (or by any terminal's return layout).
    """
    nodes = ap.all_nodes()
    used: Set[Reg] = set()
    for terminal in ap._terminals():  # noqa: SLF001 - same module family
        for _, piece in terminal.return_pieces:
            if piece[0] == "reg":
                used.add(piece[1])

    # Uses follow definitions in pre-order, so one reverse pass is the
    # fixed point — unless a register turns used after a node defining
    # it (in another branch) was passed over as dead: then go again.
    changed = True
    live_ids: Set[int] = set()
    while changed:
        changed = False
        passed_over: Set[Reg] = set()
        for node in reversed(nodes):
            if id(node) in live_ids:
                continue
            instr = node.instr
            if instr.kind in (SKind.GUARD, SKind.WRITE) or (
                    instr.dest is not None and instr.dest in used):
                live_ids.add(id(node))
                for arg in instr.args:
                    if is_reg(arg) and arg not in used:
                        used.add(arg)
                        changed = changed or arg in passed_over
            else:
                passed_over.add(instr.dest)

    removed = 0

    def skip_dead(node):
        nonlocal removed
        while isinstance(node, APNode) and id(node) not in live_ids:
            removed += 1
            node = node.next
        return node

    def rebuild(head):
        """Relink one live chain in place (recursing only at guards,
        whose nesting depth is small)."""
        head = skip_dead(head)
        node = head
        while isinstance(node, APNode):
            if node.branches is not None:
                node.branches = {
                    key: rebuild(child)
                    for key, child in node.branches.items()
                }
                break
            node.next = skip_dead(node.next)
            node = node.next
        return head

    ap.root = rebuild(ap.root)
    if metrics is not None:
        metrics.pruned_nodes.inc(removed)
    return removed
