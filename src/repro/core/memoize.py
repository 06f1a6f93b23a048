"""Memoization: shortcut synthesis over AP segments (paper §4.3).

A shortcut lets AP execution skip an instruction segment whenever the
segment's input registers hold exactly the values seen during some
pre-execution; the remembered outputs are committed instead.  Segments
may contain guard nodes — skipping past a guard is what makes merged
constraint checking almost free when the context matches a speculated
one (the paper's m1 node skips both the round computation *and* the
guard on it).

Shortcut entries from different pre-executions of the same transaction
are merged into one node keyed by input values (Figure 10's m3 carries
both 2000 and 2010), so a single lookup serves the many-future case.

A heuristic caps the number of shortcuts per AP; for each eligible
segment we also add one suffix sub-segment that depends on strictly
fewer inputs (the paper's m5), so a partial match can still skip part
of the work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.ap import (
    AcceleratedProgram,
    APNode,
    Shortcut,
    Terminal,
    observed_branch_key,
)
from repro.core.sevm import Reg, SKind, is_reg

#: Maximum shortcut nodes per accelerated program.
MAX_SHORTCUTS = 96
#: Minimum instructions a segment must span to be worth a shortcut.
MIN_SEGMENT_LEN = 1

#: Shortcut-selection strategies (paper fn. 12 calls refined heuristics
#: future work; we implement three points on the spectrum):
#:  * "coarse"  — one shortcut per maximal segment;
#:  * "default" — per segment plus one proper-subset suffix (the
#:    paper's m5-style sub-segment);
#:  * "fine"    — per segment plus every suffix whose input set
#:    strictly shrinks (finest partial matching, most probe overhead).
STRATEGIES = ("coarse", "default", "fine")


def _segment_span(start: APNode, concrete: Dict[Reg, int]
                  ) -> Optional[Tuple[List[APNode], object]]:
    """Walk a compute/guard segment starting at ``start`` along the
    branches selected by ``concrete`` values.

    Returns (segment nodes, resume node) or None if the segment is
    empty/unusable.  The segment ends before the first READ, WRITE, or
    terminal.
    """
    nodes: List[APNode] = []
    node: object = start
    while isinstance(node, APNode):
        instr = node.instr
        if instr.kind in (SKind.READ, SKind.WRITE):
            break
        if instr.kind is SKind.GUARD:
            values = tuple(
                concrete[a] if is_reg(a) else a for a in instr.args)
            key = observed_branch_key(instr, values)
            child = node.branches.get(key)
            if child is None:
                # This path's concretes do not traverse this guard (can
                # happen for foreign-branch nodes); stop the segment.
                break
            nodes.append(node)
            node = child
            continue
        nodes.append(node)
        node = node.next
    if not nodes:
        return None
    return nodes, node


def _segment_io(nodes: List[APNode], liveness: "_Liveness"
                ) -> Tuple[Tuple[Reg, ...], Tuple[Reg, ...]]:
    """(input registers, output registers) of a segment."""
    defined: Set[Reg] = set()
    inputs: List[Reg] = []
    seen_inputs: Set[Reg] = set()
    end_index = -1
    for node in nodes:
        end_index = max(end_index, liveness.index_of(node))
        for arg in node.instr.args:
            if is_reg(arg) and arg not in defined and arg not in seen_inputs:
                seen_inputs.add(arg)
                inputs.append(arg)
        if node.instr.dest is not None:
            defined.add(node.instr.dest)
    outputs = tuple(reg for reg in defined
                    if liveness.last_use(reg) > end_index)
    return tuple(inputs), outputs


class _Liveness:
    """O(n) liveness summary: a register is live after a position iff
    its last use (on any branch, or in any terminal's return layout)
    comes later.  Conservative across branches, which is safe — extra
    outputs only make shortcut entries slightly larger."""

    def __init__(self, ap: AcceleratedProgram) -> None:
        nodes = ap.all_nodes()
        self._index = {id(node): i for i, node in enumerate(nodes)}
        self._last_use: Dict[Reg, float] = {}
        for i, node in enumerate(nodes):
            for arg in node.instr.args:
                if is_reg(arg):
                    previous = self._last_use.get(arg, -1)
                    if i > previous:
                        self._last_use[arg] = i
        for terminal in ap._terminals():  # noqa: SLF001
            for _, piece in terminal.return_pieces:
                if piece[0] == "reg":
                    self._last_use[piece[1]] = float("inf")

    def index_of(self, node) -> int:
        return self._index.get(id(node), -1)

    def last_use(self, reg: Reg) -> float:
        return self._last_use.get(reg, -1)


def build_shortcuts(ap: AcceleratedProgram,
                    strategy: str = "default") -> int:
    """(Re)build all shortcut nodes for ``ap``; returns the count.

    Called by the speculator when it finishes a changed AP: entries
    from every recorded path are folded into the shared shortcut nodes.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown memoization strategy {strategy!r}")
    for node in ap.all_nodes():
        node.shortcut = None
    if ap.root is None or not ap.paths:
        return 0
    liveness = _Liveness(ap)

    total = 0
    for path in ap.paths:
        if total >= MAX_SHORTCUTS:
            break
        total += _add_path_shortcuts(ap, path, liveness,
                                     MAX_SHORTCUTS - total, strategy)
    ap.shortcut_count = total
    return total


def _add_path_shortcuts(ap: AcceleratedProgram, path, liveness,
                        budget: int, strategy: str = "default") -> int:
    """Walk one path's route adding/extending shortcuts; returns number
    of *new* shortcut nodes created."""
    concrete = path.concrete
    created = 0
    node: object = ap.root
    while isinstance(node, APNode) and budget - created >= 0:
        instr = node.instr
        if instr.kind in (SKind.READ, SKind.WRITE):
            node = node.next
            continue
        span = _segment_span(node, concrete)
        if span is None:
            node = _advance(node, concrete)
            continue
        nodes, resume = span
        if len(nodes) >= MIN_SEGMENT_LEN:
            created += self_register(node, nodes, resume, concrete,
                                     liveness)
            if strategy == "default":
                # One sub-segment shortcut (the paper's m5): the longest
                # proper suffix depending on strictly fewer inputs.
                sub = _best_suffix(nodes, concrete, liveness)
                if sub is not None and created < budget:
                    sub_start, sub_nodes = sub
                    created += self_register(sub_start, sub_nodes,
                                             resume, concrete, liveness)
            elif strategy == "fine":
                created += _fine_suffixes(nodes, resume, concrete,
                                          liveness, budget - created)
        node = resume
    return created


def _suffix_input_counts(nodes: List[APNode]) -> List[int]:
    """``counts[k]`` = how many input registers ``nodes[k:]`` has, for
    every k, from one backward pass (not n ``_segment_io`` calls)."""
    live: Set[Reg] = set()
    counts = [0] * len(nodes)
    for k in range(len(nodes) - 1, -1, -1):
        instr = nodes[k].instr
        live.discard(instr.dest)
        live.update(arg for arg in instr.args if is_reg(arg))
        counts[k] = len(live)
    return counts


def _fine_suffixes(nodes: List[APNode], resume, concrete, liveness,
                   budget: int) -> int:
    """Register a shortcut at every suffix whose input set shrinks."""
    created = 0
    counts = _suffix_input_counts(nodes)
    kept = 0  # start of the last segment registered (the full one first)
    for split in range(1, len(nodes)):
        if created >= budget:
            break
        if counts[split] < counts[kept]:
            created += self_register(nodes[split], nodes[split:], resume,
                                     concrete, liveness)
            kept = split
    return created


def self_register(start: APNode, nodes: List[APNode], resume,
                  concrete: Dict[Reg, int], liveness) -> int:
    """Add (or extend) the shortcut anchored at ``start``."""
    inputs, outputs = _segment_io(nodes, liveness)
    try:
        key = tuple(concrete[reg] for reg in inputs)
        output_values = {reg: concrete[reg] for reg in outputs}
    except KeyError:
        return 0  # foreign-branch registers: this path cannot memoize here
    new_node = 0
    if start.shortcut is None or start.shortcut.input_regs != inputs:
        if start.shortcut is not None:
            # Input sets diverged between paths (different live sets);
            # keep the existing shortcut untouched.
            return 0
        start.shortcut = Shortcut(input_regs=inputs, length=len(nodes))
        new_node = 1
    if key not in start.shortcut.entries:
        start.shortcut.entries[key] = (output_values, resume)
    return new_node


def _best_suffix(nodes: List[APNode], concrete, liveness):
    """Longest proper suffix of ``nodes`` using strictly fewer inputs
    (inputs may include registers defined in the dropped prefix)."""
    counts = _suffix_input_counts(nodes)
    for split in range(1, len(nodes)):
        if counts[split] < counts[0]:
            return nodes[split], nodes[split:]
    return None


def _advance(node: APNode, concrete: Dict[Reg, int]):
    """Step to the next node along the branches this path takes."""
    if node.branches is None:
        return node.next
    instr = node.instr
    try:
        values = tuple(
            concrete[a] if is_reg(a) else a for a in instr.args)
    except KeyError:
        return None
    key = observed_branch_key(instr, values)
    return node.branches.get(key)
