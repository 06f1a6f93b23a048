"""Accelerated Programs (paper §4.3).

An AP is the merged result of specializing one transaction against one
or more speculated future contexts:

* a **tree of nodes** (reads, computes, buffered writes) whose guard
  nodes serve the dual purpose of constraint checking and case-branching
  between the constraint sets of different speculated contexts — making
  merged-AP execution time independent of how many futures were merged;
* **terminals**, one per distinct execution path, holding the constant
  outcome of that path (success flag, gas used, return-data layout);
* **shortcuts** (added by :mod:`repro.core.memoize`), which skip whole
  instruction segments when their input registers carry values already
  seen during some pre-execution.

Execution (the compiled closure of :mod:`repro.evm.jit.specialize`)
buffers all writes until a terminal is reached, so a constraint
violation leaves nothing to roll back (the paper's rollback-free
property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.sevm import GuardMode, Reg, SInstr, SKind, is_reg
from repro.core.translate import SynthStats, TranslationResult


@dataclass
class Shortcut:
    """Memoization shortcut over one instruction segment.

    ``entries`` maps a tuple of input-register values (as remembered
    from some pre-execution) to the segment's remembered outputs and the
    node to resume at.  ``length`` counts skipped instructions for the
    §5.5 skip-rate statistic.
    """

    input_regs: Tuple[Reg, ...]
    entries: Dict[tuple, Tuple[Dict[Reg, int], "APNode"]] = \
        field(default_factory=dict)
    length: int = 0


class APNode:
    """One node of the AP tree."""

    __slots__ = ("instr", "next", "branches", "shortcut")

    def __init__(self, instr: SInstr) -> None:
        self.instr = instr
        self.next: Optional[object] = None      # APNode | Terminal
        #: For guard nodes: observed branch key -> child (APNode|Terminal).
        self.branches: Optional[Dict[object, object]] = (
            {} if instr.kind is SKind.GUARD else None)
        self.shortcut: Optional[Shortcut] = None

    def is_guard(self) -> bool:
        return self.instr.kind is SKind.GUARD

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<APNode {self.instr!r}>"


@dataclass
class Terminal:
    """End of one execution path: the path's constant outcome."""

    path_ids: List[int]
    success: bool
    gas_used: int
    return_pieces: List[Tuple[int, tuple]]
    return_size: int
    #: Full speculated read set of the first path reaching this
    #: terminal (used for perfect-prediction classification).
    read_set: Dict[tuple, int]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "ok" if self.success else "revert"
        return f"<Terminal paths={self.path_ids} {status}>"


def branch_key_for(instr: SInstr) -> object:
    """The branch key this path's guard expectation selects."""
    if instr.guard_mode is GuardMode.EQ:
        return instr.expected
    if instr.guard_mode is GuardMode.TRUTH:
        return bool(instr.expected)
    return True  # NEQ: the only satisfying outcome is "distinct"


def observed_branch_key(instr: SInstr, values: Tuple[int, ...]) -> object:
    """Branch key selected by runtime-observed guard operand values."""
    if instr.guard_mode is GuardMode.EQ:
        return values[0]
    if instr.guard_mode is GuardMode.TRUTH:
        return bool(values[0])
    return True if values[0] != values[1] else None


@dataclass
class APPath:
    """One synthesized path (one pre-execution), ready for merging."""

    path_id: int
    context_id: int
    instrs: List[SInstr]                # post-DCE (stats / inspection)
    pre_dce_instrs: List[SInstr]        # merge skeleton
    concrete: Dict[Reg, int]
    return_pieces: List[Tuple[int, tuple]]
    return_size: int
    success: bool
    gas_used: int
    stats: SynthStats
    read_set: Dict[tuple, int]
    write_set: Dict[tuple, object]

    @classmethod
    def from_translation(cls, result: TranslationResult, path_id: int,
                         context_id: int) -> "APPath":
        if result.pre_dce_instrs is None:
            raise ValueError("run optimize_path before building an APPath")
        return cls(
            path_id=path_id,
            context_id=context_id,
            instrs=result.instrs,
            pre_dce_instrs=result.pre_dce_instrs,
            concrete=result.concrete,
            return_pieces=result.return_pieces,
            return_size=result.return_size,
            success=result.success,
            gas_used=result.gas_used,
            stats=result.stats,
            read_set=result.read_set,
            write_set=result.write_set,
        )


class AcceleratedProgram:
    """Merged AP for one transaction."""

    def __init__(self, tx_hash: int) -> None:
        self.tx_hash = tx_hash
        self.root: Optional[object] = None   # APNode | Terminal
        self.paths: List[APPath] = []
        #: Distinct merged execution paths (terminals, §5.5) and the
        #: element-wise sum of ``paths``' ``SynthStats.counts()``; both
        #: kept by :func:`repro.core.merge.merge_path`.
        self.path_count = 0
        self.synth_totals: Tuple[int, ...] = SynthStats().counts()
        self.merge_failures = 0
        #: Union of all speculated read sets (prefetcher input).
        self.prefetch_keys: Set[tuple] = set()
        #: Simulation time when the AP became usable (set by speculator).
        self.ready_at: float = 0.0
        #: Distinct speculated context ids folded into this AP.
        self.context_ids: Set[int] = set()
        self.shortcut_count = 0
        #: Specialized closure for this tree
        #: (:class:`repro.evm.jit.specialize.CompiledAP`), or ``None``
        #: until compiled.  Cleared before any tree mutation; set by
        #: :class:`repro.evm.jit.tier.JitTier`, which recompiles one
        #: from before a tier invalidation.
        self.jit: Optional[object] = None

    # -- structure helpers -----------------------------------------------

    def _terminals(self) -> List[Terminal]:
        terminals: List[Terminal] = []
        seen: Set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            while isinstance(node, APNode):
                if node.branches is not None:
                    stack.extend(node.branches.values())
                    node = None
                    break
                node = node.next
            if isinstance(node, Terminal) and id(node) not in seen:
                seen.add(id(node))
                terminals.append(node)
        return terminals

    def all_nodes(self) -> List[APNode]:
        """Every APNode in the tree (pre-order along chains)."""
        nodes: List[APNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            while isinstance(node, APNode):
                nodes.append(node)
                if node.branches is not None:
                    stack.extend(node.branches.values())
                    break
                node = node.next
        return nodes


def describe_ap(ap: "AcceleratedProgram") -> str:
    """Render the AP tree as indented text (a textual Figure 10).

    Guard nodes show their branch keys; shortcut-bearing nodes are
    marked with the entry count; terminals show the path outcome.
    """
    lines: List[str] = []

    def emit(node, depth: int) -> None:
        pad = "  " * depth
        while isinstance(node, APNode):
            marker = ""
            if node.shortcut is not None:
                marker = (f"   [shortcut: {len(node.shortcut.entries)} "
                          f"entr{'y' if len(node.shortcut.entries) == 1 else 'ies'}, "
                          f"skips {node.shortcut.length}]")
            lines.append(f"{pad}{node.instr!r}{marker}")
            if node.branches is not None:
                for key, child in node.branches.items():
                    lines.append(f"{pad}-> branch {key!r}:")
                    emit(child, depth + 1)
                return
            node = node.next
        if isinstance(node, Terminal):
            status = "ok" if node.success else "revert"
            lines.append(
                f"{pad}TERMINAL paths={node.path_ids} {status} "
                f"gas={node.gas_used}")

    if ap.root is None:
        return "<empty AP>"
    emit(ap.root, 0)
    return "\n".join(lines)


def build_chain(instrs: List[SInstr], terminal: Terminal) -> object:
    """Build a linear APNode chain ending in ``terminal``.

    Guard nodes get a single branch keyed by this path's expectation.
    Returns the head (a Terminal directly if ``instrs`` is empty).
    """
    head: object = terminal
    for instr in reversed(instrs):
        node = APNode(instr)
        if node.branches is not None:
            node.branches[branch_key_for(instr)] = head
        else:
            node.next = head
        head = node
    return head


def make_terminal(path: APPath) -> Terminal:
    return Terminal(
        path_ids=[path.path_id],
        success=path.success,
        gas_used=path.gas_used,
        return_pieces=path.return_pieces,
        return_size=path.return_size,
        read_set=path.read_set,
    )
