"""The AP executor: AP trees -> straight-line closures (paper §4.3).

An AP runs only as the closure this module compiles from its tree.
The reference semantics is a walker that re-interprets the S-EVM
instruction graph node by node (``tests/ap_walk.py``): every COMPUTE
re-dispatches through ``evaluate_compute``, every operand goes through
a ``regs`` dict, every step pays Python attribute/dict traffic.  The
compiler turns the tree once into a specialized Python function (in
the spirit of EVMx's flattened fetch/decode/execute pipeline, see
PAPERS.md):

* registers become local variables (``r7``), the push/pop dict traffic
  of the walker disappears;
* the ~20 hottest pure COMPUTE ops (ADD..SHR) are inlined as Python
  expressions; the long tail (SDIV, SIGNEXTEND, SHA3, MCONCAT, ...)
  calls the shared ``evaluate_compute`` semantics;
* COMPUTE nodes whose operands are constraint-stable constants are
  folded at compile time (the closure still *charges* for them as the
  walker would — the cost model is part of the observable contract);
* GUARD nodes become baked dict dispatches over the same branch keys
  the walker would probe, raising the byte-identical
  :class:`~repro.errors.ConstraintViolation` on mismatch;
* shortcut probes become baked dict lookups with the same hit/miss
  accounting;
* every value the tree carries (addresses, slots, folded constants,
  branch tables, terminals) is lifted out of the source into a closure
  cell, so the source depends only on the tree's *shape*: trees of one
  shape share one code object (:func:`shape_code`, cached by
  :class:`~repro.evm.jit.tier.JitTier`) and differ only in the
  constants bound to it.

The compiled function is *observationally identical* to the walker on
every path: same state-read sequence (disk charging, cache warming),
same ``CostTally`` sums at every ConstraintViolation raise point, same
``APExecStats`` on success, same writes, logs, return data and
``observed_reads``.  Anything the compiler cannot prove equivalent
(register redefinition, a use that is not always defined, an
oversized tree) raises :class:`SpecializeAbort`, and the transaction
runs plainly.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chain.block import blockhash
from repro.core import costmodel
from repro.core.ap import AcceleratedProgram, APNode, Terminal
from repro.core.optimize import evaluate_compute
from repro.core.sevm import GuardMode, Reg, SInstr, SKind, is_reg
from repro.errors import ConstraintViolation
from repro.utils.words import int_to_bytes32, to_signed


class SpecializeAbort(Exception):
    """Tree not provably equivalent under specialization; run plainly."""


@dataclass
class APExecStats:
    """Instruction-level counters for one AP execution (§5.5)."""

    executed_nodes: int = 0
    skipped_nodes: int = 0
    shortcut_hits: int = 0
    shortcut_misses: int = 0
    guards_checked: int = 0


@dataclass
class APOutcome:
    """Result of a successful AP execution."""

    success: bool
    gas_used: int
    return_data: bytes
    terminal: Terminal
    stats: APExecStats = field(default_factory=APExecStats)
    #: Context values observed by the READ nodes this execution walked,
    #: keyed like read sets: (kind, key) -> value.  Used to classify
    #: perfect vs imperfect predictions without extra state reads.
    observed_reads: Dict[tuple, int] = field(default_factory=dict)


def materialize_return(pieces: List[Tuple[int, tuple]], size: int,
                       regs: Dict[Reg, int]) -> bytes:
    """Build the return-data bytes from the terminal's piece layout."""
    if size == 0:
        return b""
    buf = bytearray(size)
    for rel_off, piece in pieces:
        kind = piece[0]
        if kind == "bytes":
            payload = piece[1]
            buf[rel_off:rel_off + len(payload)] = payload
        elif kind == "reg":
            _, reg, src_start, length = piece
            word = int_to_bytes32(regs[reg])
            buf[rel_off:rel_off + length] = word[src_start:src_start + length]
        # "zero": already zero
    return bytes(buf)


class _Unset:
    """Sentinel for registers that have no value yet (walker: missing key)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unset>"


_UNSET = _Unset()

#: The hot-20 pure ops, inlined as Python expressions.  ``{0}``/``{1}``/
#: ``{2}`` are operand slots in ``instr.args`` order, always plain names
#: (a register or a lifted literal); ``_M`` is the 256-bit mask, ``_P``
#: is 2**256, ``_S`` is ``to_signed``.  Templates mirror
#: ``COMPUTE_SEMANTICS`` exactly (note SHL/SHR take the shift amount as
#: the *first* argument).
_HOT_TEMPLATES = {
    "ADD": "({0} + {1}) & _M",
    "MUL": "({0} * {1}) & _M",
    "SUB": "({0} - {1}) & _M",
    "DIV": "{0} // {1} if {1} else 0",
    "MOD": "{0} % {1} if {1} else 0",
    "ADDMOD": "({0} + {1}) % {2} if {2} else 0",
    "MULMOD": "({0} * {1}) % {2} if {2} else 0",
    "EXP": "pow({0}, {1}, _P)",
    "LT": "1 if {0} < {1} else 0",
    "GT": "1 if {0} > {1} else 0",
    "SLT": "1 if _S({0}) < _S({1}) else 0",
    "SGT": "1 if _S({0}) > _S({1}) else 0",
    "EQ": "1 if {0} == {1} else 0",
    "ISZERO": "1 if {0} == 0 else 0",
    "AND": "{0} & {1}",
    "OR": "{0} | {1}",
    "XOR": "{0} ^ {1}",
    "NOT": "~{0} & _M",
    "SHL": "({1} << {0}) & _M if {0} < 256 else 0",
    "SHR": "{1} >> {0} if {0} < 256 else 0",
}

HOT_OPS: Tuple[str, ...] = tuple(sorted(_HOT_TEMPLATES))


@dataclass
class CompiledAP:
    """One specialized closure plus its compile-time metadata."""

    #: ``fn(state, header, tally) -> APOutcome``; raises
    #: :class:`ConstraintViolation` exactly like the reference walker.
    fn: object
    #: Tier version this artifact was compiled under; a mismatch
    #: before it runs is a bailout (reorg/redeploy invalidation), and
    #: the tier recompiles it.
    version: int
    node_count: int
    segment_count: int
    folded_count: int
    #: Generated Python source: a function of the tree's shape only
    #: (debugging / the conformance suite).
    source: str
    #: The value literals lifted out of ``source`` (``_K`` names), in
    #: binding order: ``source`` plus ``literals`` is everything the
    #: closure computes with apart from the bound tables.
    literals: Tuple[object, ...] = ()


def _segment_structure(root) -> Tuple[List[object], Dict[int, int],
                                     List[APNode]]:
    """Discover segment entry points in deterministic order.

    Entries are: the root, every guard branch target, every shortcut
    resume node, and every Terminal.  Returns (entry_objects, id->seg,
    every APNode in BFS order).
    """
    # Deterministic BFS over tree edges (.next / .branches).
    order: List[APNode] = []
    terminals: List[Terminal] = []
    seen: Set[int] = set()
    queue: List[object] = [root]
    for node in queue:
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Terminal):
            terminals.append(node)
            continue
        order.append(node)
        if node.branches is not None:
            queue.extend(node.branches.values())
        elif node.next is not None:
            queue.append(node.next)

    entry_objs: List[object] = []
    entry_ids: Dict[int, int] = {}

    def add_entry(obj) -> None:
        if id(obj) not in entry_ids:
            entry_ids[id(obj)] = len(entry_objs)
            entry_objs.append(obj)

    add_entry(root)
    for node in order:
        if node.shortcut is not None:
            for _outputs, resume in node.shortcut.entries.values():
                add_entry(resume)
        if node.branches is not None:
            for child in node.branches.values():
                add_entry(child)
    for term in terminals:
        add_entry(term)
    return entry_objs, entry_ids, order


class _Compiler:
    """One compile_ap invocation's working state."""

    def __init__(self, ap: AcceleratedProgram, max_nodes: int) -> None:
        if ap.root is None:
            raise SpecializeAbort("AP has no root")
        self.ap = ap
        self.max_nodes = max_nodes
        self.entry_objs, self.entry_ids, self.nodes = \
            _segment_structure(ap.root)
        self.node_count = len(self.nodes)
        if self.node_count > max_nodes:
            raise SpecializeAbort(
                f"AP too large to specialize ({self.node_count} nodes)")
        #: seg -> list of ("probe"|"instr", APNode) steps plus one
        #: terminator ("guard", node) / ("jump", seg) / ("dead", None) /
        #: ("terminal", Terminal).
        self.bodies: Dict[int, List[Tuple[str, object]]] = {}
        #: Dataflow edges (src_seg, dst_seg, frozenset-of-int gains).
        self.edges: List[Tuple[int, int, frozenset]] = []
        self.always: Dict[int, Set[int]] = {}
        self.maybe: Dict[int, Set[int]] = {}
        self.fold: Dict[int, int] = {}
        #: Folded regs that still need a runtime variable (shortcut
        #: probe inputs that are not always defined at the probe).
        self.materialize: Set[int] = set()
        #: Probe classification: (seg, step_index) -> list of
        #: ("const"|"var"|"maybe"|"never", operand) per input reg.
        self.probe_plan: Dict[Tuple[int, int], List[Tuple[str, object]]] = {}
        #: Registers the closure may read before assigning them (probe
        #: inputs that are only maybe defined, shortcut outputs): they
        #: start as ``_U``.  Every other use is proven defined.
        self.unset: Set[int] = set()
        #: Bound constants in binding order: names and values.
        self.names: List[str] = []
        self.values: List[object] = []
        self.literals: List[object] = []

    # -- helpers ---------------------------------------------------------

    def const(self, value, prefix: str) -> str:
        """Bind ``value`` to a fresh closure cell; returns its name."""
        name = "_%s%d" % (prefix, len(self.names))
        self.names.append(name)
        self.values.append(value)
        return name

    def literal(self, value) -> str:
        """Lift a value literal out of the source (one cell per use, so
        the name sequence follows the tree's shape, not its values)."""
        self.literals.append(value)
        return self.const(value, "K")

    # -- pass 1: segment bodies + dataflow edges -------------------------

    def build_segments(self) -> None:
        for seg, obj in enumerate(self.entry_objs):
            if isinstance(obj, Terminal):
                self.bodies[seg] = [("terminal", obj)]
                continue
            body: List[Tuple[str, object]] = []
            defs: Set[int] = set()
            node: object = obj
            budget = self.node_count + 1
            while True:
                if isinstance(node, Terminal):
                    tseg = self.entry_ids[id(node)]
                    self.edges.append((seg, tseg, frozenset(defs)))
                    body.append(("jump", tseg))
                    break
                if node is None:
                    body.append(("dead", None))
                    break
                if node is not obj and id(node) in self.entry_ids:
                    tseg = self.entry_ids[id(node)]
                    self.edges.append((seg, tseg, frozenset(defs)))
                    body.append(("jump", tseg))
                    break
                budget -= 1
                if budget < 0:
                    raise SpecializeAbort("AP walk exceeded node budget")
                if node.shortcut is not None:
                    body.append(("probe", node))
                    for _key, (outputs, resume) in \
                            node.shortcut.entries.items():
                        gain = defs | {int(r) for r in outputs}
                        self.edges.append(
                            (seg, self.entry_ids[id(resume)],
                             frozenset(gain)))
                instr: SInstr = node.instr
                if instr.kind is SKind.GUARD:
                    body.append(("guard", node))
                    for child in node.branches.values():
                        self.edges.append(
                            (seg, self.entry_ids[id(child)],
                             frozenset(defs)))
                    break
                body.append(("instr", node))
                if instr.dest is not None:
                    defs.add(int(instr.dest))
                node = node.next
            self.bodies[seg] = body

    # -- pass 2: fixpoint dataflow ---------------------------------------

    def dataflow(self) -> None:
        self.always[0] = set()
        self.maybe[0] = set()
        changed = True
        while changed:
            changed = False
            for src, dst, gain in self.edges:
                if src not in self.always:
                    continue
                cand = self.always[src] | gain
                if dst not in self.always:
                    self.always[dst] = set(cand)
                    changed = True
                else:
                    inter = self.always[dst] & cand
                    if inter != self.always[dst]:
                        self.always[dst] = inter
                        changed = True
                mcand = self.maybe[src] | gain
                if dst not in self.maybe:
                    self.maybe[dst] = set(mcand)
                    changed = True
                elif not mcand <= self.maybe[dst]:
                    self.maybe[dst] |= mcand
                    changed = True

    # -- pass 3: constant folding ----------------------------------------

    def fold_constants(self) -> None:
        out_union: Set[int] = set()
        defcount: Dict[int, int] = {}
        computes: List[SInstr] = []
        for node in self.nodes:
            instr = node.instr
            if instr.dest is not None:
                d = int(instr.dest)
                defcount[d] = defcount.get(d, 0) + 1
            if instr.kind is SKind.COMPUTE:
                computes.append(instr)
            if node.shortcut is not None:
                for outputs, _resume in node.shortcut.entries.values():
                    out_union.update(int(r) for r in outputs)
        dead: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for instr in computes:
                d = int(instr.dest)
                if (d in self.fold or d in dead or d in out_union
                        or defcount[d] != 1):
                    continue
                vals: List[int] = []
                ok = True
                for arg in instr.args:
                    if is_reg(arg):
                        if int(arg) in self.fold:
                            vals.append(self.fold[int(arg)])
                        else:
                            ok = False
                            break
                    else:
                        vals.append(int(arg))
                if not ok:
                    continue
                try:
                    self.fold[d] = evaluate_compute(instr, tuple(vals))
                except Exception:  # pragma: no cover - defensive
                    dead.add(d)
                    continue
                changed = True

    # -- pass 4: planning (SSA + definedness + probe classes) ------------

    def _route_ssa_check(self) -> None:
        """No register may be assigned twice along any execution path.

        This is what makes buffer-time WRITE operand resolution (the
        closure) equivalent to the walker's commit-time resolution, and
        per-path constant inlining sound.  The AP is a tree, so one
        DFS with per-branch set copies covers every path.
        """
        budget = 16 * (self.node_count + 1)
        stack: List[Tuple[object, Set[int]]] = [(self.ap.root, set())]
        while stack:
            node, defined = stack.pop()
            budget -= 1
            if budget < 0:
                raise SpecializeAbort("SSA check exceeded budget")
            if not isinstance(node, APNode):
                continue
            instr = node.instr
            if instr.dest is not None:
                d = int(instr.dest)
                if d in defined:
                    raise SpecializeAbort(f"register v{d} redefined on path")
                defined.add(d)
            if node.branches is not None:
                for child in node.branches.values():
                    stack.append((child, set(defined)))
            elif node.next is not None:
                stack.append((node.next, defined))

    def _use(self, operand, cur: Set[int]) -> None:
        """Record a strict use; abort unless provably defined."""
        if is_reg(operand):
            r = int(operand)
            if r not in cur:
                raise SpecializeAbort(
                    f"use of register v{r} not always defined")

    def plan(self) -> None:
        self._route_ssa_check()
        for seg, body in self.bodies.items():
            cur = set(self.always.get(seg, set()))
            curm = set(self.maybe.get(seg, set()))
            for index, (kind, node) in enumerate(body):
                if kind == "probe":
                    plan: List[Tuple[str, object]] = []
                    for reg in node.shortcut.input_regs:
                        r = int(reg)
                        if r in cur:
                            if r in self.fold:
                                plan.append(("const", self.fold[r]))
                            else:
                                plan.append(("var", r))
                        elif r in curm:
                            plan.append(("maybe", r))
                            self.unset.add(r)
                            if r in self.fold:
                                self.materialize.add(r)
                        else:
                            plan.append(("never", r))
                    self.probe_plan[(seg, index)] = plan
                    for outputs, _resume in node.shortcut.entries.values():
                        self.unset.update(int(reg) for reg in outputs)
                elif kind == "instr":
                    instr = node.instr
                    for arg in instr.args:
                        self._use(arg, cur)
                    if instr.dest is not None:
                        d = int(instr.dest)
                        cur.add(d)
                        curm.add(d)
                elif kind == "guard":
                    for arg in node.instr.args:
                        self._use(arg, cur)
                elif kind == "terminal":
                    term: Terminal = node
                    for _off, piece in term.return_pieces:
                        if piece[0] == "reg":
                            self._use(piece[1], cur)

    # -- pass 5: emission ------------------------------------------------

    def operand_expr(self, operand) -> str:
        if is_reg(operand):
            r = int(operand)
            if r in self.fold and r not in self.materialize:
                return self.literal(self.fold[r])
            return f"r{r}"
        return self.literal(int(operand))

    def emit(self) -> Tuple[List[str], int]:
        lines: List[str] = []
        folded_emitted = 0
        pend_cpu: Dict[str, int] = {}
        pend_nodes = 0
        pend_guards = 0

        def flush(indent: str) -> None:
            nonlocal pend_nodes, pend_guards
            for bucket, amount in pend_cpu.items():
                lines.append(f"{indent}_ac({amount}, {bucket!r})")
            pend_cpu.clear()
            if pend_nodes:
                lines.append(f"{indent}stats.executed_nodes += {pend_nodes}")
                pend_nodes = 0
            if pend_guards:
                lines.append(f"{indent}stats.guards_checked += {pend_guards}")
                pend_guards = 0

        def charge(bucket: str, amount: int) -> None:
            pend_cpu[bucket] = pend_cpu.get(bucket, 0) + amount

        ind = " " * 16  # inside _mk / _ap / while / if
        for seg, body in sorted(self.bodies.items()):
            head = "if" if seg == 0 else "elif"
            lines.append(f"            {head} seg == {seg}:")
            emitted_any = False
            for index, (kind, node) in enumerate(body):
                emitted_any = True
                if kind == "probe":
                    self._emit_probe(lines, ind, node,
                                     self.probe_plan[(seg, index)],
                                     flush, charge)
                elif kind == "instr":
                    folded_emitted += self._emit_instr(
                        lines, ind, node, charge)
                    pend_nodes += 1
                elif kind == "guard":
                    charge("guard", costmodel.GUARD)
                    pend_nodes += 1
                    pend_guards += 1
                    flush(ind)
                    self._emit_guard(lines, ind, node)
                elif kind == "jump":
                    flush(ind)
                    lines.append(f"{ind}seg = {node}")
                    lines.append(f"{ind}continue")
                elif kind == "dead":
                    flush(ind)
                    lines.append(
                        f"{ind}raise _CV("
                        "'AP tree ended without a terminal')")
                else:  # terminal
                    flush(ind)
                    self._emit_terminal(lines, ind, node)
            if not emitted_any:  # pragma: no cover - defensive
                lines.append(f"{ind}raise _CV('empty segment')")
        return lines, folded_emitted

    def _emit_instr(self, lines: List[str], ind: str, node: APNode,
                    charge) -> int:
        instr = node.instr
        kind = instr.kind
        if kind is SKind.COMPUTE:
            charge("compute", costmodel.AP_COMPUTE)
            d = int(instr.dest)
            if d in self.fold:
                if d in self.materialize:
                    lines.append(f"{ind}r{d} = {self.literal(self.fold[d])}")
                return 1
            args = [self.operand_expr(a) for a in instr.args]
            template = _HOT_TEMPLATES.get(instr.op)
            if template is not None and len(args) <= 3:
                expr = template.format(*args)
            else:
                fn_name = self.const(
                    (lambda _i: lambda args_: evaluate_compute(_i, args_)
                     )(instr), "F")
                expr = f"{fn_name}(({', '.join(args)},))"
            lines.append(f"{ind}r{d} = {expr}")
            return 0
        if kind is SKind.READ:
            charge("read", costmodel.AP_READ)
            self._emit_read(lines, ind, instr)
            return 0
        # WRITE: buffer the resolved values (route-SSA makes this
        # equivalent to the walker's commit-time resolution).
        charge("write-buffer", costmodel.GUARD)
        addr = self.literal(int(instr.key[0]))
        if instr.op == "SSTORE":
            slot = self.operand_expr(instr.args[0])
            value = self.operand_expr(instr.args[1])
            lines.append(f"{ind}_wb.append(({addr}, {slot}, {value}))")
        else:  # LOG
            topic_count = instr.meta["topic_count"]
            size = self.literal(instr.meta["data_size"])
            topics = [self.operand_expr(a)
                      for a in instr.args[:topic_count]]
            words = [self.operand_expr(a)
                     for a in instr.args[topic_count:]]
            topics_expr = "(" + ", ".join(topics) + ("," if topics else "") \
                + ")"
            words_expr = "(" + ", ".join(words) + ("," if words else "") + ")"
            lines.append(
                f"{ind}_wb.append(({addr}, {topics_expr}, "
                f"{words_expr}, {size}))")
        return 0

    def _emit_read(self, lines: List[str], ind: str, instr: SInstr) -> None:
        d = int(instr.dest)
        op = instr.op
        if op == "SLOAD":
            addr = self.literal(int(instr.key[0]))
            slot = self.operand_expr(instr.args[0])
            lines.append(f"{ind}r{d} = _gs({addr}, {slot})")
            lines.append(
                f"{ind}_sd(('storage', ({addr}, {slot})), r{d})")
        elif op == "BALANCE":
            addr = self.operand_expr(instr.args[0])
            lines.append(f"{ind}r{d} = _gb({addr})")
            lines.append(f"{ind}_sd(('balance', ({addr},)), r{d})")
        elif op == "BLOCKHASH":
            number = self.operand_expr(instr.args[0])
            lines.append(f"{ind}r{d} = _bh({number})")
            lines.append(f"{ind}_sd(('blockhash', ({number},)), r{d})")
        elif op == "EXTCODESIZE":
            addr = self.operand_expr(instr.args[0])
            lines.append(f"{ind}r{d} = len(_gc({addr}))")
            lines.append(f"{ind}_sd(('extcodesize', ({addr},)), r{d})")
        else:
            field = instr.key[0]
            if not (isinstance(field, str) and field.isidentifier()):
                raise SpecializeAbort(f"odd header field {field!r}")
            lines.append(f"{ind}r{d} = header.{field}")
            lines.append(f"{ind}_sd(('header', ({field!r},)), r{d})")

    def _emit_probe(self, lines: List[str], ind: str, node: APNode,
                    plan: List[Tuple[str, object]], flush, charge) -> None:
        charge("shortcut", costmodel.SHORTCUT_PROBE)
        flush(ind)
        shortcut = node.shortcut
        table = {key: (dict(outputs), self.entry_ids[id(resume)])
                 for key, (outputs, resume) in shortcut.entries.items()}
        tname = self.const(table, "S")
        never = any(cls == "never" for cls, _ in plan)
        maybes = [f"r{r} is _U" for cls, r in plan if cls == "maybe"]
        parts = []
        for cls, payload in plan:
            if cls == "const":
                parts.append(self.literal(payload))
            elif cls == "never":
                parts.append("0")  # unreachable: key is forced to None
            else:
                parts.append(f"r{payload}")
        key_expr = "(" + ", ".join(parts) + ("," if parts else "") + ")"
        if never:
            lines.append(f"{ind}_e = None")
        elif maybes:
            lines.append(f"{ind}if {' or '.join(maybes)}:")
            lines.append(f"{ind}    _e = None")
            lines.append(f"{ind}else:")
            lines.append(f"{ind}    _e = {tname}.get({key_expr})")
        else:
            lines.append(f"{ind}_e = {tname}.get({key_expr})")
        lines.append(f"{ind}if _e is not None:")
        lines.append(f"{ind}    stats.shortcut_hits += 1")
        lines.append(f"{ind}    stats.skipped_nodes += {shortcut.length}")
        out_union = sorted({int(r)
                            for outputs, _seg in table.values()
                            for r in outputs})
        if out_union:
            lines.append(f"{ind}    _o = _e[0]")
            for r in out_union:
                lines.append(f"{ind}    r{r} = _o.get({r}, r{r})")
        lines.append(f"{ind}    seg = _e[1]")
        lines.append(f"{ind}    continue")
        lines.append(f"{ind}stats.shortcut_misses += 1")

    def _emit_guard(self, lines: List[str], ind: str, node: APNode) -> None:
        instr = node.instr
        branch_name = self.const(
            {key: self.entry_ids[id(child)]
             for key, child in node.branches.items()}, "B")
        repr_name = self.const(f"guard {instr!r} observed ", "G")
        args = [self.operand_expr(a) for a in instr.args]
        mode = instr.guard_mode
        if mode is GuardMode.EQ:
            lines.append(f"{ind}_t = {branch_name}.get({args[0]})")
        elif mode is GuardMode.TRUTH:
            lines.append(f"{ind}_t = {branch_name}.get(bool({args[0]}))")
        elif mode is GuardMode.NEQ:
            lines.append(f"{ind}if ({args[0]}) != ({args[1]}):")
            lines.append(f"{ind}    _t = {branch_name}.get(True)")
            lines.append(f"{ind}else:")
            lines.append(f"{ind}    _t = None")
        else:  # pragma: no cover - future guard modes
            raise SpecializeAbort(f"unknown guard mode {mode!r}")
        values_expr = "(" + ", ".join(args) + ("," if args else "") + ")"
        lines.append(f"{ind}if _t is None:")
        lines.append(
            f"{ind}    raise _CV({repr_name} + str({values_expr}))")
        lines.append(f"{ind}seg = _t")
        lines.append(f"{ind}continue")

    def _emit_terminal(self, lines: List[str], ind: str,
                       term: Terminal) -> None:
        lines.append(f"{ind}if _wb:")
        lines.append(f"{ind}    _ac({costmodel.AP_WRITE} * len(_wb), "
                     "'write')")
        lines.append(f"{ind}    for _w in _wb:")
        lines.append(f"{ind}        if len(_w) == 3:")
        lines.append(f"{ind}            _ss(_w[0], _w[1], _w[2])")
        lines.append(f"{ind}        else:")
        lines.append(f"{ind}            _al(_w[0], _w[1], "
                     "b''.join(map(_ib, _w[2]))[:_w[3]])")
        self._emit_return_data(lines, ind, term)
        term_name = self.const(term, "T")
        lines.append(
            f"{ind}return _AO(success={self.literal(term.success)}, "
            f"gas_used={self.literal(term.gas_used)}, return_data=_rd, "
            f"terminal={term_name}, stats=stats, "
            "observed_reads=observed)")

    def _emit_return_data(self, lines: List[str], ind: str,
                          term: Terminal) -> None:
        size = term.return_size
        if size == 0:
            lines.append(f"{ind}_rd = b''")
            return
        template = bytearray(size)
        patches: List[Tuple[int, int, int, int]] = []
        needs_generic = False
        for rel_off, piece in term.return_pieces:
            kind = piece[0]
            if kind == "reg":
                reg = int(piece[1])
                _, _, src_start, length = piece
                if reg in self.fold and reg not in self.materialize:
                    # Folded regs bake into the template like const
                    # pieces — but the template is written *before*
                    # runtime patches, so an earlier overlapping patch
                    # would incorrectly win.  Pieces apply in order;
                    # fall back to the generic materializer to keep
                    # walked/compiled results byte-identical.
                    lo, hi = rel_off, rel_off + length
                    for p_off, _r, _s, p_len in patches:
                        if p_off < hi and lo < p_off + p_len:
                            needs_generic = True
                    word = int_to_bytes32(self.fold[reg])
                    template[rel_off:rel_off + length] = \
                        word[src_start:src_start + length]
                    continue
                patches.append((rel_off, reg, src_start, length))
            elif kind == "bytes":
                payload = piece[1]
                lo, hi = rel_off, rel_off + len(payload)
                for p_off, _r, _s, p_len in patches:
                    if p_off < hi and lo < p_off + p_len:
                        needs_generic = True
                template[rel_off:rel_off + len(payload)] = payload
            # "zero": template already zero
        if needs_generic:
            pieces_name = self.const(list(term.return_pieces), "P")
            regs_items = ", ".join(
                f"{reg}: {self.operand_expr(piece[1])}"
                for _off, piece in term.return_pieces
                if piece[0] == "reg"
                for reg in [int(piece[1])])
            lines.append(
                f"{ind}_rd = _mr({pieces_name}, {size}, "
                "{" + regs_items + "})")
            return
        template_name = self.const(bytes(template), "D")
        if not patches:
            lines.append(f"{ind}_rd = {template_name}")
            return
        lines.append(f"{ind}_buf = bytearray({template_name})")
        for rel_off, reg, src_start, length in patches:
            lines.append(
                f"{ind}_buf[{rel_off}:{rel_off + length}] = "
                f"_ib(r{reg})[{src_start}:{src_start + length}]")
        lines.append(f"{ind}_rd = bytes(_buf)")

    # -- driver ----------------------------------------------------------

    def compile(self, version: int,
                code_for: Callable[[str], CodeType]) -> CompiledAP:
        self.build_segments()
        self.dataflow()
        self.fold_constants()
        self.plan()
        body_lines, _ = self.emit()

        lines: List[str] = [
            f"def _mk({', '.join(self.names)}):",
            "    def _ap(state, header, tally):",
            "        stats = _ST()",
            "        observed = {}",
            "        _wb = []",
            "        _ac = tally.add_cpu",
            "        _sd = observed.setdefault",
            "        _gs = state.get_storage",
            "        _gb = state.get_balance",
            "        _gc = state.get_code",
            "        _ss = state.set_storage",
            "        _al = state.add_log",
        ]
        regs = sorted(self.unset)
        for start in range(0, len(regs), 10):
            chunk = regs[start:start + 10]
            targets = " = ".join(f"r{r}" for r in chunk)
            lines.append(f"        {targets} = _U")
        lines.append("        seg = 0")
        lines.append("        while True:")
        lines.extend(body_lines)
        lines.append("    return _ap")

        source = "\n".join(lines) + "\n"
        make = FunctionType(code_for(source), _RUNTIME)
        return CompiledAP(
            fn=make(*self.values),
            version=version,
            node_count=self.node_count,
            segment_count=len(self.entry_objs),
            folded_count=len(self.fold),
            source=source,
            literals=tuple(self.literals),
        )


#: The names every closure reads as globals (shared by all shapes).
_RUNTIME: Dict[str, object] = {
    "__builtins__": builtins,
    "_ST": APExecStats,
    "_AO": APOutcome,
    "_CV": ConstraintViolation,
    "_U": _UNSET,
    "_M": (1 << 256) - 1,
    "_P": 1 << 256,
    "_S": to_signed,
    "_ib": int_to_bytes32,
    "_mr": materialize_return,
    "_bh": blockhash,
}


def shape_code(source: str) -> CodeType:
    """Compile a closure shape: the code object of its ``_mk`` factory,
    which binds one tree's constants and returns its ``_ap``."""
    module = compile(source, "<jit-ap>", "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


def compile_ap(ap: AcceleratedProgram, version: int = 0,
               max_nodes: int = 4096,
               code_for: Optional[Callable[[str], CodeType]] = None
               ) -> CompiledAP:
    """Compile ``ap`` into a specialized closure.

    ``code_for`` maps a shape source to its code object (the tier's
    shape cache); by default every call compiles afresh.  Raises
    :class:`SpecializeAbort` when equivalence to the reference walker
    cannot be proven; the transaction then runs plainly.
    """
    return _Compiler(ap, max_nodes).compile(version, code_for or shape_code)
