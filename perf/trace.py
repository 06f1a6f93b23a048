"""Traced runs: spans recorded from outside, around calls into each layer.

``TARGETS`` is the declarative table ``(metric, module, attribute)``.
:func:`install` replaces each named attribute with a wrapper that
records a span (name, start, end, parent span, shared id) in memory;
:meth:`Tracer.write` dumps the spans when the run ends.  A target that
no longer exists is reported in ``missing`` instead of raising, so a
later refactor under ``src/`` cannot break the benchmark.

A layer's *self time* is its spans' duration minus the part their child
spans cover, accumulated as spans close.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _tx_ident(position: int) -> Callable[..., str]:
    """Shared id = the hash of the transaction at ``args[position]``."""
    def ident(*args, **_kwargs) -> str:
        return f"tx:{args[position].hash:#x}"
    return ident


@dataclass(frozen=True)
class Target:
    """One wrapped callable: its self time is the metric ``<name>_s``."""

    name: str
    module: str
    attribute: str
    #: Derives the span's shared id from the call's arguments; spans
    #: without one inherit their parent's (or the loop's current id).
    ident: Optional[Callable[..., str]] = None
    #: Maps each call's result to a count accumulated under
    #: ``Tracer.result_units[name]`` (bytes encoded, shortcuts built).
    units: Optional[Callable[[object], int]] = None


TARGETS: Tuple[Target, ...] = (
    # -- node ------------------------------------------------------------
    Target("core.node.on_transaction", "repro.core.node",
           "ForerunnerNode.on_transaction"),
    Target("core.node.run_speculation", "repro.core.node",
           "ForerunnerNode.run_speculation"),
    Target("core.node.process_block", "repro.core.node",
           "ForerunnerNode.process_block"),
    Target("core.predictor.predict", "repro.core.predictor",
           "MultiFuturePredictor.predict"),
    Target("sched.admission.admit", "repro.sched.admission",
           "AdmissionController.admit"),
    Target("core.prefetcher.prefetch", "repro.core.prefetcher",
           "Prefetcher.prefetch"),
    # -- speculation pipeline (names as core.speculator binds them) ------
    Target("core.speculator.speculate", "repro.core.speculator",
           "Speculator.speculate", ident=_tx_ident(1)),
    Target("core.trace.trace_transaction", "repro.core.speculator",
           "trace_transaction", ident=_tx_ident(2)),
    Target("core.translate.translate", "repro.core.speculator",
           "translate_trace"),
    Target("core.optimize.optimize", "repro.core.speculator",
           "optimize_path"),
    Target("core.merge.merge", "repro.core.speculator", "merge_path"),
    Target("core.merge.merge", "repro.core.speculator", "prune_tree"),
    Target("core.memoize.build_shortcuts", "repro.core.speculator",
           "build_shortcuts", units=int),
    Target("evm.jit.compile", "repro.evm.jit.tier", "JitTier.compile"),
    # -- critical path ---------------------------------------------------
    Target("sched.executor.execute_block", "repro.sched.executor",
           "ParallelBlockExecutor.execute_block"),
    Target("core.accelerator.execute", "repro.core.accelerator",
           "TransactionAccelerator.execute", ident=_tx_ident(1)),
    Target("core.accelerator.execute", "repro.core.accelerator",
           "TransactionAccelerator.execute_plain", ident=_tx_ident(1)),
    Target("evm.jit.execute", "repro.evm.jit.tier", "JitTier.execute"),
    Target("evm.interpreter.execute", "repro.evm.interpreter",
           "EVM.execute_transaction"),
    Target("state.statedb.commit", "repro.state.statedb",
           "StateDB.commit"),
    Target("state.world.root", "repro.state.world", "WorldState.root"),
    # -- edge ------------------------------------------------------------
    Target("edge.server.handle_raw", "repro.edge.server",
           "EdgeServer.handle_raw"),
    Target("edge.server.on_block", "repro.edge.server",
           "EdgeServer.on_block"),
    Target("edge.rpc.parse", "repro.edge.rpc", "parse_request"),
    Target("edge.rpc.encode", "repro.edge.rpc", "encode"),
    # -- fleet -----------------------------------------------------------
    Target("fleet.router.dispatch", "repro.fleet.router",
           "FleetRouter.dispatch"),
    Target("fleet.router.on_block", "repro.fleet.router",
           "FleetRouter.on_block"),
    Target("fleet.shardpool.add", "repro.fleet.shardpool",
           "ShardedTxPool.add"),
    Target("fleet.supervisor.on_transaction", "repro.fleet.supervisor",
           "FleetSupervisor.on_transaction", ident=_tx_ident(1)),
    Target("fleet.supervisor.tick", "repro.fleet.supervisor",
           "FleetSupervisor.tick"),
    Target("fleet.supervisor.run_speculation", "repro.fleet.supervisor",
           "FleetSupervisor.run_speculation"),
    Target("fleet.supervisor.process_block", "repro.fleet.supervisor",
           "FleetSupervisor.process_block"),
    Target("fleet.wire.send", "repro.fleet.wire", "WirePlane.send"),
    Target("fleet.wire.flush", "repro.fleet.wire", "WirePlane.flush"),
    Target("fleet.wire.encode", "repro.fleet.wire", "canonical_json",
           units=len),
    Target("recovery.journal.append", "repro.recovery.journal",
           "JournalWriter.append"),
    # ``os`` as the journal module binds it: the patch is process-wide
    # while the traced run lasts, and is undone by ``uninstall``.
    Target("recovery.journal.fsync", "repro.recovery.journal",
           "os.fsync"),
)


class Tracer:
    """In-memory span store with self times accumulated as spans close.

    Spans live in parallel columns of plain ints and strings, not one
    object per span: 100k container objects kept alive would make the
    collector run (and walk the node's whole heap) far more often, and
    that cost would land inside the spans being timed.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.idents: List[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.result_units: Dict[str, int] = defaultdict(int)
        #: Shared id the event loop sets before each call into the
        #: system (block number, request id, tick time).
        self.ident = ""
        #: Open spans, innermost last: ``[span index, child ns so far]``.
        self._stack: List[list] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, ident, measure = target.name, target.ident, target.units
        names, idents, parents = self.names, self.idents, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        self_ns, calls, units = self.self_ns, self.calls, self.result_units
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(names)
            if stack:
                parent = stack[-1][0]
                inherited = idents[parent]
            else:
                parent, inherited = -1, tracer.ident
            names.append(name)
            idents.append(ident(*args, **kwargs) if ident else inherited)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            mine = [index, 0]
            stack.append(mine)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if measure:
                    units[name] += measure(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                starts[index], ends[index] = start, end
                duration = end - start
                self_ns[name] += duration - mine[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> Iterator[Tuple[str, int, int, int, str]]:
        """``(name, start_ns, end_ns, parent_index, ident)`` per span,
        in start order (a span's index is its position)."""
        return zip(self.names, self.starts, self.ends, self.parents,
                   self.idents)

    def durations_ns(self, name: str) -> List[Tuple[str, int]]:
        """``(ident, duration)`` of every span called ``name``."""
        return [(ident, end - start)
                for span, start, end, _, ident in self.spans()
                if span == name]

    def write(self, path) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w", encoding="ascii") as handle:
            for index, (name, start, end, parent, ident) in \
                    enumerate(self.spans()):
                handle.write(json.dumps(
                    {"span": index, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent, "id": ident},
                    separators=(",", ":")) + "\n")


def _resolve(module_name: str, attribute: str):
    """``(owner, leaf_name, current_value)`` for a dotted attribute."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every resolvable target; returns ``(undo, missing)``.

    ``undo`` restores the originals when passed to :func:`uninstall`;
    ``missing`` lists the ``module:attribute`` of targets that did not
    resolve (their metrics are reported as absent, never as a crash).
    """
    undo, missing = [], []
    for target in targets:
        try:
            owner, leaf, original = _resolve(target.module,
                                             target.attribute)
        except (ImportError, AttributeError):
            missing.append(f"{target.module}:{target.attribute}")
            continue
        setattr(owner, leaf, tracer.wrap(target, original))
        undo.append((owner, leaf, original))
    return undo, missing


def uninstall(undo) -> None:
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)
