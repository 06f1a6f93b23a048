"""Interpreter hot-path microbenchmarks (the compile tier's rationale).

Three measurements, all emitted to ``BENCH_interp.json``:

* **dispatch** — per-opcode interpreter dispatch cost on synthetic
  straight-line programs, untraced (no tracer: no step rows) and
  traced (a tracer whose ``on_step`` is a no-op override, so every
  step builds its row);
* **specialize** — compiled-closure vs reference-walker time
  (``tests/ap_walk.py``) on hand-built APs exercising each of the 20
  hottest opcodes (:data:`repro.evm.jit.HOT_OPS`), i.e. the Layer-1
  speedup the closure buys on the AP fast path;
* **tier** — compile/hit/miss/bailout counts of the jit tier over the
  L1 replay (the shared session fixture).

Wall-clock numbers are machine-dependent; the JSON records them for
trending while the assertions only gate on robust relations measured
in the same run (an untraced interpreter step costs at most 0.4 of a
reference AP-walker node, and less than a traced step; closures
beat the walker on average; the tier actually engages on L1).  The
traced/untraced ratio is recorded as a trend only, so making the
traced path cheaper cannot fail the gate.
"""

import json
import os
import statistics
import time

from repro.bench import ascii_table, write_report
from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core.ap import AcceleratedProgram, Terminal, build_chain
from repro.core.costmodel import CostTally
from repro.core.sevm import Reg, SInstr, SKind
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.evm.jit import HOT_OPS, compile_ap
from repro.evm.tracing import Tracer
from repro.state.statedb import StateDB
from repro.state.world import WorldState

from tests.ap_walk import execute_ap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SENDER = 0xBE5E
TARGET = 0x7A86E7

#: Upper bound on the median, over HOT_OPS, of an untraced interpreter
#: step's time over one node of the reference AP walker
#: (``tests.ap_walk.execute_ap``), both timed in the same run.  The walk shares no
#: code with the interpreter loop, so it is a reference for the
#: machine's speed: an untraced step pays only for its own semantics
#: (0.2-0.3 of a walk node; 0.47-0.57 while every step still called its
#: gas, stack and emit helpers).
MAX_UNTRACED_OVER_WALK_NODE = 0.4

#: Stack operands pushed per iteration, by opcode arity.
_TERNARY = ("ADDMOD", "MULMOD")
_UNARY = ("ISZERO", "NOT")

DISPATCH_ITERS = 800
AP_NODES = 150
REPS = 5


def _header():
    return BlockHeader(number=1, timestamp=1000, coinbase=0xBEEF)


def _dispatch_program(op: str) -> str:
    if op in _TERNARY:
        body = f"PUSH 7\nPUSH 5\nPUSH 3\n{op}\nPOP\n"
    elif op in _UNARY:
        body = f"PUSH 12345\n{op}\nPOP\n"
    else:
        body = f"PUSH 12345\nPUSH 67\n{op}\nPOP\n"
    return body * DISPATCH_ITERS + "STOP\n"


class _StepTracer(Tracer):
    """Overrides ``on_step``, so the EVM hands it every step row."""

    def on_step(self, row) -> None:
        pass


def _time_dispatch(code: bytes, tracer=None) -> tuple:
    """(best seconds, instruction count) over REPS executions."""
    best = float("inf")
    instructions = 0
    for _ in range(REPS):
        world = WorldState()
        world.create_account(SENDER, balance=10**24)
        world.create_account(TARGET, code=code)
        state = StateDB(world)
        tx = Transaction(sender=SENDER, to=TARGET, nonce=0,
                         gas_limit=10**9)
        evm = EVM(state, _header(), tx, tracer=tracer)
        start = time.perf_counter()
        result = evm.execute_transaction()
        best = min(best, time.perf_counter() - start)
        assert result.success, result.error
        instructions = evm.instruction_count
    return best, instructions


def _hot_ap(op: str, index: int) -> AcceleratedProgram:
    """Straight-line AP: one SLOAD feeding AP_NODES ``op`` computes.

    The read keeps the chain out of reach of compile-time constant
    folding, so the closure executes every node — this measures the
    specialized hot-op templates, not the folder.
    """
    r_prev = Reg(0)
    instrs = [SInstr(SKind.READ, "SLOAD", dest=r_prev, args=(0,),
                     key=(TARGET,))]
    for i in range(AP_NODES):
        reg = Reg(i + 1)
        if op in _TERNARY:
            args = (r_prev, 3, 5)
        elif op in _UNARY:
            args = (r_prev,)
        else:
            args = (r_prev, 3)
        instrs.append(SInstr(SKind.COMPUTE, op, dest=reg, args=args))
        r_prev = reg
    terminal = Terminal(path_ids=[0], success=True, gas_used=21000,
                        return_pieces=[], return_size=0, read_set={})
    ap = AcceleratedProgram(tx_hash=0xA90000 + index)
    ap.root = build_chain(instrs, terminal)
    return ap


def _time_ap(runner) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        outcome = runner()
        best = min(best, time.perf_counter() - start)
        assert outcome.success
    return best


def test_interp_hotpath(l1):
    # -- dispatch cost per hot opcode, untraced and traced ----------------
    dispatch = {}
    untraced_ns = {}
    ratios = []
    for op in HOT_OPS:
        code_bytes = assemble(_dispatch_program(op))
        untraced_s, n_instr = _time_dispatch(code_bytes)
        traced_s, _ = _time_dispatch(code_bytes, tracer=_StepTracer())
        untraced_ns[op] = untraced_s / n_instr * 1e9
        ratios.append(traced_s / untraced_s)
        dispatch[op] = {
            "instructions": n_instr,
            "ns_per_instr_untraced": round(untraced_s / n_instr * 1e9, 2),
            "ns_per_instr_traced": round(traced_s / n_instr * 1e9, 2),
        }
    traced_over_untraced = statistics.median(ratios)

    # -- compiled closure vs reference walker per hot opcode --------------
    world = WorldState()
    world.create_account(SENDER, balance=10**24)
    world.create_account(TARGET, code=b"\x00")
    world.get_account(TARGET).set_storage(0, 987654321)
    hdr = _header()
    specialize = {}
    speedups = []
    over_walk = []
    for index, op in enumerate(HOT_OPS):
        ap = _hot_ap(op, index)
        artifact = compile_ap(ap)
        assert artifact.node_count == AP_NODES + 1  # the read + computes
        state = StateDB(world)
        walk_s = _time_ap(lambda: execute_ap(
            ap, state, hdr, tally=CostTally()))
        closure_s = _time_ap(lambda: artifact.fn(
            state, hdr, CostTally()))
        # Both strategies must agree before their times mean anything.
        walked = execute_ap(ap, state, hdr, tally=CostTally())
        compiled = artifact.fn(state, hdr, CostTally())
        assert (walked.success, walked.gas_used, walked.observed_reads) \
            == (compiled.success, compiled.gas_used,
                compiled.observed_reads)
        speedup = walk_s / closure_s if closure_s else 1.0
        speedups.append(speedup)
        over_walk.append(untraced_ns[op]
                         / (walk_s * 1e9 / artifact.node_count))
        specialize[op] = {
            "walk_us": round(walk_s * 1e6, 2),
            "closure_us": round(closure_s * 1e6, 2),
            "speedup": round(speedup, 2),
        }
    mean_speedup = sum(speedups) / len(speedups)
    untraced_over_walk_node = statistics.median(over_walk)

    # -- tier engagement on the L1 replay ---------------------------------
    snap = l1.metrics()
    jit = {key.split(".", 1)[1]: val["value"]
           for key, val in snap.items() if key.startswith("jit.")}
    # Every AP execution runs its closure (one hit); a miss or bailout
    # is a closure compiled at execute first, so it is among the hits.
    executions = jit.get("hits", 0)
    hit_rate = (executions - jit.get("misses", 0) - jit.get("bailouts", 0)) \
        / executions if executions else 0.0
    compiles = jit.get("compiles", 0) + jit.get("compile_aborts", 0)
    abort_rate = jit.get("compile_aborts", 0) / compiles if compiles \
        else 0.0

    # An untraced step stays cheap and skips the row, the tier must
    # actually engage, and the closures must win.
    assert untraced_over_walk_node <= MAX_UNTRACED_OVER_WALK_NODE, \
        (dispatch, specialize)
    assert traced_over_untraced > 1.0, dispatch
    assert jit.get("compiles", 0) > 0
    assert jit.get("hits", 0) > 0
    assert mean_speedup > 1.2, specialize

    rows = [[op,
             f"{dispatch[op]['ns_per_instr_untraced']:.0f}",
             f"{dispatch[op]['ns_per_instr_traced']:.0f}",
             f"{specialize[op]['walk_us']:.1f}",
             f"{specialize[op]['closure_us']:.1f}",
             f"{specialize[op]['speedup']:.2f}x"]
            for op in HOT_OPS]
    rows.append(["mean", "", "", "", "", f"{mean_speedup:.2f}x"])
    report = ascii_table(
        ["opcode", "untraced ns", "traced ns",
         "walk us", "closure us", "speedup"], rows,
        title="Interpreter hot path: dispatch cost and specialization")
    report += (f"\n\ndispatch over {len(HOT_OPS)} ops: median "
               f"untraced step / walk node {untraced_over_walk_node:.3f}, "
               f"median traced/untraced {traced_over_untraced:.2f}x")
    report += (f"\njit tier on L1: {hit_rate:.2%} of "
               f"{executions} AP executions found a closure compiled "
               f"off the critical path, compile-abort rate "
               f"{abort_rate:.2%} over {compiles} compile attempts")
    write_report("interp_hotpath", report)

    payload = {
        "dispatch": dispatch,
        "dispatch_traced_over_untraced": round(traced_over_untraced, 3),
        "dispatch_untraced_over_walk_node":
            round(untraced_over_walk_node, 3),
        "specialize": specialize,
        "specialize_mean_speedup": round(mean_speedup, 3),
        "tier": {
            "counters": jit,
            "hit_rate": round(hit_rate, 4),
            "compile_abort_rate": round(abort_rate, 4),
            "ap_executions": executions,
        },
    }
    with open(os.path.join(REPO_ROOT, "BENCH_interp.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
