"""Differential conformance oracle over the execution tiers.

The oracle generates seeded random S-EVM programs — storage reads,
compute chains over edge-biased operands, guards, buffered writes, and
return-piece layouts — and drives each one through every tier that
claims to compute the same function:

* the **AP closure** (:func:`repro.evm.jit.specialize.compile_ap`), the
  only way the system runs an AP;
* the **witness checker** (constraint replay + delta application on a
  shadow world, root-compared against the closure's commit);
* for single-op constant cases, the **plain EVM interpreter** running
  assembled bytecode;

and compares everything against an *independent* reference semantics
table written directly from the Yellow-Paper rules (two's-complement
division/modulo, shift saturation, byte indexing) — deliberately not
shared with ``COMPUTE_SEMANTICS``, so a wrong shared helper cannot
vouch for itself.  Guard expectations are the reference values, which
turns every semantic divergence into a loud ``ConstraintViolation``
rather than a silently wrong word.

Divergences are reported as canonical, byte-stable artifacts: the same
seed always regenerates the same programs, so two runs produce
byte-identical reports (the CI ``conformance`` job diffs them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.core.ap import AcceleratedProgram, APPath
from repro.core.costmodel import CostTally
from repro.core.merge import merge_path
from repro.core.sevm import GuardMode, Reg, SInstr, SKind
from repro.core.translate import SynthStats
from repro.errors import ConstraintViolation
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.evm.jit.specialize import (
    SpecializeAbort,
    compile_ap,
    materialize_return,
)
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.witness.checker import WitnessChecker
from repro.witness.format import ExecutionWitness

_M = 1 << 256
_SENDER = 0xA11CE
_CONTRACT = 0xC0DE


# ---------------------------------------------------------------------------
# Independent reference semantics (Yellow Paper rules, written from the
# spec — NOT from repro.evm.interpreter.COMPUTE_SEMANTICS).
# ---------------------------------------------------------------------------

def _signed(x: int) -> int:
    return x - _M if x >> 255 else x


def _unsigned(x: int) -> int:
    return x % _M


def _ref_sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _unsigned(quotient)


def _ref_smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    remainder = abs(sa) % abs(sb)
    return _unsigned(-remainder if sa < 0 else remainder)


def _ref_signextend(a: int, b: int) -> int:
    if a >= 31:
        return b
    bits = 8 * a + 8
    mask = (1 << bits) - 1
    if (b >> (bits - 1)) & 1:
        return _unsigned(b | ~mask)
    return b & mask


def _ref_byte(a: int, b: int) -> int:
    if a >= 32:
        return 0
    return (b >> (8 * (31 - a))) & 0xFF


def _ref_sar(a: int, b: int) -> int:
    sb = _signed(b)
    if a >= 256:
        return 0 if sb >= 0 else _M - 1
    return _unsigned(sb >> a)


#: op name -> (arity, reference function).
REFERENCE_SEMANTICS = {
    "ADD": (2, lambda a, b: (a + b) % _M),
    "MUL": (2, lambda a, b: (a * b) % _M),
    "SUB": (2, lambda a, b: (a - b) % _M),
    "DIV": (2, lambda a, b: 0 if b == 0 else a // b),
    "SDIV": (2, _ref_sdiv),
    "MOD": (2, lambda a, b: 0 if b == 0 else a % b),
    "SMOD": (2, _ref_smod),
    "ADDMOD": (3, lambda a, b, c: (a + b) % c if c else 0),
    "MULMOD": (3, lambda a, b, c: (a * b) % c if c else 0),
    "EXP": (2, lambda a, b: pow(a, b, _M)),
    "SIGNEXTEND": (2, _ref_signextend),
    "LT": (2, lambda a, b: int(a < b)),
    "GT": (2, lambda a, b: int(a > b)),
    "SLT": (2, lambda a, b: int(_signed(a) < _signed(b))),
    "SGT": (2, lambda a, b: int(_signed(a) > _signed(b))),
    "EQ": (2, lambda a, b: int(a == b)),
    "ISZERO": (1, lambda a: int(a == 0)),
    "AND": (2, lambda a, b: a & b),
    "OR": (2, lambda a, b: a | b),
    "XOR": (2, lambda a, b: a ^ b),
    "NOT": (1, lambda a: (~a) % _M),
    "BYTE": (2, _ref_byte),
    "SHL": (2, lambda a, b: (b << a) % _M if a < 256 else 0),
    "SHR": (2, lambda a, b: b >> a if a < 256 else 0),
    "SAR": (2, _ref_sar),
}

ARITHMETIC_OPS = ["ADD", "MUL", "SUB", "DIV", "SDIV", "MOD", "SMOD",
                  "ADDMOD", "MULMOD", "EXP", "SIGNEXTEND"]
COMPARISON_OPS = ["LT", "GT", "SLT", "SGT", "EQ", "ISZERO", "AND", "OR",
                  "XOR", "NOT", "BYTE", "SHL", "SHR", "SAR"]

CATEGORIES = ("arithmetic", "comparison", "memory", "storage")

#: Operand pool biased toward the boundaries where signed/shift/index
#: semantics change behaviour (the satellite edge cases live here).
EDGE_WORDS = [
    0, 1, 2, 3, 31, 32, 33, 63, 64, 127, 128, 255, 256, 257,
    (1 << 8) - 1, (1 << 64) - 1, 1 << 128,
    (1 << 255) - 1, 1 << 255, (1 << 255) + 1,   # INT_MAX / INT_MIN band
    _M - 1, _M - 2,                             # -1, -2
]

#: Directed cases pinning the satellite-1 audit list; every run starts
#: with these regardless of seed.
DIRECTED_CASES = [
    ("SDIV", (1 << 255, _M - 1)),       # INT_MIN / -1 overflow
    ("SDIV", (_M - 7, 2)),              # -7 / 2 truncates toward zero
    ("SMOD", (_M - 7, 5)),              # sign follows dividend
    ("SMOD", (7, _M - 5)),
    ("SAR", (256, _M - 1)),             # shift >= 256 saturates
    ("SAR", (300, 1 << 255)),
    ("SIGNEXTEND", (31, _M - 1)),       # byte index >= 31 is identity
    ("SIGNEXTEND", (32, 0x80)),
    ("BYTE", (32, _M - 1)),             # index >= 32 reads as zero
    ("EXP", (0, 0)),                    # 0 ** 0 == 1
    ("EXP", (7, 0)),                    # exponent 0 == 1
]


# ---------------------------------------------------------------------------
# Case model
# ---------------------------------------------------------------------------

@dataclass
class OracleCase:
    """One generated program plus its reference outcome."""

    case_id: int
    category: str
    storage_pre: Dict[int, int]
    instrs: List[SInstr]
    return_pieces: List[Tuple[int, tuple]]
    return_size: int
    expected_return: bytes
    expected_storage: Dict[int, int]
    #: (op, operands) when the case is a single constant-operand
    #: compute that can also run as assembled EVM bytecode.
    evm_check: Optional[Tuple[str, Tuple[int, ...]]] = None

    def describe(self) -> dict:
        return {
            "case": self.case_id,
            "category": self.category,
            "storage_pre": {str(k): v
                            for k, v in sorted(self.storage_pre.items())},
            "program": [repr(i) for i in self.instrs],
            "pieces": [[off, _piece_desc(piece)]
                       for off, piece in self.return_pieces],
            "return_size": self.return_size,
        }


def _piece_desc(piece: tuple) -> list:
    if piece[0] == "bytes":
        return ["bytes", piece[1].hex()]
    if piece[0] == "reg":
        return ["reg", int(piece[1]), piece[2], piece[3]]
    return [piece[0]]


@dataclass
class OracleReport:
    """Outcome of one oracle sweep (canonical via :meth:`as_dict`)."""

    seed: int
    cases: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    jit_compiled: int = 0
    jit_aborts: int = 0
    evm_cross_checks: int = 0
    witness_checks: int = 0
    divergences: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "by_category": dict(sorted(self.by_category.items())),
            "jit_compiled": self.jit_compiled,
            "jit_aborts": self.jit_aborts,
            "evm_cross_checks": self.evm_cross_checks,
            "witness_checks": self.witness_checks,
            "divergences": self.divergences,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------

def _word(rng: random.Random) -> int:
    if rng.random() < 0.65:
        return rng.choice(EDGE_WORDS)
    return rng.getrandbits(256)


class _CaseBuilder:
    """Accumulates an S-EVM program while tracking reference values."""

    def __init__(self, storage_pre: Dict[int, int]) -> None:
        self.storage_pre = storage_pre
        self.instrs: List[SInstr] = []
        self.values: Dict[Reg, int] = {}
        self._next = 0

    def _reg(self) -> Reg:
        reg = Reg(self._next)
        self._next += 1
        return reg

    def read_slot(self, slot: int) -> Reg:
        dest = self._reg()
        self.instrs.append(SInstr(SKind.READ, "SLOAD", dest=dest,
                                  args=(slot,), key=(_CONTRACT,)))
        self.values[dest] = self.storage_pre.get(slot, 0)
        return dest

    def compute(self, op: str, args: tuple) -> Reg:
        dest = self._reg()
        self.instrs.append(SInstr(SKind.COMPUTE, op, dest=dest,
                                  args=args))
        arity, fn = REFERENCE_SEMANTICS[op]
        concrete = tuple(self.values[a] if isinstance(a, Reg) else a
                         for a in args)
        assert len(concrete) == arity
        self.values[dest] = fn(*concrete)
        return dest

    def guard_eq(self, reg: Reg) -> None:
        self.instrs.append(SInstr(
            SKind.GUARD, "GUARD", args=(reg,),
            guard_mode=GuardMode.EQ, expected=self.values[reg],
            is_control=False))

    def sstore(self, slot: int, operand) -> None:
        self.instrs.append(SInstr(SKind.WRITE, "SSTORE",
                                  args=(slot, operand), key=(_CONTRACT,)))

    def value_of(self, operand) -> int:
        return (self.values[operand] if isinstance(operand, Reg)
                else operand)


def _random_operand(rng: random.Random, builder: _CaseBuilder,
                    reg_pool: List[Reg]) -> object:
    if reg_pool and rng.random() < 0.4:
        return rng.choice(reg_pool)
    return _word(rng)


def _finish_case(case_id: int, category: str, builder: _CaseBuilder,
                 result_reg: Reg, pieces, size: int,
                 writes: Dict[int, object],
                 evm_check=None) -> OracleCase:
    expected_storage = dict(builder.storage_pre)
    for slot, operand in writes.items():
        expected_storage[slot] = builder.value_of(operand)
    expected_return = materialize_return(pieces, size, builder.values)
    return OracleCase(
        case_id=case_id,
        category=category,
        storage_pre=builder.storage_pre,
        instrs=builder.instrs,
        return_pieces=pieces,
        return_size=size,
        expected_return=expected_return,
        expected_storage=expected_storage,
        evm_check=evm_check,
    )


def _gen_compute_case(rng: random.Random, case_id: int, category: str,
                      ops: List[str],
                      directed: Optional[tuple] = None) -> OracleCase:
    """Arithmetic/comparison case: compute chain, guard, store, return."""
    storage_pre = {0: _word(rng), 1: _word(rng)}
    builder = _CaseBuilder(storage_pre)
    reg_pool: List[Reg] = []

    if directed is not None:
        op, operands = directed
        chain_len = 1
    else:
        op, operands = None, None
        chain_len = rng.randint(1, 3)
        if rng.random() < 0.5:
            reg_pool.append(builder.read_slot(0))

    last = None
    first_args: Tuple[int, ...] = ()
    for position in range(chain_len):
        chosen = op if op is not None else rng.choice(ops)
        arity = REFERENCE_SEMANTICS[chosen][0]
        if operands is not None:
            args = operands
        else:
            args = tuple(_random_operand(rng, builder, reg_pool)
                         for _ in range(arity))
        if position == 0:
            first_args = tuple(builder.value_of(a) for a in args)
        last = builder.compute(chosen, args)
        reg_pool.append(last)

    builder.guard_eq(last)
    builder.sstore(7, last)

    evm_check = None
    single_const = (chain_len == 1
                    and all(not isinstance(a, Reg) for a in args))
    if single_const:
        evm_check = (chosen, first_args)

    pieces = [(0, ("reg", last, 0, 32))]
    return _finish_case(case_id, category, builder, last, pieces, 32,
                        {7: last}, evm_check)


def _gen_memory_case(rng: random.Random, case_id: int) -> OracleCase:
    """Return-piece layout case: overlapping const/reg/folded pieces."""
    storage_pre = {0: _word(rng)}
    builder = _CaseBuilder(storage_pre)
    live = builder.read_slot(0)                     # runtime-only value
    folded = builder.compute(rng.choice(["ADD", "XOR", "MUL"]),
                             (_word(rng), _word(rng)))  # constant-foldable
    builder.guard_eq(live)

    size = rng.choice([48, 64])
    pieces: List[Tuple[int, tuple]] = []
    for _ in range(rng.randint(2, 4)):
        offset = rng.randrange(0, size - 8)
        roll = rng.random()
        if roll < 0.40:
            reg = live if rng.random() < 0.5 else folded
            src_start = rng.choice([0, 0, 8, 16])
            length = min(32 - src_start, size - offset)
            pieces.append((offset, ("reg", reg, src_start, length)))
        elif roll < 0.80:
            length = min(rng.choice([4, 8, 16, 32]), size - offset)
            payload = bytes(rng.randrange(256) for _ in range(length))
            pieces.append((offset, ("bytes", payload)))
        else:
            pieces.append((offset, ("zero",)))

    builder.sstore(3, live)
    return _finish_case(case_id, "memory", builder, live, pieces, size,
                        {3: live})


def _gen_storage_case(rng: random.Random, case_id: int) -> OracleCase:
    """Read/guard/overwrite case exercising net-delta reconstruction."""
    storage_pre = {0: _word(rng), 1: _word(rng), 2: _word(rng)}
    builder = _CaseBuilder(storage_pre)
    r0 = builder.read_slot(0)
    r1 = builder.read_slot(1)
    op = rng.choice(ARITHMETIC_OPS)
    arity = REFERENCE_SEMANTICS[op][0]
    args = (r0, r1, _word(rng))[:arity] if arity == 3 else (r0, r1)
    if arity == 1:
        args = (r0,)
    result = builder.compute(op, args)
    builder.guard_eq(result)

    writes: Dict[int, object] = {}
    target = rng.choice([2, 5])
    builder.sstore(target, result)
    writes[target] = result
    if rng.random() < 0.5:
        # Overwrite the same slot: the witness delta must record only
        # the net (pre, final) pair.
        builder.sstore(target, r0)
        writes[target] = r0
    if rng.random() < 0.3:
        # Write-back of the read value: no net change, no delta row.
        builder.sstore(0, r0)
        writes[0] = r0

    pieces = [(0, ("reg", result, 0, 32))]
    return _finish_case(case_id, "storage", builder, result, pieces, 32,
                        writes)


def generate_case(rng: random.Random, case_id: int,
                  directed: Optional[tuple] = None) -> OracleCase:
    if directed is not None:
        op = directed[0]
        category = ("arithmetic" if op in ARITHMETIC_OPS
                    else "comparison")
        ops = ARITHMETIC_OPS if op in ARITHMETIC_OPS else COMPARISON_OPS
        return _gen_compute_case(rng, case_id, category, ops, directed)
    category = CATEGORIES[case_id % len(CATEGORIES)]
    if category == "arithmetic":
        return _gen_compute_case(rng, case_id, category, ARITHMETIC_OPS)
    if category == "comparison":
        return _gen_compute_case(rng, case_id, category, COMPARISON_OPS)
    if category == "memory":
        return _gen_memory_case(rng, case_id)
    return _gen_storage_case(rng, case_id)


# ---------------------------------------------------------------------------
# Execution + comparison
# ---------------------------------------------------------------------------

def _base_world(case: OracleCase) -> WorldState:
    world = WorldState()
    world.create_account(_SENDER, balance=10 ** 24)
    contract = world.create_account(_CONTRACT)
    for slot, value in case.storage_pre.items():
        contract.set_storage(slot, value)
    return world


def _build_ap(case: OracleCase) -> AcceleratedProgram:
    """The case as a one-path AP, merged the way the speculator merges
    a synthesized path (so its §5.5 tally counts the path)."""
    path = APPath(
        path_id=case.case_id, context_id=0, instrs=case.instrs,
        pre_dce_instrs=case.instrs, concrete={},
        return_pieces=case.return_pieces, return_size=case.return_size,
        success=True, gas_used=30_000,
        stats=SynthStats(final_len=len(case.instrs)),
        read_set={}, write_set={})
    ap = AcceleratedProgram(tx_hash=case.case_id)
    merge_path(ap, path)
    return ap


def _storage_view(world: WorldState) -> Dict[int, int]:
    account = world.get_account(_CONTRACT)
    if account is None:
        return {}
    return {slot: value for slot, value in account.storage.items()
            if value != 0}


def _expected_nonzero(case: OracleCase) -> Dict[int, int]:
    return {slot: value for slot, value in case.expected_storage.items()
            if value != 0}


_EVM_HEADER = BlockHeader(number=1, timestamp=1_000, coinbase=0xBEEF)


def _run_evm_reference(op: str, operands: Tuple[int, ...]) -> dict:
    """Assemble one op into real bytecode and run the interpreter.

    Operands are pushed in reverse so the interpreter pops them in
    reference order (its binary handlers pop ``a`` from the top).
    """
    lines = [f"PUSH {value}" for value in reversed(operands)]
    lines += [op, "PUSH 0", "MSTORE", "PUSH 32", "PUSH 0", "RETURN"]
    code = assemble("\n".join(lines))
    world = WorldState()
    world.create_account(_SENDER, balance=10 ** 24)
    world.create_account(_CONTRACT, code=code)
    state = StateDB(world)
    tx = Transaction(sender=_SENDER, to=_CONTRACT, nonce=0,
                     gas_limit=5_000_000)
    result = EVM(state, _EVM_HEADER, tx).execute_transaction()
    return {
        "success": result.success,
        "word": (int.from_bytes(result.return_data, "big")
                 if result.success else None),
        "error": result.error,
    }


def _check_closure(case: OracleCase, compiled, report) -> None:
    """Run ``case``'s closure and check its result against the
    reference, then its witness through the checker."""
    jit_world = _base_world(case)
    jit_state = StateDB(jit_world)
    jit_tally = CostTally()
    mark = jit_state.snapshot()
    try:
        jit = compiled.fn(jit_state, _EVM_HEADER, jit_tally)
    except ConstraintViolation as exc:
        report("jit-vs-reference", {"guard_violation": str(exc)})
        return
    span = (mark, jit_state.snapshot())
    span_delta = jit_state.witness_deltas([span])[0]
    if jit.return_data != case.expected_return:
        report("jit-vs-reference", {
            "expected_return": case.expected_return.hex(),
            "jit_return": jit.return_data.hex(),
        })
    jit_storage = dict(_storage_view(jit_world))
    jit_state.commit()
    committed_storage = _storage_view(jit_world)
    if committed_storage != _expected_nonzero(case):
        report("jit-vs-reference", {
            "expected_storage": {str(k): v for k, v in
                                 sorted(_expected_nonzero(case).items())},
            "jit_storage": {str(k): v for k, v in
                            sorted(committed_storage.items())},
        })
    jit_root = jit_world.root()

    # Tier 2: witness checker (no re-execution).
    witness = ExecutionWitness.assemble(
        tx_hash=case.case_id, block_number=1, tier="jit",
        outcome="satisfied", success=jit.success,
        gas_used=jit.gas_used, cost_units=jit_tally.total,
        observed_reads=jit.observed_reads,
        delta=span_delta["delta"], created=span_delta["created"],
        guards_checked=jit.stats.guards_checked,
        logs=jit_state.logs, return_data=jit.return_data)
    check_world = _base_world(case)
    checker = WitnessChecker(check_world)
    _cost, failures = checker.check_transaction(witness, _EVM_HEADER)
    if failures:
        report("jit-vs-checker", {
            "failures": [f.as_dict() for f in failures]})
    elif check_world.root() != jit_root:
        report("jit-vs-checker", {
            "jit_storage": {str(k): v for k, v in
                            sorted(jit_storage.items())},
            "checker_storage": {str(k): v for k, v in sorted(
                _storage_view(check_world).items())},
        })


def run_case(case: OracleCase) -> Tuple[List[dict], bool]:
    """Run one case through every tier.

    Returns ``(divergence_artifacts, jit_compiled)``.
    """
    divergences: List[dict] = []

    def report(kind: str, detail: dict) -> None:
        artifact = dict(case.describe())
        artifact["kind"] = kind
        artifact["detail"] = detail
        divergences.append(artifact)

    ap = _build_ap(case)
    expected_word = int.from_bytes(case.expected_return[:32], "big")

    # Tier 1: the AP closure (also the witness producer).  A tree the
    # compiler rejects runs plainly in the system, so such a case gets
    # only the interpreter cross-check.
    try:
        compiled = compile_ap(ap, version=0)
    except SpecializeAbort:
        jit_compiled = False
    else:
        jit_compiled = True
        _check_closure(case, compiled, report)

    # Tier 3: plain interpreter on assembled bytecode (single-op cases).
    if case.evm_check is not None:
        op, operands = case.evm_check
        evm = _run_evm_reference(op, operands)
        if not evm["success"]:
            report("interp-vs-reference", {
                "op": op, "operands": list(operands),
                "error": evm["error"]})
        elif evm["word"] != expected_word:
            report("interp-vs-reference", {
                "op": op, "operands": list(operands),
                "expected": expected_word, "interp": evm["word"]})

    return divergences, jit_compiled


def run_oracle(seed: int, cases: int = 200) -> OracleReport:
    """Run the conformance sweep: directed edge cases + random fill."""
    rng = random.Random(seed)
    report = OracleReport(seed=seed)
    plan: List[Optional[tuple]] = list(DIRECTED_CASES)
    plan += [None] * max(0, cases - len(plan))
    for case_id, directed in enumerate(plan):
        case = generate_case(rng, case_id, directed)
        report.cases += 1
        report.by_category[case.category] = \
            report.by_category.get(case.category, 0) + 1
        if case.evm_check is not None:
            report.evm_cross_checks += 1
        divergences, jit_compiled = run_case(case)
        if jit_compiled:
            report.jit_compiled += 1
            report.witness_checks += 1
        else:
            report.jit_aborts += 1
        report.divergences.extend(divergences)
    return report
