"""Differential conformance oracle + the signed/edge opcode audit.

Satellite coverage, in one place:

* the full oracle sweep — >= 200 generated cases per seed across the
  arithmetic / comparison / memory / storage categories, seeds 0-2,
  zero divergences, byte-identical reports across two runs;
* a named regression test per audited edge case (SDIV INT_MIN / -1,
  SMOD sign, SAR >= 256, SIGNEXTEND >= 31, BYTE >= 32, EXP exponent
  0), each pinned to its hand-computed Yellow-Paper value and run
  through interpreter, closure and checker;
* every swept case's closure checked against the reference walker
  (``tests/ap_walk.py``); the oracle runs only the closure, as the
  system does;
* a deterministic regression for the JIT return-piece overlap bug the
  oracle found (folded pieces bake into the compile-time template,
  which runtime patches overwrite regardless of piece order).
"""

from __future__ import annotations

import random

import pytest

from repro.core.ap import AcceleratedProgram, Terminal, build_chain
from repro.core.costmodel import CostTally
from repro.core.sevm import GuardMode, Reg, SInstr, SKind
from repro.evm.jit.specialize import compile_ap
from repro.obs.export import canonical_json
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.witness.oracle import (
    _EVM_HEADER,
    _base_world,
    _build_ap,
    _run_evm_reference,
    CATEGORIES,
    DIRECTED_CASES,
    generate_case,
    run_case,
    run_oracle,
)

from tests.ap_walk import execute_ap

_M = 1 << 256
_SEEDS = (0, 1, 2)
_CASES = 200


# ---------------------------------------------------------------------------
# Full sweep: seeds 0-2, >= 200 cases, zero divergences, byte-stable
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweeps():
    return {seed: run_oracle(seed, cases=_CASES) for seed in _SEEDS}


@pytest.mark.parametrize("seed", _SEEDS)
def test_sweep_has_zero_divergences(sweeps, seed):
    report = sweeps[seed]
    assert report.cases >= _CASES
    assert report.divergences == []
    assert report.ok


@pytest.mark.parametrize("seed", _SEEDS)
def test_sweep_covers_every_category(sweeps, seed):
    report = sweeps[seed]
    for category in CATEGORIES:
        assert report.by_category.get(category, 0) > 0, category


@pytest.mark.parametrize("seed", _SEEDS)
def test_sweep_exercises_every_tier(sweeps, seed):
    report = sweeps[seed]
    assert report.jit_compiled > 0
    assert report.evm_cross_checks > 0
    assert report.witness_checks == report.cases


def test_two_runs_produce_byte_identical_reports():
    first = canonical_json(run_oracle(0, cases=60).as_dict())
    second = canonical_json(run_oracle(0, cases=60).as_dict())
    assert first == second


def test_directed_cases_always_lead_the_plan():
    """The audit list runs under every seed, before the random fill."""
    report = run_oracle(7, cases=len(DIRECTED_CASES))
    assert report.cases == len(DIRECTED_CASES)
    assert report.ok


def _observe(case, runner) -> dict:
    """Everything one execution of ``case``'s AP shows the system."""
    world = _base_world(case)
    state = StateDB(world)
    tally = CostTally()
    outcome = runner(state, tally)
    state.commit()
    return {
        "result": (outcome.success, outcome.gas_used,
                   outcome.return_data),
        "stats": outcome.stats,
        "observed_reads": outcome.observed_reads,
        "cpu": (tally.cpu_units, dict(tally.detail)),
        "root": world.root(),
    }


@pytest.mark.parametrize("seed", _SEEDS)
def test_sweep_closures_match_the_reference_walker(seed):
    """The oracle runs only the closure, the way the system does; the
    reference walker checks every closure of the same sweep here."""
    rng = random.Random(seed)
    plan = list(DIRECTED_CASES)
    plan += [None] * (_CASES - len(plan))
    for case_id, directed in enumerate(plan):
        case = generate_case(rng, case_id, directed)
        ap = _build_ap(case)
        compiled = compile_ap(ap, version=0)
        walked = _observe(case, lambda state, tally: execute_ap(
            ap, state, _EVM_HEADER, tally=tally))
        jitted = _observe(case, lambda state, tally: compiled.fn(
            state, _EVM_HEADER, tally))
        assert walked == jitted, case.describe()


def test_oracle_aps_are_merged_like_synthesized_ones():
    """An oracle AP goes through ``merge_path``: one path, and a §5.5
    tally equal to that path's stats (not the all-zero default)."""
    rng = random.Random(0)
    for case_id, directed in enumerate(DIRECTED_CASES):
        case = generate_case(rng, case_id, directed)
        ap = _build_ap(case)
        assert ap.path_count == len(ap._terminals()) == len(ap.paths) == 1
        assert ap.synth_totals == ap.paths[0].stats.counts()
        assert ap.paths[0].stats.final_len == len(case.instrs) > 0


# ---------------------------------------------------------------------------
# Satellite 1: named edge-case regressions, one per audited semantic.
# Each expected value is hand-computed from the Yellow Paper; the case
# then runs through every tier via run_case (closure, checker, and —
# since the operands are constants — the assembled-bytecode
# interpreter), so a regression in ANY tier fails the named test.
# ---------------------------------------------------------------------------

def _check_edge(op: str, operands: tuple, expected_word: int) -> None:
    case = generate_case(random.Random(0), 0, (op, operands))
    assert case.evm_check == (op, operands)
    actual = int.from_bytes(case.expected_return[:32], "big")
    assert actual == expected_word % _M, (
        f"reference model for {op}{operands} disagrees with the "
        f"hand-computed value")
    divergences, jit_compiled = run_case(case)
    assert divergences == [], divergences
    assert jit_compiled
    # Belt and braces: the plain interpreter on assembled bytecode.
    evm = _run_evm_reference(op, operands)
    assert evm["success"], evm
    assert evm["word"] == expected_word % _M


def test_sdiv_int_min_overflow():
    # INT_MIN / -1 overflows to INT_MIN (the EVM wraps, it must not
    # raise or produce +2^255).
    _check_edge("SDIV", (1 << 255, _M - 1), 1 << 255)
    # Truncation toward zero: -7 / 2 == -3 (not floor's -4).
    _check_edge("SDIV", (_M - 7, 2), _M - 3)
    _check_edge("SDIV", (7, _M - 2), _M - 3)
    _check_edge("SDIV", (5, 0), 0)


def test_smod_sign_convention():
    # The result takes the dividend's sign: -7 smod 5 == -2.
    _check_edge("SMOD", (_M - 7, 5), _M - 2)
    # Positive dividend, negative divisor: 7 smod -5 == +2.
    _check_edge("SMOD", (7, _M - 5), 2)
    _check_edge("SMOD", (_M - 8, _M - 3), _M - 2)   # -8 smod -3 == -2
    _check_edge("SMOD", (7, 0), 0)


def test_sar_shift_ge_256():
    # Shifts >= 256 saturate: all-ones for negative, zero otherwise.
    _check_edge("SAR", (256, _M - 1), _M - 1)
    _check_edge("SAR", (300, 1 << 255), _M - 1)
    _check_edge("SAR", (256, 5), 0)
    # In-range negative shift keeps the sign bits: -8 >> 1 == -4.
    _check_edge("SAR", (1, _M - 8), _M - 4)


def test_signextend_index_ge_31():
    # Byte index >= 31 means the value is already full width: identity.
    _check_edge("SIGNEXTEND", (31, _M - 1), _M - 1)
    _check_edge("SIGNEXTEND", (32, 0x80), 0x80)
    _check_edge("SIGNEXTEND", (100, 0xFF), 0xFF)
    # In-range: byte 0 of 0x80 has its high bit set -> -128.
    _check_edge("SIGNEXTEND", (0, 0x80), _M - 128)
    _check_edge("SIGNEXTEND", (0, 0x7F), 0x7F)


def test_byte_index_ge_32():
    # Out-of-range byte index reads as zero, never wraps.
    _check_edge("BYTE", (32, _M - 1), 0)
    _check_edge("BYTE", (255, _M - 1), 0)
    _check_edge("BYTE", (31, 0xAB), 0xAB)           # least significant
    _check_edge("BYTE", (0, 0xAB << 248), 0xAB)     # most significant


def test_exp_zero_exponent():
    # Anything ** 0 == 1, including 0 ** 0.
    _check_edge("EXP", (0, 0), 1)
    _check_edge("EXP", (7, 0), 1)
    _check_edge("EXP", (0, 7), 0)
    _check_edge("EXP", (2, 256), 0)                 # wraps mod 2^256


def test_shift_amount_ge_256_zeroes():
    _check_edge("SHL", (256, 1), 0)
    _check_edge("SHR", (256, _M - 1), 0)
    _check_edge("SHL", (255, 1), 1 << 255)


# ---------------------------------------------------------------------------
# Satellite 2: the walked-vs-JIT return-piece overlap regression.
# ---------------------------------------------------------------------------

_SENDER = 0xA11CE
_CONTRACT = 0xC0DE


def _overlap_ap() -> AcceleratedProgram:
    """AP whose return layout triggers the folded-piece overlap bug.

    ``v0`` is live (an SLOAD the specializer must materialize at run
    time); ``v1`` is a constant compute the specializer folds.  The
    pieces place the live patch FIRST and an overlapping folded piece
    SECOND: since pieces apply in order, the folded bytes must win on
    the overlap — but folded pieces are baked into the compile-time
    template, which runtime patches get applied over.  A specializer
    without the overlap check returns v0's bytes where v1's belong.
    """
    v0, v1 = Reg(0), Reg(1)
    instrs = [
        SInstr(SKind.READ, "SLOAD", dest=v0, args=(0,),
               key=(_CONTRACT,)),
        SInstr(SKind.COMPUTE, "ADD", dest=v1,
               args=(0x1111, 0x2222)),
        SInstr(SKind.GUARD, "GUARD", args=(v0,),
               guard_mode=GuardMode.EQ,
               expected=0xDEADBEEF, is_control=False),
    ]
    pieces = [
        (8, ("reg", v0, 0, 32)),        # live patch, applied first
        (16, ("reg", v1, 0, 32)),       # folded, overlaps [16, 40)
    ]
    terminal = Terminal(path_ids=[1], success=True, gas_used=30_000,
                        return_pieces=pieces, return_size=48,
                        read_set={})
    ap = AcceleratedProgram(tx_hash=1)
    ap.root = build_chain(instrs, terminal)
    ap.context_ids = {0}
    return ap


def _overlap_world() -> WorldState:
    world = WorldState()
    world.create_account(_SENDER, balance=10 ** 24)
    world.create_account(_CONTRACT).set_storage(0, 0xDEADBEEF)
    return world


def test_jit_return_piece_overlap_matches_walk():
    ap = _overlap_ap()
    walk = execute_ap(ap, StateDB(_overlap_world()), _EVM_HEADER,
                      tally=CostTally())
    compiled = compile_ap(ap, version=0)
    jit = compiled.fn(StateDB(_overlap_world()), _EVM_HEADER,
                      CostTally())
    assert walk.return_data == jit.return_data
    # And both equal the spec: piece 2's folded constant owns the
    # overlap, so bytes [16, 48) are v1's word and only [8, 16) holds
    # v0's leading zeros.
    expected = bytearray(48)
    expected[8:40] = (0xDEADBEEF).to_bytes(32, "big")
    expected[16:48] = (0x3333).to_bytes(32, "big")
    assert walk.return_data == bytes(expected)


def test_jit_folded_piece_without_overlap_stays_templated():
    """Disjoint folded pieces keep the fast template path (no generic
    fallback) and still match the walk byte for byte."""
    v0, v1 = Reg(0), Reg(1)
    instrs = [
        SInstr(SKind.READ, "SLOAD", dest=v0, args=(0,),
               key=(_CONTRACT,)),
        SInstr(SKind.COMPUTE, "ADD", dest=v1, args=(7, 8)),
        SInstr(SKind.GUARD, "GUARD", args=(v0,),
               guard_mode=GuardMode.EQ,
               expected=0xDEADBEEF, is_control=False),
    ]
    pieces = [(0, ("reg", v1, 24, 8)), (32, ("reg", v0, 24, 8))]
    terminal = Terminal(path_ids=[1], success=True, gas_used=30_000,
                        return_pieces=pieces, return_size=40,
                        read_set={})
    ap = AcceleratedProgram(tx_hash=2)
    ap.root = build_chain(instrs, terminal)
    ap.context_ids = {0}
    walk = execute_ap(ap, StateDB(_overlap_world()), _EVM_HEADER,
                      tally=CostTally())
    jit = compile_ap(ap, version=0).fn(
        StateDB(_overlap_world()), _EVM_HEADER, CostTally())
    assert walk.return_data == jit.return_data
    expected = bytearray(40)
    expected[0:8] = (15).to_bytes(8, "big")
    expected[32:40] = (0xDEADBEEF).to_bytes(8, "big")
    assert walk.return_data == bytes(expected)
