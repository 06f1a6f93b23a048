"""CLI smoke tests (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_synthesize_prints_ap(capsys):
    assert main(["synthesize"]) == 0
    out = capsys.readouterr().out
    assert "TIMESTAMP" in out
    assert "GUARD" in out
    assert "SSTORE" in out


def test_synthesize_fresh_round(capsys):
    # A timestamp outside the seeded round traces the revert path.
    assert main(["synthesize", "--timestamp", "4000000"]) == 0
    out = capsys.readouterr().out
    assert "GUARD" in out


def test_history(capsys):
    assert main(["history", "--months", "12", "--step", "4"]) == 0
    out = capsys.readouterr().out
    assert "gas limit" in out


def test_compile(tmp_path, capsys):
    source = tmp_path / "counter.sol"
    source.write_text("""
        contract Counter {
            uint256 public count;
            function bump(uint256 by) public { count = count + by; }
        }
    """)
    assert main(["compile", str(source), "--disassemble"]) == 0
    out = capsys.readouterr().out
    assert "contract Counter" in out
    assert "bump(uint256)" in out
    assert "slot 0: count" in out
    assert "SSTORE" in out


def test_simulate_tiny(capsys):
    assert main(["simulate", "--duration", "30", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "Merkle roots matched" in out
    assert "Forerunner" in out


def test_synthesize_merged_tree(capsys):
    assert main(["synthesize", "--merged"]) == 0
    out = capsys.readouterr().out
    assert "branch True" in out
    assert "branch False" in out
    assert "TERMINAL" in out
    assert "shortcut" in out


def test_record_and_replay_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "period.json")
    assert main(["record", "--out", path, "--duration", "30",
                 "--seed", "4", "--name", "T"]) == 0
    assert main(["replay", path]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out
    assert "roots matched" in out
    assert "effective speedup" in out


def test_chaos_report(tmp_path, capsys):
    json_out = str(tmp_path / "chaos.json")
    assert main(["chaos", "--seed", "0", "--duration", "12",
                 "--json-out", json_out]) == 0
    out = capsys.readouterr().out
    assert "fault plan" in out
    assert "equivalence      : OK" in out
    assert "effective speedup" in out
    import json
    with open(json_out, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["ok"] is True
    assert payload["dataset"] == "chaos"


def test_chaos_full_rate_collapses_to_baseline(tmp_path, capsys):
    trace_out = tmp_path / "chaos.jsonl"
    assert main(["chaos", "--seed", "1", "--duration", "12",
                 "--rate", "1.0", "--trace-out", str(trace_out)]) == 0
    out = capsys.readouterr().out
    assert "equivalence      : OK" in out
    assert "faulted 1.000x" in out
    assert trace_out.read_text(encoding="utf-8").count("\n") > 1


@pytest.mark.parametrize("flags", [
    ["--edge", "--fleet"],
    ["--edge", "--net"],
    *([sweep, *flag]
      for sweep in ("--edge", "--fleet", "--net")
      for flag in (["--trace-out", "t.jsonl"], ["--max-rate", "0.2"])),
], ids=" ".join)
def test_chaos_rejects_flags_a_sweep_would_drop(flags, capsys):
    """A flag the chosen mode cannot honour is a usage error (exit 2),
    not a silently different run."""
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", *flags])
    assert exit_info.value.code == 2
    assert "usage: repro chaos" in capsys.readouterr().err


def test_crash_exits_nonzero_when_a_site_never_fires(capsys):
    # Occurrence 10 000 of a block commit lies past the run's end.
    assert main(["crash", "--seed", "10000",
                 "--points", "recovery.block.post_commit"]) == 1
    out = capsys.readouterr().out
    assert "NOT FIRED" in out
    assert "result: NOT FIRED" in out


def test_crash_unknown_point_lists_the_table(capsys):
    assert main(["crash", "--points", "recovery.journal.apend"]) == 2
    out = capsys.readouterr().out
    assert "unknown crash site(s): recovery.journal.apend" in out
    assert "  recovery.journal.append\n" in out
    assert "net.drop" not in out
