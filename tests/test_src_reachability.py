"""``src/repro`` holds only what the system runs.

An AST scan, in the style of ``tests/test_fault_sites.py``: every
top-level function or class, and every method of a top-level class,
must have its name referenced somewhere in ``src/repro`` outside its
own body.  Re-exports in ``__init__.py`` files and ``__all__`` lists do
not count as references; dunders and the interpreter's ``_op_*``
handlers (registered through ``_HANDLERS``) count as used.

A definition nothing in ``src/repro`` calls either goes — deleted, or
moved into the test that uses it — or is named in :data:`ALLOWLIST`
with the file that calls it and why it stays.  The allowlist cannot
rot: an entry whose caller no longer references the name, whose name
is no longer defined, or whose name ``src/repro`` now references
itself fails the scan.

Matching is by name, not by binding: a method counts as used when any
attribute of that name is read anywhere in ``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

_FIGURE = "paper-figure report builder the benchmark calls"

#: name -> (caller, reason): definitions nothing in ``src/repro``
#: calls that stay.  ``caller`` is a path relative to the repository
#: root and must reference the name.
ALLOWLIST: Dict[str, Tuple[str, str]] = {
    # Entry points of benchmarks/, perf/ and examples/.
    "ascii_table": ("benchmarks/test_table1_datasets.py", _FIGURE),
    "bar_chart": ("benchmarks/test_fig11_heard_delay.py", _FIGURE),
    "write_report": ("benchmarks/test_table1_datasets.py", _FIGURE),
    "saturation_fraction": ("benchmarks/test_fig2_block_saturation.py",
                            _FIGURE),
    "heard_delay_reverse_cdf": ("benchmarks/test_fig11_heard_delay.py",
                                _FIGURE),
    "speedup_histogram": ("benchmarks/test_fig12_speedup_distribution.py",
                          _FIGURE),
    "gas_vs_speedup": ("benchmarks/test_fig13_gas_vs_speedup.py",
                       _FIGURE),
    "synthesis_report": ("benchmarks/test_fig15_code_reduction.py",
                         _FIGURE),
    "offpath_overhead": ("benchmarks/test_sec56_offpath_overhead.py",
                         _FIGURE),
    "witness_report": ("benchmarks/test_witness_check.py", _FIGURE),
    "block_count": ("benchmarks/test_table1_datasets.py",
                    "Table 1 dataset column"),
    "block_number_range": ("benchmarks/test_table1_datasets.py",
                           "Table 1 dataset column"),
    "wall_seconds_baseline": ("benchmarks/test_table2_effective_speedup.py",
                              "Table 2 wall-clock column"),
    "wall_seconds_forerunner": ("benchmarks/test_speculation_throughput.py",
                                "speculation throughput wall clock"),
    "fleet_replay": ("benchmarks/test_fleet_scaling.py",
                     "the fleet replay the scaling benchmark drives"),
    "send_storm_scenario": ("perf/workloads.py",
                            "the fleet_storm workload's traffic"),
    "ChainManager": ("examples/reorg_handling.py",
                     "the reorg example's chain driver"),
    "receive_block": ("examples/reorg_handling.py",
                      "the reorg example's chain driver"),
    "decode_uint": ("examples/defi_swaps.py",
                    "ABI return decoding for callers outside the node"),
    # Safety and recovery code.
    "restore_pool": ("tests/test_edge.py",
                     "recovery: re-injects accepted-but-unserved "
                     "transactions without double-executing"),
    "reset_registry": ("tests/test_obs.py",
                       "isolation: replaces the process-wide metrics "
                       "registry"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and methods of top-level
    classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFS[:2]):
                        yield member


def _referenced_names(tree: ast.AST, reexports: bool = True):
    """``(name, line)`` for every name read, attribute accessed or
    aliased import in ``tree``; with ``reexports=False`` import
    aliases (the ``__init__.py`` re-exports) are left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias) and reexports and node.asname:
            yield node.name, node.lineno


def _names_in(path: pathlib.Path) -> Set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {name for name, _ in _referenced_names(tree)}


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("_op_")


def scan(root: pathlib.Path,
         allowlist: Dict[str, Tuple[str, str]]
         ) -> Tuple[List[str], List[str]]:
    """``(unreferenced, stale)`` for the package under
    ``root/src/repro``: definitions with no reference outside their own
    body, and allowlist entries that no longer hold."""
    package = root / "src" / "repro"
    defined: List[Tuple[str, pathlib.Path, int, int]] = []
    references: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _definitions(tree):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            defined.append((node.name, path, first, node.end_lineno))
        for name, line in _referenced_names(
                tree, reexports=path.name != "__init__.py"):
            references.setdefault(name, []).append((path, line))

    unreferenced: List[str] = []
    used: Set[str] = set()
    for name, path, first, last in defined:
        if _exempt(name):
            continue
        if any(ref_path != path or not first <= line <= last
               for ref_path, line in references.get(name, ())):
            used.add(name)
        elif name not in allowlist:
            where = path.relative_to(root).as_posix()
            unreferenced.append(f"{where}:{first} {name}")

    names = {name for name, *_ in defined}
    stale: List[str] = []
    for name, (caller, _reason) in sorted(allowlist.items()):
        caller_path = root / caller
        if name not in names:
            stale.append(f"{name}: no longer defined under src/repro")
        elif name in used:
            stale.append(f"{name}: src/repro references it; drop the entry")
        elif not caller_path.is_file() \
                or name not in _names_in(caller_path):
            stale.append(f"{name}: {caller} no longer references it")
    return unreferenced, stale


def test_src_has_no_unreferenced_definitions():
    unreferenced, _ = scan(ROOT, ALLOWLIST)
    assert unreferenced == [], (
        "delete these, move them into the test that uses them, or "
        "allowlist them with their caller and a reason")


def test_allowlist_entries_still_hold():
    _, stale = scan(ROOT, ALLOWLIST)
    assert stale == []


def test_scanner_on_a_synthetic_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import dead, kept\n"
        "__all__ = ['dead', 'kept']\n")
    (package / "mod.py").write_text(
        "def dead():\n"
        "    return dead\n"
        "\n"
        "def kept():\n"
        "    return 1\n"
        "\n"
        "def _op_add(frame):\n"
        "    return 2\n"
        "\n"
        "def orphan():\n"
        "    return 4\n"
        "\n"
        "def used():\n"
        "    return 3\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = used()\n"
        "\n"
        "BOX = Box()\n")
    (tmp_path / "bench.py").write_text(
        "from repro.mod import kept\n"
        "kept()\n")
    allowlist = {"kept": ("bench.py", "benchmark entry point"),
                 "orphan": ("bench.py", "a caller that moved on")}
    unreferenced, stale = scan(tmp_path, allowlist)
    assert unreferenced == ["src/repro/mod.py:1 dead"]
    assert stale == ["orphan: bench.py no longer references it"]
