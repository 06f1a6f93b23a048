"""Every ``*Config`` field is a value some caller sets.

An AST scan in the style of ``tests/test_src_reachability.py``.  Each
field of a ``*Config`` dataclass under ``src/repro`` is one settable
value of the system, and it stays only while a caller in
``src/repro``, ``benchmarks/`` or ``perf/`` sets it.  A value with one
setting in use is a module constant, read where it is used; a test
that needs another value patches the constant (``monkeypatch``).
Tests and examples do not count as callers.

A setter is a keyword (or positional argument) in a call to the class,
a keyword of a ``dataclasses.replace`` call, or an attribute store
``obj.field = ...`` on anything but a method's ``self``.  A ``replace``
keyword or an attribute store cannot name its class, so it counts for
every config field of that name; a ``**kwargs`` in a call to the class
counts for none.

A field no caller sets either becomes a constant or is named in
:data:`ALLOWLIST`.  The allowlist cannot rot: an entry whose class or
field is gone, whose fields a caller now sets, or whose caller file no
longer references its anchor name fails the scan.

``python tests/test_config_fields.py`` prints the count of settable
values.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where callers live; tests and examples are not callers.
CALLER_DIRS = ("src/repro", "benchmarks", "perf")

_PERF = ("perf/ pins it and a src/ change may not edit perf/; it goes "
         "with ROADMAP item 4's benchmark PR")
_ABLATION = ("an ablation switch: benchmarks/test_ablations.py sets it "
             "through run_with(**config_kwargs)")

#: ``"Class.field"`` or ``"Class"`` (every field) -> ``(caller, anchor,
#: reason)``: fields no scanned setter reaches that stay.  ``caller`` is
#: a path relative to the repository root and must keep referencing
#: the name ``anchor``.
ALLOWLIST: Dict[str, Tuple[str, str, str]] = {
    "ForerunnerConfig.max_contexts_per_head": (
        "benchmarks/test_ablations.py", "max_contexts_per_head",
        _ABLATION),
    "ForerunnerConfig.enable_memoization": (
        "benchmarks/test_ablations.py", "enable_memoization", _ABLATION),
    "ForerunnerConfig.enable_prefetch": (
        "benchmarks/test_ablations.py", "enable_prefetch", _ABLATION),
    "ForerunnerConfig.pass_config": (
        "benchmarks/test_ablations.py", "pass_config", _ABLATION),
    "ForerunnerConfig.enable_obs": (
        "tests/test_obs_determinism.py", "enable_obs",
        "the obs-off path is the reference the neutrality check "
        "compares against"),
    "DatasetConfig.mean_block_interval": (
        "src/repro/cli.py", "mean_block_interval",
        "repro crash --block-interval sets it through "
        "_record(**overrides)"),
    "EdgeConfig.service_rate": (
        "perf/loops.py", "service_rate",
        "perf/loops.py reads config.service_rate; " + _PERF),
    "RetryConfig": (
        "perf/loops.py", "RetryBudget",
        "perf/loops.py calls RetryBudget(None, seed=0); " + _PERF),
    "WireConfig": (
        "perf/workloads.py", "WireConfig",
        "perf/workloads.py constructs WireConfig(); " + _PERF),
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def config_classes(root: pathlib.Path
                   ) -> Dict[str, Tuple[str, int, List[str]]]:
    """``name -> (path, line, fields)`` for every top-level
    ``*Config`` dataclass under ``root/src/repro``."""
    classes: Dict[str, Tuple[str, int, List[str]]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in _parse(path).body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and any("dataclass" in ast.unparse(decorator)
                            for decorator in node.decorator_list)):
                continue
            fields = [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            classes[node.name] = (path.relative_to(root).as_posix(),
                                  node.lineno, fields)
    return classes


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _replace_names(tree: ast.Module) -> Set[str]:
    """Names ``dataclasses.replace`` is bound to in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module == "dataclasses":
            names.update(alias.asname or alias.name
                         for alias in node.names
                         if alias.name == "replace")
    return names


def setters(tree: ast.Module, classes) -> Tuple[Set[Tuple[str, str]],
                                                Set[str]]:
    """``(by_class, by_name)``: the ``(class, field)`` pairs calls to
    a config class set, and the field names ``replace`` keywords and
    attribute stores set."""
    by_class: Set[Tuple[str, str]] = set()
    by_name: Set[str] = set()
    replace = _replace_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = _callee(node)
            if callee in classes:
                fields = classes[callee][2]
                for index, arg in enumerate(node.args):
                    if not isinstance(arg, ast.Starred):
                        by_class.add((callee, fields[index]))
                by_class.update((callee, keyword.arg)
                                for keyword in node.keywords
                                if keyword.arg is not None)
            is_replace = (
                isinstance(node.func, ast.Name) and node.func.id in replace
            ) or (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "replace"
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "dataclasses")
            if is_replace:
                by_name.update(keyword.arg for keyword in node.keywords
                               if keyword.arg is not None)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            by_name.add(node.attr)
    return by_class, by_name


def _references(path: pathlib.Path) -> Set[str]:
    """Every name, attribute, keyword and import alias in ``path``."""
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def scan(root: pathlib.Path,
         allowlist: Dict[str, Tuple[str, str, str]]
         ) -> Tuple[int, List[str], List[str]]:
    """``(settable, unset, stale)`` for the package under
    ``root/src/repro``: the count of config fields, the fields no
    caller sets and no allowlist entry covers, and allowlist entries
    that no longer hold."""
    classes = config_classes(root)
    by_class: Set[Tuple[str, str]] = set()
    by_name: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            found_class, found_name = setters(_parse(path), classes)
            by_class |= found_class
            by_name |= found_name

    def is_set(cls: str, name: str) -> bool:
        return (cls, name) in by_class or name in by_name

    settable = sum(len(fields) for _, _, fields in classes.values())
    unset: List[str] = []
    for cls, (path, line, fields) in sorted(classes.items()):
        for name in fields:
            if not is_set(cls, name) and cls not in allowlist \
                    and f"{cls}.{name}" not in allowlist:
                unset.append(f"{path}:{line} {cls}.{name}")

    stale: List[str] = []
    for key, (caller, anchor, _reason) in sorted(allowlist.items()):
        cls, _, name = key.partition(".")
        fields = classes.get(cls, (None, None, []))[2]
        covered = [name] if name else fields
        caller_path = root / caller
        if cls not in classes or (name and name not in fields):
            stale.append(f"{key}: no longer defined under src/repro")
        elif all(is_set(cls, field) for field in covered):
            stale.append(f"{key}: a caller sets it; drop the entry")
        elif not caller_path.is_file() \
                or anchor not in _references(caller_path):
            stale.append(f"{key}: {caller} no longer references "
                         f"{anchor}")
    return settable, unset, stale


def test_every_config_field_has_a_caller():
    _, unset, _ = scan(ROOT, ALLOWLIST)
    assert unset == [], (
        "make these module constants read where they are used, or "
        "allowlist them with the caller that pins them and why")


def test_allowlist_entries_still_hold():
    _, _, stale = scan(ROOT, ALLOWLIST)
    assert stale == []


def test_scanner_on_a_synthetic_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, replace as swap\n"
        "\n"
        "@dataclass\n"
        "class NodeConfig:\n"
        "    lanes: int = 1\n"
        "    depth: int = 2\n"
        "    width: int = 3\n"
        "    seed: int = 4\n"
        "    dead: int = 5\n"
        "    pinned: int = 6\n"
        "\n"
        "    def grow(self):\n"
        "        self.dead = 7\n"
        "\n"
        "class OtherConfig:\n"
        "    unset: int = 0\n"
        "\n"
        "def build(**kwargs):\n"
        "    config = swap(NodeConfig(9, width=2, **kwargs), depth=3)\n"
        "    config.seed = 1\n"
        "    return config\n")
    (tmp_path / "perf").mkdir()
    (tmp_path / "perf" / "bench.py").write_text(
        "from repro.mod import build\n"
        "build(pinned=1)\n")
    allowlist = {
        "NodeConfig.pinned": ("perf/bench.py", "pinned", "kwargs"),
        "NodeConfig.lanes": ("perf/bench.py", "lanes", "a caller set it"),
        "NodeConfig.gone": ("perf/bench.py", "gone", "deleted"),
        "NodeConfig.dead": ("perf/bench.py", "dead", "moved on"),
    }
    settable, unset, stale = scan(tmp_path, allowlist)
    # A plain class is no dataclass: OtherConfig holds no values.
    assert settable == 6
    assert unset == []
    assert stale == [
        "NodeConfig.dead: perf/bench.py no longer references dead",
        "NodeConfig.gone: no longer defined under src/repro",
        "NodeConfig.lanes: a caller sets it; drop the entry",
    ]
    del allowlist["NodeConfig.dead"]
    _, unset, _ = scan(tmp_path, allowlist)
    assert unset == ["src/repro/mod.py:4 NodeConfig.dead"]


if __name__ == "__main__":
    count, unset, _ = scan(ROOT, ALLOWLIST)
    classes = config_classes(ROOT)
    print(f"{count} settable values in {len(classes)} *Config classes, "
          f"{len(unset)} unset and not allowlisted")
