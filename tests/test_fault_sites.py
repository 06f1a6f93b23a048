"""The fault-site table (:mod:`repro.faults.sites`) is complete.

Three ways a site registry drifts, each closed here:

* a site is evaluated in ``src/repro`` but has no row (it can be named
  by no plan), or a row is evaluated nowhere (a plan naming it runs
  fault-free) — :func:`test_evaluated_sites_are_exactly_the_table`;
* a layer has no per-site sweep test.  Sweeps are built by
  ``sweep_plans(layer)``, which yields every row of the layer, so row
  coverage reduces to layer coverage —
  :func:`test_every_layer_has_a_sweep_test`;
* the published table in ``docs/ROBUSTNESS.md`` disagrees with the
  registry — :func:`test_docs_table_is_the_registry`.
"""

from __future__ import annotations

import ast
import pathlib
import re

from repro.faults import sites
from repro.faults.sites import LAYERS, SITE_TABLE

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The injector entry points (and the executor's wrapper) whose first
#: argument is a site name.
ENTRY_POINTS = {"evaluate", "maybe_raise", "stall_units", "maybe_crash",
                "torn_fires", "_fault"}


def evaluated_sites() -> set:
    """Every site literal or ``SITE_*`` constant passed to an injector
    entry point anywhere under ``src/repro``."""
    found = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ENTRY_POINTS):
                continue
            site = node.args[0]
            if isinstance(site, ast.Constant) and isinstance(site.value, str):
                found.add(site.value)
            elif isinstance(site, ast.Name) and site.id.startswith("SITE_"):
                found.add(getattr(sites, site.id))
    return found


def test_evaluated_sites_are_exactly_the_table():
    assert evaluated_sites() == {row.name for row in SITE_TABLE}


def test_rows_are_well_formed():
    names = [row.name for row in SITE_TABLE]
    assert len(names) == len(set(names))
    for row in SITE_TABLE:
        assert row.layer in LAYERS and row.kind in sites.KINDS, row
        assert 0.0 < row.rate <= 1.0 and row.contract, row
        if row.driver is not None:
            assert sites.site_row(row.driver).layer == row.layer, row


def test_every_layer_has_a_sweep_test():
    swept = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        swept.update(re.findall(
            r'sweep_(?:params|plans)\(\s*"(\w+)"',
            path.read_text(encoding="utf-8")))
    # The recovery layer's sweep is ``recovery_report`` itself, whose
    # TestCrashMatrix case pins the site list to the table's.
    recovery = (ROOT / "tests" / "test_recovery.py").read_text(
        encoding="utf-8")
    if "recovery_report(" in recovery \
            and 'layer_sites("recovery")' in recovery:
        swept.add("recovery")
    assert swept == set(LAYERS)


def _cells(row) -> list:
    return [f"`{row.name}`", row.layer, row.kind,
            f"{row.magnitude:g}" if row.magnitude else "—",
            f"{row.rate:g}", f"`{row.driver}`" if row.driver else "—",
            "yes" if row.lethal else "—", row.contract]


def test_docs_table_is_the_registry():
    text = (ROOT / "docs" / "ROBUSTNESS.md").read_text(encoding="utf-8")
    section = text.split("## The site table", 1)[1].split("\n## ", 1)[0]
    published = [[cell.strip() for cell in line.strip("|").split("|")]
                 for line in section.splitlines()
                 if line.startswith("| `")]
    assert published == [_cells(row) for row in SITE_TABLE]
