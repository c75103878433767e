"""Every def under ``src/repro`` has a caller in program code, or a reason.

A def counts as called when program code (``src``, ``bench``,
``benchmarks`` or ``examples``) spells its name as a name or an attribute.
Imports and strings do not count: a re-export is not a caller, and tests
are not program code.  Dunders, ``visit_*`` methods of ``ast`` visitors
(``NodeVisitor`` dispatch calls them) and defs a project decorator
registers (``@_endpoint(...)``) count as called.  Every other def must sit
in DESIGN.md's "Kept without a caller" table with a reason, and every
entry there must still name a def.  The sweep matches names only, so a
def whose name some other call spells passes it; the call trace that
DESIGN.md §12 describes is what finds the defs no surface runs.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "bench", "benchmarks", "examples")
TABLE_HEADING = "### Kept without a caller"
VISITOR_BASES = {"NodeVisitor", "NodeTransformer"}
#: Nodes whose children can hold a def (statements, handlers, cases).
BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _program_trees():
    return {path: _parse(path) for directory in PROGRAM_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))}


def _module(path):
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _defs(trees):
    """``{"module:Qual.name": (name, decorators, visitor)}`` for every
    function and method under ``src/repro``, nested ones included."""
    found = {}

    def walk(node, module, prefix, visitor):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                found[f"{module}:{qual}"] = (child.name, child.decorator_list,
                                             visitor)
                walk(child, module, qual + ".<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                bases = {base.attr if isinstance(base, ast.Attribute)
                         else getattr(base, "id", None)
                         for base in child.bases}
                walk(child, module, prefix + child.name + ".",
                     bool(bases & VISITOR_BASES))
            elif isinstance(child, BLOCKS):
                walk(child, module, prefix, visitor)

    for path, tree in trees.items():
        if (ROOT / "src" / "repro") in path.parents:
            walk(tree, _module(path), "", False)
    return found


def _spelled(trees):
    """Every name and attribute that program code spells."""
    spelled = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                spelled.add(node.id)
            elif isinstance(node, ast.Attribute):
                spelled.add(node.attr)
    return spelled


def _table(heading, entry_pattern):
    """``{entry: reason}`` from the DESIGN.md table under ``heading``: each
    match of ``entry_pattern`` in a row's first cell, with its second."""
    lines = (ROOT / "DESIGN.md").read_text().splitlines()
    start = lines.index(heading)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    kept = {}
    for row in rows[2:]:  # header and separator
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        for entry in re.findall(entry_pattern, cells[0]):
            kept[entry] = cells[1]
    return kept


def _kept():
    """``{"module:Qual.name": reason}`` from DESIGN.md's table."""
    return _table(TABLE_HEADING, r"`([\w.]+:[\w.<>]+)`")


@functools.lru_cache(maxsize=None)
def _uncalled():
    trees = _program_trees()
    defs = _defs(trees)
    spelled = _spelled(trees)
    decorators = {name for name, _, _ in defs.values()}
    uncalled = set()
    for qual, (name, decorator_list, visitor) in defs.items():
        registered = any(isinstance(d, ast.Call)
                         and getattr(d.func, "id", None) in decorators
                         for d in decorator_list)
        if (name in spelled or registered
                or (name.startswith("__") and name.endswith("__"))
                or (visitor and name.startswith("visit_"))):
            continue
        uncalled.add(qual)
    return defs, uncalled


def test_every_uncalled_def_is_kept_with_a_reason():
    _, uncalled = _uncalled()
    reasoned = {qual for qual, reason in _kept().items() if reason}
    missing = sorted(uncalled - reasoned)
    assert not missing, (
        "no program code calls these defs: delete them, or add them to "
        f"DESIGN.md's {TABLE_HEADING!r} table with a reason: {missing}")


def test_no_stale_entries():
    defs, _ = _uncalled()
    stale = sorted(set(_kept()) - set(defs))
    assert not stale, f"kept-table entries that name no def: {stale}"
