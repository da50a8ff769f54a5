"""Every public name in ``src/repro`` has a caller outside ``tests/``.

A module-level function or class, or a method of a module-level class,
whose name does not start with an underscore must be referenced somewhere
in ``src/``, ``jobs/``, ``benchmarks/`` or ``perfbench/`` outside its own
definition: as a name, as an attribute, or as a string equal to it
(perfbench patches functions by attribute name).  References the tests
need and the program does not live in ``tests/``.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "jobs", "benchmarks", "perfbench")

# Public although only tests call them:
EXCEPTIONS = {
    # the only way to build a directed or §6 multi-category graph, and it
    # validates its input;
    "graph_from_edges",
    # the exhaustive engine that every other engine's answers are checked
    # against, kept beside the engines so it reads the same QueryContext.
    "brute_force_skysr",
}


def _references(node: ast.AST) -> Counter:
    """The identifiers ``node`` mentions: names, attributes and string
    constants."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield m


def test_every_public_name_in_src_has_a_caller():
    refs: Counter = Counter()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            refs += _references(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in _public_definitions(ast.parse(path.read_text(), str(path))):
            if node.name not in EXCEPTIONS and refs[node.name] <= _references(node)[node.name]:
                unused.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert not unused, "public names with no caller outside tests/:\n" + "\n".join(unused)
