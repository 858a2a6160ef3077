"""Every function, class and method in `src/nsscale` is named somewhere in
the program or the benchmark outside its own definition.

A name counts when it appears as an identifier, an attribute, a keyword
argument or a string literal (the benchmark's tracer looks names up by
string). Dunder methods are called by the interpreter and are exempt."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "nsscale"

# Read only by the tests: the brute-force selection oracle and the audit of
# live zone handles.
ALLOWED = {"exhaustive_select", "outstanding_handles"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentions(tree) -> Counter:
    """How often each name is mentioned in `tree`."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            counts[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def unused_definitions(package: Path, users: list) -> list:
    """`module:name` of every definition in `package`'s modules that no
    file of `users` mentions outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in users}
    total = Counter()
    for tree in trees.values():
        total += mentions(tree)
    unused = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in ALLOWED:
                continue
            if total[name] - mentions(node)[name] == 0:
                unused.append("%s:%s" % (path.stem, name))
    return unused


def test_every_definition_is_used():
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unused_definitions(PACKAGE, users) == []
