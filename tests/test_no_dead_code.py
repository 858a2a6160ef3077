"""Every function, class, method and module-level assignment in
`src/nsscale` is named somewhere in the program or the benchmark outside
its own definition, every function reads each of its parameters, every
`__slots__` name is read as an attribute where its class is seen, and
every imported name is read in its own module or named by string under
`bench/` (the benchmark's tracer wraps a module's name for a function it
imports).

A function, class or module-level name counts as used when its name
appears as an identifier, an attribute, a keyword argument or a string
literal (the benchmark's tracer looks names up by string). A method counts
only as an attribute, a keyword argument or a string: a bare identifier of
its name is some local variable, never a call of the method. Dunder names
are read by the interpreter and are exempt."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "nsscale"
TESTS = ROOT / "tests"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree) -> list:
    """(name, node) of every function, class and method in `tree`, and of
    every name its module body assigns."""
    found = [(node.name, node) for node in ast.walk(tree)
             if isinstance(node, DEFINITIONS)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found.extend((name.id, node) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return found


def mentions(tree) -> tuple:
    """How often each name is mentioned in `tree`: as a bare identifier,
    and as an attribute, keyword argument or string literal."""
    bare, named = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            named[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named[node.value] += 1
    return bare, named


def unused_definitions(package: Path, users: list, pick=definitions) -> list:
    """`module:name` of every definition that `pick` finds in `package`'s
    modules and no file of `users` mentions outside the definition
    itself."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in users}
    bare, named = Counter(), Counter()
    for tree in trees.values():
        tree_bare, tree_named = mentions(tree)
        bare += tree_bare
        named += tree_named
    unused = []
    for path in sorted(package.glob("*.py")):
        methods = {id(node) for cls in ast.walk(trees[path])
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for name, node in pick(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            own_bare, own_named = mentions(node)
            uses = named[name] - own_named[name]
            if id(node) not in methods:
                uses += bare[name] - own_bare[name]
            if uses == 0:
                unused.append("%s:%s" % (path.stem, name))
    return unused


def unread_parameters(package: Path) -> list:
    """`module:function:parameter` of every parameter, bar `self` and
    `cls`, that its function's body never reads, in `package`'s modules.
    A read in a function nested in the body counts."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for statement in body
                    for name in ast.walk(statement)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            unread.extend(
                "%s:%s:%s" % (path.stem, getattr(node, "name", "<lambda>"),
                              param.arg)
                for param in params
                if param.arg not in ("self", "cls", *read))
    return unread


def unread_imports(package: Path, bench: list) -> list:
    """`module:name` of every name an import binds in `package`'s modules,
    bar `from __future__` features, that its module never reads and no
    string literal in a file of `bench` names."""
    strings = {node.value for path in bench
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in strings:
                    unread.append("%s:%s" % (path.stem, name))
    return unread


def unread_slots(package: Path) -> list:
    """`module:Class:slot` of every `__slots__` name in `package`'s
    modules that neither the class's own module nor a module importing
    the class reads as an attribute. A read of that name elsewhere is of
    another object (`item.key` in a module that never sees the class),
    and an augmented assignment or a `del` writes its target."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    reads = {stem: {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)}
             for stem, tree in trees.items()}
    importers = {}  # (module, name) -> modules that import the name
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    importers.setdefault(
                        (node.module.rsplit(".", 1)[-1], alias.name),
                        set()).add(stem)
    unread = []
    for stem, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            readers = {stem} | importers.get((stem, cls.name), set())
            read = set().union(*(reads[reader] for reader in readers))
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == "__slots__"
                        for target in node.targets):
                    unread.extend(
                        "%s:%s:%s" % (stem, cls.name, slot.value)
                        for slot in ast.walk(node.value)
                        if isinstance(slot, ast.Constant)
                        and slot.value not in read)
    return unread


def test_every_slot_is_read():
    assert unread_slots(PACKAGE) == []


PLANTED_SLOTS = """
class Box:
    __slots__ = ("size", "count", "label")

    def __init__(self):
        self.size = self.count = 0
        self.label = "box"

    def grow(self):
        self.count += 1
        return self.size


class Tag:
    __slots__ = "alone"


def name(tag):
    return getattr(tag, "alone")
"""


def test_a_slot_is_read_as_an_attribute_where_its_class_is_seen(tmp_path):
    (tmp_path / "planted.py").write_text(PLANTED_SLOTS)
    (tmp_path / "user.py").write_text("from .planted import Box\n"
                                      "\n"
                                      "\n"
                                      "def label(box: Box):\n"
                                      "    del box.count\n"
                                      "    return box.label\n")
    (tmp_path / "stranger.py").write_text("def alone(item):\n"
                                          "    return item.alone\n")
    assert unread_slots(tmp_path) == ["planted:Box:count", "planted:Tag:alone"]


def test_every_import_is_read():
    assert unread_imports(PACKAGE, sorted((ROOT / "bench").glob("*.py"))) \
        == []


def test_an_import_is_read_in_its_module_or_named_by_the_benchmark(
        tmp_path):
    (tmp_path / "planted.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, replace as swap, field\n"
        "from .trace import wrapped\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Box:\n"
        "    path: os.PathLike = None\n")
    bench = tmp_path / "layers.py"
    bench.write_text('TARGETS = (("planted", "wrapped"),)\n')
    assert unread_imports(tmp_path, [bench]) == [
        "planted:swap", "planted:field"]


def test_every_definition_is_used():
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unused_definitions(PACKAGE, users) == []


PLANTED = """
__all__ = ["use"]


class Box:
    def size(self):
        return 1


def use():
    size = Box()
    return %s
"""


@pytest.mark.parametrize("returned, unused", [
    ("size", ["planted:size"]),  # a local of the method's name
    ("size.size()", []),
])
def test_a_method_is_used_only_by_attribute_or_string(tmp_path, returned,
                                                      unused):
    module = tmp_path / "planted.py"
    module.write_text(PLANTED % returned)
    assert unused_definitions(tmp_path, [module]) == unused


def test_a_module_name_is_used_once_read(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text('__all__ = ["READ"]\nREAD, UNREAD = 1, 2\n'
                      'LIMIT: int = READ\n')
    assert unused_definitions(tmp_path, [module]) == [
        "planted:UNREAD", "planted:LIMIT"]


def test_every_parameter_is_read():
    assert unread_parameters(PACKAGE) == []


def test_a_parameter_is_read_only_by_its_function(tmp_path):
    (tmp_path / "planted.py").write_text(
        "def outer(read, written, *args, **kwargs):\n"
        "    written = 1\n"
        "    def inner(local, default=args):\n"
        "        return read\n"
        "    return inner, lambda x, y: y\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def size(self, scale):\n"
        "        return 1\n")
    assert sorted(unread_parameters(tmp_path)) == [
        "planted:<lambda>:x", "planted:inner:default", "planted:inner:local",
        "planted:outer:kwargs", "planted:outer:written", "planted:size:scale"]


def helpers(tree) -> list:
    """(name, node) of every module-level function and class in `tree`,
    bar tests and fixtures."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, DEFINITIONS)
            and not node.name.startswith("test_")
            and not any("fixture" in (getattr(called, "id", None),
                                      getattr(called, "attr", None))
                        for decorator in node.decorator_list
                        for called in [getattr(decorator, "func", decorator)])]


def test_every_test_helper_is_used():
    tests = sorted(TESTS.glob("*.py"))
    assert unused_definitions(TESTS, tests, helpers) == []


def test_a_test_helper_is_used_once_named(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "import pytest\n\n\ndef named():\n    return named\n\n\n"
        "class Called:\n    pass\n\n\n@pytest.fixture(scope='session')\n"
        "def built():\n    return 1\n")
    (tmp_path / "test_user.py").write_text(
        "from helpers import Called\n\n\ndef test_it(built):\n"
        "    assert Called()\n")
    users = sorted(tmp_path.glob("*.py"))
    assert unused_definitions(tmp_path, users, helpers) == ["helpers:named"]
