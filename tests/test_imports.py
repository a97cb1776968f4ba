"""Every name a ddisc module imports is read by that module, no module
imports ``dataclasses``, ``typing`` or ``inspect``, every private helper a
module defines is read somewhere in the package, and every module parses
as the oldest Python that ``pyproject.toml`` accepts.

No linter ships with the package, so this walks each module's syntax
tree.  An import counts as read when its name is loaded somewhere in the
module, when ``__all__`` lists it, when it is a ``from __future__``
import, or when its line carries ``# noqa: F401`` (a name kept bound for
tools that look it up on the module).  A module-level function, class or
assignment whose name starts with a single underscore counts as read when
some module loads it as a name, reads it as an attribute or imports it.  A
method of a module-level class whose name starts with a single underscore
counts as read when some module reads it as an attribute, or when it
overrides one of ``namedtuple``'s methods, whose underscore only keeps them
clear of field names and which the other methods call.
"""

import ast
import pathlib
import re

import pytest

import ddisc

MODULES = sorted(pathlib.Path(ddisc.__file__).parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"
NAMEDTUPLE_METHODS = {"_make", "_replace", "_asdict"}


def unread_imports(source):
    """(line, name) of each import in ``source`` that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unread.append((alias.lineno, name))
    return unread


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_read_every_name_they_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


# each one costs milliseconds to import, which every CLI run would pay
SLOW_IMPORTS = {"dataclasses", "typing", "inspect"}


def slow_imports(source):
    """(line, module) of each import in ``source`` of a module in
    ``SLOW_IMPORTS`` or below one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in SLOW_IMPORTS]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_import_no_slow_standard_module(path):
    assert slow_imports(path.read_text(encoding="utf-8")) == []


def test_the_slow_import_check_flags_each_form():
    source = (
        "import os, typing\n"
        "from dataclasses import dataclass\n"
        "import inspect as i\n"
        "from .typing import x\n"
        "from collections import namedtuple\n"
        "def f():\n"
        "    import typing.re\n"
    )
    assert slow_imports(source) == [
        (1, "typing"),
        (2, "dataclasses"),
        (3, "inspect"),
        (7, "typing.re"),
    ]


def test_the_check_flags_what_it_should_and_nothing_else():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from .a import (\n"
        "    used,\n"
        "    unused,\n"
        ")\n"
        "from .b import pinned  # noqa: F401\n"
        "from .c import exported\n"
        "__all__ = ['exported']\n"
        "print(sys.argv, used)\n"
    )
    assert unread_imports(source) == [(2, "os"), (3, "osp"), (6, "unused")]


def unread_private_names(sources):
    """(module, line, name) of each module-level private name and each
    private method, named ``Class._name``, in ``sources`` (module name ->
    source) that no module reads."""
    defined, methods, loaded, attrs = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [
                    (module, item.lineno, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                names = [
                    n.id
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                loaded.update(alias.name for alias in node.names)

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    unread = [
        (module, line, name)
        for module, line, name in defined
        if private(name) and name not in loaded | attrs
    ]
    unread += [
        (module, line, f"{cls}.{name}")
        for module, line, cls, name in methods
        if private(name) and name not in attrs | NAMEDTUPLE_METHODS
    ]
    return unread


def test_package_reads_every_private_helper():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def test_the_helper_check_flags_what_it_should_and_nothing_else():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_TABLE, _SPARE = {}, 0\n"
            "def _called(): return _TABLE\n"
            "def _orphan(): pass\n"
            "class _Imported: pass\n"
            "def f(): return _called()\n"
            "class Box:\n"
            "    def __init__(self): self._read()\n"
            "    def _read(self): return 1\n"
            "    def _called(self): pass\n"
            "    def public(self): pass\n"
            "class Rec(namedtuple('Rec', 'x')):\n"
            "    def _make(cls, it): pass\n"
            "    def _spare(self): pass\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _Imported\n"
            "_stored: int = 0\n"
            "def g(): return a._read_as_attribute\n"
            "def _read_as_attribute(): pass\n"
            "a._written = 1\n"
            "def _written(): pass\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_SPARE"),
        ("a", 4, "_orphan"),
        ("b", 3, "_stored"),
        ("b", 7, "_written"),
        ("a", 10, "Box._called"),  # loaded as a name only, never as a method
        ("a", 14, "Rec._spare"),
    ]


def working_copy_probes(source):
    """(line, text) of each place in ``source`` that copies a presentation
    for editing (a call of ``_thaw``) or tells a working copy from a
    presentation by the type of ``_relset``."""
    probes = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        typed = name in ("isinstance", "type") and any(
            isinstance(n, ast.Attribute) and n.attr == "_relset"
            for arg in node.args[:1]
            for n in ast.walk(arg)
        )
        if name == "_thaw" or typed:
            probes.append((node.lineno, ast.unparse(node)))
    return probes


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "presentation.py"],
    ids=lambda p: p.name,
)
def test_only_presentation_knows_how_working_copies_are_stored(path):
    # presentation._corner copies a presentation or edits a working copy;
    # every other module hands it either and never looks which
    assert working_copy_probes(path.read_text(encoding="utf-8")) == []


def test_the_working_copy_check_flags_what_it_should_and_nothing_else():
    source = (
        "from .presentation import _thaw\n"
        "def f(p, q):\n"
        "    w = _thaw(p)\n"
        "    if isinstance(q._relset, frozenset): pass\n"
        "    u = presentation._thaw(q)\n"
        "    t = type(w._relset)\n"
        "    return isinstance(p, set), len(q._relset), q._relset <= w._relset\n"
    )
    assert working_copy_probes(source) == [
        (3, "_thaw(p)"),
        (4, "isinstance(q._relset, frozenset)"),
        (5, "presentation._thaw(q)"),
        (6, "type(w._relset)"),
    ]


AUTOMATON_NAMES = {"_automaton", "_states"}


def automaton_probes(source):
    """(line, text) of each import in ``source`` of ``_automaton`` or
    ``_states``, and each read of either as a name or an attribute, which
    covers every call of them."""
    probes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        if names & AUTOMATON_NAMES:
            probes.append((node.lineno, ast.unparse(node)))
    return sorted(probes)


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "presentation.py"],
    ids=lambda p: p.name,
)
def test_only_presentation_reads_the_automaton_states(path):
    # presentation turns the automaton's states into paths (_paths_from,
    # _annihilator_generators); every other module reads only the paths
    assert automaton_probes(path.read_text(encoding="utf-8")) == []


def test_the_automaton_check_flags_what_it_should_and_nothing_else():
    source = (
        "from .presentation import _paths_from, _states\n"
        "from . import presentation\n"
        "import ddisc.presentation as p\n"
        "def f(pres, x):\n"
        "    edges = _states(pres)[0]\n"
        "    walk = presentation._automaton\n"
        "    return p._automaton(pres), x._states, _paths_from(pres, 'v'), '_states'\n"
    )
    assert automaton_probes(source) == [
        (1, "from .presentation import _paths_from, _states"),
        (5, "_states"),
        (6, "presentation._automaton"),
        (7, "p._automaton"),
        (7, "x._states"),
    ]


def minimum_python():
    """(major, minor) of the ``requires-python = ">=X.Y"`` floor."""
    text = PYPROJECT.read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(floor[1]), int(floor[2])


def syntax_errors(source, version):
    """(line, message) of the first construct in ``source`` that Python
    ``version`` cannot parse, or ``[]``."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError as e:
        return [(e.lineno, e.msg)]
    return []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_parse_as_the_oldest_python_declared(path):
    assert syntax_errors(path.read_text(encoding="utf-8"), minimum_python()) == []


def test_the_syntax_check_rejects_what_the_floor_cannot_parse():
    assert minimum_python() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert syntax_errors(source, (3, 11)) == []
    [(_, message)] = syntax_errors(source, (3, 10))
    assert "only supported in Python 3.11" in message
    assert syntax_errors("match x:\n    case 1:\n        pass\n", (3, 10)) == []
