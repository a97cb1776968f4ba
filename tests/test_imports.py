"""Every name a ddisc module imports is read by that module.

No linter ships with the package, so this walks each module's syntax
tree.  An import counts as read when its name is loaded somewhere in the
module, when ``__all__`` lists it, when it is a ``from __future__``
import, or when its line carries ``# noqa: F401`` (a name kept bound for
tools that look it up on the module).
"""

import ast
import pathlib

import pytest

import ddisc

MODULES = sorted(pathlib.Path(ddisc.__file__).parent.glob("*.py"))


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
