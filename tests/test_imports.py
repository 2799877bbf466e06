"""Every module-level import of a ``lavasim`` module is used by that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by a top-level ``import`` or ``from ... import``
must appear as a name, or as the root of an attribute chain, somewhere in the
module.  ``__init__.py`` re-exports its imports and is skipped, as are
``from __future__`` imports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lavasim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: Dict = {}\n") == [
        (1, "os"), (2, "List")]
