"""Four syntax-tree guards on the ``lavasim`` sources.

Every module-level import of a ``lavasim`` module is used by that module.
No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by a top-level ``import`` or ``from ... import``
must appear as a name, or as the root of an attribute chain, somewhere in the
module.  ``__init__.py`` re-exports its imports and is skipped, as are
``from __future__`` imports.

Every module-level ``def`` and ``class`` is reached by something other than
the tests: its name appears, as a name or an attribute, in the sources
outside its own definition, in ``perfbench/*.py`` or as a
``pyproject.toml`` script.  A re-export in ``__init__.py`` does not count.
The guard reads names only, so a function that shares its name with an
attribute in use (``workload.split`` and ``str.split``) passes unseen.

Every non-dunder method of a top-level class is reached the same way: its
name appears as an attribute (``x.name``) in the sources outside the
method's own body, or in ``perfbench/*.py``.  A local variable of the same
name does not count, in either place, and neither does a string
(``perfbench/spans.py`` wraps methods by name).  This guard still matches by
name, so a method named like a method in use elsewhere, a builtin's
(``PredictionCache.clear`` and ``dict.clear``) or another class's, stays
invisible.

Only ``sim.py`` imports ``heapq``: every replay runs on its one event loop.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lavasim"
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


# module-level names that only the tests reach, and why the library keeps each
KEPT_FOR_TESTS = {
    "bimodal_config": "an acceptance trace family: two lifetime modes that share every feature",
    "misprediction_probability_mc": "the Monte Carlo estimate the closed form is checked against",
    "quantize_temporal_cost": "the plain form of the bucket lookup that NILAS's score inlines; "
                              "the reference scorer checks the inlined copy against it",
}


def named(root):
    """The names of the ``Name`` and ``Attribute`` nodes under ``root``, repeats kept."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(root) if isinstance(node, (ast.Name, ast.Attribute))]


def appearing_names(statements):
    return {name for statement in statements for name in named(statement)}


def unreached(modules, outside):
    """The sorted names of the top-level ``def``s and ``class``es of
    ``modules`` (file name -> source) that appear in no other top-level
    statement of ``modules`` and are not in ``outside``."""
    statements = [node for source in modules.values() for node in ast.parse(source).body]
    names = [appearing_names([node]) for node in statements]
    # how many top-level statements each name appears in
    spread = collections.Counter(name for found in names for name in found)
    return sorted(node.name for node, found in zip(statements, names)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in outside
                  and spread[node.name] == (node.name in found))


def perfbench_trees():
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def reached_from_outside():
    """Names in ``perfbench/*.py``, and the functions ``pyproject.toml``'s
    scripts name."""
    names = appearing_names(perfbench_trees())
    scripts = re.findall(r'^\S+ = "[\w.]+:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert scripts, "pyproject.toml names no script"
    return names | set(scripts)


# methods that only the tests reach, and why the library keeps each
KEPT_METHODS = {
    "PoolState.fits": "the naive feasibility test the free-capacity index is checked against",
    "Scheduler.score": "the reference scorer: the full score tuple of one host, which the "
                       "tests compare the placement walk's choice against",
}


def attributes(root):
    """The names of the ``Attribute`` nodes under ``root``, repeats kept."""
    return [node.attr for node in ast.walk(root) if isinstance(node, ast.Attribute)]


def unreached_methods(modules, outside):
    """The sorted ``Class.method`` names of the non-dunder methods of the
    top-level classes of ``modules`` whose name appears as no attribute in
    ``modules`` outside the method's own body and is not in ``outside``."""
    trees = [ast.parse(source) for source in modules.values()]
    everywhere = collections.Counter(name for tree in trees for name in attributes(tree))
    return sorted(f"{cls.name}.{method.name}"
                  for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for method in cls.body if isinstance(method, ast.FunctionDef)
                  and not method.name.startswith("__") and method.name not in outside
                  and everywhere[method.name] == attributes(method).count(method.name))


def source_modules():
    return {path.name: path.read_text() for path in MODULES}


def test_only_kept_names_are_reached_by_tests_alone():
    """Flags new code only tests reach, and any kept name that is now used."""
    assert unreached(source_modules(), reached_from_outside()) == sorted(KEPT_FOR_TESTS)


def reached_by_perfbench():
    """The attribute names in ``perfbench/*.py``: a local variable there named
    like a method does not reach it either."""
    return {name for tree in perfbench_trees() for name in attributes(tree)}


def test_only_kept_methods_are_reached_by_tests_alone():
    assert unreached_methods(source_modules(), reached_by_perfbench()) == sorted(KEPT_METHODS)


def test_detects_an_unreached_method():
    modules = source_modules()
    modules["core.py"] += ("\n\nclass Planted:\n    def planted(self, n):\n"
                           "        return self.planted(n - 1) if n else 0\n")
    assert unreached_methods(modules, reached_by_perfbench()) == sorted(
        ["Planted.planted", *KEPT_METHODS])


def test_detects_a_method_shadowed_by_a_local():
    """A local variable named like a method does not reach it."""
    modules = source_modules()
    modules["core.py"] += "\n\nclass Planted:\n    def planted(self):\n        return 0\n"
    modules["sim.py"] += "\n\ndef shadow(n):\n    planted = n\n    return planted\n"
    assert unreached_methods(modules, reached_by_perfbench()) == sorted(
        ["Planted.planted", *KEPT_METHODS])


def test_detects_an_unreached_function():
    modules = source_modules()
    modules["sim.py"] += "\n\ndef planted(pool):\n    return planted(pool)\n"
    assert "planted" in unreached(modules, reached_from_outside())


def imports_heapq(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "heapq"
               for node in ast.walk(ast.parse(source)))


def test_one_event_loop():
    """Only the simulator keeps an event heap: every replay, the two-lifetime
    experiment's too, runs on its loop."""
    assert [name for name, source in source_modules().items() if imports_heapq(source)] == [
        "sim.py"]
