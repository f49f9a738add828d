"""Static hygiene checks over the package source and the tests (stdlib
``ast`` only)."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit(c)\n"
    assert unused_imports(src) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def uses(source: str):
    """The names a source uses: names it reads or writes, attributes, imported
    names and string constants (``getattr`` and ``mock.patch`` look methods
    up by string). Words in docstrings and comments are no use."""
    out = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def dead_definitions(defining, naming):
    """Functions, classes and methods (dunders aside) that the ``defining``
    sources define and that no source in ``naming`` uses."""
    defined = set()
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.add(node.name)
    used = Counter()
    for source in naming:
        used.update(uses(source))
    return sorted(name for name in defined if not used[name])


def test_detects_a_dead_definition():
    src = ("def used():\n    pass\n\ndef dead():\n    pass\n\n"
           "class K:\n    def __init__(self):\n        pass\n\n"
           "    def m(self):\n        used()\n")
    assert dead_definitions([src], [src, "K().m()"]) == ["dead"]
    # a docstring, a comment or an argument named like a definition is no use
    assert dead_definitions([src], [src, '"""K m dead"""\n# dead\ndef f(dead): pass\n']) \
        == ["K", "dead", "m"]
    # an attribute, an imported name and a string lookup each are one
    assert dead_definitions([src], [src, "from x import K\nk.m\ngetattr(k, 'dead')\n"]) == []


def test_every_definition_is_named_elsewhere():
    naming = [p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    assert dead_definitions([p.read_text() for p in SRC.glob("*.py")], naming) == []


# Definitions that no run uses but tests do: the acceptance tests' oracle
# and its step, single-law evaluation and the prober's ancestor query, and
# the trace's record filter.
TESTS_ONLY = ["CCOracle", "evaluate_law", "lca", "of_type", "step"]


def test_definitions_named_only_by_tests_are_the_allowed_ones():
    naming = [p.read_text() for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")]
    assert dead_definitions([p.read_text() for p in SRC.glob("*.py")], naming) == TESTS_ONLY
