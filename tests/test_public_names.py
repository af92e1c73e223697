"""Every public module-level function or class of the package is used: read by
the package outside its own definition, or exported in veronese.__all__; and
every exported name loads from its module on first use."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import veronese

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "veronese").glob("*.py"))


def public_definitions(source: str) -> list[str]:
    """Names of the public functions and classes defined at the top of a module."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def read_names(source: str) -> set[tuple[str, str | None]]:
    """(name, definition) for every name or attribute read in a module, where
    definition is the top-level function or class the read sits in, if any."""
    found = set()
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add((node.attr, owner))
    return found


def unused(definitions: list[str], reads: set[tuple[str, str | None]],
           exported) -> list[str]:
    used = {name for name, owner in reads if name != owner}
    return [name for name in definitions if name not in used and name not in exported]


def test_detector_finds_unused_definitions():
    source = "def used():\n    pass\n\ndef lonely():\n    lonely()\n\nclass Shown:\n    pass\n"
    reads = read_names(source) | read_names("from m import used\nused()\n")
    assert unused(public_definitions(source), reads, ["Shown"]) == ["lonely"]
    # an import alone is not a read
    assert unused(["f"], read_names("from m import f\n"), []) == ["f"]
    assert unused(["f"], read_names("import m\nm.f(1)\n"), []) == []


def _reads() -> set[tuple[str, str | None]]:
    return set().union(*(read_names(path.read_text()) for path in MODULES))


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_public_definition_is_used(path):
    assert unused(public_definitions(path.read_text()), _reads(), veronese.__all__) == []


@pytest.mark.parametrize("name", veronese.__all__)
def test_every_exported_name_resolves_to_its_definition(name):
    value = getattr(veronese, name)
    assert value.__module__.startswith("veronese.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        veronese.no_such_name


def test_a_submodule_imports_by_name():
    from veronese import geometry

    assert geometry is sys.modules["veronese.geometry"]
    assert geometry.curvature_field is veronese.curvature_field


def test_the_readme_lists_every_exported_name():
    text = " ".join((ROOT / "README.md").read_text().split())
    start = text.index("The package exports ")
    listed = re.findall(r"`(\w+)`", text[start:text.index("each loaded from", start)])
    assert listed == veronese.__all__
