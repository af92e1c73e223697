"""No module of the package, its scripts or the test oracles uses another module's
private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (sorted((ROOT / "src" / "veronese").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + [ROOT / "tests" / "oracles.py"])


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "veronese"


def private_uses(source: str) -> list[str]:
    """Private names reached through an import of another package module."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "veronese":
                    imported.add(alias.asname or "veronese")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(ast.unparse(node))
    return found


def test_detector_finds_private_uses():
    assert private_uses("from veronese.cli import _render_entries") == [
        "from veronese.cli import _render_entries"]
    assert private_uses("from . import geometry\ngeometry._tangent_bases(p, r, f)") == [
        "geometry._tangent_bases"]
    assert private_uses("import veronese.cli\nveronese.cli._fmt(1.0)") == ["veronese.cli._fmt"]
    assert private_uses("import numpy as np\nnp._private\nself._cache") == []
    assert private_uses("from . import geometry\ngeometry.tangent_bases.__doc__") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text()) == []
