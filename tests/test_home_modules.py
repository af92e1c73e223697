"""Every test reads a package name from the module that defines it: a name that
a module only imports is read from its home module, and no module object is
read through another module."""

import ast
import importlib
import inspect

import pytest

from test_private_names import ROOT

TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = {f"veronese.{p.stem}" for p in (ROOT / "src" / "veronese").glob("*.py")
           if p.stem != "__init__"}


def _misplaced(module: str, name: str) -> bool:
    """Whether module.name is a module object, or a function or class defined elsewhere."""
    value = getattr(importlib.import_module(module), name, None)
    if inspect.ismodule(value):
        return True
    if isinstance(value, type) or callable(value):
        return getattr(value, "__module__", module) != module
    return False


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def foreign_reads(source: str) -> list[str]:
    """Reads of a package module's name that is not at home there (see _misplaced)."""
    tree = ast.parse(source)
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if node.module in MODULES and _misplaced(node.module, alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                elif f"{node.module}.{alias.name}" in MODULES:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a; import a.b as c binds c to a.b
                name = alias.name if alias.asname else alias.name.partition(".")[0]
                bound[alias.asname or name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root, _, rest = (_dotted(node.value) or "").partition(".")
            module = ".".join(filter(None, [bound.get(root), rest]))
            if module in MODULES and _misplaced(module, node.attr):
                found.append(ast.unparse(node))
    return found


def test_detector_finds_foreign_reads():
    assert foreign_reads("from veronese import measure\nmeasure.quotient_samples(2, 'real', 3, 0)"
                         ) == ["measure.quotient_samples"]
    assert foreign_reads("from veronese import measure\nmeasure.constants.radius(2)") == [
        "measure.constants"]
    assert foreign_reads("from veronese.measure import global_invariants, quotient_samples") == [
        "from veronese.measure import quotient_samples"]
    assert foreign_reads("import veronese.measure\nveronese.measure.quotient_samples") == [
        "veronese.measure.quotient_samples"]
    assert foreign_reads("from veronese import measure as m\nm.np.pi") == ["m.np"]
    assert foreign_reads("from veronese import audit, sampling\nsampling.quotient_samples\n"
                         "audit.MISMATCH\naudit.ClaimAuditEntry\nsampling.quotient_samples.__doc__"
                         ) == []
    # the package itself re-exports its names by design
    assert foreign_reads("import veronese\nveronese.quotient_samples") == []
    assert foreign_reads("import numpy as np\nnp.linalg.norm") == []


@pytest.mark.parametrize("path", TESTS, ids=[p.relative_to(ROOT).as_posix() for p in TESTS])
def test_tests_read_names_from_their_home_modules(path):
    assert foreign_reads(path.read_text()) == []
