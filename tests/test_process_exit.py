"""The CLI process ends in one place: the os._exit of cli.run, once stdout and
stderr are flushed.  No other function of the package reads os._exit, none
reads sys.exit, and none redirects a stream underneath its file object with
os.dup2."""

import ast

import pytest

from test_private_names import ROOT

PACKAGE = sorted((ROOT / "src" / "veronese").glob("*.py"))
WATCHED = {("os", "_exit"), ("sys", "exit"), ("os", "dup2")}


def exits(source: str) -> list[str]:
    """"<function>: <module>.<name>" for every read of os._exit, sys.exit or
    os.dup2 (an attribute or a from-import), named by the innermost enclosing
    function ("<module>" outside any)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in WATCHED):
            found.append(f"{scope}: {node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom):
            found.extend(f"{scope}: {node.module}.{alias.name}" for alias in node.names
                         if (node.module, alias.name) in WATCHED)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_finds_exits():
    assert exits("import os\ndef run():\n    os._exit(0)") == ["run: os._exit"]
    assert exits("import sys\nsys.exit(2)") == ["<module>: sys.exit"]
    assert exits("def f():\n    def g():\n        os.dup2(1, 2)\n    return g") == ["g: os.dup2"]
    assert exits("from os import _exit as leave\ndef f():\n    leave(1)") == [
        "<module>: os._exit"]
    assert exits("import atexit, os\natexit.register(os._exit)") == ["<module>: os._exit"]
    assert exits("import os, sys\nos.exit(0)\nsys._exit(0)\nos.path.exists('x')") == []


@pytest.mark.parametrize("path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE])
def test_the_process_ends_only_in_cli_run(path):
    assert exits(path.read_text()) == (["run: os._exit"] if path.name == "cli.py" else [])
