"""No function of the package or the test oracles calls itself by name: a
recursive call through a module-level name reaches whatever that name is bound
to, a patched or cached wrapper included, not the function being run."""

import ast

import pytest

from test_private_names import ROOT, SOURCES


def self_calls(source: str) -> list[str]:
    """Names of the functions whose bodies call the function's own name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name for call in ast.walk(node)):
            found.append(node.name)
    return found


def test_detector_finds_self_calls():
    assert self_calls("def build(n):\n    return build(n - 1)") == ["build"]
    assert self_calls("async def f():\n    await f()") == ["f"]
    assert self_calls("def f(x):\n    def g():\n        return f(x)\n    return g") == ["f"]
    assert self_calls("def f(x):\n    return g(x)\ndef g(x):\n    return x") == []
    assert self_calls("def f(x):\n    return f") == []  # a reference, not a call


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text()) == []
