"""No einsum in the package or its scripts contracts more than two arrays at once.

numpy evaluates an einsum of three or more operands in one unplanned pass
over every index, which made it the bulk of a curvature run and of
evaluate; the kernels spell each contraction as a batched product of two
arrays instead.  No file there forms an explicit inverse either: a
change of frame is a substitution against the triangular factor, not a
product with np.linalg.inv of it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "veronese").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def wide_einsums(source: str) -> list[str]:
    """einsum calls with more than two array operands (or a starred argument list)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum" or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            operands = len(node.args) - 1
        else:  # interleaved form: operand, sublist, operand, sublist, ...
            operands = (len(node.args) + 1) // 2
        if operands > 2 or any(isinstance(arg, ast.Starred) for arg in node.args):
            found.append(ast.unparse(node))
    return found


def inverse_calls(source: str) -> list[str]:
    """Calls of a function named inv (np.linalg.inv, or inv imported bare)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "inv":
                found.append(ast.unparse(node))
    return found


def test_detector_finds_wide_einsums():
    assert wide_einsums("np.einsum('kij,pi,pbj->pbk', a, x, b)") == [
        "np.einsum('kij,pi,pbj->pbk', a, x, b)"]
    assert wide_einsums("einsum(a, [0, 1], x, [1], b, [0])") == [
        "einsum(a, [0, 1], x, [1], b, [0])"]
    assert wide_einsums("np.einsum('pi,pi->p', *ops)") == ["np.einsum('pi,pi->p', *ops)"]
    assert wide_einsums("np.einsum('pi,pi->p', v, v)\nnp.einsum(a, [0, 1], b, [1])") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_wide_einsum(path):
    assert wide_einsums(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_no_explicit_inverse(path):
    assert inverse_calls("np.linalg.inv(r)\ninv(r)\nnp.linalg.solve(r, b)") == [
        "np.linalg.inv(r)", "inv(r)"]
    assert inverse_calls(path.read_text()) == []
