"""No command loads numpy.random: the package draws its samples from its own
stream, so no run pays for numpy.random's import, nor for the OpenSSL hash
module (_hashlib) that numpy.random's bit generators pull in through secrets."""

import ast

import pytest

from test_cli import LOADED_MODULES, _python
from test_private_names import ROOT

MODULES = sorted((ROOT / "src" / "veronese").glob("*.py"))
FORBIDDEN = {"numpy.random", "_hashlib"}


def _loaded(args) -> list[str]:
    proc = _python(args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv", [
    ["emit", "--field", "complex", "--n", "3"],
    ["verify", "--n-max", "6", "--samples", "200", "--format", "json"],
    ["report", "--field", "complex", "--n", "2", "--samples", "50"],
    ["cloud", "--field", "real", "--n", "3", "--samples", "50"],
], ids=["emit", "verify", "report", "cloud"])
def test_no_command_loads_numpy_random(argv, tmp_path):
    code, *loaded = _loaded(["-c", LOADED_MODULES, *argv, "--out", str(tmp_path / "out")])
    assert code == "0"
    assert "numpy" in loaded
    assert not FORBIDDEN & set(loaded)


def test_the_exported_names_load_no_numpy_random():
    code = ("import sys, veronese\n"
            "for name in veronese._SOURCES:\n"
            "    getattr(veronese, name)\n"
            "print(len(veronese._SOURCES), *sorted(sys.modules))")
    count, *loaded = _loaded(["-c", code])
    assert int(count) > 0 and "veronese.audit" in loaded
    assert not FORBIDDEN & set(loaded)


def numpy_random_uses(source: str) -> list[str]:
    """Imports of numpy.random and reads of numpy's random attribute, whatever
    name numpy is bound to."""
    tree = ast.parse(source)
    numpy_names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.random"):
                    found.append(f"import {alias.name}")
                elif alias.name.startswith("numpy.") and not alias.asname:
                    numpy_names.add("numpy")  # import numpy.x binds numpy
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").startswith("numpy.random"):
                found.append(f"from {node.module} import ...")
            elif node.module == "numpy" and any(a.name == "random" for a in node.names):
                found.append("from numpy import random")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("numpy.random"):
            found.append(repr(node.value))
    return found


def test_detector_finds_numpy_random():
    assert numpy_random_uses("import numpy as np\nnp.random.default_rng(0)") == ["np.random"]
    assert numpy_random_uses("import numpy\nx = numpy.random") == ["numpy.random"]
    assert numpy_random_uses("import numpy.linalg\nnumpy.random.Philox") == ["numpy.random"]
    assert numpy_random_uses("import numpy.random") == ["import numpy.random"]
    assert numpy_random_uses("from numpy.random import Generator") == [
        "from numpy.random import ..."]
    assert numpy_random_uses("from numpy import random, linalg") == ["from numpy import random"]
    assert numpy_random_uses("import importlib\nimportlib.import_module('numpy.random')") == [
        "'numpy.random'"]
    assert numpy_random_uses("import random\nrandom.random()\nimport numpy as np\nnp.sin") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_package_module_uses_numpy_random(path):
    assert numpy_random_uses(path.read_text()) == []
