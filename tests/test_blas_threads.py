"""The BLAS thread count: one by default, and output never depends on it.

Each test starts fresh `python` children, since a BLAS thread pool is
fixed when numpy is first imported.  No child runs more than two threads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veronese

SRC = str(Path(veronese.__file__).resolve().parent.parent)


def _child(args, **env_vars):
    """stdout of `python args`; an env var given as None is removed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("field, n", [("real", 12), ("complex", 8)])
def test_report_does_not_depend_on_the_blas_thread_count(field, n):
    # N = d^2 K alpha entries per point: 12,960 at real 12 and 20,480 at complex 8,
    # above the size where OpenBLAS splits a dot product over its threads
    argv = ["-m", "veronese.cli", "report", "--field", field, "--n", str(n),
            "--samples", "40", "--format", "json"]
    one, two = (_child(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("field, n", [("real", 12), ("complex", 8)])
def test_cloud_does_not_depend_on_the_blas_thread_count(field, n):
    # each block's (p, M) @ (M, M K) product with the stack is large enough for
    # OpenBLAS to split over its threads
    argv = ["-m", "veronese.cli", "cloud", "--field", field, "--n", str(n),
            "--samples", "2000"]
    one, two = (_child(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("command", ["report --field real --n 3", "verify --n-max 3"])
def test_long_sample_runs_do_not_depend_on_the_blas_thread_count(command):
    # 20,000 samples reach the Cholesky frame and the (p, M) @ (M, M K) products
    # in chunks of hundreds of points (650 at real n=3)
    argv = ["-m", "veronese.cli", *command.split(), "--samples", "20000"]
    one, two = (_child(argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


# veronese itself loads no numpy (its names load on first use); quadmap does
THREADS_AFTER_IMPORT = """
import os
import veronese.quadmap
task = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(task)) if os.path.isdir(task) else "-")
"""


def test_import_defaults_to_one_blas_thread():
    value, threads = _child(["-c", THREADS_AFTER_IMPORT], OPENBLAS_NUM_THREADS=None).split()
    assert value == "1"
    if threads != "-":  # no /proc to count threads in
        assert threads == "1"


def test_a_callers_thread_count_wins():
    value, _ = _child(["-c", THREADS_AFTER_IMPORT], OPENBLAS_NUM_THREADS="2").split()
    assert value == "2"


def test_thread_default_precedes_every_import():
    # import sorting must not move the default behind the imports that load numpy
    body = ast.parse((Path(SRC) / "veronese" / "__init__.py").read_text()).body
    lines = [ast.unparse(node) for node in body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             or isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    default = "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"
    assert lines[:2] == ["import os", default]
    assert lines.count(default) == 1
