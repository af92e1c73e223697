"""The benchmark's correctness gate refuses every `verify` run whose claim ids
differ from its `expected_claims`; this finds such a change in the tests first."""

import json
import sys
import types

import pytest

from veronese.cli import main

from test_private_names import ROOT

WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, run from its text so that no bytecode is written
    beside it; it imports no numpy and nothing of the package."""
    module = types.ModuleType("perfbench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclass looks itself up
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("n_max", range(2, 7))
def test_verify_reports_the_claims_the_benchmark_expects(n_max, workloads, capsys):
    assert main(["verify", "--n-max", str(n_max), "--samples", "20", "--format", "json"]) == 0
    ids = [entry["claim_id"] for entry in json.loads(capsys.readouterr().out)]
    assert sorted(ids) == sorted(workloads.expected_claims(n_max))
