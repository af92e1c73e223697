import csv
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from veronese.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_emit_real_level1():
    code, out = run_cli(["emit", "--field", "real", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["radius_pow4"] == "1/1"
    assert len(payload["components"]) == 2


def test_emit_to_file(tmp_path):
    target = tmp_path / "map.json"
    code, _ = run_cli(["emit", "--field", "complex", "--n", "2", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["field"] == "complex"
    assert payload["ambient_dim"] == 7
    assert len(payload["components"]) == 8


def test_verify_exits_clean():
    code, out = run_cli(["verify", "--n-max", "2", "--samples", "300", "--seed", "42"])
    assert code == 0
    assert "harmonicity" in out
    assert "MISMATCH" not in out
    assert "0 hard failure(s)" in out


def test_verify_byte_identical_reruns():
    args = ["verify", "--n-max", "3", "--samples", "400", "--seed", "9",
            "--format", "json"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    entries = json.loads(out1)
    assert all(e["verdict"] in {"MATCH", "MISMATCH", "SCALE_DEPENDENT"} for e in entries)


def test_verify_csv_format():
    code, out = run_cli(["verify", "--n-max", "2", "--samples", "200",
                         "--format", "csv", "--seed", "1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["claim_id", "expected", "measured"]
    assert len(rows) > 10


def test_report_json():
    code, out = run_cli(["report", "--field", "real", "--n", "2",
                         "--samples", "300", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["homothety_factor"] == pytest.approx(2.0)
    assert payload["gauss_bonnet_ratio"] == pytest.approx(1.0, abs=1e-3)
    assert payload["radius_pow4"] == "9/4"


def test_report_domain_metric():
    code, out = run_cli(["report", "--field", "real", "--n", "2", "--samples",
                         "200", "--metric", "domain", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_norm_sq_mean"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_cloud_rows_have_unit_norm(tmp_path):
    target = tmp_path / "points.csv"
    code, _ = run_cli(["cloud", "--field", "real", "--n", "2",
                       "--samples", "5000", "--out", str(target)])
    assert code == 0
    rows = np.loadtxt(target, delimiter=",")
    assert rows.shape == (5000, 5)
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-12


def test_cloud_roundtrips_full_precision(tmp_path):
    target = tmp_path / "points.csv"
    run_cli(["cloud", "--field", "complex", "--n", "1", "--samples", "50",
             "--seed", "3", "--out", str(target)])
    again = tmp_path / "again.csv"
    run_cli(["cloud", "--field", "complex", "--n", "1", "--samples", "50",
             "--seed", "3", "--out", str(again)])
    assert target.read_text() == again.read_text()


def test_usage_errors_exit_2():
    assert main(["unknown-command"]) == 2
    assert main(["emit", "--field", "quaternionic", "--n", "1"]) == 2
    assert main(["emit", "--field", "real"]) == 2
    code, _ = run_cli(["emit", "--field", "real", "--n", "99"])
    assert code == 2
    code, _ = run_cli(["verify", "--n-max", "0"])
    assert code == 2
    assert main(["report", "--field", "real", "--n", "2", "--metric", "projective"]) == 2
    for tol in ("-1", "nan", "inf"):
        assert main(["verify", "--n-max", "2", "--samples", "50", "--tol", tol]) == 2


def test_verify_level1_omits_minimality():
    code, out = run_cli(["verify", "--n-max", "1", "--samples", "200", "--format", "json"])
    assert code == 0
    assert {e["claim_id"] for e in json.loads(out)} == {
        "ambient_dimension_sequences", "coefficient_ratio", "diagram_real_restriction",
        "diagram_zero_components", "fiber_invariance_complex", "fiber_invariance_real",
        "fiber_separation_complex", "fiber_separation_real", "harmonicity", "homothety",
        "hopf_factorization", "local_injectivity_complex", "local_injectivity_real",
        "norm_identity_complex", "norm_identity_real", "radius_closed_vs_recursive",
        "radius_level3", "unit_image"}


@pytest.mark.parametrize("argv", [
    ["emit", "--field", "real", "--n", "1"],
    ["verify", "--n-max", "1", "--samples", "50"],
    ["report", "--field", "real", "--n", "1", "--samples", "50"],
    ["cloud", "--field", "complex", "--n", "1", "--samples", "10"],
], ids=["emit", "verify", "report", "cloud"])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.txt"
    assert main(argv + ["--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(target) in err
    assert not target.exists()
