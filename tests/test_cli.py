import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from veronese import construct, geometry, quadmap
from veronese.cli import main
from veronese.quadmap import QuadMap


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


@pytest.mark.parametrize("field,n", [("real", 2), ("complex", 3)])
def test_report_takes_one_curvature_pass(field, n, kernel_blocks):
    # the canonical point alone, then every sample once, block by block
    code, _ = run_cli(["report", "--field", field, "--n", str(n), "--samples", "40"])
    assert code == 0
    assert kernel_blocks == [1, 40]


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


@pytest.mark.parametrize("field,n", [("real", 12), ("complex", 8)])
def test_cloud_does_not_depend_on_block_length(field, n, monkeypatch):
    argv = ["cloud", "--field", field, "--n", str(n), "--samples", "1000", "--seed", "5"]
    code, whole = run_cli(argv)
    assert code == 0
    with monkeypatch.context() as patch:
        patch.setattr(quadmap, "CHUNK_BYTES", 1)  # one row per block
        code, rows = run_cli(argv)
    assert code == 0
    assert rows == whole


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cloud_rejects_a_sample_count_below_one_before_writing(samples, tmp_path, capsys):
    target = tmp_path / "f.csv"
    argv = ["cloud", "--field", "real", "--n", "2", "--samples", samples, "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --samples must be positive\n"
    assert not target.exists()


PEAK_RSS = """
import sys
from veronese.cli import main
code = main(sys.argv[1:])
peak = [line for line in open("/proc/self/status") if line.startswith("VmHWM:")]
print(code, peak[0].split()[1])
"""


def _peak_kb(argv) -> int:
    """Peak RSS of a fresh child that runs the command line: ru_maxrss of a child
    starts at the peak of its parent, here the whole pytest run."""
    env = dict(os.environ)
    src = str(Path(quadmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()
    assert code == "0"
    return int(peak_kb)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_cloud_peak_memory_does_not_grow_with_samples(tmp_path):
    for field, n in (("real", 6), ("complex", 8)):
        peaks = [_peak_kb(["cloud", "--field", field, "--n", str(n), "--samples", str(samples),
                           "--out", str(tmp_path / f"{field}-{samples}.csv")])
                 for samples in (2_000, 20_000)]
        assert peaks[1] <= 1.1 * peaks[0], (field, n, peaks)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv,counts", [
    (["verify", "--n-max", "6"], (2_000, 20_000)),
    (["report", "--field", "real", "--n", "3"], (10_000, 100_000)),
], ids=["verify", "report"])
def test_verify_and_report_peak_memory_does_not_grow_with_samples(argv, counts, tmp_path):
    peaks = [_peak_kb(argv + ["--samples", str(samples), "--format", "json",
                              "--out", str(tmp_path / f"{samples}.json")])
             for samples in counts]
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "6", "--samples", "300"],
    ["verify", "--n-max", "3", "--samples", "250"],
    ["report", "--field", "real", "--n", "2", "--samples", "20001"],
    ["report", "--field", "complex", "--n", "3", "--samples", "500", "--metric", "domain"],
], ids=["verify", "verify-short", "report-long", "report-complex"])
def test_verify_and_report_do_not_depend_on_chunk_length(argv, monkeypatch):
    outputs = []
    for chunk_bytes in (1, 1 << 24):  # one point per chunk, and every point in one
        with monkeypatch.context() as patch:
            patch.setattr(quadmap, "CHUNK_BYTES", chunk_bytes)
            code, out = run_cli(argv + ["--format", "json"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


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


@pytest.fixture
def scaled_level2_map(monkeypatch):
    # the level-2 map scaled by 1.001 no longer lands on the unit sphere
    original = construct.build

    def scaled(n, field):
        map_ = original(n, field)
        return QuadMap(n=n, components=1.001 * map_.components) if n == 2 else map_

    monkeypatch.setattr(construct, "build", scaled)


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "2", "--samples", "50"],
    ["report", "--field", "real", "--n", "2", "--samples", "50"],
    ["report", "--field", "complex", "--n", "2", "--samples", "50"],
], ids=["verify", "report-real", "report-complex"])
def test_broken_map_is_a_failure_not_a_usage_error(argv, scaled_level2_map, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: image points are off the unit sphere")


def test_a_nonconstant_integrand_is_a_failure(varying_scalar_curvature, capsys):
    assert main(["report", "--field", "real", "--n", "2", "--samples", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the image-metric scalar curvature is not constant")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_verify_keeps_the_claims_measured_before_a_family_fails(scaled_level2_map, capsys):
    # the geometry sweep and the level-2 invariants raise; the 17 entries
    # measured before them are printed
    assert main(["verify", "--n-max", "2", "--samples", "50", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: image points are off the unit sphere (worst deviation 1.000e-03)\n"
    entries = json.loads(out, parse_constant=_reject_constant)  # strict JSON: no NaN
    measured = [e for e in entries if e["verdict"] != "ERROR"]
    errors = [e for e in entries if e["verdict"] == "ERROR"]
    assert len(measured) == 17
    assert {e["claim_id"] for e in errors} == {
        "homothety", "minimality", "isometry_pullback_level2",
        "veronese_scalar_curvature", "veronese_alpha_norm_sq",
        "pi_functional_level2", "gauss_bonnet_level2"}
    assert all(e["details"]["error"] == err[len("error: "):-1] for e in errors)
    assert all(e[key] is None for e in errors
               for key in ("expected", "measured", "abs_deviation", "tolerance"))
    # the scale shows in the claims that were measured
    assert {e["claim_id"] for e in measured if e["verdict"] == "MISMATCH"} >= {
        "norm_identity_real", "norm_identity_complex", "unit_image"}


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["emit", "--field", "real", "--n", "12"],
    ["emit", "--field", "complex", "--n", "8"],
    ["verify", "--n-max", "1", "--samples", "50", "--format", "json"],
    ["report", "--field", "real", "--n", "2", "--samples", "50", "--format", "json"],
], ids=["emit-real", "emit-complex", "verify", "report"])
def test_a_json_document_is_written_at_once(argv):
    # json.dump would write once per encoder chunk: thousands of writes for emit
    stream = CountingStream()
    with redirect_stdout(stream):
        assert main(argv) == 0
    assert stream.writes <= 2
    json.loads(stream.getvalue(), parse_constant=_reject_constant)


def test_linalg_error_is_a_failure_not_a_usage_error(monkeypatch, capsys):
    def singular(map_, points):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(geometry, "curvature_field", singular)
    assert main(["report", "--field", "real", "--n", "2", "--samples", "10"]) == 1
    assert capsys.readouterr().err == "error: Singular matrix\n"


def _option(name, values):
    return values.map(lambda value: f"--{name}={value}")


TOLERANCES = st.one_of(st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e-8"]),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
SEEDS = st.one_of(st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                  st.integers(2**64, 2**70))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["emit", "verify", "report", "cloud"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(_option("n-max", st.integers(-1, 8))))
        argv.append(draw(_option("tol", TOLERANCES)))
    else:
        argv.append(draw(_option("field", st.sampled_from(["real", "complex"]))))
        argv.append(draw(_option("n", st.integers(-1, 14))))
    if command != "emit":
        # small sample counts only: the property is about inputs, not scale
        argv.append(draw(_option("samples", st.integers(-2, 40))))
        argv.append(draw(_option("seed", SEEDS)))
    if command != "cloud":
        argv.append(draw(_option("format", st.sampled_from(["table", "json", "csv"]))))
    return argv


@given(command_lines())
@example(["verify", "--n-max=6", "--tol=nan", "--samples=40", "--seed=-1", "--format=json"])
@example(["report", "--field=complex", "--n=8", "--samples=1", "--seed=18446744073709551616",
          "--format=csv"])
@example(["emit", "--field=real", "--n=0", "--format=table"])
@example(["cloud", "--field=complex", "--n=9", "--samples=0", "--seed=0"])
@settings(max_examples=100, deadline=None)
def test_every_command_line_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
