import csv
import errno
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from veronese import cli, construct, geometry, quadmap, sampling
from veronese.audit import run_claim_audit
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


@pytest.mark.parametrize("n_max", range(1, 9))
def test_verify_writes_the_audit_at_its_level(n_max):
    # --n-max is the audit's one level, capped at 6 (the audit caps the complex levels)
    code, out = run_cli(["verify", "--n-max", str(n_max), "--samples", "40", "--seed", "3",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out) == [e.to_dict() for e in
                               run_claim_audit(min(n_max, 6), seed=3, samples=40)]


def test_report_json():
    code, out = run_cli(["report", "--field", "real", "--n", "2",
                         "--samples", "300", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["homothety_factor"] == pytest.approx(2.0)
    assert payload["gauss_bonnet_ratio"] == pytest.approx(1.0, abs=1e-3)
    assert payload["radius_pow4"] == "9/4"


@pytest.mark.parametrize("field,n,samples", [("real", 2, 40), ("complex", 3, 40),
                                             ("real", 12, 5000), ("complex", 8, 5000)],
                         ids=["real-2", "complex-3", "real-12", "complex-8"])
def test_report_takes_one_curvature_pass(field, n, samples, kernel_blocks):
    # the canonical point and the first sample, in one block, at any sample count;
    # the samples' pair gate runs no kernel
    code, _ = run_cli(["report", "--field", field, "--n", str(n), "--samples", str(samples)])
    assert code == 0
    assert kernel_blocks == [2]


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


@pytest.mark.parametrize("field,n", [("real", 1), ("real", 12), ("complex", 1), ("complex", 8)])
def test_a_budget_sized_cloud_block_stays_within_chunk_bytes(field, n):
    # the tracemalloc peak of one block of cloud (draw, evaluate, format) on as many
    # rows as a block holds, after a warm-up block; at least half the budget, so
    # that the per-value figure does not overstate the block by much either
    map_ = construct.build(n, field)
    length = quadmap.CHUNK_BYTES // (cli.CLOUD_VALUE_BYTES * map_.component_count)
    def block(rows, start):
        return cli._format_rows(quadmap.evaluate(map_, sampling.quotient_samples(
            n, field, rows, 5, start)))

    block(1, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        block(length, 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert quadmap.CHUNK_BYTES // 2 <= peak <= quadmap.CHUNK_BYTES, (length, peak)


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


def _python_env() -> dict:
    """The environment of a `python` child that imports veronese from this checkout."""
    env = dict(os.environ)
    src = str(Path(quadmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(args, text=True) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_python_env(),
                          capture_output=True, text=text, timeout=120)


def _peak_kb(argv) -> int:
    """Peak RSS of a fresh child that runs the command line: ru_maxrss of a child
    starts at the peak of its parent, here the whole pytest run."""
    proc = _python(["-c", PEAK_RSS, *argv])
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


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "3", "--seed", "0"],
    ["verify", "--n-max", "3", "--seed", "5"],
    ["report", "--field", "real", "--n", "3"],
    ["report", "--field", "complex", "--n", "2"],
], ids=["verify-seed-0", "verify-seed-5", "report-real", "report-complex"])
def test_verify_and_report_do_not_depend_on_the_sample_count(argv):
    # --samples sizes the integrals' pair gate; each integral reads its key's first
    # row, so a value that grows or averages with the sample count shows here
    outputs = {run_cli(argv + ["--samples", str(samples), "--format", "json"])
               for samples in (1, 2, 300)}
    assert len(outputs) == 1
    assert next(iter(outputs))[0] == 0


def test_usage_errors_exit_2():
    assert main(["unknown-command"]) == 2
    assert main(["emit", "--field", "quaternionic", "--n", "1"]) == 2
    assert main(["emit", "--field", "real"]) == 2
    code, _ = run_cli(["emit", "--field", "real", "--n", "99"])
    assert code == 2
    code, _ = run_cli(["verify", "--n-max", "0"])
    assert code == 2
    assert main(["report", "--field", "real", "--n", "2", "--metric", "projective"]) == 2
    # fixed values, not options: the homothety tolerance and emit's JSON
    assert main(["verify", "--n-max", "2", "--samples", "50", "--tol", "1e-6"]) == 2
    assert main(["emit", "--field", "real", "--n", "1", "--format", "json"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "1", "--samples", "10"],
    ["report", "--field", "real", "--n", "1", "--samples", "10"],
    ["cloud", "--field", "real", "--n", "1", "--samples", "10"],
], ids=["verify", "report", "cloud"])
def test_a_seed_outside_the_philox_key_space_is_a_usage_error(argv, capsys):
    # a stream reads the low 64 bits of its key, so -1 and 2**64 would alias 2**64 - 1 and 0
    for seed in (-1, 2**64):
        assert main(argv + ["--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --seed must be in 0..2**64-1, got {seed}\n"
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0


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


@pytest.mark.parametrize("argv,module,compute", [
    (["verify", "--n-max", "6", "--samples", "300000"], "audit", "run_claim_audit"),
    (["report", "--field", "real", "--n", "12", "--samples", "100000"],
     "measure", "global_invariants"),
], ids=["verify", "report"])
def test_an_unwritable_out_exits_before_the_run(argv, module, compute, tmp_path, capsys,
                                                monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was opened")

    monkeypatch.setattr(importlib.import_module(f"veronese.{module}"), compute, never)
    target = tmp_path / "missing-dir" / "out.txt"
    assert main(argv + ["--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "2", "--samples", "0"],
    ["report", "--field", "real", "--n", "2", "--samples", "-3"],
    ["report", "--field", "complex", "--n", "9"],
], ids=["verify-samples", "report-samples", "report-level"])
def test_verify_and_report_reject_their_arguments_before_writing(argv, tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


@pytest.fixture
def scaled_level2_map(monkeypatch):
    # the level-2 map scaled by 1.001 no longer lands on the unit sphere
    original = construct.build

    def scaled(n, field):
        map_ = original(n, field)
        return QuadMap(n=n, components=1.001 * map_.components) if n == 2 else map_

    monkeypatch.setattr(construct, "build", scaled)


@pytest.mark.parametrize("argv,field_name", [
    (["verify", "--n-max", "2", "--samples", "50"], "real"),  # the real levels come first
    (["report", "--field", "real", "--n", "2", "--samples", "50"], "real"),
    (["report", "--field", "complex", "--n", "2", "--samples", "50"], "complex"),
], ids=["verify", "report-real", "report-complex"])
def test_broken_map_is_a_failure_not_a_usage_error(argv, field_name, scaled_level2_map, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field_name} level 2: image points are off the unit sphere")


def test_a_nonconstant_integrand_is_a_failure(unbalanced_level2_map, capsys):
    assert main(["report", "--field", "real", "--n", "2", "--samples", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: real level 2: the map is not a congruence on the samples: "
                          "pair deviation ")
    assert err.endswith(", bound 1.000e-12\n")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_verify_keeps_the_claims_measured_before_a_family_fails(scaled_level2_map, capsys):
    # the geometry sweep and the level-2 invariants raise; the 15 entries
    # measured before them are printed
    assert main(["verify", "--n-max", "2", "--samples", "50", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ("error: real level 2: image points are off the unit sphere "
                   "(worst deviation 1.000e-03)\n")
    entries = json.loads(out, parse_constant=_reject_constant)  # strict JSON: no NaN
    measured = [e for e in entries if e["verdict"] != "ERROR"]
    errors = [e for e in entries if e["verdict"] == "ERROR"]
    assert len(measured) == 15
    assert {e["claim_id"] for e in errors} == {
        "homothety", "local_injectivity_real", "local_injectivity_complex",
        "minimality", "isometry_pullback_level2",
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


SEEDS = st.one_of(st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                  st.integers(2**64, 2**70))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["emit", "verify", "report", "cloud"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(_option("n-max", st.integers(-1, 8))))
    else:
        argv.append(draw(_option("field", st.sampled_from(["real", "complex"]))))
        argv.append(draw(_option("n", st.integers(-1, 14))))
    if command != "emit":
        # small sample counts only: the property is about inputs, not scale
        argv.append(draw(_option("samples", st.integers(-2, 40))))
        argv.append(draw(_option("seed", SEEDS)))
    if command in ("verify", "report"):
        argv.append(draw(_option("format", st.sampled_from(["table", "json", "csv"]))))
    return argv


@given(command_lines())
@example(["verify", "--n-max=6", "--samples=40", "--seed=-1", "--format=json"])
@example(["report", "--field=complex", "--n=8", "--samples=1", "--seed=18446744073709551616",
          "--format=csv"])
@example(["emit", "--field=real", "--n=0"])
@example(["cloud", "--field=complex", "--n=9", "--samples=0", "--seed=0"])
@settings(max_examples=100, deadline=None)
def test_every_command_line_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# os._exit raises SystemExit here, so the exit code and the loaded modules can be printed
LOADED_MODULES = """
import os, runpy, sys
def exit_(code):
    raise SystemExit(code)
os._exit = exit_
try:
    runpy.run_module("veronese.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules))
"""


@pytest.mark.parametrize("argv,needed,unused", [
    (["emit", "--field", "real", "--n", "12"], {"veronese.construct"},
     {"veronese.audit", "veronese.geometry", "veronese.measure", "veronese.sampling", "csv"}),
    (["report", "--field", "real", "--n", "2", "--samples", "20", "--format", "json"],
     {"veronese.measure", "veronese.geometry"}, {"veronese.audit", "csv"}),
    (["report", "--field", "real", "--n", "2", "--samples", "20", "--format", "csv"],
     {"veronese.measure", "csv"}, {"veronese.audit"}),
    (["cloud", "--field", "complex", "--n", "2", "--samples", "20"],
     {"veronese.sampling", "veronese.quadmap"},
     {"veronese.audit", "veronese.geometry", "veronese.measure", "csv"}),
], ids=["emit", "report", "report-csv", "cloud"])
def test_a_command_loads_only_the_modules_it_runs(argv, needed, unused, tmp_path):
    proc = _python(["-c", LOADED_MODULES, *argv, "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert needed <= set(loaded)
    assert not unused & set(loaded)


@pytest.mark.parametrize("argv", [
    ["emit", "--field", "complex", "--n", "8"],
    ["verify", "--n-max", "2", "--samples", "50", "--format", "json"],
    ["verify", "--n-max", "0"],
], ids=["emit", "verify", "usage-error"])
def test_a_process_prints_what_main_returns(argv, monkeypatch):
    def no_exit(code):
        raise AssertionError("main must not end the process")

    monkeypatch.setattr(os, "_exit", no_exit)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    proc = _python(["-m", "veronese.cli", *argv], text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.getvalue().encode(), err.getvalue().encode())


@pytest.mark.parametrize("argv,read", [
    # megabytes of rows, far more than a pipe buffers, so a write inside the command fails
    (["cloud", "--field", "real", "--n", "12", "--samples", "5000"], 10),
    # a few hundred bytes, still buffered when the command has written: the flush fails
    (["emit", "--field", "real", "--n", "1"], 0),
], ids=["cloud", "emit"])
def test_a_closed_pipe_exits_1_without_a_traceback(argv, read):
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as a pipe is by default
    proc = subprocess.Popen([sys.executable, "-m", "veronese.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err


WRITE_COMMANDS = [
    ["emit", "--field", "complex", "--n", "1"],
    ["verify", "--n-max", "1", "--samples", "50"],
    ["report", "--field", "real", "--n", "2", "--samples", "50"],
    # rows beyond any stdio buffer, so a write inside the command fails
    ["cloud", "--field", "real", "--n", "12", "--samples", "5000"],
]


def _to_full(argv, unbuffered: bool) -> tuple[int, str]:
    """Exit code and stderr of a process whose stdout is /dev/full, where every
    write fails with ENOSPC.  Its stdout is block-buffered unless `unbuffered`
    sets PYTHONUNBUFFERED=1, whatever the caller's environment holds."""
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "veronese.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", WRITE_COMMANDS, ids=lambda argv: argv[0])
# unbuffered, a write fails inside the command; block-buffered, most fail in the flush
# of run() (an id that names no buffering is an unbuffered run)
@pytest.mark.parametrize("target,unbuffered", [
    ("out", True), ("stdout", True), ("out", False), ("stdout", False),
], ids=["out", "stdout", "buffered-out", "buffered-stdout"])
def test_a_failed_write_is_a_usage_error_without_a_traceback(argv, target, unbuffered):
    if target == "out":
        argv = argv + ["--out", "/dev/full"]
    path = "/dev/full" if target == "out" else "-"
    assert _to_full(argv, unbuffered) == (
        2, f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
# block-buffered, the help text fails in the flush of run(); unbuffered, in its own
# write, which argparse's print_help would drop (exiting 0 with nothing written)
@pytest.mark.parametrize("argv,unbuffered", [
    (["--help"], False), (["verify", "--help"], False),
    (["--help"], True), (["verify", "--help"], True),
], ids=["help", "verify-help", "unbuffered-help", "unbuffered-verify-help"])
def test_help_that_cannot_be_written_is_a_usage_error(argv, unbuffered):
    assert _to_full(argv, unbuffered) == (
        2, f"error: cannot write -: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "0"],
    ["emit", "--field", "real", "--n", "1", "--out", "missing/x"],
    ["report", "--field", "real", "--n", "99"],
], ids=lambda argv: argv[0])
def test_a_usage_error_exits_2_when_stderr_cannot_be_written(argv, tmp_path):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "veronese.cli", *argv], cwd=tmp_path,
                              env=_python_env(), stdout=subprocess.PIPE, stderr=full,
                              timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")


class FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class UnflushableStream(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_family_is_reported_before_a_failed_flush(scaled_level2_map, monkeypatch):
    # run() flushes stdout once main has written the ERROR entries' lines
    def exit_(code):
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["veronese", "verify", "--n-max", "2", "--samples", "50"])
    err = io.StringIO()
    with redirect_stdout(UnflushableStream()), redirect_stderr(err), \
            pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 2
    assert err.getvalue() == (
        "error: real level 2: image points are off the unit sphere (worst deviation 1.000e-03)\n"
        f"error: cannot write -: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--n-max", "2", "--samples", "50"],  # its ERROR entries' lines
    ["report", "--field", "real", "--n", "2", "--samples", "50"],
], ids=lambda argv: argv[0])
def test_a_failure_exits_1_when_stderr_cannot_be_written(argv, scaled_level2_map):
    with redirect_stdout(io.StringIO()), redirect_stderr(FullStream()):
        assert main(argv) == 1
