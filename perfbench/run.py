"""Benchmark of the `veronese` CLI: end-to-end times from outside, layer times from a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_OR_FILE_A DIR_OR_FILE_B
    python3 perfbench/run.py --selftest

Run from anywhere; it works on the checkout that holds this file and imports
veronese from that checkout's src/.  A run repeats passes over the
workload's commands (see workloads.py) for about --seconds, then prints a
summary and, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 runs every command as a child process and times it from launch
to exit; CPU time and peak RSS come from os.wait4.  Every pass runs right
after the fixed work of reference.py, and every other pass also times one
set-up probe (`veronese emit` at the workload's top levels).  Metrics are
medians over the passes (setup_s: over the probes); the times are measured
over the reference's times, in units of REFERENCE_S.

--trace 1 runs every command in-process under perfbench/tracer.py and
reports per-layer metrics: medians over passes, except the tracemalloc
peaks, which come from one extra traced call in the first pass.

Every op's output goes through the correctness gate (workloads.check)
outside the timed region; a failed op counts in `failed`.  Each run writes a
record (environment, per-pass values, per-op output digests) under
perfbench/out/records/, and a traced run writes its spans under
perfbench/out/spans/.  --compare prints, per workload and metric, the
medians and quartiles of two sets of such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import tracer
import workloads
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_PASSES = 3          # a median needs a few passes even with tiny --seconds
MIN_PROBES = 5          # set-up probes per run, for the median of setup_s
RUN_DEADLINE_S = 165.0  # every op is killed by then; a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# On a shared host the speed of a CPU wanders by up to 1.5x within minutes, and
# for minutes at a time, as other tenants load it.  So every pass runs right
# after the fixed work of reference.py, and a pass's times are reported over the
# reference's, in units of REFERENCE_S: about the reference's wall time on the
# host this benchmark was tuned on (2-vCPU Xeon VM).  On that host, over ten
# runs of a workload, the middle half of the measured pass times spread by
# 4-19% of their median and that of the scaled ones by 1-6.5%; two sets of ten
# runs 20 minutes apart, timed without the reference, had medians 21-25% apart.
REFERENCE = ROOT / "perfbench" / "reference.py"
REFERENCE_S = 0.35
SCALED = ("wall_s", "cpu_s", "setup_s")

# per-function statistics reported with --trace 1, beside the per-layer ones
FUNCTION_METRICS = {
    "geometry.curvature_field": ("self_s", "incl_s", "calls", "points"),
    "quadmap.evaluate": ("self_s", "calls", "points"),
    "quadmap.norm_identity_residual": ("incl_s",),
    "measure.global_invariants": ("self_s", "incl_s"),
    "audit.fiber_checks": ("incl_s",),
    "audit.diagram_check": ("incl_s",),
    "audit.run_claim_audit": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"self_s": "s", "incl_s": "s", "calls": "count", "points": "count",
         "peak_mb": "MB", "us_per_point": "us", "bytes_out": "bytes",
         "traced_s": "s", "untraced_s": "s", "overhead_s": "s", "coverage": "ratio",
         "failed_calls": "count"}
PER_LAYER = (
    [f"{layer}.self_s" for layer in tracer.LAYERS]
    + [f"{fn}.{stat}" for fn, stats in FUNCTION_METRICS.items() for stat in stats]
    + ["sampling.points", "geometry.curvature_field.us_per_point", "cli.bytes_out",
       "trace.traced_s", "trace.untraced_s", "trace.overhead_s", "trace.coverage",
       "trace.failed_calls"]
    + [f"{layer}.peak_mb" for layer in tracer.LAYERS]
    + ["geometry.curvature_field.peak_mb"]
)


def unit(metric: str) -> str:
    return END_TO_END.get(metric) or UNITS[metric.rsplit(".", 1)[1]]


@dataclass
class OpResult:
    op: Op
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    sha256: str
    failure: str | None
    trace: dict | None = None

    def to_dict(self) -> dict:
        return {"op": self.op.label, "argv": self.op.argv("OUT"), "exit": self.exit_code,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s, "rss_mb": self.rss_mb,
                "sha256": self.sha256, "failure": self.failure}


class Runner:
    """Launches ops as child processes, one at a time, and gates their outputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _launch(self, argv: list[str], stdout: Path):
        """Run one child to completion; (exit code, wall s, cpu s, peak RSS MiB, timed out)."""
        killed = threading.Event()
        with open(stdout, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=sink, cwd=ROOT,
                                    env=self.env)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, killed.is_set())

    def output(self, op: Op) -> Path:
        """The file holding the output of the op that ran last."""
        return self.workdir / ("cloud.csv" if op.writes_file else "stdout")

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of reference.py."""
        code, wall, cpu, _, timed_out = self._launch([str(REFERENCE)], self.workdir / "stdout")
        if timed_out or code != 0:
            raise RuntimeError(f"reference.py failed (exit code {code}, timed out {timed_out})")
        return wall, cpu

    def run(self, op: Op) -> OpResult:
        (self.workdir / "cloud.csv").unlink(missing_ok=True)
        code, wall, cpu, rss, timed_out = self._launch(
            ["-m", "veronese.cli", *op.argv(str(self.workdir / "cloud.csv"))],
            self.workdir / "stdout")
        failure = "timeout" if timed_out else workloads.check(op, code, self.output(op))
        digest = _sha256(self.output(op)) if code == 0 else ""
        return OpResult(op, code, wall, cpu, rss, digest, failure)

    def run_traced(self, op: Op, memory: bool, traced_first: bool) -> OpResult:
        result_file = self.workdir / "trace.json"
        argv = [str(ROOT / "perfbench" / "tracer.py"), "--out", str(result_file)]
        argv += ["--memory"] * memory + ["--traced-first"] * traced_first
        code, wall, cpu, rss, timed_out = self._launch(
            argv + ["--", *op.argv(str(self.workdir / "cloud.csv"))], self.workdir / "stdout")
        if timed_out or code != 0:
            return OpResult(op, code, wall, cpu, rss, "", "timeout" if timed_out
                            else f"tracer exit code {code}")
        trace = json.loads(result_file.read_text())
        failure = workloads.check(op, trace["traced"]["exit"], result_file.with_suffix(".output"))
        if failure is None and trace["traced"]["sha256"] != trace["untraced"]["sha256"]:
            failure = "traced and untraced outputs differ"
        return OpResult(op, trace["traced"]["exit"], wall, cpu, rss,
                        trace["traced"]["sha256"], failure, trace)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def measure_plain(runner: Runner, workload, seed: int, seconds: float, tiny: bool):
    """Passes of child-process ops, each right after a run of reference.py, with
    a set-up probe between the two before every other pass.

    Returns ({metric: value per pass or probe}, {metric: measured seconds per
    pass or probe}, op results); the SCALED values are measured over the
    reference, times REFERENCE_S.
    """
    results = [runner.run(op) for op in workload.probes(tiny)]   # warm-up, not timed
    runner.reference()
    samples = {name: [] for name in END_TO_END}
    measured = {name: [] for name in SCALED + ("reference_wall_s", "reference_cpu_s")}

    def reference() -> tuple[float, float]:
        wall, cpu = runner.reference()
        measured["reference_wall_s"].append(wall)
        measured["reference_cpu_s"].append(cpu)
        return wall, cpu

    def probe(reference_wall: float) -> None:
        ops = [runner.run(op) for op in workload.probes(tiny)]
        results.extend(ops)
        measured["setup_s"].append(sum(r.wall_s for r in ops))
        samples["setup_s"].append(REFERENCE_S * measured["setup_s"][-1] / reference_wall)

    start = time.monotonic()
    while True:
        began = time.monotonic()
        reference_wall, reference_cpu = reference()
        if len(samples["wall_s"]) % 2 == 0:
            probe(reference_wall)
        ops = [runner.run(op) for op in workload.ops(seed, len(samples["wall_s"]), tiny)]
        results.extend(ops)
        measured["wall_s"].append(sum(r.wall_s for r in ops))
        measured["cpu_s"].append(sum(r.cpu_s for r in ops))
        samples["wall_s"].append(REFERENCE_S * measured["wall_s"][-1] / reference_wall)
        samples["cpu_s"].append(REFERENCE_S * measured["cpu_s"][-1] / reference_cpu)
        samples["peak_rss_mb"].append(max(r.rss_mb for r in ops))
        last = time.monotonic() - began
        if runner.remaining() < 2 * last:
            break
        if len(samples["wall_s"]) >= MIN_PASSES and time.monotonic() - start + last > seconds:
            break
    while len(samples["setup_s"]) < MIN_PROBES and runner.remaining() > 30:
        probe(reference()[0])
    return samples, measured, results


def _merge_spans(traces: list[dict], key: str) -> list[list]:
    """Spans of several ops in one list, with op ids and parent indices made global."""
    merged = []
    for op_id, trace in enumerate(traces):
        offset = len(merged)
        for span in trace[key] or []:
            span = list(span)
            span[tracer.OP] = op_id
            if span[tracer.PARENT] >= 0:
                span[tracer.PARENT] += offset
            merged.append(span)
    return merged


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (memory metrics only if it has them)."""
    funcs, layers = tracer.summarize(_merge_spans(traces, "spans"))
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "points": 0, "failed": 0}
    values = {f"{layer}.self_s": layers[layer]["self_s"] for layer in tracer.LAYERS}
    for fn, stats in FUNCTION_METRICS.items():
        for stat in stats:
            values[f"{fn}.{stat}"] = funcs.get(fn, empty)[stat]
    curvature = funcs.get("geometry.curvature_field", empty)
    traced_s = sum(t["traced"]["seconds"] for t in traces)
    untraced_s = sum(t["untraced"]["seconds"] for t in traces)
    values.update({
        "sampling.points": layers["sampling"]["points"],
        "geometry.curvature_field.us_per_point":
            1e6 * curvature["self_s"] / curvature["points"] if curvature["points"] else 0.0,
        "cli.bytes_out": sum(t["bytes_out"] for t in traces),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.coverage": sum(layer["self_s"] for layer in layers.values()) / traced_s,
        "trace.failed_calls": sum(stats["failed"] for stats in funcs.values()),
    })
    if any(t["memory_spans"] is not None for t in traces):
        mem_funcs, mem_layers = tracer.summarize(_merge_spans(traces, "memory_spans"))
        for layer in tracer.LAYERS:
            values[f"{layer}.peak_mb"] = mem_layers[layer]["peak_bytes"] / 2**20
        values["geometry.curvature_field.peak_mb"] = mem_funcs.get(
            "geometry.curvature_field", {"peak_bytes": 0})["peak_bytes"] / 2**20
    return values


def measure_traced(runner: Runner, workload, seed: int, seconds: float, tiny: bool):
    """Traced passes, the first with tracemalloc peaks; the order of the traced and
    untraced calls alternates between passes.

    Returns ({metric: value per pass}, op results, spans per pass).
    """
    samples = {name: [] for name in PER_LAYER}
    results, spans = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        ops = [runner.run_traced(op, memory=not spans, traced_first=len(spans) % 2 == 1)
               for op in workload.ops(seed, len(spans), tiny)]
        results.extend(ops)
        traces = [r.trace for r in ops if r.trace is not None]
        spans.append(_merge_spans(traces, "spans"))
        if len(traces) == len(ops):
            for name, value in layer_metrics(traces).items():
                samples[name].append(value)
        last = time.monotonic() - began
        if runner.remaining() < 2 * last:
            break
        if len(spans) >= MIN_PASSES and time.monotonic() - start + last > seconds:
            break
    return samples, results, spans


# Run in a child, so that the benchmark process itself never imports numpy.
_NUMPY_INFO = """import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (KeyError, TypeError, AttributeError):
    blas = {}
print(json.dumps({"numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "veronese").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    numpy_info = subprocess.run([sys.executable, "-c", _NUMPY_INFO], capture_output=True,
                                text=True, timeout=60, check=False)
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **(json.loads(numpy_info.stdout) if numpy_info.returncode == 0 else {}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read directly, no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        quiet: bool = False) -> dict:
    """One benchmark run; returns its record, whose 'result' is the final JSON line."""
    workload = WORKLOADS[workload_name]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    spans, measured = None, {}
    try:
        runner = Runner(workdir)
        if trace:
            samples, results, spans = measure_traced(runner, workload, seed, seconds, tiny)
        else:
            samples, measured, results = measure_plain(runner, workload, seed, seconds, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {}
    for name, values in samples.items():
        if values:
            q1, median, q3 = _quartiles(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
            if measured.get(name):
                summary[name]["measured_median_s"] = statistics.median(measured[name])
    failed = sum(r.failure is not None for r in results)
    result = {
        "correct": failed == 0 and len(summary) == len(samples),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": unit(name)}
                    for name, s in summary.items()},
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}-{stamp}"
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "finished_utc": stamp, "environment": environment(),
        "reference_s": REFERENCE_S, "summary": summary, "samples": samples,
        "measured": measured, "ops": [r.to_dict() for r in results],
        "result": result,
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / "spans").mkdir(exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "failed", "points", "peak_bytes"]
        (OUT / "spans" / f"{stem}.json").write_text(
            json.dumps({"fields": fields, "passes": spans}))
    if not quiet:
        _print_summary(record)
    return record


def _print_summary(record: dict) -> None:
    result = record["result"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops {attempted}  failed {failed}  error_rate {failed / attempted:.4g}")
    for op in record["ops"]:
        if op["failure"]:
            print(f"  FAILED {op['op']}: {op['failure']}")
    reference = record.get("measured", {}).get("reference_wall_s")
    if reference:
        print(f"  reference.py: median {statistics.median(reference):.6g} s wall over "
              f"{len(reference)} runs; scaled times are in units of {REFERENCE_S} s of it")
    for name, s in record["summary"].items():
        measured = (f", measured median {s['measured_median_s']:.6g} s"
                    if "measured_median_s" in s else "")
        print(f"  {name:<42} {s['median']:>14.6g} {unit(name):<6} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}{measured}]")
    if record["trace"] and "trace.traced_s" in record["summary"]:
        traced = record["summary"]["trace.traced_s"]["median"]
        shares = {layer: record["summary"][f"{layer}.self_s"]["median"] / traced
                  for layer in tracer.LAYERS}
        print("  layer self time as a share of traced wall time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))


def _load_records(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = (json.loads(f.read_text()) for f in files)
    return [rec for rec in records if "result" in rec and not rec["tiny"]]


def compare(path_a: Path, path_b: Path) -> None:
    """Medians and quartiles per workload and metric of two sets of run records."""
    sets = [_load_records(path_a), _load_records(path_b)]
    keys = sorted({(r["workload"], name) for recs in sets for r in recs
                   for name in r["result"]["metrics"]})
    print(f"A = {path_a} ({len(sets[0])} runs), B = {path_b} ({len(sets[1])} runs)")
    print(f"{'workload':<13} {'metric':<42} {'A median':>12} {'A q1..q3':>23} "
          f"{'B median':>12} {'B q1..q3':>23} {'B/A':>7}")
    for workload, name in keys:
        cells, medians = [], []
        for recs in sets:
            values = [r["result"]["metrics"][name]["value"] for r in recs
                      if r["workload"] == workload and name in r["result"]["metrics"]]
            if not values:
                cells.append(f"{'-':>12} {'':>23}")
                medians.append(None)
                continue
            q1, median, q3 = _quartiles(values)
            medians.append(median)
            cells.append(f"{median:>12.6g} {f'{q1:.5g}..{q3:.5g}':>23}")
        ratio = (f"{medians[1] / medians[0]:>7.3f}" if None not in medians and medians[0]
                 else f"{'-':>7}")
        print(f"{workload:<13} {name:<42} {cells[0]} {cells[1]} {ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "veronese" / "cli.py").is_file():
        print(f"error: no veronese sources at {SRC / 'veronese'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
