"""Self-test of the benchmark: `python3 perfbench/run.py --selftest`.

Runs every workload at tiny size, traced and untraced, and checks that every
metric of BENCHMARK.json is reported and that no op fails.  Feeds corrupted
verify and cloud outputs to the gate and checks that both count as failures.
Checks that the traced, untraced and plain-CLI outputs of an op are byte
identical.
"""

from __future__ import annotations

import json
import resource
import shutil
import tempfile
from pathlib import Path

import run
import workloads
from workloads import WORKLOADS


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _corruptions(runner: run.Runner, failures: list[str]) -> None:
    verify = WORKLOADS["audit_full"].ops(seed=1, pass_index=0, tiny=True)[0]
    cloud = WORKLOADS["cloud_export"].ops(seed=1, pass_index=0, tiny=True)[0]
    outputs = {}
    for op in (verify, cloud):
        result = runner.run(op)
        _expect(result.failure is None, f"gate accepts {op.label}", failures)
        outputs[op] = runner.output(op).read_text()
    corrupt = runner.workdir / "corrupt"

    def rejects(op, text: str, exit_code: int = 0) -> bool:
        corrupt.write_text(text)
        return workloads.check(op, exit_code, corrupt) is not None

    entries = json.loads(outputs[verify])
    entries[0]["verdict"] = "MISMATCH"
    _expect(rejects(verify, json.dumps(entries)),
            "gate rejects verify output with a MISMATCH verdict", failures)
    _expect(rejects(verify, json.dumps(entries[1:])),
            "gate rejects verify output with a claim missing", failures)
    _expect(rejects(verify, outputs[verify], exit_code=1),
            "gate rejects a nonzero exit code", failures)

    rows = outputs[cloud].splitlines()
    first = [float(v) for v in rows[0].split(",")]
    largest = max(range(len(first)), key=lambda i: abs(first[i]))
    first[largest] *= 1.0 + 1e-9    # moves the point at least 1e-9 / K off the sphere
    _expect(rejects(cloud, "\n".join([",".join(map(repr, first))] + rows[1:]) + "\n"),
            "gate rejects a cloud point moved off the unit sphere", failures)
    _expect(rejects(cloud, "\n".join(rows[:-1]) + "\n"),
            "gate rejects a cloud with a row missing", failures)


def _digests(runner: run.Runner, failures: list[str]) -> None:
    for name, workload in WORKLOADS.items():
        op = workload.ops(seed=2, pass_index=0, tiny=True)[0]
        plain = runner.run(op)
        traced = runner.run_traced(op, memory=True, traced_first=False)
        same = (traced.trace is not None
                and plain.sha256 == traced.trace["untraced"]["sha256"]
                == traced.trace["traced"]["sha256"])
        _expect(same, f"{name}: CLI, untraced and traced outputs are identical", failures)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json lists the benchmark's workloads", failures)
    _expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
            "BENCHMARK.json lists the end-to-end metrics", failures)
    _expect([m["name"] for m in spec["per_layer"]] == run.PER_LAYER,
            "BENCHMARK.json lists the per-layer metrics", failures)
    _expect(all(m["unit"] == run.unit(m["name"]) for m in spec["end_to_end"] + spec["per_layer"]),
            "BENCHMARK.json units match the reported units", failures)

    smallest_child_mb = float("inf")
    for name in WORKLOADS:
        for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            record = run.run(name, seed=3, seconds=0, trace=trace, tiny=True, quiet=True)
            smallest_child_mb = min([smallest_child_mb] + [op["rss_mb"] for op in record["ops"]])
            result = record["result"]
            _expect(set(result["metrics"]) == set(expected),
                    f"{name} trace {int(trace)}: every metric reported", failures)
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{name} trace {int(trace)}: {result['attempted']} ops, "
                    f"{result['failed']} failed", failures)

    # A child's ru_maxrss starts at its parent's peak RSS; the benchmark must stay below.
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _expect(own_mb < smallest_child_mb, f"benchmark peak RSS {own_mb:.1f} MiB is below "
            f"every child's ({smallest_child_mb:.1f} MiB)", failures)

    run.OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        runner = run.Runner(Path(workdir))
        _corruptions(runner, failures)
        _digests(runner, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
