"""Workloads of the veronese benchmark and the correctness gate for their outputs.

A workload is a list of `veronese` CLI commands (ops) that make up one pass.
Command seeds are derived from the benchmark's workload seed and the pass
index, so one workload seed always replays the same commands.

The gate judges each op's output against closed forms computed here, never
against values taken from the library under test.  It reads a cloud export
row by row and imports no numpy: a child process starts with its parent's
peak RSS as its own, so the benchmark process must stay small for the
children's ru_maxrss to mean anything.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REPORT_RATIO_TOL = 1e-9      # relative, closed-form homothety and effective radius
MEAN_CURVATURE_MAX = 1e-6    # the images are minimal
UNIT_NORM_TOL = 1e-12        # every exported image point lies on the unit sphere


@dataclass(frozen=True)
class Op:
    """One `veronese` command of a pass."""

    command: str                 # emit | verify | report | cloud
    field: str | None = None
    n: int | None = None
    n_max: int | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def writes_file(self) -> bool:
        """cloud writes its points to --out; every other op's output is its stdout."""
        return self.command == "cloud"

    def argv(self, out_path: str | None = None) -> list[str]:
        if self.command == "emit":
            return ["emit", "--field", self.field, "--n", str(self.n)]
        if self.command == "verify":
            return ["verify", "--n-max", str(self.n_max), "--samples", str(self.samples),
                    "--seed", str(self.seed), "--format", "json"]
        if self.command == "report":
            return ["report", "--field", self.field, "--n", str(self.n),
                    "--samples", str(self.samples), "--seed", str(self.seed),
                    "--format", "json"]
        if self.command == "cloud":
            return ["cloud", "--field", self.field, "--n", str(self.n),
                    "--samples", str(self.samples), "--seed", str(self.seed),
                    "--out", out_path]
        raise ValueError(f"unknown command {self.command!r}")

    @property
    def label(self) -> str:
        parts = [self.command]
        if self.field:
            parts.append(f"{self.field}{self.n}")
        if self.n_max:
            parts.append(f"n_max{self.n_max}")
        if self.samples:
            parts.append(f"s{self.samples}")
        return ":".join(parts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # top (field, level) pairs: one op each, or the verify op's n_max
    levels: tuple[tuple[str, int], ...]
    command: str
    samples: int
    tiny_levels: tuple[tuple[str, int], ...]
    tiny_samples: int

    def ops(self, seed: int, pass_index: int, tiny: bool = False) -> list[Op]:
        """Commands of one pass; their seeds depend only on (workload, seed, pass)."""
        rng = random.Random(f"veronese-bench:{self.name}:{seed}:{pass_index}")
        levels = self.tiny_levels if tiny else self.levels
        samples = self.tiny_samples if tiny else self.samples
        if self.command == "verify":
            n_max = max(n for _, n in levels)
            return [Op("verify", n_max=n_max, samples=samples, seed=rng.randrange(2**32))]
        return [Op(self.command, field=f, n=n, samples=samples, seed=rng.randrange(2**32))
                for f, n in levels]

    def probes(self, tiny: bool = False) -> list[Op]:
        """Set-up probe: `emit` at the workload's top level of each field.

        emit pays interpreter start, the veronese import and the map build,
        and does no sampling or geometry.
        """
        levels = self.tiny_levels if tiny else self.levels
        return [Op("emit", field=f, n=n) for f, n in levels]


# Why each workload exists, and which layer it is meant to load, is also
# recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="audit_full",
            why="the release-gate verify audit; the only workload that runs audit, "
                "split over curvature_field, evaluate and sampling",
            levels=(("real", 6), ("complex", 4)), command="verify", samples=20_000,
            tiny_levels=(("real", 3), ("complex", 3)), tiny_samples=300,
        ),
        Workload(
            name="report_top",
            why="report at the top levels (real 12, complex 8); almost all time is "
                "curvature_field at the largest ambient size",
            levels=(("real", 12), ("complex", 8)), command="report", samples=40,
            tiny_levels=(("real", 4), ("complex", 3)), tiny_samples=20,
        ),
        Workload(
            name="cloud_export",
            why="cloud export at the top levels; one large evaluate batch and CSV "
                "writing, no curvature, so a curvature change must leave it unchanged",
            levels=(("real", 12), ("complex", 8)), command="cloud", samples=5_000,
            tiny_levels=(("real", 4), ("complex", 3)), tiny_samples=200,
        ),
    )
}


# --- closed forms ---------------------------------------------------------

def radius_pow4(n: int) -> Fraction:
    """r_n^4 = ((n+1)/2)^2 (n-1)!"""
    return Fraction(n + 1, 2) ** 2 * math.factorial(n - 1)


def component_count(field: str, n: int) -> int:
    """Ambient coordinates K: n(n+3)/2 for the real map, (n+1)^2 - 1 for the complex one."""
    return n * (n + 3) // 2 if field == "real" else (n + 1) ** 2 - 1


def expected_claims(n_max: int) -> set[str]:
    """Claim ids `verify --n-max n_max` must report (n_max >= 2)."""
    claims = {
        "ambient_dimension_sequences", "coefficient_ratio", "diagram_real_restriction",
        "diagram_zero_components", "fiber_invariance_complex", "fiber_invariance_real",
        "fiber_separation_complex", "fiber_separation_real", "harmonicity", "homothety",
        "hopf_factorization", "local_injectivity_complex", "local_injectivity_real",
        "minimality", "norm_identity_complex", "norm_identity_real",
        "radius_closed_vs_recursive", "radius_level3", "unit_image",
        "gauss_bonnet_level2", "isometry_pullback_level2", "pi_functional_level2",
        "veronese_alpha_norm_sq", "veronese_scalar_curvature",
    }
    if n_max >= 3:
        claims.add("sigma_quotient_level3")
    return claims


# --- the gate ---------------------------------------------------------------

def check(op: Op, exit_code: int, output: Path) -> str | None:
    """Why the op's result, with its output in the given file, is wrong; None if it passes."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if op.command == "cloud":
            with open(output, encoding="ascii") as rows:
                return _check_cloud(op, rows)
        doc = json.loads(output.read_bytes())
        if op.command == "emit":
            return _check_emit(op, doc)
        if op.command == "verify":
            return _check_verify(op, doc)
        if op.command == "report":
            return _check_report(op, doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:   # missing or unparsable
        return f"malformed output: {exc!r}"
    raise ValueError(f"unknown command {op.command!r}")


def _check_emit(op: Op, doc: dict) -> str | None:
    k = component_count(op.field, op.n)
    if doc["field"] != op.field or doc["n"] != op.n:
        return "emit: wrong field or level"
    if doc["ambient_dim"] != k - 1 or len(doc["components"]) != k:
        return f"emit: expected {k} components"
    if any(len(c) != (op.n + 1) ** 2 for c in doc["components"]):
        return "emit: wrong matrix size"
    r4 = radius_pow4(op.n)
    if doc["radius_pow4"] != f"{r4.numerator}/{r4.denominator}":
        return "emit: wrong radius_pow4"
    return None


def _check_verify(op: Op, entries: list) -> str | None:
    ids = {e["claim_id"] for e in entries}
    expected = expected_claims(op.n_max)
    if ids != expected or len(entries) != len(expected):
        return f"verify: claim ids differ: missing {sorted(expected - ids)}, extra {sorted(ids - expected)}"
    bad = [e["claim_id"] for e in entries if e["verdict"] not in ("MATCH", "SCALE_DEPENDENT")]
    if bad:
        return f"verify: failed claims {bad}"
    return None


def _close(measured: float, expected: float) -> bool:
    return abs(measured - expected) <= REPORT_RATIO_TOL * abs(expected)


def _check_report(op: Op, doc: dict) -> str | None:
    n = op.n
    r_sq = math.sqrt(float(radius_pow4(n)))
    lam = 2.0 * (n + 1) / (n * r_sq)
    if doc["n"] != n or doc["field"] != op.field:
        return "report: wrong field or level"
    if not _close(doc["homothety_factor"], lam):
        return f"report: homothety_factor {doc['homothety_factor']!r} != {lam!r}"
    if not _close(doc["effective_radius_sq"], 2.0 * (n + 1) / n):
        return f"report: effective_radius_sq {doc['effective_radius_sq']!r} != 2(n+1)/n"
    if not doc["mean_curvature_norm"] <= MEAN_CURVATURE_MAX:
        return f"report: mean_curvature_norm {doc['mean_curvature_norm']!r} too large"
    return None


def _check_cloud(op: Op, rows) -> str | None:
    k = component_count(op.field, op.n)
    count = 0
    for count, row in enumerate(rows, start=1):
        values = [float(v) for v in row.split(",")]
        if len(values) != k:
            return f"cloud: row {count} has {len(values)} values, expected {k}"
        off = abs(math.sqrt(math.fsum(v * v for v in values)) - 1.0)
        if not off <= UNIT_NORM_TOL:
            return f"cloud: row {count} is {off:.3e} off the unit sphere"
    if count != op.samples:
        return f"cloud: {count} rows, expected {op.samples}"
    return None
