"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)
and enforcing its stated tolerance and runtime budget."""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np

from veronese import audit, constants, geometry, measure, sampling
from veronese.audit import SCALE_DEPENDENT, run_claim_audit
from veronese.cli import main as cli_main
from veronese.constants import ambient_dims, radius_pow4
from veronese.construct import build
from veronese.quadmap import evaluate, harmonicity_traces, norm_identity_residual

from oracles import (DIAGRAM_TOLERANCES, fiber_checks, laplace_residual, pullback_factor,
                     sampled_diagram_check, sampled_norm_identity_residual,
                     smallest_singular_value)


class Criterion:
    def __init__(self, name, budget_seconds=None):
        self.name = name
        self.budget = budget_seconds
        self.failures = []

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"[acceptance] {self.name}: FAIL ({exc})")
            return False
        if self.budget is not None and elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s)"
              + (f" -- {'; '.join(self.failures)}" if self.failures else ""))
        assert not self.failures, f"{self.name}: {self.failures}"
        return False


def test_criterion_01_exact_sequences():
    with Criterion("01 exact-sequences", budget_seconds=1.0) as c:
        for n in range(1, constants.MAX_LEVEL + 1):
            c.check(radius_pow4(n, "closed") == radius_pow4(n, "recursive"),
                    f"radius modes disagree at level {n}")
            c.check(ambient_dims(n) == (n * (n + 3) // 2 - 1, (n + 1) ** 2 - 2),
                    f"ambient dims wrong at level {n}")
        c.check(radius_pow4(3) == 8, "level-3 radius^4 is not 8")


def test_criterion_02_norm_identity():
    with Criterion("02 norm-identity", budget_seconds=5.0) as c:
        for field, cap in (("real", 12), ("complex", 8)):
            for n in range(1, cap + 1):
                res = norm_identity_residual(build(n, field))
                c.check(res < 1e-12, f"{field} level {n} certificate {res:.2e}")
        for field, cap in (("real", 6), ("complex", 4)):
            for n in range(1, cap + 1):
                res = sampled_norm_identity_residual(build(n, field), 1000, seed=1000 + n)
                c.check(res < 1e-12, f"{field} level {n} sampled residual {res:.2e}")


def test_criterion_03_harmonicity():
    with Criterion("03 harmonicity", budget_seconds=1.0) as c:
        for field, cap in (("real", 12), ("complex", 8)):
            for n in range(1, cap + 1):
                worst = float(np.max(np.abs(harmonicity_traces(build(n, field)))))
                c.check(worst < 1e-12, f"{field} level {n} trace {worst:.2e}")


def test_criterion_04_fiber_structure():
    with Criterion("04 fiber-structure", budget_seconds=10.0) as c:
        for field, cap in (("real", 4), ("complex", 3)):
            for n in range(1, cap + 1):
                # the coefficient certificate the audit reads, then the sampled search
                cert = audit._fiber_certificate(build(n, field))
                c.check(cert["invariance_residual"] < 1e-12,
                        f"{field} level {n} certified invariance "
                        f"{cert['invariance_residual']:.2e}")
                c.check(cert["separation_floor"] > audit.SEPARATION_FLOOR,
                        f"{field} level {n} separation floor {cert['separation_floor']:.2e}")
                rep = fiber_checks(n, field, 10_000, seed=2000 + n)
                c.check(rep["invariance_residual"] < 1e-12,
                        f"{field} level {n} invariance {rep['invariance_residual']:.2e}")
                c.check(rep["collisions"] == 0,
                        f"{field} level {n} has {rep['collisions']} collisions")
                pts = sampling.quotient_samples(n, field, 50, seed=2100 + n)
                smallest = smallest_singular_value(build(n, field), pts)
                c.check(smallest > 1e-8, f"{field} level {n} singular value {smallest:.2e}")


def test_criterion_05_diagram():
    # the coefficient bounds the audit reads, each against the sampled reading it
    # bounds (up to evaluation rounding) and the tolerance of its claim; the unit
    # image is bounded by the norm-identity certificates of both maps
    with Criterion("05 diagram", budget_seconds=2.0) as c:
        for n in range(1, 5):
            bounds = {**audit.diagram_check(n), "unit_image_residual": max(
                norm_identity_residual(build(n, field)) for field in ("real", "complex"))}
            sampled = sampled_diagram_check(n, 100, seed=3000 + n)
            for key, bound in bounds.items():
                c.check(sampled[key] <= bound + 1e-15,
                        f"level {n} {key} sampled {sampled[key]:.2e} over bound {bound:.2e}")
                c.check(max(sampled[key], bound) <= DIAGRAM_TOLERANCES[key],
                        f"level {n} {key} {max(sampled[key], bound):.2e}")


def test_criterion_06_homothety():
    with Criterion("06 homothety") as c:
        for field, cap in (("real", 6), ("complex", 4)):
            for n in range(1, cap + 1):
                pts = sampling.quotient_samples(n, field, 20, seed=4000 + n)
                lams, anis = pullback_factor(build(n, field), pts)
                for lam, an in zip(lams, anis):
                    c.check(an / lam < 1e-8,
                            f"{field} level {n} anisotropy ratio {an / lam:.2e}")
                c.check(np.ptp(lams) < 1e-8,
                        f"{field} level {n} lambda spread {np.ptp(lams):.2e}")
                # independent finite-difference oracle at one point
                basis = geometry.tangent_bases(build(n, field), pts[:1])[0]
                h = 1e-5
                t = np.stack([(evaluate(build(n, field), pts[0] + h * v)
                               - evaluate(build(n, field), pts[0] - h * v)) / (2 * h)
                              for v in basis])
                lam_fd = float(np.trace(t @ t.T)) / basis.shape[0]
                c.check(abs(lams[0] - lam_fd) < 1e-8,
                        f"{field} level {n} oracle gap {abs(lams[0] - lam_fd):.2e}")
        entries = {e.claim_id: e for e in run_claim_audit(2, 1, seed=0, samples=200)}
        iso = entries["isometry_pullback_level2"]
        c.check(iso.verdict == SCALE_DEPENDENT, "isometry claim not marked scale dependent")
        c.check(abs(iso.measured - 2.0) < 1e-8,
                f"level-2 pullback factor {iso.measured} is not the oracle value 2")


def test_criterion_07_minimality():
    with Criterion("07 minimality", budget_seconds=30.0) as c:
        for field, cap in (("real", 5), ("complex", 3)):
            for n in range(1, cap + 1):
                pts = sampling.quotient_samples(n, field, 20, seed=5000 + n)
                h_max = float(np.max(
                    geometry.curvature_field(build(n, field), pts)["mean_curvature_norm"]))
                c.check(h_max < 1e-6, f"{field} level {n} |H| {h_max:.2e}")


def test_criterion_08_gauss_consistency():
    with Criterion("08 gauss-consistency") as c:
        for n in range(2, 6):
            pts = sampling.quotient_samples(n, "real", 20, seed=6000 + n)
            geo = geometry.curvature_field(build(n, "real"), pts)
            rho_sq = geo["lambda"] * constants.radius(n) ** 2
            gap = float(np.max(np.abs(geo["scalar_curvature_gauss"]
                                      - n * (n - 1) / rho_sq)))
            c.check(gap < 1e-6, f"level {n} Gauss gap {gap:.2e}")
            spread = float(np.ptp(geo["alpha_norm_sq"]))
            c.check(spread < 1e-7, f"level {n} |alpha|^2 spread {spread:.2e}")


def test_criterion_09_scale_invariant_numbers():
    with Criterion("09 scale-invariant-numbers", budget_seconds=60.0) as c:
        gi2 = measure.global_invariants(2, "real", 100_000, seed=7000)["image"]
        c.check(abs(gi2["gauss_bonnet_ratio"] - 1.0) < 1e-3,
                f"Gauss-Bonnet ratio {gi2['gauss_bonnet_ratio']}")
        gi3 = measure.global_invariants(3, "real", 100_000, seed=7001)["image"]
        target = 6 * math.pi ** (4.0 / 3.0)
        c.check(abs(gi3["sigma_quotient"] - target) < 0.005 * target,
                f"sigma quotient {gi3['sigma_quotient']} vs {target}")


def test_criterion_10_normalization_dependent_numbers():
    with Criterion("10 normalization-dependent-numbers") as c:
        entries = {e.claim_id: e for e in run_claim_audit(2, 1, seed=0, samples=2000)}
        for claim_id, image_val, domain_val, tol in (
                ("veronese_scalar_curvature", 2 / 3, 4 / 3, 1e-6),
                ("veronese_alpha_norm_sq", 4 / 3, 2 / 3, 1e-6),
                ("pi_functional_level2", 8 * math.pi, 2 * math.pi, 1e-6)):
            entry = entries.get(claim_id)
            c.check(entry is not None, f"{claim_id} missing from the audit")
            if entry is None:
                continue
            c.check(entry.verdict == SCALE_DEPENDENT,
                    f"{claim_id} verdict {entry.verdict}")
            c.check(abs(entry.details["measured_image"] - image_val) <= tol * max(1, image_val),
                    f"{claim_id} image value {entry.details['measured_image']}")
            c.check(abs(entry.details["measured_domain"] - domain_val) <= tol * max(1, domain_val),
                    f"{claim_id} domain value {entry.details['measured_domain']}")


def test_criterion_11_laplace_eigenvalue():
    with Criterion("11 laplace-eigenvalue") as c:
        for field in ("real", "complex"):
            for n in range(1, 4):
                for p in sampling.quotient_samples(n, field, 5, seed=8000 + n):
                    res = laplace_residual(build(n, field), p)
                    c.check(res < 1e-4, f"{field} level {n} residual {res:.2e}")


def test_criterion_12_determinism():
    with Criterion("12 determinism") as c:
        for fmt in ("table", "json"):
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(["verify", "--n-max", "3", "--samples", "500",
                                     "--seed", "11", "--format", fmt])
                c.check(code == 0, f"verify exit code {code}")
                outputs.append(buf.getvalue())
            c.check(outputs[0] == outputs[1], f"{fmt} outputs differ between runs")
        c.check(run_claim_audit(3, 2, seed=5, samples=300)
                == run_claim_audit(3, 2, seed=5, samples=300),
                "audit entries differ between identical runs")
