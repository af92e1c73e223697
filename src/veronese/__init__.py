"""Inductive quadratic sphere embeddings of real and complex projective
spaces, with exact constants and numerical verification of their geometry."""

import os

# before numpy loads: the kernels are too small to split, extra OpenBLAS threads only burn CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constants import (ambient_dims, radius, radius_pow4, rational_str,
                        step_constants)
from .construct import build, hopf
from .geometry import (canonical_point, curvature_field, second_fundamental_form,
                       tangent_bases, tangent_images)
from .measure import global_invariants, sphere_volume
from .quadmap import (QuadMap, StructuralError, evaluate, harmonicity_traces,
                      norm_identity_residual, real_restriction, to_json)
from .audit import (ClaimAuditEntry, diagram_check, fiber_checks,
                    run_claim_audit)

__version__ = "0.1.0"

__all__ = [
    "ambient_dims", "radius", "radius_pow4", "rational_str", "step_constants",
    "build", "hopf",
    "canonical_point", "curvature_field", "second_fundamental_form",
    "tangent_bases", "tangent_images",
    "global_invariants", "sphere_volume",
    "QuadMap", "StructuralError", "evaluate",
    "harmonicity_traces", "norm_identity_residual",
    "real_restriction", "to_json",
    "ClaimAuditEntry", "diagram_check", "fiber_checks", "run_claim_audit",
]
