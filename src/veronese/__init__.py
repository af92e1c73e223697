"""Inductive quadratic sphere embeddings of real and complex projective
spaces, with exact constants and numerical verification of their geometry."""

import os

# before numpy loads: the kernels are too small to split, extra OpenBLAS threads only burn CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A name is imported on first
# use (PEP 562), so a command loads only the modules it runs.
_SOURCES = {
    "ambient_dims": "constants", "radius": "constants", "radius_pow4": "constants",
    "rational_str": "constants", "step_constants": "constants",
    "build": "construct", "hopf": "construct",
    "canonical_point": "geometry", "curvature_field": "geometry",
    "second_fundamental_form": "geometry", "tangent_bases": "geometry",
    "global_invariants": "measure", "sphere_volume": "measure",
    "QuadMap": "quadmap", "StructuralError": "quadmap", "evaluate": "quadmap",
    "harmonicity_traces": "quadmap", "norm_identity_residual": "quadmap", "to_json": "quadmap",
    "ClaimAuditEntry": "audit", "diagram_check": "audit", "run_claim_audit": "audit",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
