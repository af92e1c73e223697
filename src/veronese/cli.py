"""Command-line front end: emit coefficient data, verify claims, report
geometry, and export image point clouds.

Exit codes: 0 on success (SCALE_DEPENDENT audit entries are reported but
non-fatal), 1 on a hard invariant failure or a map that breaks the
structure the construction guarantees, 2 on usage errors.  Identical
configurations (seed included) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import audit, constants, construct, measure
from .constants import FIELDS, LEVEL_CAPS
from .quadmap import StructuralError, chunks, evaluate, to_json_dict
from .sampling import generator


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veronese",
        description="Quadratic sphere embeddings of projective spaces: "
                    "construction, verification, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_emit = sub.add_parser("emit", help="write the coefficient matrices of one map as JSON")
    p_emit.add_argument("--field", choices=FIELDS, required=True)
    p_emit.add_argument("--n", type=int, required=True, help="level of the map")
    p_emit.add_argument("--format", choices=["json"], default="json")
    p_emit.add_argument("--out", default="-")

    p_verify = sub.add_parser("verify", help="run the construction checks and the claim audit")
    caps = LEVEL_CAPS["audit"]
    p_verify.add_argument("--n-max", type=int, default=4,
                          help=f"highest level to audit (real capped at {caps['real']}, "
                               f"complex at {caps['complex']})")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="tolerance for the homothety-constancy claim")
    p_verify.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_verify.add_argument("--out", default="-")

    p_report = sub.add_parser("report", help="geometry report and global invariants for one level")
    p_report.add_argument("--field", choices=FIELDS, required=True)
    p_report.add_argument("--n", type=int, required=True)
    p_report.add_argument("--samples", type=int, default=1000)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--metric", choices=["image", "domain"], default="image")
    p_report.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_report.add_argument("--out", default="-")

    p_cloud = sub.add_parser("cloud", help="sample the quotient and export image points as CSV")
    p_cloud.add_argument("--field", choices=FIELDS, required=True)
    p_cloud.add_argument("--n", type=int, required=True)
    p_cloud.add_argument("--samples", type=int, default=1000)
    p_cloud.add_argument("--seed", type=int, default=0)
    p_cloud.add_argument("--out", default="-")

    return parser


@contextmanager
def _output(path: str):
    if path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    with handle:
        yield handle


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _render_entries(entries, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(audit.audit_to_dicts(entries), stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["claim_id", "expected", "measured", "abs_deviation",
                         "tolerance", "verdict", "statement"])
        for e in entries:
            writer.writerow([e.claim_id, _fmt(e.expected), _fmt(e.measured),
                             _fmt(e.abs_deviation), _fmt(e.tolerance), e.verdict,
                             e.statement])
        return
    width = max(len(e.claim_id) for e in entries)
    header = (f"{'claim':<{width}}  {'expected':>14}  {'measured':>14}  "
              f"{'deviation':>10}  verdict")
    stream.write(header + "\n")
    stream.write("-" * len(header) + "\n")
    for e in entries:
        stream.write(
            f"{e.claim_id:<{width}}  {_fmt(e.expected):>14}  {_fmt(e.measured):>14}  "
            f"{e.abs_deviation:>10.2e}  {e.verdict}\n"
        )
        for key, value in sorted(e.details.items()):
            val = _fmt(value) if isinstance(value, float) else value
            stream.write(f"{'':<{width}}    {key} = {val}\n")


def _render_mapping(pairs, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(dict(pairs), stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        for key, value in pairs:
            writer.writerow([key, _fmt(value) if isinstance(value, float) else value])
        return
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        val = _fmt(value) if isinstance(value, float) else value
        stream.write(f"{key:<{width}}  {val}\n")


def _cmd_emit(args) -> int:
    map_ = construct.build(args.n, args.field)
    with _output(args.out) as stream:
        json.dump(to_json_dict(map_), stream, indent=2)
        stream.write("\n")
    return 0


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    caps = LEVEL_CAPS["audit"]
    entries = audit.run_claim_audit(
        n_max_real=min(args.n_max, caps["real"]),
        n_max_complex=min(args.n_max, caps["complex"]),
        seed=args.seed,
        samples=args.samples,
        homothety_tol=args.tol,
    )
    failures = audit.hard_failures(entries)
    with _output(args.out) as stream:
        _render_entries(entries, args.format, stream)
        if args.format == "table":
            stream.write(f"\n{len(entries)} claims audited, "
                         f"{len(failures)} hard failure(s)\n")
    for message in dict.fromkeys(e.details["error"] for e in entries
                                 if e.verdict == audit.ERROR):
        print(f"error: {message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_report(args) -> int:
    both = measure.global_invariants(args.n, args.field, args.samples, args.seed)
    pairs = [("n", args.n), ("field", args.field), ("metric", args.metric),
             ("radius_pow4", constants.rational_str(constants.radius_pow4(args.n)))]
    pairs += sorted(both["canonical"].items())
    pairs += sorted(both[args.metric].items())
    with _output(args.out) as stream:
        _render_mapping(pairs, args.format, stream)
    return 0


def _cmd_cloud(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    map_ = construct.build(args.n, args.field)
    k = map_.component_count
    row, rng = ",".join(["%.17g"] * k) + "\n", generator(args.seed)
    with _output(args.out) as stream:
        for part in chunks(args.samples, 64 * k):  # about 61 bytes a value while formatting
            pts = measure.quotient_samples(args.n, args.field, part.stop - part.start, rng)
            block = evaluate(map_, pts)
            stream.write((row * len(block)) % tuple(block.ravel().tolist()))
    return 0


_DISPATCH = {
    "emit": _cmd_emit,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "cloud": _cmd_cloud,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (StructuralError, np.linalg.LinAlgError) as exc:
        # a broken map or measurement, not a usage error (LinAlgError is a ValueError)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
