"""Command-line front end: emit coefficient data, verify claims, report
geometry, and export image point clouds.

Exit codes: 0 on success (SCALE_DEPENDENT audit entries are reported but
non-fatal), 1 on a hard invariant failure, a map that breaks the
structure the construction guarantees, or a reader that closes stdout
early, 2 on usage errors and failed writes.  Identical
configurations (seed included) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

# audit, measure (which loads geometry), sampling and csv are loaded by the commands using them
from . import constants, construct
from .constants import FIELDS, LEVEL_CAPS
from .quadmap import StructuralError, chunks, evaluate, to_json


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops a failed write; run() maps it
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="veronese",
        description="Quadratic sphere embeddings of projective spaces: "
                    "construction, verification, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = "key of the random draws, an integer in 0..2**64-1"

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
    p_verify.add_argument("--samples", type=int, default=1000,
                          help="samples of the level-2 and level-3 integral gates")
    p_verify.add_argument("--seed", type=int, default=0, help=seed_help)
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="tolerance for the homothety-constancy claim")
    p_verify.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_verify.add_argument("--out", default="-")

    p_report = sub.add_parser("report", help="geometry report and global invariants for one level")
    p_report.add_argument("--field", choices=FIELDS, required=True)
    p_report.add_argument("--n", type=int, required=True)
    p_report.add_argument("--samples", type=int, default=1000,
                          help="samples of the integrals and their constancy gate")
    p_report.add_argument("--seed", type=int, default=0, help=seed_help)
    p_report.add_argument("--metric", choices=["image", "domain"], default="image")
    p_report.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_report.add_argument("--out", default="-")

    p_cloud = sub.add_parser("cloud", help="sample the quotient and export image points as CSV")
    p_cloud.add_argument("--field", choices=FIELDS, required=True)
    p_cloud.add_argument("--n", type=int, required=True)
    p_cloud.add_argument("--samples", type=int, default=1000,
                         help="number of image points to write")
    p_cloud.add_argument("--seed", type=int, default=0, help=seed_help)
    p_cloud.add_argument("--out", default="-")

    return parser


@contextmanager
def _output(path: str):
    """The stream of --out: stdout for "-", whose failures run() maps, or a file
    closed on leaving, whose failed open, write or close is a usage error."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _error(message) -> None:
    """Write an error line to stderr; a stderr that cannot be written changes no exit code."""
    with suppress(OSError):
        print(f"error: {message}", file=sys.stderr)


def _fmt(value):
    """A table cell: a float in 12 significant digits, anything else as it is."""
    return f"{value:.12g}" if isinstance(value, float) else value


def _render_entries(entries, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps([e.to_dict() for e in entries], indent=2) + "\n")
        return
    if fmt == "csv":
        import csv
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
            stream.write(f"{'':<{width}}    {key} = {_fmt(value)}\n")


def _render_mapping(pairs, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(dict(pairs), indent=2) + "\n")
        return
    if fmt == "csv":
        import csv
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        for key, value in pairs:
            writer.writerow([key, _fmt(value)])
        return
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        stream.write(f"{key:<{width}}  {_fmt(value)}\n")


def _cmd_emit(args) -> int:
    map_ = construct.build(args.n, args.field)
    with _output(args.out) as stream:
        stream.write(to_json(map_) + "\n")  # one write, where json.dump writes per chunk
    return 0


def _cmd_verify(args) -> int:
    from . import audit

    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
    caps = LEVEL_CAPS["audit"]
    n_max = min(args.n_max, caps["real"]), min(args.n_max, caps["complex"])
    with _output(args.out) as stream:
        entries = audit.run_claim_audit(*n_max, seed=args.seed, samples=args.samples,
                                        homothety_tol=args.tol)
        failures = audit.hard_failures(entries)
        _render_entries(entries, args.format, stream)
        if args.format == "table":
            stream.write(f"\n{len(entries)} claims audited, "
                         f"{len(failures)} hard failure(s)\n")
    for message in dict.fromkeys(e.details["error"] for e in entries
                                 if e.verdict == audit.ERROR):
        _error(message)
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from . import measure

    construct.build(args.n, args.field)  # checks the level
    with _output(args.out) as stream:
        both = measure.global_invariants(args.n, args.field, args.samples, args.seed)
        pairs = [("n", args.n), ("field", args.field), ("metric", args.metric),
                 ("radius_pow4", constants.rational_str(constants.radius_pow4(args.n)))]
        pairs += sorted(both["canonical"].items())
        pairs += sorted(both[args.metric].items())
        _render_mapping(pairs, args.format, stream)
    return 0


# Tables of the "%.17g" kernel below.  A value is laid out in a field of
# _FIELD bytes, NUL where nothing is written: a right-aligned prefix
# "[-]0.[000]d" in bytes 0-7, sixteen more digits in bytes 8-23 and the
# separator in byte 24.  Dropping the NULs leaves the text.
_FIELD = 28
# 10^17..10^20 are exact doubles.  Veltkamp's split of each into two 26-bit
# halves is taken in Python floats, so importing this module runs no numpy kernel.
_SPLIT = 134217729.0  # 2**27 + 1
_SCALE = (1e17, 1e18, 1e19, 1e20)
_SCALE_HI = tuple(_SPLIT * s - (_SPLIT * s - s) for s in _SCALE)
_SCALE_LO = tuple(s - h for s, h in zip(_SCALE, _SCALE_HI))


# The tables are built on first use, so that the commands that format no
# cloud do not pay for them (about 1.2 MB of peak memory at import).
@functools.cache
def _scale_table() -> np.ndarray:
    """_SCALE, _SCALE_HI and _SCALE_LO as the rows of one array."""
    return np.array([_SCALE, _SCALE_HI, _SCALE_LO])


@functools.cache
def _group_table() -> np.ndarray:
    """4 ASCII bytes of every group 0000-9999 as one uint32, then the same
    with the group's trailing zeros blanked (0000 blank throughout)."""
    places = 10 ** np.arange(3, -1, -1)
    full = (np.arange(10_000)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(full[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([full, np.where(kept, full, 0).astype(np.uint8)]).view(np.uint32).ravel()


@functools.cache
def _prefix_table() -> np.ndarray:
    """The prefix bytes of every sign, count of zeros after the point and
    leading digit, as two uint32 words each; row (neg * 4 + zeros) * 10 + digit."""
    table = np.zeros((2, 4, 10, 8), np.uint8)
    for neg in range(2):
        for zeros in range(4):
            text = ("-0." if neg else "0.") + "0" * zeros
            table[neg, zeros, :, 7 - len(text):7] = np.frombuffer(text.encode(), np.uint8)
    table[..., 7] = np.arange(10) + ord("0")
    return table.reshape(80, 8).view(np.uint32)


def _format_rows(block: np.ndarray) -> str:
    """Rows of float64 values as CSV text, each value exactly as "%.17g" writes it.

    Values with 1e-4 <= |x| < 1 (nearly every image coordinate) are
    formatted here: for |x| = 0.[zeros]d0 d1..d16 (zeros = 0..3) the 17
    significant digits are N = round(|x| 10^(17 + zeros)), rounded half to
    even like printf.  The product is held exactly as hi + lo (Dekker's
    two-product), and hi >= 1e16 > 2^53 is an even integer, so
    N = hi + rint(lo) is that rounding.  The doubles 0.1, 0.01, 0.001 and
    1e-4 lie above their powers of ten, so comparing with them counts the
    zeros exactly, and no double of the band rounds up to 10^17 (the tests check
    both facts in exact arithmetic).  Every other value is written by
    "%.17g" itself.
    """
    rows, k = block.shape
    x = block.ravel()
    a = np.abs(x)
    band = (a >= 1e-4) & (a < 1.0)
    a = np.where(band, a, 0.5)
    zeros = (a < 0.1).astype(np.intp)
    zeros += a < 0.01
    zeros += a < 0.001
    scale, s_hi, s_lo = (row.take(zeros) for row in _scale_table())
    hi = a * scale
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)

    top = n // 10**8
    bottom = n - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    groups = np.empty((x.size, 4), np.intp)
    groups[:, 0] = top // 10**4
    groups[:, 1] = top - groups[:, 0] * 10**4
    groups[:, 2] = bottom // 10**4
    groups[:, 3] = bottom - groups[:, 2] * 10**4
    # a group's trailing zeros are dropped when every later group is zero
    blank = groups[:, 3] == 0
    groups[:, 3] += 10_000
    groups[:, 2] += 10_000 * blank
    blank &= groups[:, 2] == 10_000
    groups[:, 1] += 10_000 * blank
    blank &= groups[:, 1] == 10_000
    groups[:, 0] += 10_000 * blank

    fields = np.zeros((rows, k, _FIELD), np.uint8)
    words = fields.view(np.uint32).reshape(x.size, _FIELD // 4)
    words[:, 0:2] = _prefix_table().take((x < 0) * 40 + zeros * 10 + lead, axis=0)
    words[:, 2:6] = _group_table().take(groups)
    fields[:, :-1, 24] = ord(",")
    fields[:, -1, 24] = ord("\n")
    fields = fields.reshape(x.size, _FIELD)
    slow = np.flatnonzero(~band)
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(24, b"\0") for v in x[slow].tolist())
        fields[slow, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return fields.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_cloud(args) -> int:
    from .sampling import generator, quotient_samples

    map_ = construct.build(args.n, args.field)
    k = map_.component_count
    rng = generator(args.seed)
    with _output(args.out) as stream:
        # sampling, evaluate and _format_rows peak at about 225 bytes a value (tracemalloc)
        for part in chunks(args.samples, 232 * k):
            pts = quotient_samples(args.n, args.field, part.stop - part.start, rng)
            stream.write(_format_rows(evaluate(map_, pts)))
    return 0


_DISPATCH = {
    "emit": _cmd_emit,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "cloud": _cmd_cloud,
}


def main(argv=None) -> int:
    """Run one command line and return its exit code; a failed stdout write raises OSError."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) not in range(2**64):  # the Philox key space
            raise ValueError(f"--seed must be in 0..2**64-1, got {args.seed}")
        if getattr(args, "samples", 1) < 1:
            raise ValueError("--samples must be positive")
        return _DISPATCH[args.command](args)
    except (StructuralError, np.linalg.LinAlgError) as exc:
        # a broken map or measurement, not a usage error (LinAlgError is a ValueError)
        _error(exc)
        return 1
    except ValueError as exc:
        _error(exc)
        return 2


def run() -> None:
    """The process entry point (`python -m veronese.cli` and the `veronese`
    script): main, stdout and stderr flushed, then os._exit: no interpreter teardown."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout
        code = 1
    except OSError as exc:
        _error(f"cannot write -: {exc.strerror}")
        code = 2
    with suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
