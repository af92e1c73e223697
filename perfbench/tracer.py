"""Outside-in tracing of one `veronese` command, run in-process.

As a script, it imports veronese from the checkout's src/, wraps every public
function of the layer modules by patching module attributes (including the
copies other modules imported by name, such as `evaluate` in geometry, audit
and cli), and calls `veronese.cli.main(argv)` twice: once untraced and once
traced, in the order asked for.  With --memory it makes a third, traced call
under tracemalloc that gives each span its peak allocation.  Spans stay in
memory and are written, with timings and output digests, to one JSON file at
the end; the traced run's output goes to RESULT.output.

    python3 perfbench/tracer.py --out RESULT.json [--memory] [--traced-first] -- ARGV...

As a module, it gives `summarize`, which turns spans into per-function and
per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

# The modules of src/veronese that count as layers; `constants` is exact
# rational bookkeeping that costs well under a millisecond and is left out.
LAYERS = ("sampling", "construct", "quadmap", "geometry", "measure", "audit", "cli")

# Batch functions and the argument that holds their batch: a count, or an
# array of points in the last axis.
BATCH_ARGS = {
    "sampling.sphere_points": "count",
    "sampling.ball_points": "count",
    "sampling.complex_sphere_points": "count",
    "sampling.complex_ball_points": "count",
    "measure.quotient_samples": "count",
    "quadmap.evaluate": "point",
    "geometry.curvature_field": "points",
}

# span fields
NAME, START, END, PARENT, OP, FAILED, POINTS, PEAK = range(8)


def _batch_size(value) -> int:
    if isinstance(value, int):
        return value
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return math.prod(shape[:-1])


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.op = 0
        self.memory = memory
        self._open: list[int] = []
        self._mem: list[list[int]] = []   # per open span: [bytes at entry, highest bytes]

    def wrap(self, name: str, fn):
        arg = BATCH_ARGS.get(name)
        sig = inspect.signature(fn) if arg else None
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = None
            if arg:
                try:
                    points = _batch_size(sig.bind(*args, **kwargs).arguments[arg])
                except (TypeError, KeyError):
                    pass   # the call itself raises or uses a default
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, False, points, None]
            open_.append(len(spans))
            spans.append(span)
            if self.memory:
                self._enter_memory()
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                if self.memory:
                    span[PEAK] = self._exit_memory()
                open_.pop()

        return traced

    def _enter_memory(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _exit_memory(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        entry, high = self._mem.pop()
        high = max(high, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], high)
        tracemalloc.reset_peak()
        return high - entry


def _layer_functions():
    """(qualified name, function) for every public function of every layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"veronese.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{layer}.{attr}", obj


def install(tracer: Tracer) -> list[tuple]:
    """Patch every module attribute that holds a layer function; returns the undo list."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in _layer_functions()}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "veronese" and not mod_name.startswith("veronese."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, attr, obj in patched:
        setattr(mod, attr, obj)


def _run(argv: list[str], out_file: Path | None, caches: list) -> tuple[int, float, bytes]:
    """One call of the CLI; the caches (of built maps) are emptied first, so every
    call pays the build as a fresh CLI process does."""
    cli = importlib.import_module("veronese.cli")
    for cached in caches:
        cached.cache_clear()
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception:   # a crash of the command is a failed op, reported by exit code
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - start
    data = out_file.read_bytes() if out_file else buffer.getvalue().encode()
    return code, seconds, data


def _outcome(code: int, seconds: float, data: bytes) -> dict:
    return {"exit": code, "seconds": seconds, "sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("--traced-first", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    for layer in LAYERS:
        importlib.import_module(f"veronese.{layer}")
    if not Path(sys.modules["veronese"].__file__).resolve().is_relative_to(src):
        print(f"error: veronese was imported from outside {src}", file=sys.stderr)
        return 2
    caches = [fn for _, fn in _layer_functions() if hasattr(fn, "cache_clear")]
    out_file = None
    if "--out" in argv and argv[argv.index("--out") + 1] != "-":
        out_file = Path(argv[argv.index("--out") + 1])

    record = {"argv": argv}
    tracer = Tracer()
    for traced in ((True, False) if args.traced_first else (False, True)):
        if traced:
            patched = install(tracer)
            try:
                code, seconds, data = _run(argv, out_file, caches)
            finally:
                uninstall(patched)
            record["traced"] = _outcome(code, seconds, data)
            record["bytes_out"] = len(data)
            args.out.with_suffix(".output").write_bytes(data)
        else:
            record["untraced"] = _outcome(*_run(argv, out_file, caches))
    record["spans"] = tracer.spans

    record["memory_spans"] = None
    if args.memory:
        mem_tracer = Tracer(memory=True)
        patched = install(mem_tracer)
        tracemalloc.start()
        try:
            _run(argv, out_file, caches)
        finally:
            tracemalloc.stop()
            uninstall(patched)
        record["memory_spans"] = mem_tracer.spans
    args.out.write_text(json.dumps(record))
    return 0


# --- analysis -----------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-function and per-layer statistics of a list of spans.

    self_s is a span's duration minus the time its child spans cover.
    incl_s sums the durations of the outermost calls only, so recursion is
    not counted twice.  A layer's points count only calls not made from
    inside the same layer (complex sampling calls real sampling).
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))

    def has_ancestor(index: int, same) -> bool:
        parent = spans[index][PARENT]
        while parent >= 0:
            if same(spans[parent][NAME]):
                return True
            parent = spans[parent][PARENT]
        return False

    funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "failed": 0,
                                 "points": 0, "peak_bytes": 0})
    layers = {layer: {"self_s": 0.0, "points": 0, "peak_bytes": 0} for layer in LAYERS}
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".")[0]
        duration = span[END] - span[START]
        self_s = duration - _covered(children.get(i, []))
        stats = funcs[name]
        stats["calls"] += 1
        stats["self_s"] += self_s
        stats["failed"] += int(span[FAILED])
        if not has_ancestor(i, lambda other: other == name):
            stats["incl_s"] += duration
        layers[layer]["self_s"] += self_s
        if span[POINTS] is not None:
            stats["points"] += span[POINTS]
            if not has_ancestor(i, lambda other: other.split(".")[0] == layer):
                layers[layer]["points"] += span[POINTS]
        if span[PEAK] is not None:
            stats["peak_bytes"] = max(stats["peak_bytes"], span[PEAK])
            layers[layer]["peak_bytes"] = max(layers[layer]["peak_bytes"], span[PEAK])
    return dict(funcs), layers


if __name__ == "__main__":
    sys.exit(main())
