"""Span tracer for the benchmark's traced run, and the per-layer metrics
computed from its spans.

The tracer wraps every public function of the seven ``homfield`` modules
from outside the package: each module-level binding of such a function (the
``from .x import y`` imports leave several, e.g. ``apply_operator`` in
``environment``, ``solver`` and ``sampler``) is replaced by a wrapper for as
long as the tracer is installed, and restored afterwards. Spans are recorded
only while the harness has set ``call_id``, i.e. inside a timed CLI call, and
are kept in memory until the run ends.

A span's self time is its duration minus the durations of its direct child
spans. The program is single-threaded, so no layer waits on another.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import types
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "homfield"
MODULES = ("lattice", "environment", "solver", "homogenization", "sampler",
           "experiments", "cli")
SIDES = (16, 32, 64, 96, 128, 150, 256)


class Span(NamedTuple):
    id: int
    parent: int          # -1 for a root span
    call_id: int
    name: str            # "<module>.<function>"
    start: float
    end: float
    ok: bool             # False when an exception escaped the function
    info: tuple          # per-function details, see INFO


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _side(obj) -> int:
    grid = getattr(obj, "grid", obj)
    return grid.N


def _solve_info(args, kwargs, result, exc):
    report = result[1] if result is not None else getattr(exc, "report", None)
    side = _side(_first(args, kwargs))
    if report is None:
        return (side, 0, float("nan"))
    return (side, report.iterations, report.residual)


def _dump_info(args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return (os.path.getsize(path) if exc is None else 0,)


def _side_info(args, kwargs, result, exc):
    return (_side(_first(args, kwargs)),)


# Extra facts recorded per span, read from arguments and return values.
INFO = {
    "environment.apply_operator": _side_info,   # (side,)
    "solver.solve_homogeneous": _side_info,     # (side,)
    "sampler.sample_gff": _side_info,           # (side,)
    "solver.solve_heterogeneous": _solve_info,  # (side, iterations, residual)
    "sampler.dump_field": _dump_info,           # (bytes,)
}


def public_functions() -> dict:
    """Map each public function of the traced modules to its span name."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for n in names:
            fn = getattr(mod, n)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                out[fn] = f"{short}.{n}"
    return out


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.call_id`` around each
    call to record its spans into ``t.spans``."""

    def __init__(self):
        self.spans = []
        self.call_id = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.call_id is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = info(args, kwargs, result, exc) if info else ()
                self.spans.append(Span(sid, parent, self.call_id, name, start,
                                       end, exc is None, extra))

        return wrapper

    def install(self) -> None:
        wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, val = self._saved.pop()
            setattr(mod, attr, val)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# per-layer metrics


def _per_side(stem):
    return [f"{stem}.N{n}" for n in SIDES]


def _catalogue(*rows) -> dict:
    return {name: (unit, better) for name, unit, better in rows}


# name -> (unit, better); per-side families expand over SIDES
PER_LAYER = _catalogue(
    ("solver.solve_heterogeneous.calls", "count", "lower"),
    ("solver.solve_heterogeneous.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.iterations_per_solve", "iter/solve", "lower"),
    *((n, "iter/solve", "lower") for n in _per_side("solver.iterations_per_solve")),
    *((n, "ms", "lower") for n in _per_side("solver.ms_per_solve")),
    ("solver.max_residual", "ratio", "lower"),
    ("solver.failures", "count", "lower"),
    ("solver.converged_ratio", "ratio", "higher"),
    ("solver.solve_homogeneous.calls", "count", "lower"),
    *((n, "ms", "lower") for n in _per_side("solver.solve_homogeneous.ms_per_call")),
    ("environment.apply_operator.calls", "count", "lower"),
    ("environment.apply_operator.self_s", "s", "lower"),
    *((n, "us", "lower") for n in _per_side("environment.apply_operator.us_per_call")),
    ("environment.sample_environment.self_s", "s", "lower"),
    ("sampler.sample_gff.calls", "count", "lower"),
    ("sampler.sample_gff.self_s", "s", "lower"),
    ("sampler.sample_gff.failures", "count", "lower"),
    ("sampler.inv_sqrt.applies", "count", "lower"),
    *((n, "count/draw", "lower") for n in _per_side("sampler.inv_sqrt.applies_per_draw")),
    ("sampler.sample_bilaplacian.self_s", "s", "lower"),
    ("sampler.dump_field.self_s", "s", "lower"),
    ("sampler.dump_field.bytes", "bytes", "lower"),
    ("lattice.dft.calls", "count", "lower"),
    ("lattice.dft.self_s", "s", "lower"),
    ("lattice.fourier_mode.self_s", "s", "lower"),
    ("homogenization.solve_corrector.calls", "count", "lower"),
    ("homogenization.estimate_ahom.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.write_heatmap.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def self_times(spans) -> dict:
    """Self time of each span, by span id."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def _under(spans, ancestor: str) -> set:
    """Ids of spans that have a span named ``ancestor`` above them."""
    by_id = {s.id: s for s in spans}
    memo = {}

    def inside(sid):
        if sid < 0:
            return False
        if sid not in memo:
            s = by_id[sid]
            memo[sid] = s.name == ancestor or inside(s.parent)
        return memo[sid]

    return {s.id for s in spans if inside(s.parent)}


def layer_metrics(spans, passes: int, bytes_written: int, probe_ms: dict,
                  overhead_s: float) -> tuple:
    """Per-layer metrics over the spans of ``passes`` traced passes.

    Counts, seconds and bytes are per pass; per-solve, per-call and per-draw
    values are means over all calls. Returns (metrics, not_applicable): a
    metric whose function never ran, or never ran at that grid side, reads 0
    and is listed in not_applicable.
    """
    self_t = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    m, na = {}, []

    def put(metric, num, den=passes, ran=True):
        m[metric] = num / den if den else 0.0
        if not (den and ran):
            na.append(metric)

    def per_pass(metric, fn, value=None):
        if value is None:
            value = sum(self_t[s.id] for s in by_name[fn])
        put(metric, value, ran=bool(by_name[fn]))

    def at(fn, n):
        return [s for s in by_name[fn] if s.info[0] == n]

    def ms(group):
        return 1e3 * sum(s.end - s.start for s in group)

    sh = "solver.solve_heterogeneous"
    solves = by_name[sh]
    iters = sum(s.info[1] for s in solves)
    per_pass(f"{sh}.calls", sh, len(solves))
    per_pass(f"{sh}.self_s", sh)
    per_pass("solver.iterations", sh, iters)
    put("solver.iterations_per_solve", iters, len(solves))
    for n in SIDES:
        group = at(sh, n)
        put(f"solver.iterations_per_solve.N{n}", sum(s.info[1] for s in group), len(group))
    for n in SIDES:
        group = at(sh, n)
        put(f"solver.ms_per_solve.N{n}", ms(group), len(group))
    residuals = [s.info[2] for s in solves if not math.isnan(s.info[2])]
    put("solver.max_residual", max(residuals, default=0.0), 1, ran=bool(residuals))
    per_pass("solver.failures", sh, sum(not s.ok for s in solves))
    put("solver.converged_ratio", sum(s.ok for s in solves), len(solves))
    per_pass("solver.solve_homogeneous.calls", "solver.solve_homogeneous",
             len(by_name["solver.solve_homogeneous"]))
    for n in SIDES:
        put(f"solver.solve_homogeneous.ms_per_call.N{n}", probe_ms.get(n, 0.0), 1,
            ran=n in probe_ms)

    op = "environment.apply_operator"
    per_pass(f"{op}.calls", op, len(by_name[op]))
    per_pass(f"{op}.self_s", op)
    for n in SIDES:
        group = at(op, n)
        put(f"{op}.us_per_call.N{n}", 1e3 * ms(group), len(group))
    per_pass("environment.sample_environment.self_s", "environment.sample_environment")

    gff = "sampler.sample_gff"
    in_gff = _under(spans, gff)
    per_pass(f"{gff}.calls", gff, len(by_name[gff]))
    per_pass(f"{gff}.self_s", gff)
    per_pass(f"{gff}.failures", gff, sum(not s.ok for s in by_name[gff]))
    applies = [s for s in by_name[op] if s.id in in_gff]
    per_pass("sampler.inv_sqrt.applies", gff, len(applies))
    for n in SIDES:
        put(f"sampler.inv_sqrt.applies_per_draw.N{n}",
            sum(s.info[0] == n for s in applies), len(at(gff, n)))
    per_pass("sampler.sample_bilaplacian.self_s", "sampler.sample_bilaplacian")
    per_pass("sampler.dump_field.self_s", "sampler.dump_field")
    per_pass("sampler.dump_field.bytes", "sampler.dump_field",
             sum(s.info[0] for s in by_name["sampler.dump_field"]))

    per_pass("lattice.dft.calls", "lattice.dft", len(by_name["lattice.dft"]))
    per_pass("lattice.dft.self_s", "lattice.dft")
    per_pass("lattice.fourier_mode.self_s", "lattice.fourier_mode")
    per_pass("homogenization.solve_corrector.calls", "homogenization.solve_corrector",
             len(by_name["homogenization.solve_corrector"]))
    per_pass("homogenization.estimate_ahom.self_s", "homogenization.estimate_ahom")
    put("experiments.self_s",
        sum(self_t[s.id] for s in spans if s.name.startswith("experiments.")),
        ran=any(s.name.startswith("experiments.") for s in spans))
    per_pass("cli.main.self_s", "cli.main")
    heatmaps = by_name["cli.write_heatmap"] + by_name["cli.render_heatmap"]
    per_pass("cli.write_heatmap.self_s", "cli.write_heatmap",
             sum(self_t[s.id] for s in heatmaps))
    put("cli.bytes_written", bytes_written)
    m["trace.overhead_s"] = overhead_s
    return m, na


def self_shares(spans) -> dict:
    """Share of traced time spent in each function's own code."""
    self_t = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    shares = defaultdict(float)
    for s in spans:
        shares[s.name] += self_t[s.id] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
