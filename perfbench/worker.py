"""One run of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 T --workdir DIR --result FILE [--setup-only] [--tiny]

Set-up covers the imports, writing the config files and one warm-up call per
grid size; it is measured from ``--t0``, the parent's ``time.monotonic()``
just before it started this process, to the first timed call. ``--setup-only``
stops there.

Timed passes follow, closed loop: one ``homfield.cli.main`` call at a time, in
process, each checked on its output. Every call gets the workload seed, so all
passes do the same work; the run reports their mean. Passes repeat until
the next one would end after ``--seconds`` (at least three). With
``--trace 1`` the same number of passes then runs again under the span
tracer, and every pass, traced or not, must write the same bytes, timing
fields aside.

``--record`` runs one pass at seed 0 and stores its fingerprints in
``fingerprints.json``, which later runs at seed 0 are compared against.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from tracer import Tracer, layer_metrics, self_shares
from workloads import FINGERPRINT_RTOL, check_call, compare_fingerprint, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
MIN_PASSES = 3
MAX_PASSES = 200
PROBE_REPS = 20


def import_program():
    """Import the CLI from the checkout's sources."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import homfield.cli

    return homfield.cli


# ---------------------------------------------------------------------------
# one CLI call


def _normalized(path) -> bytes:
    """File bytes, with the run's own timings dropped from JSON records."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".jsonl"):
        records = [json.loads(line) for line in data.splitlines()]
    elif path.endswith(".json"):
        records = [json.loads(data)]
    else:
        return data
    for rec in records:
        rec.pop("wall_s", None)
    return json.dumps(records, sort_keys=True).encode()


def _outputs(out_dir) -> tuple:
    """(digest of the normalized outputs, total bytes written)."""
    digest = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        digest.update(name.encode() + b"\0" + _normalized(path) + b"\0")
    return digest.hexdigest(), total


class Runner:
    """Makes checked CLI calls for one workload and keeps their results."""

    def __init__(self, workload, workdir, fingerprints=None):
        self.workload = workload
        self.workdir = workdir
        self.fingerprints = fingerprints or {}
        self.tracer = None    # set by traced_run while its passes run
        self.calls = []

    def config_path(self, call):
        return os.path.join(self.workdir, "configs", call.tag + ".ini")

    def write_configs(self):
        os.makedirs(os.path.join(self.workdir, "configs"), exist_ok=True)
        for call in self.workload.calls + self.workload.warmups:
            with open(self.config_path(call), "w") as fh:
                fh.write(call.config)

    def call(self, call, seed: int) -> dict:
        cli = sys.modules["homfield.cli"]
        out = os.path.join(self.workdir, "out", call.tag)
        shutil.rmtree(out, ignore_errors=True)
        argv = [call.command, "--config", self.config_path(call), "--seed", str(seed),
                "--out", out, *call.flags]
        rc, error = None, None
        if self.tracer is not None:
            self.tracer.call_id = len(self.calls)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc(limit=-4)
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.call_id = None

        problems, digest, written = [], None, 0
        if rc == 0:
            problems, fp = check_call(call, out, seed)
            ref = self.fingerprints.get(call.tag)
            if seed == 0 and ref and ref["config"] == call.config:
                problems += compare_fingerprint(fp, ref["fingerprint"],
                                                FINGERPRINT_RTOL[call.command])
            digest, written = _outputs(out)
        elif error is None:
            error = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
        result = {"tag": call.tag, "seed": seed, "seconds": seconds, "rc": rc,
                  "passed": rc == 0 and not problems, "problems": problems,
                  "error": error, "digest": digest, "bytes": written}
        self.calls.append(result)
        return result

    def passes(self, seed: int, seconds: float, count: int = None) -> list:
        """Run whole passes; ``count`` fixes their number, otherwise they
        repeat while the next one fits in ``seconds``."""
        out = []
        start = time.perf_counter()
        while True:
            calls = [self.call(c, seed) for c in self.workload.calls]
            out.append({"wall_s": sum(c["seconds"] for c in calls), "calls": calls})
            n = len(out)
            if count is not None:
                if n >= count:
                    return out
                continue
            typical = statistics.median(p["wall_s"] for p in out)
            if n >= MAX_PASSES or (
                    n >= MIN_PASSES and time.perf_counter() - start + typical > seconds):
                return out


def mismatches(passes) -> list:
    """Calls whose outputs differ from the same call's in an earlier pass.
    Every pass of a run has the same inputs, so all outputs must agree."""
    first, out = {}, []
    for p in passes:
        for c in p["calls"]:
            if c["passed"] and first.setdefault(c["tag"], c["digest"]) != c["digest"]:
                out.append(f"{c['tag']}: outputs differ between passes")
    return out


# ---------------------------------------------------------------------------
# run record


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None when unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# traced run


def probe_homogeneous(sides, d: int = 2) -> dict:
    """Median ms of one solve_homogeneous at each grid side: the same
    spectral inverse as the private PCG preconditioner."""
    import numpy as np
    from homfield.lattice import LatticeField, TorusGrid
    from homfield.solver import solve_homogeneous

    rng = np.random.default_rng(0)
    out = {}
    for n in sorted(sides):
        grid = TorusGrid(n, d)
        v = rng.standard_normal(grid.shape)
        rhs = LatticeField(grid, v - v.mean())
        solve_homogeneous(grid, rhs)
        times = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter()
            solve_homogeneous(grid, rhs)
            times.append(time.perf_counter() - start)
        out[n] = 1e3 * statistics.median(times)
    return out


def traced_run(runner, seed, seconds, workdir) -> dict:
    plain = runner.passes(seed, seconds)
    with Tracer() as tracer:
        runner.tracer = tracer
        traced = runner.passes(seed, seconds, count=len(plain))
        runner.tracer = None
    spans = tracer.spans
    sides = {s.info[0] for s in spans if s.name in (
        "environment.apply_operator", "solver.solve_heterogeneous", "sampler.sample_gff")}
    overhead = (statistics.mean(p["wall_s"] for p in traced)
                - statistics.mean(p["wall_s"] for p in plain))
    metrics, na = layer_metrics(
        spans, len(traced), sum(c["bytes"] for p in traced for c in p["calls"]),
        probe_homogeneous(sides), overhead)
    with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
    by_tag = {}
    for s in spans:
        by_tag.setdefault(runner.calls[s.call_id]["tag"], []).append(s)
    shares = {tag: {k: round(v, 4) for k, v in self_shares(group).items() if v >= 1e-3}
              for tag, group in by_tag.items()}
    return {"passes": plain, "traced_passes": traced, "layer": metrics, "not_applicable": na,
            "self_shares": shares}


# ---------------------------------------------------------------------------
# entry point


def load_fingerprints(name) -> dict:
    if not os.path.isfile(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as fh:
        return json.load(fh).get(name, {})


def record_fingerprints(workload, workdir) -> None:
    runner = Runner(workload, workdir)
    runner.write_configs()
    stored = {}
    if os.path.isfile(FINGERPRINTS):
        with open(FINGERPRINTS) as fh:
            stored = json.load(fh)
    entry = {}
    for call in workload.calls:
        result = runner.call(call, 0)
        if not result["passed"]:
            raise SystemExit(f"{call.tag} failed at seed 0: {result}")
        _, fp = check_call(call, os.path.join(workdir, "out", call.tag), 0)
        entry[call.tag] = {"config": call.config, "fingerprint": fp}
    stored[workload.name] = entry
    with open(FINGERPRINTS, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args) -> dict:
    workload = workloads(tiny=args.tiny)[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    import_program()
    if args.record:
        record_fingerprints(workload, args.workdir)
        return {}
    runner = Runner(workload, args.workdir, load_fingerprints(workload.name))
    runner.write_configs()
    for call in workload.warmups:
        runner.call(call, args.seed)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if args.trace:
            result.update(traced_run(runner, args.seed, args.seconds, args.workdir))
        else:
            result["passes"] = runner.passes(args.seed, args.seconds)
        result["mismatches"] = mismatches(result["passes"] + result.get("traced_passes", []))
        # The mean, not the median: on a shared host the machine speed moves
        # between levels that last several seconds, and the median of a run's
        # passes jumps between them where the mean varies smoothly.
        result["wall_s"] = statistics.mean(p["wall_s"] for p in result["passes"])
        result["environment"] = environment()
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(runner.calls),
        failed=sum(not c["passed"] for c in runner.calls),
        incorrect=sum(c["rc"] == 0 and not c["passed"] for c in runner.calls)
        + len(result.get("mismatches", ())),
        warmups=runner.calls[:len(workload.warmups)],
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    result = run(args)
    if args.result:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
