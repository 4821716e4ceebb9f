"""Benchmark of the ``homfield`` command line, run from the root of a checkout:

    python3 perfbench/run.py --workload solve|sample --seed N
        --seconds S --trace 0|1

Each run starts fresh worker processes (``worker.py``): two that only set up,
then one that sets up and runs the workload's timed passes. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. The full run
record (machine, versions, configs, every call, spans) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER
from workloads import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("solve", "sample")
SETUP_PROBES = 2      # set-up-only processes; with the timed one, 3 set-up samples
BUDGET_S = 170.0      # the whole run, all processes included
# One BLAS thread: with OpenBLAS's default of one thread per core, the Lanczos
# sampler keeps both cores busy and still runs slower and noisier.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "passed_frac": ("ratio", "higher"),
}


class BenchError(RuntimeError):
    pass


def git_commit(root) -> str:
    """HEAD commit read from .git, or a note when the checkout has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(args, workdir, deadline) -> dict:
    """Run one worker process to completion and return its result."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--workdir", workdir, "--result", result_path, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def run(args) -> tuple:
    deadline = time.monotonic() + BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out = os.path.join(OUT, tag)
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    probes = [spawn(common + ["--setup-only"], os.path.join(out, f"setup{i}"), deadline)
              for i in range(SETUP_PROBES)]
    timed = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  os.path.join(out, "run"), deadline)

    workload = workloads(tiny=args.tiny)[args.workload]
    setups = [p["setup_s"] for p in probes] + [timed["setup_s"]]
    attempted = timed["attempted"] + sum(p["attempted"] for p in probes)
    failed = timed["failed"] + sum(p["failed"] for p in probes)
    incorrect = timed["incorrect"] + sum(p["incorrect"] for p in probes)
    e2e = {
        "wall_s": timed["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
        "passed_frac": (attempted - failed) / attempted,
    }
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "git_commit": git_commit(ROOT), "environment": timed["environment"],
        "load": "closed loop, one process, one CLI call at a time",
        "calls": {c.tag: {"command": c.command, "flags": list(c.flags), "config": c.config}
                  for c in workload.warmups + workload.calls},
        "end_to_end": e2e, "setup_samples": setups,
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "setup_probes": [p["warmups"] for p in probes],
        **{k: timed[k] for k in ("warmups", "passes", "traced_passes", "mismatches",
                                 "layer", "not_applicable", "self_shares") if k in timed},
    }
    with open(os.path.join(out, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": timed["layer"][k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
    line = {"correct": incorrect == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, os.path.join(out, "record.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homfield", "cli.py")):
        print(f"perfbench: no homfield sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        line, record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"record: {os.path.relpath(record, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
