"""The benchmark's workloads: the ``homfield`` CLI calls each one makes, the
warm-up calls that run before timing starts, and the checks that every
call's output must pass.

A workload is a fixed list of calls. One pass runs the list once. Every call
of a run, warm-ups included, gets the workload seed as its ``--seed``, so the
same seed always gives the same inputs and every pass of a run does the same
work.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
BERNOULLI = "bernoulli(0.5,1,2)"
AHOM_RTOL = 0.03              # criterion 2's bound on |ahom - sqrt 2| / sqrt 2
FINGERPRINT_MODES = ((1, 0), (0, 1), (1, 1))


def ini(**keys) -> str:
    """INI text with a single [run] section, keys in the given order."""
    return "[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


@dataclass(frozen=True)
class Call:
    tag: str          # unique within its workload; names config and output dir
    command: str      # homfield subcommand
    config: str       # INI text
    flags: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple      # timed, in order
    warmups: tuple    # one per grid size, run once before timing


def _sample(tag, field, N, heatmap=True) -> Call:
    flags = ("--heatmap",) if heatmap else ()
    return Call(tag, "sample", ini(d=2, N=N, field=field, law=BERNOULLI), flags)


def _ahom(N, M) -> tuple:
    return (
        (Call(f"ahom-N{N}", "ahom", ini(d=2, N=N, M=M, law=BERNOULLI)),),
        (Call(f"warm-ahom-N{N}", "ahom", ini(d=2, N=N, M=2, law=BERNOULLI)),),
    )


def _rates(Ns, M) -> tuple:
    cfg = ini(experiment="bilap", d=2, N=",".join(map(str, Ns)), M=M,
              law=BERNOULLI, beta=0.75, mode_cutoff=2, ahom=repr(SQRT2),
              expect_slope=-2, slope_tol=0.3)
    warm = tuple(_sample(f"warm-bilap-N{n}", "bilap", n, heatmap=False) for n in Ns)
    return (Call("rates-bilap", "rates", cfg),), warm


def _cov(N) -> tuple:
    cfg = ini(d=2, N=N, M=2, law=BERNOULLI, noise_replicates=50,
              kset="1,0; 0,1; 1,1; 2,0")
    return ((Call(f"cov-N{N}", "cov", cfg),),
            (_sample(f"warm-gff-N{N}", "gff", N, heatmap=False),))


def _sample_workload(gff_sides, figure_side) -> tuple:
    calls = tuple(_sample(f"gff-N{n}", "gff", n) for n in gff_sides)
    calls += (Call(f"figure1-N{figure_side}", "figure1", ini(N=figure_side)),)
    small, large = gff_sides
    warm = (
        _sample(f"warm-gff-N{small}", "gff", small, heatmap=False),
        _sample(f"warm-bilap-N{large}", "bilap", large, heatmap=False),
        Call(f"warm-figure1-N{figure_side}", "figure1", ini(N=figure_side)),
    )
    return calls, warm


# solve runs the PCG solver and never the sampler; sample runs Lanczos draws
# and only four solves. A change to one path is predicted flat on the other.
# M and the large gff side keep a pass at a few seconds with work that does
# not depend on the seed (at N=128 Lanczos takes 307 to 338 steps by seed);
# manifest.json gives the measurements.
WHY = {
    "solve": "ahom at N=256 (32 real corrector solves, preconditioned PCG) and bilap "
             "rates at N=16..128 (96 complex solves, mostly unpreconditioned); "
             "solver bound, no sampler",
    "sample": "cov at N=32 (100 Lanczos A^(-1/2)z draws, DFT projections), gff dumps "
              "and heatmaps at N=64 and 96, figure1 at N=150; sampler bound, few solves",
}

# Fingerprint tolerance of each subcommand, from the solver tolerance it runs at.
FINGERPRINT_RTOL = {"ahom": 1e-6, "rates": 1e-6, "cov": 1e-4, "sample": 1e-4,
                    "figure1": 1e-6}


def _join(*parts) -> tuple:
    return (sum((calls for calls, _ in parts), ()),
            sum((warm for _, warm in parts), ()))


def workloads(tiny: bool = False) -> dict:
    """The two workloads at their benchmark sizes, or at tiny sizes that run
    in about a second each (for the benchmark's own tests)."""
    if tiny:
        parts = {"solve": _join(_ahom(16, 4), _rates((8, 16, 32), 2)),
                 "sample": _join(_cov(8), _sample_workload((8, 16), 16))}
    else:
        parts = {"solve": _join(_ahom(256, 16), _rates((16, 32, 64, 128), 2)),
                 "sample": _join(_cov(32), _sample_workload((64, 96), 150))}
    return {name: Workload(name, WHY[name], calls, warm)
            for name, (calls, warm) in parts.items()}


# ---------------------------------------------------------------------------
# output checks


def parse_config(text: str) -> dict:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return dict(parser["run"])


def _runlog(out_dir) -> dict:
    with open(os.path.join(out_dir, "runlog.jsonl")) as fh:
        return json.loads(fh.read().splitlines()[-1])


def _field_print(values) -> list:
    """Norm and a few low-mode DFT coefficients of a real 2-d field."""
    spec = np.fft.fftn(values) / values.size
    out = [float(np.linalg.norm(values))]
    for k in FINGERPRINT_MODES:
        out += [float(spec[k].real), float(spec[k].imag)]
    return out


def _check_ahom(call, cfg, out_dir, seed) -> tuple:
    rec = _runlog(out_dir)
    M = int(cfg["m"])
    problems = []
    if not abs(rec["ahom_mean"] - SQRT2) / SQRT2 < AHOM_RTOL:
        problems.append(f"ahom {rec['ahom_mean']} is not within {AHOM_RTOL} of sqrt 2")
    if rec["samples"] != M:
        problems.append(f"{rec['samples']} samples, expected {M}")
    if rec["failures"] != 0:
        problems.append(f"{rec['failures']} solver failures")
    return problems, {"ahom": [rec["ahom_mean"]]}


def _check_rates(call, cfg, out_dir, seed) -> tuple:
    path = os.path.join(out_dir, f"rates_{cfg['experiment']}.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    Ns = [int(n) for n in cfg["n"].split(",")]
    values = [float(r["value"]) for r in rows]
    problems = []
    if [int(r["N"]) for r in rows] != Ns:
        problems.append(f"rate points at N={[r['N'] for r in rows]}, expected {Ns}")
    if not all(math.isfinite(v) and v > 0 for v in values):
        problems.append(f"rate values {values} are not all finite and positive")
    return problems, {"points": values}


def _check_cov(call, cfg, out_dir, seed) -> tuple:
    with open(os.path.join(out_dir, "covariance.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    nk = len([p for p in cfg["kset"].split(";") if p.strip()])
    if len(rows) != nk * nk:
        return [f"{len(rows)} covariance entries, expected {nk * nk}"], {}
    cov = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows]).reshape(nk, nk)
    problems = []
    if not np.all(np.isfinite(cov)):
        problems.append("covariance has non-finite entries")
    elif not np.allclose(cov, cov.conj().T, rtol=0, atol=1e-12 * np.abs(cov).max()):
        problems.append("covariance is not Hermitian")
    return problems, {"covariance": list(np.concatenate([cov.real.ravel(),
                                                         cov.imag.ravel()]))}


def _check_dump(path, kind, N, problems) -> list:
    from homfield.sampler import load_field

    smp = load_field(path)
    values = smp.field.values
    name = os.path.basename(path)
    if smp.kind != kind or smp.field.grid.N != N:
        problems.append(f"{name}: kind {smp.kind} N {smp.field.grid.N}, "
                        f"expected {kind} N {N}")
    if not np.all(np.isfinite(values)):
        problems.append(f"{name}: non-finite values")
    elif abs(values.mean()) > 1e-10 * np.abs(values).max():
        problems.append(f"{name}: mean {values.mean()} is not zero")
    return _field_print(values)


def _check_heatmap(path, N, problems) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P6\n{N} {N}\n255\n".encode()
    if not data.startswith(header) or len(data) != len(header) + 3 * N * N:
        problems.append(f"{os.path.basename(path)}: malformed {N}x{N} heatmap")
    if not os.path.isfile(path + ".json"):
        problems.append(f"{os.path.basename(path)}: missing sidecar")


def _check_sample(call, cfg, out_dir, seed) -> tuple:
    N = int(cfg["n"])
    kind = f"{cfg['field']}_env"
    stem = os.path.join(out_dir, f"field_{kind}_N{N}_seed{seed}")
    problems = []
    fp = {"field": _check_dump(stem + ".hf", kind, N, problems)}
    if "--heatmap" in call.flags:
        _check_heatmap(stem + ".ppm", N, problems)
    return problems, fp


def _check_figure1(call, cfg, out_dir, seed) -> tuple:
    from homfield.cli import FIGURE1_PANELS

    N = int(cfg["n"])
    problems, fp = [], {}
    with open(os.path.join(out_dir, "figure1_report.json")) as fh:
        if json.load(fh)["passed"] is not True:
            problems.append("figure1 report has passed != true")
    for name, _ in FIGURE1_PANELS:
        stem = os.path.join(out_dir, f"figure1_{name}")
        fp[name] = _check_dump(stem + ".hf", "bilap_env", N, problems)
        _check_heatmap(stem + ".ppm", N, problems)
    return problems, fp


CHECKS = {"ahom": _check_ahom, "rates": _check_rates, "cov": _check_cov,
          "sample": _check_sample, "figure1": _check_figure1}


def check_call(call: Call, out_dir, seed: int) -> tuple:
    """Problems found in a successful call's outputs (empty when it passes)
    and the call's fingerprint."""
    cfg = parse_config(call.config)
    try:
        return CHECKS[call.command](call, cfg, out_dir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {exc!r}"], {}


def compare_fingerprint(got: dict, ref: dict, rtol: float) -> list:
    """Each group of numbers must match the recorded one to within rtol of
    the group's largest magnitude."""
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            problems.append(f"fingerprint {key}: shape differs from the record")
            continue
        scale = max(abs(v) for v in want) or 1.0
        err = max(abs(a - b) for a, b in zip(have, want))
        if err > rtol * scale:
            problems.append(f"fingerprint {key}: differs from the record by "
                            f"{err / scale:.2e} relative (tolerance {rtol:.0e})")
    return problems
