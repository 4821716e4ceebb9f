"""Command-line entry point: field sampling and heatmaps, effective
coefficient estimation, rate experiments, covariance reports, and the
four-panel shared-noise figure.

Subcommands: ``sample``, ``ahom``, ``rates``, ``cov``, ``figure1``.

Configuration is a flat INI file with a single ``[run]`` section, parsed by
:mod:`configparser`. Every key is read once, before any work starts; a
blank value counts as absent, and a value that does not parse is a
configuration error naming its key. Grammar (keys are optional unless a
command requires them)::

    [run]
    d = 2                         # dimension
    N = 64                        # grid side, >= 2 (rates: increasing comma
                                  # list of sides >= 2, e.g. 8,16,32)
    law = bernoulli(0.5,1,2)      # constant(c) | uniform(lo,hi) | bernoulli(p,a,b)
                                  # with finite atoms in [1, Lambda]; omit or
                                  # "homogeneous" for unit conductances
    field = bilap                 # sample: gff | bilap
    beta = 0.75                   # Sobolev order (bilap/disc experiments); any
                                  # value, 0 included, must pass the threshold
                                  # beta > d/4 (gff) or d/4 - 1/2 (bilap)
    kset = 1,0; 0,1; 1,1          # frequency list, components comma-separated
    M = 16                        # environment replicates, >= 1
    noise_replicates = 200        # noise draws per environment (cov / bilap
                                  # MC), >= 1
    seed = 0                      # master seed (u64); --seed overrides
    tol = 1e-8                    # iterative solver tolerance, in (0, 1)
    mode_cutoff = 2               # sup-norm truncation of mode sums (bilap),
                                  # >= 1; omit for the whole window
    experiment = pseudo           # rates: pseudo | bilap | disc | synthetic
                                  # (pseudo and bilap need a law)
    ahom = 1.4142135623730951     # effective coefficient; omit to estimate
                                  # (rates says so on stderr)
    expect_slope = -2             # optional rate assertion ...
    slope_tol = 0.3               # ... |slope - expect| <= tol, else exit 4;
                                  # a NaN slope (constant law, or fewer
                                  # than 3 sizes) fails it too
    backend = krylov              # how A^(-1/2) is applied (sample, cov):
                                  # spectral (exact FFT, no law only) |
                                  # dense (eigh, up to 4096 sites; in cov
                                  # with a law: A^(-1/2) to rounding by
                                  # shifted CG solves at tol 1e-13, and one
                                  # noise block per environment) |
                                  # krylov (shifted CG solves, to tol);
                                  # default spectral without a law, krylov
                                  # with one; cov applies it once per mode
                                  # and environment, all modes together

Every subcommand appends one JSON record to ``runlog.jsonl`` in the output
directory. Each record carries ``command``, ``config``, ``config_hash``
(sha256 of the sorted ``[run]`` keys), ``seed`` and ``wall_s``, plus the
subcommand's own results; ``figure1`` also writes its record to
``figure1_report.json``.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from .environment import EnvironmentLaw, sample_environment
from .homogenization import estimate_ahom, write_ahom_csv
from .lattice import TorusGrid
from .sampler import (
    dump_field,
    sample_bilaplacian,
    sample_gff,
    sample_noise,
)
from .solver import DEFAULT_TOL, SolverError
from .experiments import (
    AHOM_ESTIMATE_M,
    ExperimentConfig,
    RateSeries,
    bilap_error_rate,
    discretization_rate,
    gff_covariance_limit,
    pseudo_eigen_rate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSERT = 4


class ConfigError(ValueError):
    pass


class AssertionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in parser:
        raise ConfigError(f"config {path} is missing the [run] section")
    return dict(parser["run"])


def config_hash(cfg: dict) -> str:
    """Content hash of a config: sha256 over sorted key=value lines."""
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


_REQUIRED = object()


def _get(cfg, key, default=_REQUIRED, cast=str):
    """The stripped value of ``key`` passed through ``cast``. A blank or
    absent key gives ``default``, or a ConfigError when it is required; a
    value that ``cast`` rejects gives a ConfigError naming the key."""
    text = cfg.get(key, "").strip()
    if not text:
        if default is _REQUIRED:
            raise ConfigError(f"config key {key!r} is required for this command")
        return default
    try:
        return cast(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _parse_ns(text) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _parse_kset(text) -> tuple:
    return tuple(tuple(int(v) for v in part.split(","))
                 for part in text.split(";") if part.strip())


def _parse_law(text):
    return None if text == "homogeneous" else EnvironmentLaw.parse(text)


def _law(cfg):
    return _get(cfg, "law", default=None, cast=_parse_law)


def _seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    return _get(cfg, "seed", default=0, cast=int)


def write_runlog(args, cfg, seed, t0, **fields) -> dict:
    """Append one record to ``runlog.jsonl`` in the output directory and
    return it: the command's ``fields`` plus the envelope every record
    carries (command, config, config_hash, seed, wall_s since ``t0``)."""
    record = {"command": args.command, "config": cfg,
              "config_hash": config_hash(cfg), "seed": seed,
              "wall_s": time.time() - t0, **fields}
    with open(os.path.join(args.out, "runlog.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return record


# ---------------------------------------------------------------------------
# heatmaps


def render_heatmap(values: np.ndarray, grayscale: bool = False) -> bytes:
    """Render a 2-d field as a P6 portable pixmap, linearly scaled.

    Grayscale maps [min, max] to [0, 255]. The default palette is a
    blue-white-red diverging map centered at 0, sized by max |value|.
    """
    if values.ndim != 2:
        raise ValueError("heatmaps require a 2-d field")
    h, w = values.shape
    header = f"P6\n{w} {h}\n255\n".encode()
    if grayscale:
        lo, hi = float(values.min()), float(values.max())
        span = hi - lo if hi > lo else 1.0
        gray = np.clip(np.rint((values - lo) / span * 255), 0, 255).astype(np.uint8)
        rgb = np.repeat(gray[:, :, None], 3, axis=2)
    else:
        m = float(np.max(np.abs(values))) or 1.0
        t = np.clip(values / m, -1.0, 1.0)
        r = np.where(t < 0, 255 * (1 + t), 255.0)
        g = 255 * (1 - np.abs(t))
        b = np.where(t > 0, 255 * (1 - t), 255.0)
        rgb = np.clip(np.rint(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)
    return header + rgb.tobytes()


def write_heatmap(sample, path, cfg_hash, seed, grayscale=False) -> None:
    values = np.real(sample.field.values)
    with open(path, "wb") as fh:
        fh.write(render_heatmap(values, grayscale=grayscale))
    sidecar = {
        "min": float(values.min()),
        "max": float(values.max()),
        "seed": seed,
        "kind": sample.kind,
        "config_hash": cfg_hash,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# commands


def _sample_field(kind, grid, law, seed, backend, tol):
    a = None
    if law is not None:
        a = sample_environment(law, grid, np.random.SeedSequence(seed, spawn_key=(1,)))
    if kind == "gff":
        return sample_gff(grid, a, np.random.SeedSequence(seed, spawn_key=(2,)),
                          backend=backend, tol=tol)
    noise = sample_noise(grid, np.random.SeedSequence(seed, spawn_key=(2,)))
    return sample_bilaplacian(grid, a, noise, tol=tol)


def cmd_sample(args, cfg) -> int:
    d = _get(cfg, "d", default=2, cast=int)
    N = _get(cfg, "n", cast=int)
    kind = _get(cfg, "field", default="bilap")
    law = _law(cfg)
    tol = _get(cfg, "tol", default=DEFAULT_TOL, cast=float)
    seed = _seed(args, cfg)
    backend = _get(cfg, "backend", default=None)
    if kind not in ("gff", "bilap"):
        raise ConfigError(f"unknown field kind {kind!r} (expected gff or bilap)")
    if args.heatmap and d != 2:
        raise ConfigError("heatmaps require d = 2")
    grid = TorusGrid(N, d)
    t0 = time.time()
    smp = _sample_field(kind, grid, law, seed, backend, tol)
    dump_path = os.path.join(args.out, f"field_{smp.kind}_N{N}_seed{seed}.hf")
    dump_field(smp, dump_path)
    if args.heatmap:
        write_heatmap(smp, os.path.splitext(dump_path)[0] + ".ppm", config_hash(cfg), seed,
                      grayscale=args.grayscale)
    write_runlog(args, cfg, seed, t0, dump=os.path.basename(dump_path))
    print(f"wrote {dump_path}")
    return EXIT_OK


def cmd_ahom(args, cfg) -> int:
    d = _get(cfg, "d", default=2, cast=int)
    N = _get(cfg, "n", cast=int)
    M = _get(cfg, "m", default=16, cast=int)
    law = _law(cfg)
    if law is None:
        raise ConfigError("ahom needs an environment law")
    tol = _get(cfg, "tol", default=DEFAULT_TOL, cast=float)
    seed = _seed(args, cfg)
    t0 = time.time()
    est = estimate_ahom(law, N, M, seed, d=d, tol=tol)
    write_ahom_csv(os.path.join(args.out, "ahom.csv"), [est], d)
    write_runlog(args, cfg, seed, t0, ahom_mean=est.mean, ahom_stderr=est.stderr,
                 samples=est.samples, failures=est.failures,
                 iterations=est.iterations, max_residual=est.max_residual)
    print(f"ahom = {est.mean:.6f} +- {est.stderr:.2e} ({est.samples} samples)")
    return EXIT_OK


def _write_rate_csv(path, series: RateSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "N", "value", "stderr"])
        for n, v, s in series.points:
            writer.writerow([series.quantity, n, repr(float(v)), repr(float(s))])


def _experiment_config(cfg, seed, field_kind) -> ExperimentConfig:
    return ExperimentConfig(
        d=_get(cfg, "d", default=2, cast=int),
        law=_law(cfg),
        field_kind=field_kind,
        beta=_get(cfg, "beta", default=None, cast=float),
        Ns=_get(cfg, "n", cast=_parse_ns),
        kset=_get(cfg, "kset", default=(), cast=_parse_kset),
        replicates=_get(cfg, "m", default=8, cast=int),
        noise_replicates=_get(cfg, "noise_replicates", default=32, cast=int),
        seed=seed,
        ahom=_get(cfg, "ahom", default=None, cast=float),
        tol=_get(cfg, "tol", default=DEFAULT_TOL, cast=float),
        mode_cutoff=_get(cfg, "mode_cutoff", default=None, cast=int),
    )


def _with_ahom(ecfg: ExperimentConfig) -> tuple:
    """The config with ahom resolved, and the runlog entries that say how.

    An estimate is the same one the experiments would otherwise run
    unannounced; resolving it here lets the run report and record it.
    """
    estimated = ecfg.ahom is None and ecfg.law is not None
    if estimated:
        print(f"ahom not configured: estimating it from M={AHOM_ESTIMATE_M} "
              f"environments at N={max(ecfg.Ns)}", file=sys.stderr)
        ecfg = dataclasses.replace(ecfg, ahom=ecfg.resolve_ahom())
    return ecfg, {"ahom": ecfg.ahom, "ahom_estimated": estimated}


def cmd_rates(args, cfg) -> int:
    experiment = _get(cfg, "experiment")
    seed = _seed(args, cfg)
    expect = _get(cfg, "expect_slope", default=None, cast=float)
    slope_tol = _get(cfg, "slope_tol", default=0.3, cast=float)
    t0 = time.time()
    ahom_record = {}
    if experiment == "synthetic":
        # harness self-test: exact power law injected instead of measurement
        ns = _experiment_config(cfg, seed, "bilap").Ns
        series = RateSeries.from_points("synthetic_nm2", [(n, n**-2.0, 0.0) for n in ns])
    elif experiment == "pseudo":
        _get(cfg, "kset")  # checked before ahom is estimated
        ecfg, ahom_record = _with_ahom(_experiment_config(cfg, seed, "gff"))
        series = pseudo_eigen_rate(ecfg)
    elif experiment == "bilap":
        _get(cfg, "beta")  # checked before ahom is estimated
        ecfg, ahom_record = _with_ahom(_experiment_config(cfg, seed, "bilap"))
        series = bilap_error_rate(ecfg).series
    elif experiment == "disc":
        series = discretization_rate(_experiment_config(cfg, seed, "bilap"))
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")
    _write_rate_csv(os.path.join(args.out, f"rates_{experiment}.csv"), series)
    corrected = series.corrected[0] if series.corrected else None
    write_runlog(args, cfg, seed, t0, experiment=experiment, slope=series.slope,
                 half_width=series.half_width, corrected_slope=corrected,
                 **ahom_record)
    print(f"{series.quantity}: slope {series.slope:+.3f} "
          f"(half-width {series.half_width:.3f})"
          + (f", log-corrected {corrected:+.3f}" if series.corrected else ""))
    slope = series.slope if corrected is None else corrected
    # written so that a NaN slope fails the assertion
    if expect is not None and not abs(slope - expect) <= slope_tol:
        raise AssertionFailure(f"slope {slope:+.3f} outside {expect:g} +- {slope_tol}")
    return EXIT_OK


def cmd_cov(args, cfg) -> int:
    seed = _seed(args, cfg)
    ecfg = _experiment_config(cfg, seed, "gff")
    backend = _get(cfg, "backend", default=None)
    t0 = time.time()
    report = gff_covariance_limit(ecfg, backend=backend)
    path = os.path.join(args.out, "covariance.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_row", "k_col", "re", "im", "stderr"])
        for i, ki in enumerate(report.kset):
            for j, kj in enumerate(report.kset):
                writer.writerow([
                    " ".join(map(str, ki)), " ".join(map(str, kj)),
                    repr(float(np.real(report.covariance[i, j]))),
                    repr(float(np.imag(report.covariance[i, j]))),
                    repr(float(report.stderr[i, j])),
                ])
    write_runlog(args, cfg, seed, t0, fitted_constant=report.fitted_constant,
                 max_offdiag_z=report.max_offdiag_z(),
                 offdiag_frobenius=report.offdiag_frobenius(),
                 offdiag_frobenius_exact=report.offdiag_frobenius(exact=True))
    print(f"fitted constant {report.fitted_constant:.5f}, "
          f"max off-diagonal |z| {report.max_offdiag_z():.2f}")
    if report.max_offdiag_z() > 4.0:
        raise AssertionFailure("off-diagonal covariance outside the 4-sigma band")
    return EXIT_OK


FIGURE1_N = 150
FIGURE1_PANELS = (
    ("constant", EnvironmentLaw.constant(1.5)),
    ("uniform", EnvironmentLaw.uniform(1.0, 2.0)),
    ("bernoulli_a", EnvironmentLaw.bernoulli(0.5, 1.0, 2.0)),
    ("bernoulli_b", EnvironmentLaw.bernoulli(0.5, 1.0, 2.0)),
)


def _binomial_upper_tail(k: int, n: int) -> float:
    """P(X >= k) for X ~ Bin(n, 1/2), exactly: the shorter of the sums
    sum_(j <= n-k) C(n, j) and 2^n - sum_(j < k) C(n, j) in integers,
    divided once by 2^n (correctly rounded; 0.0 where it underflows)."""
    upper = n - k + 1 <= k
    total, binom = 0, 1
    for j in range(n - k + 1 if upper else k):
        total += binom
        binom = binom * (n - j) // (j + 1)
    return (total if upper else 2**n - total) / 2**n


def cmd_figure1(args, cfg) -> int:
    """Four shared-noise heatmaps of the driven field across environments,
    plus a one-sided sign test that the Bernoulli panels correlate
    site-wise with the constant-environment panel: the exact binomial tail
    P(X >= agreeing sites) for X ~ Bin(sites, 1/2), which must be below
    0.01."""
    seed = _seed(args, cfg)
    tol = _get(cfg, "tol", default=DEFAULT_TOL, cast=float)
    n_side = _get(cfg, "n", default=FIGURE1_N, cast=int)
    grid = TorusGrid(n_side, 2)
    noise = sample_noise(grid, np.random.SeedSequence(seed, spawn_key=(2,)))
    h = config_hash(cfg)
    t0 = time.time()
    fields = {}
    for idx, (name, law) in enumerate(FIGURE1_PANELS):
        a = sample_environment(law, grid, np.random.SeedSequence(seed, spawn_key=(1, idx)))
        smp = sample_bilaplacian(grid, a, noise, tol=tol)
        fields[name] = smp
        path = os.path.join(args.out, f"figure1_{name}.ppm")
        write_heatmap(smp, path, h, seed, grayscale=args.grayscale)
        dump_field(smp, os.path.join(args.out, f"figure1_{name}.hf"))

    ref = fields["constant"].field.centered().values
    tests = {}
    passed = True
    for name in ("bernoulli_a", "bernoulli_b"):
        other = fields[name].field.centered().values
        agree = int(np.count_nonzero(ref * other > 0))
        p_value = _binomial_upper_tail(agree, grid.n)
        tests[name] = {"agreeing_sites": agree, "sites": grid.n, "p_value": p_value}
        passed = passed and p_value < 0.01
    report = write_runlog(args, cfg, seed, t0, N=n_side, sign_tests=tests,
                          passed=passed)
    with open(os.path.join(args.out, "figure1_report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    for name, t in tests.items():
        print(f"{name}: {t['agreeing_sites']}/{t['sites']} sites agree, "
              f"p = {t['p_value']:.3e}")
    if not passed:
        raise AssertionFailure("sign test failed at the 1% level")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homfield",
        description="Gaussian fields in random conductance environments "
                    "on the discrete torus",
    )
    parser.add_argument("command", choices=["sample", "ahom", "rates", "cov", "figure1"])
    parser.add_argument("--config", help="INI config file with a [run] section")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--heatmap", action="store_true", help="also write a P6 heatmap")
    parser.add_argument("--grayscale", action="store_true",
                        help="grayscale palette instead of diverging")
    return parser


COMMANDS = {
    "sample": cmd_sample,
    "ahom": cmd_ahom,
    "rates": cmd_rates,
    "cov": cmd_cov,
    "figure1": cmd_figure1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made_out = not os.path.exists(args.out)
    try:
        cfg = load_config(args.config) if args.config else {}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc.strerror}") from exc
        return COMMANDS[args.command](args, cfg)
    except (ValueError, configparser.Error) as exc:
        if made_out and os.path.isdir(args.out) and not os.listdir(args.out):
            os.rmdir(args.out)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
