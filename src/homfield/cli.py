"""Command-line entry point: field sampling and heatmaps, effective
coefficient estimation, rate experiments, covariance reports, and the
four-panel shared-noise figure.

Subcommands: ``sample``, ``ahom``, ``rates``, ``cov``, ``figure1``.

Configuration is a flat INI file with a single ``[run]`` section, parsed by
:mod:`configparser`. Grammar (keys are optional unless a command requires
them)::

    [run]
    d = 2                         # dimension
    N = 64                        # grid side (rates: comma list, e.g. 8,16,32)
    law = bernoulli(0.5,1,2)      # constant(c) | uniform(lo,hi) | bernoulli(p,a,b)
                                  # omit or "homogeneous" for unit conductances
    field = bilap                 # sample: gff | bilap
    beta = 0.75                   # Sobolev order (bilap/disc experiments)
    kset = 1,0; 0,1; 1,1          # frequency list, components comma-separated
    M = 16                        # environment replicates
    noise_replicates = 200        # noise draws per environment (cov / bilap MC)
    seed = 0                      # master seed (u64); --seed overrides
    tol = 1e-8                    # iterative solver tolerance
    mode_cutoff = 2               # sup-norm truncation of mode sums (bilap)
    experiment = pseudo           # rates: pseudo | bilap | disc | synthetic
                                  # (pseudo and bilap need a law)
    ahom = 1.4142135623730951     # effective coefficient; omit to estimate
    expect_slope = -2             # optional rate assertion ...
    slope_tol = 0.3               # ... |slope - expect| <= tol, else exit 4
    backend = krylov              # cov/sample backend override: krylov
                                  # (shifted CG solves, to tol) | dense;
                                  # for cov it picks how A^(-1/2) phi_k is
                                  # computed, once per mode and environment

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
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


def _get(cfg, key, default=None, cast=str):
    if key not in cfg or str(cfg[key]).strip() == "":
        if default is None:
            raise ConfigError(f"config key {key!r} is required for this command")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _parse_ns(text) -> tuple:
    return tuple(int(v) for v in str(text).split(","))


def _parse_kset(text) -> tuple:
    out = []
    for part in str(text).split(";"):
        part = part.strip()
        if part:
            out.append(tuple(int(v) for v in part.split(",")))
    return tuple(out)


def _parse_law(cfg):
    text = str(cfg.get("law", "")).strip()
    if not text or text == "homogeneous":
        return None
    return EnvironmentLaw.parse(text)


def _seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    return _get(cfg, "seed", default=0, cast=int)


def write_runlog(out_dir, record) -> None:
    with open(os.path.join(out_dir, "runlog.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")


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
    if kind == "bilap":
        noise = sample_noise(grid, np.random.SeedSequence(seed, spawn_key=(2,)))
        return sample_bilaplacian(grid, a, noise, tol=tol)
    raise ConfigError(f"unknown field kind {kind!r} (expected gff or bilap)")


def cmd_sample(args, cfg) -> int:
    d = _get(cfg, "d", default=2, cast=int)
    N = _get(cfg, "n", cast=int)
    kind = _get(cfg, "field", default="bilap")
    law = _parse_law(cfg)
    tol = _get(cfg, "tol", default=DEFAULT_TOL, cast=float)
    seed = _seed(args, cfg)
    backend = args.backend or cfg.get("backend") or None
    grid = TorusGrid(N, d)
    t0 = time.time()
    smp = _sample_field(kind, grid, law, seed, backend, tol)
    h = config_hash(cfg)
    dump_path = os.path.join(args.out, f"field_{smp.kind}_N{N}_seed{seed}.hf")
    dump_field(smp, dump_path)
    if args.heatmap:
        if d != 2:
            raise ConfigError("heatmaps require d = 2")
        write_heatmap(smp, dump_path.replace(".hf", ".ppm"), h, seed,
                      grayscale=args.grayscale)
    write_runlog(args.out, {
        "command": "sample", "config": cfg, "config_hash": h, "seed": seed,
        "wall_s": time.time() - t0, "dump": os.path.basename(dump_path),
    })
    print(f"wrote {dump_path}")
    return EXIT_OK


def cmd_ahom(args, cfg) -> int:
    d = _get(cfg, "d", default=2, cast=int)
    N = _get(cfg, "n", cast=int)
    M = _get(cfg, "m", default=16, cast=int)
    law = _parse_law(cfg)
    if law is None:
        raise ConfigError("ahom needs an environment law")
    tol = _get(cfg, "tol", default=DEFAULT_TOL, cast=float)
    seed = _seed(args, cfg)
    t0 = time.time()
    est = estimate_ahom(law, N, M, seed, d=d, tol=tol)
    h = config_hash(cfg)
    csv_path = os.path.join(args.out, "ahom.csv")
    write_ahom_csv(csv_path, [est], d)
    write_runlog(args.out, {
        "command": "ahom", "config": cfg, "config_hash": h, "seed": seed,
        "wall_s": time.time() - t0, "ahom_mean": est.mean,
        "ahom_stderr": est.stderr, "samples": est.samples,
        "failures": est.failures,
    })
    print(f"ahom = {est.mean:.6f} +- {est.stderr:.2e} ({est.samples} samples)")
    return EXIT_OK


def _write_rate_csv(path, series: RateSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "N", "value", "stderr"])
        for n, v, s in series.points:
            writer.writerow([series.quantity, n, repr(float(v)), repr(float(s))])


def _experiment_config(cfg, seed, field_kind) -> ExperimentConfig:
    law = _parse_law(cfg)
    ahom_text = str(cfg.get("ahom", "")).strip()
    return ExperimentConfig(
        d=_get(cfg, "d", default=2, cast=int),
        law=law,
        field_kind=field_kind,
        beta=_get(cfg, "beta", default=0, cast=float) or None,
        Ns=_parse_ns(_get(cfg, "n")),
        kset=_parse_kset(cfg.get("kset", "")),
        replicates=_get(cfg, "m", default=8, cast=int),
        noise_replicates=_get(cfg, "noise_replicates", default=32, cast=int),
        seed=seed,
        ahom=float(ahom_text) if ahom_text else None,
        tol=_get(cfg, "tol", default=DEFAULT_TOL, cast=float),
        mode_cutoff=_get(cfg, "mode_cutoff", default=0, cast=int) or None,
    )


def cmd_rates(args, cfg) -> int:
    experiment = _get(cfg, "experiment")
    seed = _seed(args, cfg)
    t0 = time.time()
    if experiment == "synthetic":
        # harness self-test: exact power law injected instead of measurement
        ns = _parse_ns(_get(cfg, "n"))
        series = RateSeries.from_points("synthetic_nm2", [(n, n**-2.0, 0.0) for n in ns])
    elif experiment == "pseudo":
        ecfg = _experiment_config(cfg, seed, "gff")
        series = pseudo_eigen_rate(ecfg)
    elif experiment == "bilap":
        ecfg = _experiment_config(cfg, seed, "bilap")
        series = bilap_error_rate(ecfg).series
    elif experiment == "disc":
        ecfg = _experiment_config(cfg, seed, "bilap")
        series = discretization_rate(ecfg)
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")
    h = config_hash(cfg)
    _write_rate_csv(os.path.join(args.out, f"rates_{experiment}.csv"), series)
    slope = series.corrected[0] if series.corrected else series.slope
    record = {
        "command": "rates", "experiment": experiment, "config": cfg,
        "config_hash": h, "seed": seed, "wall_s": time.time() - t0,
        "slope": series.slope, "half_width": series.half_width,
        "corrected_slope": series.corrected[0] if series.corrected else None,
    }
    write_runlog(args.out, record)
    print(f"{series.quantity}: slope {series.slope:+.3f} "
          f"(half-width {series.half_width:.3f})"
          + (f", log-corrected {series.corrected[0]:+.3f}" if series.corrected else ""))
    expect = str(cfg.get("expect_slope", "")).strip()
    if expect:
        tol = _get(cfg, "slope_tol", default=0.3, cast=float)
        if abs(slope - float(expect)) > tol:
            raise AssertionFailure(
                f"slope {slope:+.3f} outside {expect} +- {tol}"
            )
    return EXIT_OK


def cmd_cov(args, cfg) -> int:
    seed = _seed(args, cfg)
    ecfg = _experiment_config(cfg, seed, "gff")
    backend = args.backend or cfg.get("backend") or "krylov"
    t0 = time.time()
    report = gff_covariance_limit(ecfg, backend=backend)
    h = config_hash(cfg)
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
    write_runlog(args.out, {
        "command": "cov", "config": cfg, "config_hash": h, "seed": seed,
        "wall_s": time.time() - t0, "fitted_constant": report.fitted_constant,
        "max_offdiag_z": report.max_offdiag_z(),
        "offdiag_frobenius": report.offdiag_frobenius(),
        "offdiag_frobenius_exact": report.offdiag_frobenius(exact=True),
    })
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


def cmd_figure1(args, cfg) -> int:
    """Four shared-noise heatmaps of the driven field across environments,
    plus a sign test that the Bernoulli panels correlate site-wise with the
    constant-environment panel."""
    from scipy.stats import binomtest

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

    # one report may only aggregate heatmaps from this config
    for name, _ in FIGURE1_PANELS:
        with open(os.path.join(args.out, f"figure1_{name}.ppm.json")) as fh:
            if json.load(fh)["config_hash"] != h:
                raise AssertionFailure("mixed config hashes in figure report")

    ref = fields["constant"].field.centered().values
    tests = {}
    passed = True
    for name in ("bernoulli_a", "bernoulli_b"):
        other = fields[name].field.centered().values
        agree = int(np.count_nonzero(ref * other > 0))
        res = binomtest(agree, grid.n, 0.5, alternative="greater")
        tests[name] = {"agreeing_sites": agree, "sites": grid.n,
                       "p_value": float(res.pvalue)}
        passed = bool(passed and res.pvalue < 0.01)
    report = {
        "command": "figure1", "config": cfg, "config_hash": h, "seed": seed,
        "N": n_side, "wall_s": time.time() - t0, "sign_tests": tests,
        "passed": passed,
    }
    with open(os.path.join(args.out, "figure1_report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    write_runlog(args.out, report)
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
    parser.add_argument("--backend", help="solver/sampler backend override")
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
    try:
        cfg = load_config(args.config) if args.config else {}
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](args, cfg)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
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
