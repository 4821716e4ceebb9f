"""Command-line entry point: field sampling and heatmaps, effective
coefficient estimation, rate experiments, covariance reports, and the
four-panel shared-noise figure.

Subcommands: ``sample``, ``ahom``, ``rates``, ``cov``, ``figure1``.

Configuration is a flat INI file with a single ``[run]`` section, parsed by
:mod:`configparser`. Every command parses and checks every key once, used
or not, before any work starts; a blank value counts as absent, and a key
outside the grammar or a value that does not parse or pass its check is a
configuration error naming its key. Grammar (keys are optional unless a
command requires them)::

    [run]
    d = 2                         # dimension, >= 1; figure1 takes only 2
    N = 64                        # grid side, >= 2; figure1 defaults to 150
                                  # (rates: increasing comma list of sides
                                  # >= 2, e.g. 8,16,32)
    law = bernoulli(0.5,1,2)      # constant(c) | uniform(lo,hi) | bernoulli(p,a,b)
                                  # with finite atoms in [1, Lambda]; omit or
                                  # "homogeneous" for unit conductances;
                                  # figure1 takes none (its panels fix theirs)
    field = bilap                 # sample: gff | bilap
    beta = 0.75                   # Sobolev order (bilap / disc experiments);
                                  # every value, 0 included, must be finite
                                  # and pass the threshold beta > d/4 - 1/2
    kset = 1,0; 0,1; 1,1          # distinct frequencies, components comma-separated
                                  # (rates pseudo: exactly one frequency)
    M = 16                        # environment replicates, >= 1; default 16
                                  # for ahom (needs >= 2), 8 for rates and cov
    noise_replicates = 200        # cov: noise draws per environment, >= 1
    seed = 0                      # master seed, >= 0; --seed overrides
    mode_cutoff = 2               # sup-norm truncation of mode sums (bilap),
                                  # >= 1; omit for the whole window
    experiment = pseudo           # rates: pseudo | bilap | disc
                                  # (pseudo and bilap need a law)
    ahom = 1.4142135623730951     # effective coefficient, finite and > 0; omit
                                  # to estimate (announced on stderr)
    expect_slope = -2             # optional rate assertion (finite) ...
    slope_tol = 0.3               # ... |slope - expect| <= tol (finite, >= 0),
                                  # else exit 4; a NaN slope (point-mass law,
                                  # or fewer than 3 sizes) fails it too

Every subcommand appends one JSON record to ``runlog.jsonl`` in the output
directory. Each record carries ``command``, ``config``, ``config_hash``
(sha256 of the sorted ``[run]`` keys), ``seed`` and ``wall_s``, plus the
subcommand's own results; ``figure1`` also writes its record to
``figure1_report.json``. Records are strict JSON: a non-finite number, such
as the NaN slope of a ladder of fewer than 3 sizes, is written as null.

Exit codes: 0 success, 2 configuration error (also an experiment's own
check of its inputs, after the parse, and a configuration too large for
memory), 3 solver failure, 4 assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .environment import EnvironmentLaw, sample_environment
from .homogenization import estimate_ahom
from .lattice import LatticeField, TorusGrid
from .sampler import (
    FieldSample,
    dump_field,
    sample_bilaplacian,
    sample_gff,
    sample_noise,
)
from .solver import SolverError
from .experiments import (
    CutoffError,
    ExperimentConfig,
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
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in parser:
        raise ConfigError(f"config {path} is missing the [run] section")
    cfg = dict(parser["run"])
    unknown = [key for key in cfg if key not in GRAMMAR]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} (expected one of "
                          f"{', '.join(GRAMMAR)})")
    return cfg


def config_hash(cfg: dict) -> str:
    """Content hash of a config: sha256 over sorted key=value lines."""
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_ns(text) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _parse_kset(text) -> tuple:
    return tuple(tuple(int(v) for v in part.split(","))
                 for part in text.split(";") if part.strip())


def _parse_law(text):
    return None if text == "homogeneous" else EnvironmentLaw.parse(text)


def _one_of(what, names):
    def parse(text) -> str:
        if text not in names:
            raise ValueError(f"unknown {what} {text!r} (expected one of {', '.join(names)})")
        return text
    return parse


def _finite(cast, non_negative=False):
    def parse(text):
        value = cast(text)
        # written so that NaN fails, and so that no int is converted to float
        if not -math.inf < value < math.inf:
            raise ValueError(f"must be finite, got {value}")
        if non_negative and value < 0:
            raise ValueError(f"must be non-negative, got {value}")
        return value
    return parse


RATE_EXPERIMENTS = {
    "pseudo": pseudo_eigen_rate,
    "bilap": bilap_error_rate,
    "disc": discretization_rate,
}

# The one list of the [run] keys, lowercased as configparser reads them:
# key -> (the ExperimentConfig field it sets, or None for a key only the
# command line reads; the parser of its text). d leads: beta and kset's checks read it.
GRAMMAR = {
    "d": ("d", int),
    "n": ("Ns", _parse_ns),
    "law": ("law", _parse_law),
    "field": (None, _one_of("field kind", ("gff", "bilap"))),
    "beta": ("beta", float),
    "kset": ("kset", _parse_kset),
    "m": ("replicates", int),
    "noise_replicates": ("noise_replicates", int),
    "seed": ("seed", _finite(int, non_negative=True)),
    "mode_cutoff": ("mode_cutoff", int),
    "experiment": (None, _one_of("experiment", tuple(RATE_EXPERIMENTS))),
    "ahom": ("ahom", float),
    "expect_slope": (None, _finite(float)),
    "slope_tol": (None, _finite(float, non_negative=True)),
}


def _read_run(args, cfg, one_side=True, **defaults) -> tuple:
    """Parse every key of the [run] section ``cfg`` through GRAMMAR, used by
    the command or not, into an ExperimentConfig (over ``defaults``, then its
    own; ``--seed`` replaces ``seed``) and a dict of the keys it has no field
    for. ``n`` is required, one grid side unless ``one_side`` is false."""
    fields, opts = {"d": 2, **defaults}, {}
    for key, (name, parse) in GRAMMAR.items():
        text = cfg.get(key, "").strip()
        if not text:
            continue
        try:
            value = parse(text)
            if name is None:
                opts[key] = value
            else:
                fields[name] = value
                # all keys before this one passed, so a failed check is this key's
                ExperimentConfig(**fields)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        fields["seed"] = args.seed
    if not fields.get("Ns"):
        raise ConfigError("config key 'n' is required for this command")
    if one_side and len(fields["Ns"]) > 1:
        raise ConfigError("config key 'n': this command takes one grid side")
    return ExperimentConfig(**fields), opts


def _finite_or_null(value):
    """``value`` with every non-finite float in it, those in nested dicts
    included, replaced by None, so that it dumps as strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def write_runlog(args, cfg, seed, t0, **fields) -> dict:
    """Append one record to ``runlog.jsonl`` in the output directory and
    return it: the command's ``fields`` plus the envelope every record
    carries (command, config, config_hash, seed, wall_s since ``t0``), with
    every non-finite number as None (null)."""
    record = _finite_or_null({"command": args.command, "config": cfg,
                              "config_hash": config_hash(cfg), "seed": seed,
                              "wall_s": time.time() - t0, **fields})
    with open(os.path.join(args.out, "runlog.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str, allow_nan=False) + "\n")
    return record


# ---------------------------------------------------------------------------
# heatmaps


def render_heatmap(values: np.ndarray) -> bytes:
    """Render a 2-d field as a P6 portable pixmap in a blue-white-red
    diverging palette, linear, centered at 0 and sized by max |value|."""
    if values.ndim != 2:
        raise ValueError("heatmaps require a 2-d field")
    h, w = values.shape
    header = f"P6\n{w} {h}\n255\n".encode()
    m = float(np.max(np.abs(values))) or 1.0
    t = np.clip(values / m, -1.0, 1.0)
    r = np.where(t < 0, 255 * (1 + t), 255.0)
    g = 255 * (1 - np.abs(t))
    b = np.where(t > 0, 255 * (1 - t), 255.0)
    rgb = np.clip(np.rint(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)
    return header + rgb.tobytes()


def write_heatmap(sample, path, cfg_hash, seed) -> None:
    values = sample.field.values
    with open(path, "wb") as fh:
        fh.write(render_heatmap(values))
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


def cmd_sample(args, cfg) -> int:
    ecfg, opts = _read_run(args, cfg)
    N, kind, seed = ecfg.Ns[0], opts.get("field", "bilap"), ecfg.seed
    if args.heatmap and ecfg.d != 2:
        raise ConfigError("heatmaps require d = 2")
    grid = TorusGrid(N, ecfg.d)
    t0 = time.time()
    a = None if ecfg.law is None else sample_environment(
        ecfg.law, grid, np.random.SeedSequence(seed, spawn_key=(1,)))
    noise_seed = np.random.SeedSequence(seed, spawn_key=(2,))
    if kind == "gff":
        values = sample_gff(grid, a, noise_seed)
    else:
        values = sample_bilaplacian(grid, a, sample_noise(grid, noise_seed))
    smp = FieldSample(f"{kind}_{'hom' if a is None else 'env'}", LatticeField(grid, values))
    dump_path = os.path.join(args.out, f"field_{smp.kind}_N{N}_seed{seed}.hf")
    dump_field(smp, dump_path)
    if args.heatmap:
        write_heatmap(smp, os.path.splitext(dump_path)[0] + ".ppm", config_hash(cfg), seed)
    write_runlog(args, cfg, seed, t0, dump=os.path.basename(dump_path))
    print(f"wrote {dump_path}")
    return EXIT_OK


def cmd_ahom(args, cfg) -> int:
    ecfg, _ = _read_run(args, cfg, replicates=16)
    d, N, M, law, seed = ecfg.d, ecfg.Ns[0], ecfg.replicates, ecfg.law, ecfg.seed
    if M < 2:
        raise ConfigError(f"config key 'm': ahom needs at least 2 replicates, got {M}")
    t0 = time.time()
    est = estimate_ahom(law, N, M, seed, d=d)
    _write_csv(os.path.join(args.out, "ahom.csv"),
               ["law", "d", "N", "M", "ahom_mean", "ahom_stderr", "seed"],
               [[law.describe(), d, N, M, repr(est.mean), repr(est.stderr), seed]])
    # a failed solve exits 3, so a record has no failures; the key stays
    # because the benchmark harness checks it
    write_runlog(args, cfg, seed, t0, ahom_mean=est.mean, ahom_stderr=est.stderr,
                 samples=M, failures=0, iterations=est.iterations,
                 max_residual=est.max_residual)
    print(f"ahom = {est.mean:.6f} +- {est.stderr:.2e} ({M} samples)")
    return EXIT_OK


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_rates(args, cfg) -> int:
    ecfg, opts = _read_run(args, cfg, one_side=False)
    experiment, seed = opts.get("experiment"), ecfg.seed
    if experiment is None:
        raise ConfigError("config key 'experiment' is required for this command")
    expect, slope_tol = opts.get("expect_slope"), opts.get("slope_tol", 0.3)
    t0 = time.time()
    series = RATE_EXPERIMENTS[experiment](ecfg)
    ahom_record = ({} if series.ahom is None else
                   {"ahom": series.ahom, "ahom_estimated": ecfg.ahom is None})
    _write_csv(os.path.join(args.out, f"rates_{experiment}.csv"),
               ["quantity", "N", "value", "stderr"],
               [[series.quantity, n, repr(float(v)), repr(float(s))]
                for n, v, s in series.points])
    corrected, corrected_chi2 = series.corrected or (None, None)
    write_runlog(args, cfg, seed, t0, experiment=experiment, slope=series.slope,
                 half_width=series.half_width, chi2=series.chi2, corrected_slope=corrected,
                 corrected_chi2=corrected_chi2, **ahom_record)
    print(f"{series.quantity}: slope {series.slope:+.3f} (chi2 {series.chi2:.2f})"
          + (f", log-corrected {corrected:+.3f} (chi2 {corrected_chi2:.2f})"
             if series.corrected else "")
          + f", 95% half-width {series.half_width:.3f}")
    slope = series.slope if corrected is None else corrected
    # written so that a NaN slope fails the assertion
    if expect is not None and not abs(slope - expect) <= slope_tol:
        raise AssertionFailure(f"slope {slope:+.3f} outside {expect:g} +- {slope_tol}")
    return EXIT_OK


def cmd_cov(args, cfg) -> int:
    ecfg, _ = _read_run(args, cfg)
    t0 = time.time()
    report = gff_covariance_limit(ecfg)
    _write_csv(os.path.join(args.out, "covariance.csv"),
               ["k_row", "k_col", "re", "im", "stderr"],
               [[" ".join(map(str, ki)), " ".join(map(str, kj)),
                 repr(float(np.real(report.covariance[i, j]))),
                 repr(float(np.imag(report.covariance[i, j]))),
                 repr(float(report.stderr[i, j]))]
                for i, ki in enumerate(report.kset)
                for j, kj in enumerate(report.kset)])
    max_z = report.max_offdiag_z()
    write_runlog(args, cfg, ecfg.seed, t0, fitted_constant=report.fitted_constant,
                 max_offdiag_z=max_z, offdiag_frobenius_exact=report.offdiag_frobenius())
    print(f"fitted constant {report.fitted_constant:.5f}, "
          f"max off-diagonal |z| {max_z:.2f}")
    if max_z > 4.0:
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
    ecfg, _ = _read_run(args, cfg, Ns=(FIGURE1_N,))
    n_side, seed = ecfg.Ns[0], ecfg.seed
    if ecfg.d != 2:
        raise ConfigError(f"config key 'd': figure1 draws 2-d panels, got d = {ecfg.d}")
    if cfg.get("law", "").strip():
        raise ConfigError("config key 'law': figure1 draws its four panels' own laws")
    grid = TorusGrid(n_side, 2)
    noise = sample_noise(grid, np.random.SeedSequence(seed, spawn_key=(2,)))
    h = config_hash(cfg)
    t0 = time.time()
    fields = {}
    for idx, (name, law) in enumerate(FIGURE1_PANELS):
        a = sample_environment(law, grid, np.random.SeedSequence(seed, spawn_key=(1, idx)))
        fields[name] = sample_bilaplacian(grid, a, noise)
        smp = FieldSample("bilap_env", LatticeField(grid, fields[name]))
        path = os.path.join(args.out, f"figure1_{name}.ppm")
        write_heatmap(smp, path, h, seed)
        dump_field(smp, os.path.join(args.out, f"figure1_{name}.hf"))

    tests = {}
    passed = True
    for name in ("bernoulli_a", "bernoulli_b"):
        agree = int(np.count_nonzero(fields["constant"] * fields[name] > 0))
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
    parser.add_argument("--heatmap", action="store_true",
                        help="sample only: also write a P6 heatmap of the field (d = 2)")
    return parser


COMMANDS = {
    "sample": cmd_sample,
    "ahom": cmd_ahom,
    "rates": cmd_rates,
    "cov": cmd_cov,
    "figure1": cmd_figure1,
}


# the failures main reports, checked in order: exception types, label, exit code
FAILURES = (
    ((ValueError, configparser.Error), "config error", EXIT_CONFIG),
    (SolverError, "solver failure", EXIT_SOLVER),
    (CutoffError, "numerical failure", EXIT_SOLVER),
    (AssertionFailure, "assertion failure", EXIT_ASSERT),
    (MemoryError, "out of memory", EXIT_CONFIG),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made_out = not os.path.exists(args.out)
    try:
        if args.heatmap and args.command != "sample":
            raise ConfigError(f"--heatmap: only sample writes a heatmap, not {args.command}")
        cfg = load_config(args.config) if args.config else {}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc.strerror}") from exc
        return COMMANDS[args.command](args, cfg)
    except Exception as exc:
        if made_out and os.path.isdir(args.out) and not os.listdir(args.out):
            os.rmdir(args.out)
        for types, label, code in FAILURES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
