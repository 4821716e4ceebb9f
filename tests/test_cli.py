import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from homfield import cli, experiments, solver
from homfield.environment import EnvironmentLaw
from homfield.experiments import (
    CutoffError,
    ExperimentConfig,
    discretization_rate,
    pseudo_eigen_rate,
    truncation_error,
)
from homfield.homogenization import estimate_ahom
from homfield.cli import (
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    config_hash,
    load_config,
    main,
    render_heatmap,
)
from homfield.sampler import load_field
from reference import has_zero_mean, replicate_environments, residual_energies

# a rates run that solves nothing: the closed-form disc ladder, slope -5.0956
DISC = "n = 8,16,32\nexperiment = disc\nbeta = 0.75\n"


def _write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text("[run]\n" + body)
    return str(path)


def _strict_json(text):
    """Parse ``text`` as strict JSON, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_render_heatmap_diverging_center():
    ppm = render_heatmap(np.array([[-1.0, 0.0], [0.5, 1.0]]))
    pixels = ppm.split(b"255\n", 1)[1]
    # value 0 renders white; -1 full blue; +1 full red
    assert pixels[0:3] == bytes([0, 0, 255])
    assert pixels[3:6] == bytes([255, 255, 255])
    assert pixels[9:12] == bytes([255, 0, 0])


def test_render_heatmap_requires_2d():
    with pytest.raises(ValueError):
        render_heatmap(np.zeros(4))


def test_config_hash_stable_and_sensitive(tmp_path):
    p = _write_config(tmp_path, "n = 8\nseed = 1\n")
    cfg = load_config(p)
    assert config_hash(cfg) == config_hash(dict(cfg))
    cfg2 = dict(cfg, seed="2")
    assert config_hash(cfg) != config_hash(cfg2)


def test_missing_config_file():
    assert main(["sample", "--config", "/nonexistent.ini", "--out", "/tmp"]) == EXIT_CONFIG


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "n = 8\n")
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


def test_missing_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[other]\nn = 8\n")
    assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_sample_deterministic_dump(tmp_path):
    cfg = _write_config(tmp_path, "n = 8\nd = 2\nlaw = uniform(1,2)\nfield = bilap\nseed = 3\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    name = "field_bilap_env_N8_seed3.hf"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sample_heatmap_sidecar(tmp_path):
    cfg = _write_config(tmp_path, "n = 8\nlaw = homogeneous\nfield = gff\nseed = 1\n")
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--heatmap"]) == EXIT_OK
    ppm = out / "field_gff_hom_N8_seed1.ppm"
    assert ppm.exists()
    sidecar = json.loads((out / "field_gff_hom_N8_seed1.ppm.json").read_text())
    assert sidecar["seed"] == 1
    assert sidecar["min"] < sidecar["max"]
    assert len(sidecar["config_hash"]) == 64


def test_sample_heatmap_beside_a_dump_in_an_hf_directory(tmp_path):
    # the heatmap path comes from the dump's file name, not from every ".hf"
    cfg = _write_config(tmp_path, "n = 8\nfield = bilap\nseed = 0\n")
    out = tmp_path / "runs.hf"
    assert main(["sample", "--config", cfg, "--out", str(out), "--heatmap"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "field_bilap_hom_N8_seed0.hf", "field_bilap_hom_N8_seed0.ppm",
        "field_bilap_hom_N8_seed0.ppm.json", "runlog.jsonl"]


@pytest.mark.parametrize("command, body", [
    ("ahom", "n = 8\nM = 2\n"),
    ("rates", DISC),
    ("cov", "n = 8\nkset = 1,0\nM = 2\nnoise_replicates = 50\n"),
    ("figure1", "n = 48\n"),
], ids=["ahom", "rates", "cov", "figure1"])
def test_heatmap_on_a_command_other_than_sample_is_config_error(tmp_path, capsys, command, body):
    # only sample reads the flag; another command must not run and ignore it
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--heatmap"]) == EXIT_CONFIG
    assert "--heatmap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("law", ["uniform(1,inf)", "constant(inf)", "bernoulli(0.5,1,inf)"])
def test_sample_non_finite_law_is_config_error(tmp_path, capsys, law):
    cfg = _write_config(tmp_path, f"n = 8\nlaw = {law}\nfield = bilap\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config key 'law'" in capsys.readouterr().err


def test_sample_bad_law(tmp_path):
    cfg = _write_config(tmp_path, "n = 8\nlaw = cauchy(1)\nseed = 0\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_ahom_constant_csv(tmp_path):
    cfg = _write_config(tmp_path, "n = 8\nd = 2\nlaw = constant(1.5)\nM = 2\nseed = 0\n")
    out = tmp_path / "o"
    assert main(["ahom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = (out / "ahom.csv").read_text()
    rows = text.strip().splitlines()
    assert rows[0].startswith("law,")
    assert "constant(1.5)" in rows[1]
    assert "1.5," in rows[1] or ",1.5," in rows[1]
    # rerun reproduces identical bytes
    out2 = tmp_path / "o2"
    assert main(["ahom", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out / "ahom.csv").read_bytes() == (out2 / "ahom.csv").read_bytes()


def test_ahom_runlog_records_solve_telemetry(tmp_path):
    cfg = _write_config(tmp_path, "n = 8\nd = 2\nlaw = bernoulli(0.5,1,2)\nM = 3\nseed = 4\n")
    records = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["ahom", "--config", cfg, "--out", str(out)]) == EXIT_OK
        records.append(json.loads((out / "runlog.jsonl").read_text().splitlines()[-1]))
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    est = estimate_ahom(law, 8, 3, seed=4)
    assert records[0]["iterations"] == records[1]["iterations"] == est.iterations > 0
    assert records[0]["max_residual"] == records[1]["max_residual"] == est.max_residual
    exact = np.mean([np.mean(residual_energies(a)) for a in replicate_environments(law, 8, 3, 4)])
    assert exact <= est.mean <= exact * (1 + 1e-8)


def test_rates_disc_slope_gate_passes(tmp_path):
    # disc is closed form and solves nothing: slope -5.0956 at these sizes
    cfg = _write_config(tmp_path, f"{DISC}expect_slope = -5.0956\nslope_tol = 0.001\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
    log = [json.loads(line) for line in (out / "runlog.jsonl").read_text().splitlines()]
    assert log[-1]["slope"] == discretization_rate(
        ExperimentConfig(d=2, beta=0.75, Ns=(8, 16, 32))).slope


def test_rates_slope_assertion_failure(tmp_path):
    cfg = _write_config(tmp_path, f"{DISC}expect_slope = -3\nslope_tol = 0.1\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ASSERT


def test_rates_nan_slope_fails_expect_slope(tmp_path, capsys):
    # a constant law leaves nothing to fit, so the slope is NaN
    cfg = _write_config(
        tmp_path,
        "n = 4,8,16\nexperiment = pseudo\nlaw = constant(1.5)\nahom = 1.5\n"
        "kset = 1,0\nM = 1\nexpect_slope = -2\n",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ASSERT
    assert "slope +nan" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,name", [("m", "0", "replicates"),
                                            ("m", "-3", "replicates"),
                                            ("noise_replicates", "0", "noise_replicates")])
def test_rates_fewer_than_one_replicate_is_config_error(tmp_path, capsys, key, value, name):
    cfg = _write_config(
        tmp_path,
        f"n = 4,8,16\nexperiment = pseudo\nlaw = constant(1.5)\nahom = 1.5\n"
        f"kset = 1,0\n{key} = {value}\n",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert re.search(rf"\b{name} must be at least 1, got {value}", capsys.readouterr().err)
    assert not (tmp_path / "rates_pseudo.csv").exists()


def test_rates_disc(tmp_path):
    cfg = _write_config(
        tmp_path,
        "n = 8,16,32,64\nd = 2\nbeta = 0.75\nexperiment = disc\n"
        "expect_slope = -5\nslope_tol = 0.3\n",
    )
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
    csv_text = (out / "rates_disc.csv").read_text()
    assert csv_text.splitlines()[0] == "quantity,N,value,stderr"
    assert len(csv_text.strip().splitlines()) == 5


def test_rates_d2_records_the_corrected_fit(tmp_path, capsys):
    # in d = 2 expect_slope judges the log-corrected fit, so its chi2 goes
    # next to its slope; its half-width is the plain fit's and is written
    # once; without a correction the corrected fields are null
    out = tmp_path / "o"
    body = ("d = 2\nn = 4,8,16\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\n"
            "kset = 1,0\nM = 2\nahom = 1.4142135623730951\n")
    assert main(["rates", "--config", _write_config(tmp_path, body), "--out", str(out)]) == EXIT_OK
    series = pseudo_eigen_rate(ExperimentConfig(
        d=2, law=EnvironmentLaw.bernoulli(0.5, 1, 2), Ns=(4, 8, 16),
        kset=((1, 0),), replicates=2, ahom=2**0.5))
    slope, chi2 = series.corrected
    assert series.ahom == 2**0.5
    rec = json.loads((out / "runlog.jsonl").read_text().splitlines()[-1])
    assert (rec["corrected_slope"], rec["corrected_chi2"]) == (slope, chi2)
    assert (rec["half_width"], rec["chi2"]) == (series.half_width, series.chi2)
    assert not {"t_half_width", "corrected_t_half_width", "corrected_half_width"} & rec.keys()
    stdout = capsys.readouterr().out
    assert (f"log-corrected {slope:+.3f} (chi2 {chi2:.2f}), "
            f"95% half-width {series.half_width:.3f}" in stdout)
    assert stdout.count("half-width") == 1

    body = "d = 1\nn = 8,16,32\nexperiment = disc\nbeta = 0.75\n"
    assert main(["rates", "--config", _write_config(tmp_path, body, name="d1.ini"),
                 "--out", str(out)]) == EXIT_OK
    rec = json.loads((out / "runlog.jsonl").read_text().splitlines()[-1])
    assert all(rec[key] is None for key in ("corrected_slope", "corrected_chi2"))


@pytest.mark.parametrize("body, half_width", [
    # one replicate per size: every standard error is unknown
    ("n = 4,8,16\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\nM = 1\n"
     "ahom = 1.4\n", None),
    # closed-form points carry no error, so no half-width; chi2 is undefined
    (DISC, 0.0),
])
def test_rates_half_width_of_unknown_and_exact_errors(tmp_path, body, half_width):
    out = tmp_path / "o"
    assert main(["rates", "--config", _write_config(tmp_path, body), "--out", str(out)]) == EXIT_OK
    record = _strict_json((out / "runlog.jsonl").read_text())
    assert record["slope"] is not None
    assert record["half_width"] == half_width and record["chi2"] is None


@pytest.mark.parametrize("experiment, ns", [("disc", "8,16,0"), ("disc", "0,8,16"),
                                             ("disc", "-4,8,16"), ("disc", "1,8,16")])
def test_rates_ladder_size_below_two_is_config_error(tmp_path, capsys, experiment, ns):
    cfg = _write_config(tmp_path, f"n = {ns}\nexperiment = {experiment}\nbeta = 0.75\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "ladder size must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("rates_*.csv"))


@pytest.mark.parametrize("experiment", ["disc", "pseudo", "bilap"])
def test_two_size_ladder_gives_a_nan_slope_in_every_experiment(tmp_path, experiment):
    # fewer than 3 sizes leave nothing to fit, whichever experiment measured
    # them; the runlog writes the NaN slope as null, which strict JSON allows
    body = (f"n = 4,8\nexperiment = {experiment}\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\n"
            "beta = 0.75\nahom = 1.4\nM = 2\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", _write_config(tmp_path, body), "--out", str(out)]) == EXIT_OK
    record = _strict_json((out / "runlog.jsonl").read_text())
    assert record["slope"] is None and record["corrected_slope"] is None
    assert len((out / f"rates_{experiment}.csv").read_text().splitlines()) == 3


def test_rates_unknown_experiment(tmp_path):
    cfg = _write_config(tmp_path, "n = 8,16,32\nexperiment = warp\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_error_removes_the_out_directory_it_created(tmp_path):
    cfg = _write_config(tmp_path, "n = 8,16,32\nexperiment = warp\n")
    out = tmp_path / "fresh"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    # a directory that was there before the run stays
    out.mkdir()
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert out.is_dir()


def test_cov_small_homogeneous(tmp_path):
    cfg = _write_config(
        tmp_path,
        "n = 8\nd = 2\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 60\nseed = 1\n",
    )
    out = tmp_path / "o"
    assert main(["cov", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "covariance.csv").read_text().strip().splitlines()
    assert rows[0] == "k_row,k_col,re,im,stderr"
    assert len(rows) == 5


def test_cov_runlog_records_exact_offdiag(tmp_path):
    cfg = _write_config(
        tmp_path,
        "n = 8\nd = 2\nlaw = bernoulli(0.5,1,2)\nkset = 1,0; 0,1\nM = 2\n"
        "noise_replicates = 50\nseed = 1\n",
    )
    out = tmp_path / "o"
    assert main(["cov", "--config", cfg, "--out", str(out)]) == EXIT_OK
    record = json.loads((out / "runlog.jsonl").read_text().splitlines()[-1])
    assert record["offdiag_frobenius_exact"] >= 0
    assert "offdiag_frobenius" not in record


def test_cov_conjugate_pair_is_two_modes(tmp_path):
    # k and -k are distinct modes: only a repeated frequency is a config error
    cfg = _write_config(tmp_path, "n = 8\nkset = 1,0; -1,0\nM = 2\nnoise_replicates = 50\n")
    assert main(["cov", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK


def test_figure1_small(tmp_path):
    cfg = _write_config(tmp_path, "n = 48\nseed = 5\n")
    out = tmp_path / "o"
    assert main(["figure1", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "figure1_report.json").read_text())
    assert report["passed"] is True
    for name in ("constant", "uniform", "bernoulli_a", "bernoulli_b"):
        assert (out / f"figure1_{name}.ppm").exists()
        side = json.loads((out / f"figure1_{name}.ppm.json").read_text())
        assert side["config_hash"] == report["config_hash"]


@pytest.mark.parametrize("body, key", [
    ("n = 16\nd = 3\n", "d"),
    ("n = 16\nd = 1\n", "d"),
    ("n = 16\nlaw = uniform(1,3)\n", "law"),
    ("n = 16\nlaw = homogeneous\n", "law"),
    ("n = 16\nd = 2\nlaw = bernoulli(0.5,1,2)\n", "law"),
], ids=["d3", "d1", "law", "homogeneous", "d2-law"])
def test_figure1_rejects_the_dimension_and_law_it_cannot_honour(tmp_path, capsys, body, key):
    # figure1's four panels are 2-d with their own laws; a d or law it would
    # ignore must not sit in the runlog next to them
    out = tmp_path / "o"
    assert main(["figure1", "--config", _write_config(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 2, 100, 2304, 22500])
def test_binomial_upper_tail_matches_scipy(n):
    binomtest = pytest.importorskip("scipy.stats").binomtest
    for k in {0, 1, n // 2, n // 2 + 1, n - 1, n}:
        ref = binomtest(k, n, 0.5, alternative="greater").pvalue
        assert cli._binomial_upper_tail(k, n) == pytest.approx(ref, rel=1e-12, abs=0)
    if n > 1074:
        # 2^-n is below the smallest subnormal double
        assert cli._binomial_upper_tail(n, n) == 0.0


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy.stats and scipy.special cost about a second of every cold start,
    # and concurrent.futures pulls in logging; ahom at N=192 solves its two
    # 288 KiB correctors as two PCG chunks, on threads where there are CPUs
    law = "law = bernoulli(0.5,1,2)\n"
    bodies = {
        "figure1": "n = 16\n",
        "sample": "n = 8\nfield = gff\n" + law,
        "cov": "n = 8\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 50\nseed = 1\n" + law,
        "ahom": "n = 192\nM = 2\n" + law,
    }
    calls = [[cmd, "--config", _write_config(tmp_path, body, f"{cmd}.ini"),
              "--out", str(tmp_path / cmd)] for cmd, body in bodies.items()]
    script = ("import sys\nfrom homfield.cli import main\n"
              f"codes = [main(argv) for argv in {calls!r}]\n"
              "print(codes, sorted(m for m in sys.modules\n"
              "                    if m.split('.')[0] == 'scipy' or m == 'concurrent.futures'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at N=192 a corrector has 36864 entries, past the length where a
    # threaded BLAS dot product splits its sum
    cfg = _write_config(tmp_path, "n = 192\nM = 2\nlaw = bernoulli(0.5,1,2)\nseed = 0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    csvs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "homfield.cli", "ahom", "--config", cfg,
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "ahom.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_sample_shifted_solve_cap_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    cfg = _write_config(tmp_path, "n = 16\nlaw = bernoulli(0.5,1,2)\nfield = gff\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_disc_near_the_beta_threshold_doubles_its_cutoff(tmp_path):
    # the first cutoff, 2 max(N) = 64, leaves a remainder bound of 0.24 of the
    # partial sum at N = 32; the run doubles it once and fits the d - 4 - 4 beta slope
    cfg = _write_config(tmp_path, "experiment = disc\nd = 3\nn = 8,16,32\nbeta = 0.35\n"
                                  "expect_slope = -2.4\nslope_tol = 0.1\n")
    out = tmp_path / "out"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out / "rates_disc.csv", newline="") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert values == [truncation_error(N, 3, 0.35, kcut=128) for N in (8, 16, 32)]


@pytest.mark.parametrize("beta", [39, 40])
@pytest.mark.parametrize("d", [2, 3])
def test_disc_whose_terms_underflow_is_a_numerical_failure(tmp_path, capsys, monkeypatch, d,
                                                           beta):
    # at beta = 40 every term lambda_k^(-82) outside the N = 32 window
    # underflows to 0, and at beta = 39 their sum is subnormal (2.7e-320 in
    # d = 2); a larger cutoff adds only smaller terms, so disc fails at its
    # first cutoff, 2 max(N), instead of doubling to 16 max(N)
    calls = []
    truncation = experiments.truncation_error
    monkeypatch.setattr(experiments, "truncation_error",
                        lambda *args: calls.append(args) or truncation(*args))
    cfg = _write_config(tmp_path, f"d = {d}\nn = 8,16,32\nexperiment = disc\nbeta = {beta}\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    assert re.search(rf"numerical failure: the truncation error at N=32 is \S+ at "
                     rf"beta={beta}\.0, below the normal floating-point range",
                     capsys.readouterr().err)
    assert calls == [(32, d, float(beta), 64)]


@pytest.mark.parametrize("beta, value", [(95, "6.72e-310"), (120, "0")])
def test_bilap_whose_weights_underflow_is_a_numerical_failure(tmp_path, capsys, beta, value):
    # the weights lambda_k^(-2 beta) leave every point subnormal at
    # beta = 95 and 0 at beta = 120, on a config that passes every check
    cfg = _write_config(tmp_path, f"experiment = bilap\nn = 8,16,32\nlaw = bernoulli(0.5,1,2)\n"
                                  f"m = 2\nmode_cutoff = 1\nahom = 1.4142135623730951\n"
                                  f"beta = {beta}\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    assert (f"numerical failure: the bi-Laplacian squared error at N=8 is {value} at "
            f"beta={beta}.0, below the normal floating-point range" in capsys.readouterr().err)


def test_configuration_too_large_for_memory_is_config_error(tmp_path, capsys):
    # 40 * 2^40 edge weights, 320 TiB, exceed the address space, so numpy
    # raises before it allocates anything
    cfg = _write_config(tmp_path, "d = 40\nn = 2\nlaw = uniform(1,2)\n")
    out = tmp_path / "fresh"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "out of memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def _cutoff_never_suffices(N, d, beta, kcut):
    raise CutoffError(f"spectral cutoff {kcut} too small at N={N}")


@pytest.mark.parametrize("command, body, label", [
    ("rates", DISC, "numerical failure: spectral cutoff 512 too small at N=32"),
    ("sample", "n = 16\nlaw = bernoulli(0.5,1,2)\nfield = gff\n", "solver failure"),
], ids=["numerical", "solver"])
def test_failing_run_removes_the_out_directory_it_created(tmp_path, monkeypatch, capsys,
                                                          command, body, label):
    # every failure, not only a configuration error, takes back a fresh
    # --out it left empty; disc gives up after its cutoff reached 16 max(N)
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    monkeypatch.setattr(experiments, "truncation_error", _cutoff_never_suffices)
    out = tmp_path / "fresh"
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert label in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("law", ["law = uniform(1,2)\n", ""], ids=["law", "no-law"])
@pytest.mark.parametrize("command, body", [
    ("sample", "n = 8\nfield = bilap\n"),
    ("sample", "n = 8\nfield = gff\n"),
    ("cov", "n = 8\nkset = 1,0\nM = 2\nnoise_replicates = 50\n"),
    ("rates", DISC),
], ids=["sample-bilap", "sample-gff", "cov", "rates-disc"])
def test_leftover_tol_key_is_config_error(tmp_path, capsys, command, body, law):
    # every command solves at the solver's fixed tolerance; a valid tol line
    # left in a config fails the run before any work, not silently
    cfg = _write_config(tmp_path, f"{body}{law}tol = 1e-6\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "unknown config key 'tol'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "figure1"])
def test_grayscale_flag_is_a_usage_error(tmp_path, command):
    # heatmaps have one palette, the diverging one
    cfg = _write_config(tmp_path, "n = 8\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--grayscale"])
    assert exc.value.code == 2


def test_sample_gff_random_law_n256(tmp_path):
    cfg = _write_config(tmp_path, "n = 256\nlaw = bernoulli(0.5,1,2)\nfield = gff\nseed = 0\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    smp = load_field(tmp_path / "field_gff_env_N256_seed0.hf")
    assert smp.kind == "gff_env"
    assert smp.field.grid.N == 256
    assert has_zero_mean(smp.field.values, rtol=1e-9)


@pytest.mark.parametrize("law", ["", "law = homogeneous\n"])
@pytest.mark.parametrize("experiment", ["pseudo", "bilap"])
def test_rates_without_law_is_config_error(tmp_path, capsys, experiment, law):
    cfg = _write_config(
        tmp_path,
        f"n = 8,16,32\nexperiment = {experiment}\nbeta = 0.75\nkset = 1,0\n{law}",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "needs an environment law (config key 'law')" in capsys.readouterr().err


@pytest.mark.parametrize("law", ["", "law = homogeneous\n"])
def test_ahom_without_law_is_config_error(tmp_path, capsys, law):
    cfg = _write_config(tmp_path, f"n = 8\nM = 2\n{law}")
    assert main(["ahom", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert ("config error: ahom needs an environment law (config key 'law')"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["bilap", "disc"])
def test_rates_without_beta_is_config_error(tmp_path, capsys, experiment):
    cfg = _write_config(tmp_path, f"n = 8,16,32\nexperiment = {experiment}\n"
                                  "law = bernoulli(0.5,1,2)\nahom = 1.4\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "needs a Sobolev order (config key 'beta')" in capsys.readouterr().err
    assert not out.exists()


def test_cov_with_too_few_draws_names_both_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, "n = 8\nkset = 1,0\nM = 3\nnoise_replicates = 33\n")
    out = tmp_path / "o"
    assert main(["cov", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert ("at least 100 draws, config keys 'm' x 'noise_replicates' = 3 x 33 = 99"
            in capsys.readouterr().err)
    assert not out.exists()


def test_ahom_runlog_counts_every_replicate(tmp_path, capsys):
    # a run that returns has solved all M environments: the record's
    # samples is M and its failures 0, the two keys the benchmark checks
    cfg = _write_config(tmp_path, "n = 8\nlaw = bernoulli(0.5,1,2)\nM = 3\n")
    out = tmp_path / "o"
    assert main(["ahom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rec = _strict_json((out / "runlog.jsonl").read_text())
    assert (rec["samples"], rec["failures"]) == (3, 0)
    assert rec["iterations"] > 0 and 0 < rec["max_residual"] < 1
    assert "(3 samples)" in capsys.readouterr().out
    with open(out / "ahom.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["M"] == "3"


def test_rates_reports_estimated_ahom(tmp_path, capsys):
    # an unset ahom is estimated once, announced, recorded, and gives the
    # same rates as configuring the recorded value
    body = "n = 4,8,16\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\nM = 2\n"
    out = tmp_path / "est"
    assert main(["rates", "--config", _write_config(tmp_path, body), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "M=32" in err and "N=16" in err
    rec = json.loads((out / "runlog.jsonl").read_text().splitlines()[-1])
    assert rec["ahom_estimated"] is True
    assert rec["ahom"] == ExperimentConfig(
        d=2, law=EnvironmentLaw.bernoulli(0.5, 1, 2), Ns=(4, 8, 16)).resolve_ahom()
    # the library call announces its estimate as the CLI run did
    assert "estimating" in capsys.readouterr().err

    fixed = tmp_path / "fixed"
    cfg = _write_config(tmp_path, body + f"ahom = {rec['ahom']!r}\n", name="fixed.ini")
    assert main(["rates", "--config", cfg, "--out", str(fixed)]) == EXIT_OK
    assert "estimating" not in capsys.readouterr().err
    assert json.loads((fixed / "runlog.jsonl").read_text())["ahom_estimated"] is False
    assert (fixed / "rates_pseudo.csv").read_bytes() == (out / "rates_pseudo.csv").read_bytes()


def test_rates_pseudo_without_kset_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "n = 8,16,32\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nahom = 1.4\n",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "kset" in capsys.readouterr().err


def test_sample_heatmap_rejects_d3_before_sampling(tmp_path, capsys):
    cfg = _write_config(tmp_path, "d = 3\nn = 4\nfield = gff\n")
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--heatmap"]) == EXIT_CONFIG
    assert "d = 2" in capsys.readouterr().err
    assert not list(out.glob("*.hf"))


@pytest.mark.parametrize("n, kset, message", [
    # the pseudo rate measures one mode; more used to be dropped silently
    ("4,8,16", "1,0; 2,0; 1,1", "kset"),
    # a mode outside the smallest size's window fails before ahom is estimated
    ("4,8,64", "3,0", "frequency [3, 0] outside the window [-2, 1] for N=4"),
], ids=["several-modes", "outside-window"])
def test_rates_pseudo_with_several_modes_is_config_error(tmp_path, capsys, n, kset, message):
    cfg = _write_config(tmp_path, f"n = {n}\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\n"
                                  f"kset = {kset}\nM = 2\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "estimating" not in err
    assert not (tmp_path / "rates_pseudo.csv").exists()
    ecfg = ExperimentConfig(d=2, law=EnvironmentLaw.bernoulli(0.5, 1, 2), Ns=(4, 8, 16),
                            kset=((1, 0), (2, 0)), replicates=2, ahom=1.4)
    with pytest.raises(ValueError, match="kset"):
        pseudo_eigen_rate(ecfg)


@pytest.mark.parametrize("experiment, missing", [("pseudo", "kset"), ("bilap", "beta")])
def test_rates_missing_key_fails_before_estimating_ahom(tmp_path, capsys, experiment, missing):
    body = "n = 4,8,16\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\nbeta = 0.75\n"
    body = "".join(line + "\n" for line in body.splitlines() if not line.startswith(missing))
    cfg = _write_config(tmp_path, body + f"experiment = {experiment}\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert missing in err
    assert "estimating" not in err


@pytest.mark.parametrize("command, body, key", [
    ("rates", f"{DISC}tl = 1e-13\n", "tl"),
    ("sample", "n = 8\nlaw = bernoulli(0.5,1,2)\nfield = gff\nbackend = dense\n", "backend"),
], ids=["misspelt", "retired"])
def test_key_outside_the_grammar_is_config_error(tmp_path, capsys, command, body, key):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, argv, key", [
    ("rates", f"{DISC}seed = -5\n", [], "config key 'seed'"),
    ("ahom", "n = 8\nlaw = constant(1.5)\nM = 2\n", ["--seed", "-5"], "--seed"),
], ids=["config", "flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, body, argv, key):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(out)] + argv) == EXIT_CONFIG
    assert f"{key}: must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_rates_beta_zero_meets_the_threshold_check(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "n = 4,8,16\nexperiment = bilap\nlaw = bernoulli(0.5,1,2)\nbeta = 0\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "violates the convergence threshold" in err
    assert "estimating" not in err


@pytest.mark.parametrize("command, body", [
    ("rates", "n = 4,8,16\nexperiment = pseudo\nkset = 1,0\n"),
    ("cov", "n = 16\nkset = 1,0\nnoise_replicates = 50\n"),
], ids=["rates-pseudo", "cov"])
def test_beta_read_by_no_experiment_meets_only_the_bilap_threshold(tmp_path, command, body):
    # beta = 0.5 in d = 2 lies above d/4 - 1/2; neither command reads it
    cfg = _write_config(tmp_path, f"law = bernoulli(0.5,1,2)\nM = 2\n"
                                  f"ahom = 1.4\nbeta = 0.5\n{body}")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("experiment, n", [("bilap", "4,8,16"), ("disc", "8,16,32")])
@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_is_config_error(tmp_path, capsys, experiment, n, beta):
    cfg = _write_config(tmp_path, f"n = {n}\nexperiment = {experiment}\n"
                                  f"law = bernoulli(0.5,1,2)\nM = 2\nahom = 1.4\n"
                                  f"beta = {beta}\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"beta={beta} is not finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("experiment", ["pseudo", "bilap"])
@pytest.mark.parametrize("ahom", ["nan", "inf", "0", "-1"])
def test_non_finite_or_non_positive_ahom_is_config_error(tmp_path, capsys, experiment, ahom):
    cfg = _write_config(tmp_path, f"n = 4,8,16\nexperiment = {experiment}\nkset = 1,0\n"
                                  f"law = bernoulli(0.5,1,2)\nbeta = 0.75\nM = 2\n"
                                  f"ahom = {ahom}\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "ahom must be finite and positive" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_rates_bad_expect_slope_fails_before_running(tmp_path, capsys):
    cfg = _write_config(tmp_path, f"{DISC}expect_slope = abc\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "expect_slope" in capsys.readouterr().err
    assert not list(out.glob("rates_*.csv"))


@pytest.mark.parametrize("command, body, key", [
    ("rates", "n = 4,8,16\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\n"
              "ahom = x1.4\n", "ahom"),
    ("sample", "n = 8\nlaw = constant(1,2)\n", "law"),
    ("cov", "n = 8\nkset = 1,0; 0,x\nM = 2\nnoise_replicates = 60\n", "kset"),
    # the rate gate's keys parse as floats but must be finite, slope_tol >= 0
    ("rates", f"{DISC}expect_slope = -2\nslope_tol = -1\n", "slope_tol"),
    ("rates", f"{DISC}expect_slope = -2\nslope_tol = nan\n", "slope_tol"),
    ("rates", f"{DISC}expect_slope = -2\nslope_tol = inf\n", "slope_tol"),
    ("rates", f"{DISC}expect_slope = nan\n", "expect_slope"),
    ("rates", f"{DISC}expect_slope = -inf\n", "expect_slope"),
])
def test_unparsable_value_names_its_key(tmp_path, capsys, command, body, key):
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, key", [
    ("sample", "n = 8\nbeta = abc\n", "beta"),
    ("sample", "n = 8\nahom = nan\n", "ahom"),
    ("sample", "n = 8,16\n", "n"),
    ("ahom", "n = 8\nlaw = constant(1.5)\nM = 2\nkset = x\n", "kset"),
    ("ahom", "n = 8\nlaw = constant(1.5)\nM = 1\n", "m"),
    ("rates", f"{DISC}mode_cutoff = 0\n", "mode_cutoff"),
    ("rates", f"{DISC}field = membrane\n", "field"),
    # cov computes at one side, so a ladder would run at its largest N unsaid
    ("cov", "n = 8,16\nkset = 1,0\nM = 2\nnoise_replicates = 50\n", "n"),
    ("cov", "n = 8\nkset = 1,0\nM = 2\nnoise_replicates = 50\nexperiment = nope\n",
     "experiment"),
    # a repeated mode's off-diagonal entry is its own variance, which would
    # fail cov's 4-sigma assertion
    ("cov", "n = 8\nkset = 1,0; 1,0\nM = 2\nnoise_replicates = 50\n", "kset"),
    ("figure1", "n = 16\nM = -3\n", "m"),
    ("figure1", "n = 16\nslope_tol = -1\n", "slope_tol"),
    # an int too large for the float arithmetic of the beta threshold
    ("figure1", f"n = 16\nd = {'9' * 400}\n", "d"),
], ids=["sample-beta", "sample-ahom", "sample-n", "ahom-kset", "ahom-m", "rates-mode_cutoff",
        "rates-field", "cov-n", "cov-experiment", "cov-kset-repeat", "figure1-m",
        "figure1-slope_tol", "figure1-d"])
def test_every_command_checks_every_key(tmp_path, capsys, command, body, key):
    # a bad value fails the run before any work, whether the command uses the key or not
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_rates_mode_cutoff_zero_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "n = 4,8,16\nexperiment = bilap\nlaw = bernoulli(0.5,1,2)\nbeta = 0.75\n"
                  "ahom = 1.4\nM = 2\nmode_cutoff = 0\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "mode_cutoff" in capsys.readouterr().err


def test_blank_value_counts_as_absent(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = _write_config(tmp_path, DISC + "expect_slope =\nahom =\nseed =\n", name="blank.ini")
    assert main(["rates", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["rates", "--config", _write_config(tmp_path, DISC), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "rates_disc.csv").read_bytes() == (out2 / "rates_disc.csv").read_bytes()
    assert json.loads((out1 / "runlog.jsonl").read_text())["seed"] == 0


def test_sample_checks_field_before_drawing_the_environment(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("environment drawn before the field kind was checked")

    monkeypatch.setattr(cli, "sample_environment", fail)
    cfg = _write_config(tmp_path, "n = 8\nlaw = bernoulli(0.5,1,2)\nfield = membrane\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown field kind" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, extra", [
    ("sample", "n = 8\nfield = gff\n", {"dump"}),
    ("ahom", "n = 8\nlaw = constant(1.5)\nM = 2\n", {"ahom_mean", "iterations"}),
    ("rates", DISC, {"experiment", "slope", "half_width", "chi2"}),
    ("cov", "n = 8\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 60\n", {"fitted_constant"}),
    ("figure1", "n = 16\n", {"sign_tests", "passed"}),
])
def test_every_runlog_record_carries_the_envelope(tmp_path, command, body, extra):
    cfg_path = _write_config(tmp_path, body + "seed = 3\n")
    out = tmp_path / "o"
    main([command, "--config", cfg_path, "--out", str(out)])
    record = _strict_json((out / "runlog.jsonl").read_text())
    cfg = load_config(cfg_path)
    assert {k: record[k] for k in ("command", "config", "config_hash", "seed")} == {
        "command": command, "config": cfg, "config_hash": config_hash(cfg), "seed": 3}
    assert record["wall_s"] >= 0
    assert extra <= record.keys()
    if command == "figure1":
        assert _strict_json((out / "figure1_report.json").read_text()) == record


def _ini_keys(lines) -> set:
    return {m.group(1).lower() for m in map(re.compile(r"^\s*(\w+) = ").match, lines) if m}


def test_every_config_key_is_documented():
    # the grammar table, the cli docstring and the README list one set of
    # keys, so none can go stale
    keys = set(cli.GRAMMAR)
    grammar = cli.__doc__.split("\n    [run]\n", 1)[1].split("\n\n", 1)[0]
    assert _ini_keys(grammar.splitlines()) == keys
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        ini = fh.read().split("```ini", 1)[1].split("```", 1)[0]
    assert _ini_keys(ini.splitlines()) == keys
