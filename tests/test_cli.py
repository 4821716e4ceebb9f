import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from homfield import cli, solver
from homfield.environment import EnvironmentLaw
from homfield.experiments import ExperimentConfig
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


def _write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text("[run]\n" + body)
    return str(path)


def test_render_heatmap_grayscale_linear_endpoints():
    ppm = render_heatmap(np.array([[0.0, 1.0], [2.0, 3.0]]), grayscale=True)
    header, pixels = ppm.split(b"255\n", 1)
    assert header == b"P6\n2 2\n"
    # linear map in canonical site order, each gray value in three channels
    assert pixels == bytes([0, 0, 0, 85, 85, 85, 170, 170, 170, 255, 255, 255])


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
    est = estimate_ahom(EnvironmentLaw.bernoulli(0.5, 1, 2), 8, 3, seed=4)
    assert records[0]["iterations"] == records[1]["iterations"] == est.iterations > 0
    assert records[0]["max_residual"] == records[1]["max_residual"] == est.max_residual
    assert 0 < est.max_residual <= 1e-8


def test_rates_synthetic_self_test(tmp_path):
    cfg = _write_config(
        tmp_path,
        "n = 8,16,32\nexperiment = synthetic\nexpect_slope = -2\nslope_tol = 0.001\n",
    )
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
    log = [json.loads(line) for line in (out / "runlog.jsonl").read_text().splitlines()]
    assert log[-1]["slope"] == pytest.approx(-2.0, abs=1e-9)


def test_rates_slope_assertion_failure(tmp_path):
    cfg = _write_config(
        tmp_path,
        "n = 8,16,32\nexperiment = synthetic\nexpect_slope = -3\nslope_tol = 0.1\n",
    )
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


@pytest.mark.parametrize("experiment, ns", [("synthetic", "8,16,0"), ("disc", "0,8,16"),
                                             ("disc", "-4,8,16"), ("disc", "1,8,16")])
def test_rates_ladder_size_below_two_is_config_error(tmp_path, capsys, experiment, ns):
    cfg = _write_config(tmp_path, f"n = {ns}\nexperiment = {experiment}\nbeta = 0.75\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "ladder size must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("rates_*.csv"))


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
    assert 0 <= record["offdiag_frobenius_exact"] < record["offdiag_frobenius"]


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
    # scipy.stats and scipy.special cost about a second of every cold start
    law = "law = bernoulli(0.5,1,2)\n"
    bodies = {
        "figure1": "n = 16\n",
        "sample": "n = 8\nfield = gff\n" + law,
        "cov": "n = 8\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 50\nseed = 1\n"
               "backend = krylov\n" + law,
    }
    calls = [[cmd, "--config", _write_config(tmp_path, body, f"{cmd}.ini"),
              "--out", str(tmp_path / cmd)] for cmd, body in bodies.items()]
    script = ("import sys\nfrom homfield.cli import main\n"
              f"codes = [main(argv) for argv in {calls!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_sample_shifted_solve_cap_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    cfg = _write_config(tmp_path, "n = 16\nlaw = bernoulli(0.5,1,2)\nfield = gff\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_sample_nan_tolerance_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "n = 8\nlaw = uniform(1,2)\nfield = bilap\ntol = nan\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "tolerance must lie in (0, 1), got nan" in capsys.readouterr().err


def test_sample_gff_random_law_n256(tmp_path):
    cfg = _write_config(tmp_path, "n = 256\nlaw = bernoulli(0.5,1,2)\nfield = gff\nseed = 0\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    smp = load_field(tmp_path / "field_gff_env_N256_seed0.hf")
    assert smp.kind == "gff_env"
    assert smp.field.grid.N == 256
    assert smp.field.is_mean_zero(rtol=1e-9)


@pytest.mark.parametrize("law", ["", "law = homogeneous\n"])
@pytest.mark.parametrize("experiment", ["pseudo", "bilap"])
def test_rates_without_law_is_config_error(tmp_path, capsys, experiment, law):
    cfg = _write_config(
        tmp_path,
        f"n = 8,16,32\nexperiment = {experiment}\nbeta = 0.75\nkset = 1,0\n{law}",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "needs an environment law" in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment, missing", [("pseudo", "kset"), ("bilap", "beta")])
def test_rates_missing_key_fails_before_estimating_ahom(tmp_path, capsys, experiment, missing):
    body = "n = 4,8,16\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\nbeta = 0.75\n"
    body = "".join(line + "\n" for line in body.splitlines() if not line.startswith(missing))
    cfg = _write_config(tmp_path, body + f"experiment = {experiment}\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert missing in err
    assert "estimating" not in err


def test_cov_unknown_backend_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "n = 8\nd = 2\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 60\nbackend = bogus\n",
    )
    assert main(["cov", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown backend" in capsys.readouterr().err


def test_cov_dense_with_a_law_keeps_the_site_limit(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "n = 128\nd = 2\nlaw = bernoulli(0.5,1,2)\nkset = 1,0; 0,1\nM = 2\n"
        "noise_replicates = 50\nbackend = dense\n",
    )
    assert main(["cov", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "16384 sites is too large" in capsys.readouterr().err


def test_rates_beta_zero_meets_the_threshold_check(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "n = 4,8,16\nexperiment = bilap\nlaw = bernoulli(0.5,1,2)\nbeta = 0\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "violates the convergence threshold" in err
    assert "estimating" not in err


def test_rates_bad_expect_slope_fails_before_running(tmp_path, capsys):
    cfg = _write_config(tmp_path, "n = 8,16,32\nexperiment = synthetic\nexpect_slope = abc\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "expect_slope" in capsys.readouterr().err
    assert not list(out.glob("rates_*.csv"))


@pytest.mark.parametrize("command, body, key", [
    ("rates", "n = 4,8,16\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nkset = 1,0\n"
              "ahom = x1.4\n", "ahom"),
    ("sample", "n = 8\nlaw = constant(1,2)\n", "law"),
    ("cov", "n = 8\nkset = 1,0; 0,x\nM = 2\nnoise_replicates = 60\n", "kset"),
])
def test_unparsable_value_names_its_key(tmp_path, capsys, command, body, key):
    cfg = _write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err


def test_rates_mode_cutoff_zero_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "n = 4,8,16\nexperiment = bilap\nlaw = bernoulli(0.5,1,2)\nbeta = 0.75\n"
                  "ahom = 1.4\nM = 2\nmode_cutoff = 0\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "mode_cutoff" in capsys.readouterr().err


def test_blank_value_counts_as_absent(tmp_path):
    body = "n = 8,16,32\nexperiment = synthetic\n"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = _write_config(tmp_path, body + "expect_slope =\nbackend =\nseed =\n", name="blank.ini")
    assert main(["rates", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["rates", "--config", _write_config(tmp_path, body), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "rates_synthetic.csv").read_bytes() == (out2 / "rates_synthetic.csv").read_bytes()
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
    ("rates", "n = 8,16,32\nexperiment = synthetic\n", {"experiment", "slope"}),
    ("cov", "n = 8\nkset = 1,0; 0,1\nM = 2\nnoise_replicates = 60\n", {"fitted_constant"}),
    ("figure1", "n = 16\n", {"sign_tests", "passed"}),
])
def test_every_runlog_record_carries_the_envelope(tmp_path, command, body, extra):
    cfg_path = _write_config(tmp_path, body + "seed = 3\n")
    out = tmp_path / "o"
    main([command, "--config", cfg_path, "--out", str(out)])
    record = json.loads((out / "runlog.jsonl").read_text())
    cfg = load_config(cfg_path)
    assert {k: record[k] for k in ("command", "config", "config_hash", "seed")} == {
        "command": command, "config": cfg, "config_hash": config_hash(cfg), "seed": 3}
    assert record["wall_s"] >= 0
    assert extra <= record.keys()
    if command == "figure1":
        assert json.loads((out / "figure1_report.json").read_text()) == record


def _ini_keys(lines) -> set:
    return {m.group(1).lower() for m in map(re.compile(r"^\s*(\w+) = ").match, lines) if m}


def test_every_config_key_is_documented():
    read = set(re.findall(r'_get\(cfg, "(\w+)"', inspect.getsource(cli)))
    assert {"beta", "mode_cutoff", "ahom", "expect_slope", "backend", "law"} <= read
    grammar = cli.__doc__.split("\n    [run]\n", 1)[1].split("\n\n", 1)[0]
    assert read <= _ini_keys(grammar.splitlines())
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        ini = fh.read().split("```ini", 1)[1].split("```", 1)[0]
    assert read <= _ini_keys(ini.splitlines())
