import json
import os

import numpy as np
import pytest

from homfield import solver
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


def test_rates_unknown_experiment(tmp_path):
    cfg = _write_config(tmp_path, "n = 8,16,32\nexperiment = warp\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


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


def test_sample_shifted_solve_cap_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    cfg = _write_config(tmp_path, "n = 16\nlaw = bernoulli(0.5,1,2)\nfield = gff\n")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


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


def test_rates_pseudo_without_kset_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "n = 8,16,32\nexperiment = pseudo\nlaw = bernoulli(0.5,1,2)\nahom = 1.4\n",
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "kset" in capsys.readouterr().err
