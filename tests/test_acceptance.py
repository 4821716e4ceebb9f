"""Acceptance suite: one test per primary criterion, each printing a single
pass/fail line. Runs at desk scale; all checks are exponent-level or
property-based with explicit tolerances.
"""

import contextlib
import json

import numpy as np

from homfield.cli import EXIT_OK, main
from homfield.environment import (
    EnvironmentLaw,
    extend,
    operator_matrix,
    project,
    sample_environment,
)
from homfield.experiments import (
    ExperimentConfig,
    bilap_error_rate,
    discretization_rate,
    gff_covariance_limit,
    pseudo_eigen_rate,
)
from homfield.homogenization import estimate_ahom
from homfield.lattice import TorusGrid, dft, fourier_mode, idft
from homfield.sampler import (
    coarsen,
    sample_bilaplacian,
    sample_gff,
    sample_noise,
)
from homfield.solver import inv_sqrt, solve
from reference import (bilap_monte_carlo_point, delta_rhs, dense_power, has_zero_mean,
                       norm, pseudo_eigenfunction, solve_corrector)

BERNOULLI = EnvironmentLaw.bernoulli(0.5, 1, 2)
SQRT2 = float(np.sqrt(2.0))


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}")
        raise
    print(f"[PASS] criterion {num}: {title}")


def test_criterion_1_constant_environment_degeneracy():
    with criterion(1, "constant-environment degeneracy"):
        c = 1.5
        grid = TorusGrid(16, 2)
        a = sample_environment(EnvironmentLaw.constant(c), grid, 0)
        # pseudo-eigenfunctions equal Fourier modes
        for k in [(1, 0), (2, -3)]:
            phi = pseudo_eigenfunction(a, c, k, 1e-12)
            assert norm(phi - fourier_mode(grid, k)) < 1e-8
        # corrector is identically zero
        for axis in range(2):
            chi, _ = solve_corrector(a, axis, tol=1e-12)
            assert np.max(np.abs(chi)) < 1e-10
        # effective coefficient recovers the constant exactly
        est = estimate_ahom(EnvironmentLaw.constant(c), 8, 2, seed=0, d=2)
        assert abs(est.mean - c) < 1e-10
        # both error fields vanish to solver tolerance
        cfg = ExperimentConfig(d=2, law=EnvironmentLaw.constant(c),
                               Ns=(8, 16), kset=((1, 0),),
                               replicates=2, seed=0, ahom=c, tol=1e-12)
        for _, v, _ in pseudo_eigen_rate(cfg).points:
            assert v < 1e-16
        cfgb = ExperimentConfig(d=2, law=EnvironmentLaw.constant(c),
                                beta=0.75, Ns=(8, 16),
                                replicates=2, seed=0, ahom=c, tol=1e-12,
                                mode_cutoff=2)
        for _, v, _ in bilap_error_rate(cfgb).points:
            assert v < 1e-16


def test_criterion_2_effective_coefficient_oracles():
    with criterion(2, "effective coefficient oracles (1/ln 2 and sqrt 2)"):
        est1 = estimate_ahom(EnvironmentLaw.uniform(1, 2), 4096, 50, seed=21, d=1)
        target1 = 1.0 / np.log(2.0)
        assert abs(est1.mean - target1) / target1 < 0.02
        est2 = estimate_ahom(BERNOULLI, 128, 100, seed=22, d=2)
        assert abs(est2.mean - SQRT2) / SQRT2 < 0.03


def test_criterion_3_pseudo_eigenfunction_rate():
    with criterion(3, "pseudo-eigenfunction convergence rate -2"):
        cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(16, 32, 64, 128), kset=((1, 0),),
                               replicates=64, seed=31, ahom=SQRT2)
        rs = pseudo_eigen_rate(cfg)
        slope = rs.corrected[0]
        assert abs(slope - (-2.0)) < 0.3, f"log-corrected slope {slope:.3f}"


def test_criterion_4_bilaplacian_error_rate():
    with criterion(4, "bi-Laplacian error norm rate -2 with MC cross-check"):
        cfg = ExperimentConfig(d=2, law=BERNOULLI, beta=0.75, Ns=(16, 32, 64, 128),
                               replicates=16, noise_replicates=32, seed=41,
                               ahom=SQRT2, mode_cutoff=2)
        series = bilap_error_rate(cfg)
        slope = series.corrected[0]
        assert abs(slope - (-2.0)) < 0.3, f"log-corrected slope {slope:.3f}"
        # the Monte-Carlo estimate redraws the environments behind the
        # exact point at N=16
        (_, ex_m, ex_s), *_ = series.points
        mc_m, mc_s = bilap_monte_carlo_point(cfg, 16)
        z = abs(ex_m - mc_m) / np.hypot(ex_s, mc_s)
        assert z < 3.0, f"estimator discrepancy {z:.2f} standard errors"


def test_criterion_5_discretization_rate():
    with criterion(5, "coupled discretization error rate -5"):
        cfg = ExperimentConfig(d=2, beta=0.75,
                               Ns=(8, 16, 32, 64))
        rs = discretization_rate(cfg)
        target = 2.0 - 4.0 - 4.0 * 0.75
        assert abs(rs.slope - target) < 0.3, f"slope {rs.slope:.3f}"


def test_criterion_6_gff_covariance_limit():
    with criterion(6, "free-field spectral covariance limit"):
        kset = ((1, 0), (0, 1), (1, 1), (2, 0))

        def run(N):
            cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(N,), kset=kset, replicates=8,
                                   noise_replicates=2000, seed=61)
            return gff_covariance_limit(cfg)

        rep16 = run(16)
        rep64 = run(64)
        assert rep64.max_offdiag_z() < 4.0
        assert np.all(rep64.diagonal_z() < 4.0)
        assert rep64.offdiag_frobenius() < rep16.offdiag_frobenius()


def test_criterion_7_sampler_correctness_oracles():
    with criterion(7, "sampler covariance oracles"):
        # homogeneous free field vs Green's function at 20 site pairs
        grid = TorusGrid(16, 2)
        M = 10_000
        # the noise of sample_gff(grid, None, seed), as one stack
        noise = np.stack([sample_noise(grid, np.random.SeedSequence(71, spawn_key=(s,)))
                          for s in range(M)])
        fields = inv_sqrt(grid, None, noise).reshape(M, grid.n)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(72)))
        pairs = rng.integers(0, grid.n, size=(20, 2))
        for xi, yi in pairs:
            ycoord = tuple(np.array(np.unravel_index(yi, grid.shape)) - grid.N // 2)
            target = solve(grid, None, delta_rhs(grid, ycoord)).ravel()[xi]
            prods = fields[:, xi] * fields[:, yi]
            stderr = prods.std(ddof=1) / np.sqrt(M)
            assert abs(prods.mean() - target) < 4 * stderr

        # bi-Laplacian covariance vs dense pseudo-inverse oracle at N=6
        grid6 = TorusGrid(6, 2)
        a = sample_environment(EnvironmentLaw.uniform(1, 2), grid6, 73)
        ainv = np.linalg.pinv(operator_matrix(a))
        exact = ainv @ ainv  # centering is absorbed by the pseudo-inverse
        Mb = 4000
        # the fields of sample_bilaplacian(grid6, a, noise), as one stack
        noise = np.stack([sample_noise(grid6, np.random.SeedSequence(74, spawn_key=(s,)))
                          for s in range(Mb)])
        noise -= noise.mean(axis=(1, 2), keepdims=True)
        us = solve(grid6, a, noise, tol=1e-10).reshape(Mb, grid6.n)
        pairs6 = rng.integers(0, grid6.n, size=(20, 2))
        for xi, yi in pairs6:
            prods = us[:, xi] * us[:, yi]
            stderr = prods.std(ddof=1) / np.sqrt(Mb)
            assert abs(prods.mean() - exact[xi, yi]) < 4 * stderr

        # the quadrature sampler agrees with the dense eigh oracle on the same noise
        grid8 = TorusGrid(8, 2)
        a8 = sample_environment(EnvironmentLaw.uniform(1, 2), grid8, 75)
        dense = dense_power(a8, sample_noise(grid8, 76), -0.5)
        quadrature = sample_gff(grid8, a8, 76)
        assert np.max(np.abs(dense - quadrature)) < 1e-4


def test_criterion_8_structural_properties():
    with criterion(8, "structural property suite"):
        # operator symmetry, positive semidefiniteness, kernel = constants
        grid = TorusGrid(8, 2)
        a = sample_environment(BERNOULLI, grid, 81)
        mat = operator_matrix(a)
        assert np.max(np.abs(mat - mat.T)) < 1e-10
        evals = np.linalg.eigvalsh(mat)
        assert evals[0] > -1e-8 * evals[-1]
        assert np.sum(evals < 1e-8 * evals[-1]) == 1
        assert np.max(np.abs(mat @ np.ones(grid.n))) < 1e-8

        # Green symmetry over all site pairs at N=6
        grid6 = TorusGrid(6, 2)
        a6 = sample_environment(EnvironmentLaw.uniform(1, 2), grid6, 82)
        g = np.linalg.pinv(operator_matrix(a6))
        ys = range(grid6.n)[:6]
        deltas = np.stack([
            delta_rhs(grid6, tuple(np.array(np.unravel_index(yi, grid6.shape)) - 3))
            for yi in ys])
        cols = dict(zip(ys, solve(grid6, a6, deltas, tol=1e-12).reshape(len(ys), grid6.n)))
        for yi, col in cols.items():
            assert np.max(np.abs(col - g[:, yi])) < 1e-8
        assert np.max(np.abs(g - g.T)) < 1e-10

        # Parseval identity and DFT round trip
        f = sample_noise(grid, 83)
        spec = dft(f)
        assert abs(norm(f) ** 2 - np.sum(np.abs(spec) ** 2)) < 1e-10
        assert np.max(np.abs(idft(spec) - f)) < 1e-10

        # mean-zero invariants on every sampled field
        assert has_zero_mean(sample_gff(grid, None, 84), rtol=1e-9)
        assert has_zero_mean(sample_gff(grid, a, 84), rtol=1e-9)
        noise = sample_noise(grid, 85)
        assert has_zero_mean(sample_bilaplacian(grid, a, noise), rtol=1e-9)

        # projection then extension reproduces the coarse environment
        fine = sample_environment(BERNOULLI, TorusGrid(16, 2), 86)
        coarse = project(fine, 8)
        back = project(extend(coarse, 16), 8)
        for w_a, w_b in zip(coarse.weights, back.weights):
            assert np.array_equal(w_a, w_b)

        # coarsening of white noise is nested and variance-preserving
        finest = sample_noise(TorusGrid(16, 2), 87)
        direct = coarsen(finest, 4)
        via = coarsen(coarsen(finest, 8), 4)
        assert np.allclose(direct, via, atol=1e-12)
        assert abs(coarsen(finest, 8).var() - 1.0) < 0.5


def test_criterion_9_figure_reproduction(tmp_path):
    with criterion(9, "four-environment figure with sign test"):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nn = 150\nseed = 91\n")
        out = tmp_path / "fig"
        assert main(["figure1", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "figure1_report.json").read_text())
        assert report["passed"] is True
