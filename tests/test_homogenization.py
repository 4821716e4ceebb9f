import csv

import numpy as np
import pytest

from homfield.environment import Conductances, EnvironmentLaw, sample_environment
from homfield.homogenization import (
    corrector_rhs,
    effective_matrix,
    effective_sample,
    estimate_ahom,
    flux_sample,
    solve_corrector,
    write_ahom_csv,
)
from homfield.lattice import TorusGrid


def test_corrector_rhs_mean_zero():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 0)
    for axis in range(2):
        rhs = corrector_rhs(a, axis)
        assert rhs.is_mean_zero()


def test_constant_environment_corrector_vanishes():
    grid = TorusGrid(16, 2)
    a = Conductances.constant(grid, 1.5)
    corrs = [solve_corrector(a, axis) for axis in range(2)]
    for c in corrs:
        assert np.max(np.abs(c.chi.values)) < 1e-12
    assert effective_sample(a, corrs) == pytest.approx(1.5, abs=1e-10)
    mat = effective_matrix(a, corrs)
    assert np.allclose(mat, 1.5 * np.eye(2), atol=1e-10)


def test_effective_sample_between_harmonic_and_arithmetic_mean():
    grid = TorusGrid(32, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 1)
    corrs = [solve_corrector(a, axis) for axis in range(2)]
    val = effective_sample(a, corrs)
    harmonic = 1.0 / np.mean(1.0 / a.weights)
    arithmetic = np.mean(a.weights)
    assert harmonic - 1e-9 <= val <= arithmetic + 1e-9


def test_flux_equals_energy():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 2)
    corrs = [solve_corrector(a, axis, tol=1e-11) for axis in range(2)]
    mat = effective_matrix(a, corrs)
    for axis in range(2):
        assert flux_sample(a, corrs[axis]) == pytest.approx(mat[axis, axis], abs=1e-6)


def test_one_dimensional_effective_is_harmonic_mean():
    # single d=1 environment: the effective coefficient is exactly the
    # harmonic mean of the edge weights (constant flux through the cycle)
    grid = TorusGrid(64, 1)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    corr = solve_corrector(a, 0, tol=1e-12)
    val = effective_sample(a, [corr])
    harmonic = 1.0 / np.mean(1.0 / a.weights[0])
    assert val == pytest.approx(harmonic, rel=1e-8)


def test_estimate_ahom_deterministic():
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    e1 = estimate_ahom(law, 16, 4, seed=10, d=2)
    e2 = estimate_ahom(law, 16, 4, seed=10, d=2)
    assert e1.mean == e2.mean
    assert e1.stderr == e2.stderr
    e3 = estimate_ahom(law, 16, 4, seed=11, d=2)
    assert e1.mean != e3.mean


def test_estimate_ahom_reports_solve_telemetry():
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    est = estimate_ahom(law, 8, 3, seed=2, tol=1e-9)
    iterations, worst = 0, 0.0
    for rep in range(3):
        a = sample_environment(law, TorusGrid(8, 2),
                               np.random.SeedSequence(2, spawn_key=(10_000 + rep,)))
        for axis in range(2):
            corr = solve_corrector(a, axis, tol=1e-9)
            iterations += corr.iterations
            worst = max(worst, corr.residual)
    assert est.iterations == iterations > 0
    assert est.max_residual == worst
    assert 0 < est.max_residual <= 1e-9


def test_estimate_ahom_validates_m():
    with pytest.raises(ValueError):
        estimate_ahom(EnvironmentLaw.uniform(1, 2), 8, 1, seed=0)


def test_effective_matrix_validates_correctors():
    grid = TorusGrid(8, 2)
    a = Conductances.constant(grid, 1.0)
    corr0 = solve_corrector(a, 0)
    with pytest.raises(ValueError):
        effective_matrix(a, [corr0])
    with pytest.raises(ValueError):
        effective_matrix(a, [corr0, corr0])


def test_write_ahom_csv(tmp_path):
    law = EnvironmentLaw.constant(1.5)
    est = estimate_ahom(law, 8, 2, seed=0, d=2)
    path = tmp_path / "ahom.csv"
    write_ahom_csv(path, [est], 2)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["ahom_mean"]) == pytest.approx(1.5, abs=1e-10)
    assert rows[0]["law"] == "constant(1.5)"
