import struct

import numpy as np
import pytest

from homfield.environment import Conductances, EnvironmentLaw, sample_environment
from homfield import solver
from homfield.lattice import TorusGrid, dft, fourier_mode
from homfield.sampler import (
    FieldSample,
    NoiseHierarchy,
    dump_field,
    formal_constant,
    formal_field,
    load_field,
    sample_bilaplacian,
    sample_gff,
    sample_noise,
)
from homfield.solver import SolverError, green_column, solve_homogeneous


def test_noise_reproducible_and_standard():
    grid = TorusGrid(32, 2)
    z1 = sample_noise(grid, 5)
    z2 = sample_noise(grid, 5)
    assert np.array_equal(z1.values, z2.values)
    assert abs(z1.values.mean()) < 4 / np.sqrt(grid.n)
    assert abs(z1.values.var() - 1.0) < 0.2


def test_noise_hierarchy_nested_consistency():
    grid = TorusGrid(16, 2)
    h = NoiseHierarchy(sample_noise(grid, 1))
    direct = h.level(4)
    via_intermediate = NoiseHierarchy(h.level(8)).level(4)
    assert np.allclose(direct.values, via_intermediate.values, atol=1e-12)
    assert h.level(16) is h.finest
    with pytest.raises(ValueError):
        h.level(5)


def test_noise_hierarchy_unit_variance():
    grid = TorusGrid(64, 2)
    h = NoiseHierarchy(sample_noise(grid, 2))
    coarse = h.level(8)
    assert abs(coarse.values.var() - 1.0) < 0.5  # 64 sites


def test_gff_backends_agree():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    dense = sample_gff(grid, a, 7, backend="dense")
    krylov = sample_gff(grid, a, 7, backend="krylov", tol=1e-10)
    assert np.max(np.abs(dense.field.values - krylov.field.values)) < 1e-6
    assert np.array_equal(dense.noise.values, krylov.noise.values)


@pytest.mark.parametrize("tol", [0.0, -1e-8, 50.0])
def test_gff_krylov_rejects_bad_tolerance(tol):
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    with pytest.raises(ValueError):
        sample_gff(grid, a, 7, backend="krylov", tol=tol)


def test_gff_spectral_requires_homogeneous():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    with pytest.raises(ValueError):
        sample_gff(grid, a, 0, backend="spectral")


def test_gff_dense_rejects_grid_beyond_operator_limit():
    grid = TorusGrid(65, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    with pytest.raises(ValueError, match="4225 sites"):
        sample_gff(grid, a, 7, backend="dense")


def test_sampled_fields_mean_zero():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 4)
    gff = sample_gff(grid, a, 1, backend="krylov")
    assert gff.field.is_mean_zero(rtol=1e-9)
    hom = sample_gff(grid, None, 1)
    assert hom.field.is_mean_zero(rtol=1e-9)
    noise = sample_noise(grid, 2)
    bil = sample_bilaplacian(grid, a, noise)
    assert bil.field.is_mean_zero(rtol=1e-9)


def test_homogeneous_gff_variance_matches_green():
    grid = TorusGrid(8, 2)
    M = 4000
    origin = grid.origin_index
    vals = np.empty(M)
    for s in range(M):
        vals[s] = sample_gff(grid, None, np.random.SeedSequence(s)).field.values[origin]
    g = green_column(None, grid, (0, 0))
    target = g.values[origin]
    stderr = np.std(vals**2) / np.sqrt(M)
    assert abs(np.mean(vals**2) - target) < 4 * stderr


def test_bilaplacian_deterministic_given_noise():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 5)
    noise = sample_noise(grid, 9)
    u1 = sample_bilaplacian(grid, a, noise)
    u2 = sample_bilaplacian(grid, a, noise)
    assert np.array_equal(u1.field.values, u2.field.values)
    hom = sample_bilaplacian(grid, None, noise)
    ref = solve_homogeneous(grid, noise.centered())
    assert np.allclose(hom.field.values, ref.values)


def test_formal_constants():
    assert formal_constant("gff", 2) == pytest.approx((4.0) ** -0.5)
    assert formal_constant("bilap", 2) == pytest.approx(0.25)
    assert formal_constant("gff_hom", 3) == pytest.approx(6.0**-0.5)


def test_formal_field_scaling():
    grid = TorusGrid(8, 2)
    k = (2, 1)
    smp = FieldSample("bilap_hom", fourier_mode(grid, k))
    spec = formal_field(smp)
    expected = formal_constant("bilap", 2) * grid.N ** (grid.d / 2.0)
    assert spec.coefficient(k) == pytest.approx(expected)
    raw = formal_field(smp, apply_constant=False)
    assert raw.coefficient(k) == pytest.approx(grid.N ** (grid.d / 2.0))


def test_formal_coefficient_identity_bilap():
    # coefficient of the driven field at mode k equals
    # (noise, phi_k) / lambda^(N)_k exactly, for the homogeneous operator
    from homfield.lattice import eigenvalue_discrete
    grid = TorusGrid(8, 2)
    noise = sample_noise(grid, 3)
    smp = sample_bilaplacian(grid, None, noise)
    spec = dft(smp.field)
    for k in [(1, 0), (2, -3)]:
        lam = eigenvalue_discrete(grid.N, k)
        expected = noise.inner(fourier_mode(grid, k)) / lam
        assert spec.coefficient(k) == pytest.approx(expected, rel=1e-10)


def test_dump_load_field_roundtrip(tmp_path):
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    noise = sample_noise(grid, 7)
    smp = sample_bilaplacian(grid, a, noise)
    path = tmp_path / "f.hf"
    dump_field(smp, path)
    back = load_field(path)
    assert back.kind == smp.kind
    assert back.field.grid == grid
    assert np.array_equal(back.field.values, smp.field.values)


def test_load_field_bad_magic(tmp_path):
    path = tmp_path / "junk.hf"
    path.write_bytes(b"WRONG!" + b"\0" * 100)
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize("corruption", ["truncated", "huge_n", "short_header"])
def test_load_field_rejects_corrupt_dump(tmp_path, corruption):
    grid = TorusGrid(8, 2)
    path = tmp_path / "f.hf"
    dump_field(sample_bilaplacian(grid, None, sample_noise(grid, 7)), path)
    raw = path.read_bytes()
    path.write_bytes({
        "truncated": raw[:-8],
        "huge_n": raw[:6] + struct.pack("<qq", 2, 2**40) + raw[22:],
        "short_header": raw[:16],
    }[corruption])
    with pytest.raises(ValueError):
        load_field(path)


def test_shifted_solve_cap_raises_solver_error(monkeypatch):
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 3)
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    with pytest.raises(SolverError) as err:
        solver.inv_sqrt(grid, a, sample_noise(grid, 4).values, "krylov", 1e-8)
    assert err.value.report.iterations == 3
    assert err.value.report.backend == "cg"


def test_field_sample_kind_validation():
    grid = TorusGrid(4, 2)
    with pytest.raises(ValueError):
        FieldSample("mystery", sample_noise(grid, 0))
