import struct

import numpy as np
import pytest

from homfield.environment import EnvironmentLaw, sample_environment
from homfield import solver
from homfield.experiments import formal_constant
from homfield.lattice import LatticeField, TorusGrid, dft, fourier_mode
from homfield.sampler import (
    FieldSample,
    coarsen,
    dump_field,
    load_field,
    sample_bilaplacian,
    sample_gff,
    sample_noise,
)
from homfield.solver import SolverError, solve_homogeneous
from reference import delta_rhs, dense_power, has_zero_mean


def test_noise_reproducible_and_standard():
    grid = TorusGrid(32, 2)
    z1 = sample_noise(grid, 5)
    z2 = sample_noise(grid, 5)
    assert np.array_equal(z1, z2)
    assert abs(z1.mean()) < 4 / np.sqrt(grid.n)
    assert abs(z1.var() - 1.0) < 0.2
    # a stream is named by an int seed and int keys, never by a SeedSequence
    assert not np.array_equal(sample_noise(grid, 5, 0), z1)
    with pytest.raises(TypeError):
        sample_noise(grid, np.random.SeedSequence(5))


def test_noise_hierarchy_nested_consistency():
    grid = TorusGrid(16, 2)
    finest = sample_noise(grid, 1)
    direct = coarsen(finest, 4)
    via_intermediate = coarsen(coarsen(finest, 8), 4)
    assert np.allclose(direct, via_intermediate, atol=1e-12)
    assert coarsen(finest, 16) is finest
    for side in (0, -4, 5, 32):
        with pytest.raises(ValueError):
            coarsen(finest, side)
    for not_a_cube in (finest[:, :8], finest[0, 0]):
        with pytest.raises(ValueError):
            coarsen(not_a_cube, 4)


def test_noise_hierarchy_unit_variance():
    grid = TorusGrid(64, 2)
    coarse = coarsen(sample_noise(grid, 2), 8)
    assert abs(coarse.var() - 1.0) < 0.5  # 64 sites


def test_gff_backends_agree():
    # the quadrature sampler against the eigh oracle on the same noise
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    dense = dense_power(a, sample_noise(grid, 7), -0.5)
    quadrature = solver.inv_sqrt(grid, a, sample_noise(grid, 7), 1e-10)
    assert np.max(np.abs(dense - quadrature)) < 1e-6


@pytest.mark.parametrize("tol", [0.0, -1e-8, 50.0])
def test_gff_quadrature_rejects_bad_tolerance(tol):
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    with pytest.raises(ValueError):
        solver.inv_sqrt(grid, a, sample_noise(grid, 7), tol)


def test_sampled_fields_mean_zero():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 4)
    gff = sample_gff(grid, a, 1)
    assert has_zero_mean(gff, rtol=1e-9)
    hom = sample_gff(grid, None, 1)
    assert has_zero_mean(hom, rtol=1e-9)
    noise = sample_noise(grid, 2)
    bil = sample_bilaplacian(grid, a, noise)
    assert has_zero_mean(bil, rtol=1e-9)


def test_homogeneous_gff_variance_matches_green():
    grid = TorusGrid(8, 2)
    M = 4000
    origin = grid.index_of((0, 0))
    vals = np.empty(M)
    for s in range(M):
        vals[s] = sample_gff(grid, None, s)[origin]
    g = solve_homogeneous(grid, LatticeField(grid, delta_rhs(grid, (0, 0))))
    target = g.values[origin]
    stderr = np.std(vals**2) / np.sqrt(M)
    assert abs(np.mean(vals**2) - target) < 4 * stderr


def test_bilaplacian_deterministic_given_noise():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 5)
    noise = sample_noise(grid, 9)
    u1 = sample_bilaplacian(grid, a, noise)
    u2 = sample_bilaplacian(grid, a, noise)
    assert np.array_equal(u1, u2)
    hom = sample_bilaplacian(grid, None, noise)
    ref = solve_homogeneous(grid, LatticeField(grid, noise - noise.mean()))
    assert np.allclose(hom, ref.values)


def test_bilaplacian_rejects_noise_off_the_grid():
    grid = TorusGrid(8, 2)
    for noise in (sample_noise(TorusGrid(16, 2), 9), sample_noise(TorusGrid(8, 1), 9)):
        with pytest.raises(ValueError, match="does not fit grid"):
            sample_bilaplacian(grid, None, noise)


def test_formal_constants():
    assert formal_constant("gff", 2) == pytest.approx((4.0) ** -0.5)
    assert formal_constant("bilap", 2) == pytest.approx(0.25)
    assert formal_constant("gff_hom", 3) == pytest.approx(6.0**-0.5)


def test_formal_coefficient_identity_bilap():
    # coefficient of the driven field at mode k equals
    # (noise, phi_k) / lambda^(N)_k exactly, for the homogeneous operator
    from homfield.lattice import eigenvalue_discrete
    grid = TorusGrid(8, 2)
    noise = sample_noise(grid, 3)
    smp = sample_bilaplacian(grid, None, noise)
    spec = dft(smp)
    for k in [(1, 0), (2, -3)]:
        lam = eigenvalue_discrete(grid.N, k)
        expected = np.vdot(fourier_mode(grid, k), noise) / grid.n / lam
        assert spec[grid.index_of(k)] == pytest.approx(expected, rel=1e-10)


def test_dump_load_field_roundtrip(tmp_path):
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    noise = sample_noise(grid, 7)
    values = sample_bilaplacian(grid, a, noise)
    path = tmp_path / "f.hf"
    dump_field(FieldSample("bilap_env", LatticeField(grid, values)), path)
    back = load_field(path)
    assert back.kind == "bilap_env"
    assert back.field.grid == grid
    assert np.array_equal(back.field.values, values)


def test_load_field_bad_magic(tmp_path):
    path = tmp_path / "junk.hf"
    path.write_bytes(b"WRONG!" + b"\0" * 100)
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize("corruption", [
    "truncated", "huge_n", "short_header",
    "extra_bytes", "header_only", "empty", "huge_d", "zero_n", "zero_d",
    "nan_value", "inf_value",
])
def test_load_field_rejects_corrupt_dump(tmp_path, corruption):
    # layout: 6-byte magic, d and N (16 bytes), 12-byte kind tag, values
    grid = TorusGrid(8, 2)
    path = tmp_path / "f.hf"
    values = sample_bilaplacian(grid, None, sample_noise(grid, 7))
    dump_field(FieldSample("bilap_hom", LatticeField(grid, values)), path)
    raw = path.read_bytes()
    magic, rest = raw[:6], raw[22:]
    path.write_bytes({
        "truncated": raw[:-8],
        "huge_n": magic + struct.pack("<qq", 2, 2**40) + rest,
        "short_header": raw[:16],
        # the byte count must match the header exactly, not merely cover it
        "extra_bytes": raw + b"\0" * 8,
        "header_only": raw[:34],
        "empty": b"",
        # 2^(2^40) values: the size check must stop before it walks every axis
        "huge_d": magic + struct.pack("<qq", 2**40, 2) + rest,
        "zero_n": magic + struct.pack("<qq", 2, 0) + rest,
        "zero_d": magic + struct.pack("<qq", 0, 8) + rest,
        # a dump holds finite site values only
        "nan_value": raw[:34] + struct.pack("<d", np.nan) + raw[42:],
        "inf_value": raw[:-8] + struct.pack("<d", -np.inf),
    }[corruption])
    with pytest.raises(ValueError):
        load_field(path)


def test_load_field_rejects_a_kind_tag_that_is_not_utf8(tmp_path):
    grid = TorusGrid(4, 2)
    path = tmp_path / "f.hf"
    dump_field(FieldSample("gff_hom", LatticeField(grid, sample_noise(grid, 1))), path)
    raw = bytearray(path.read_bytes())
    raw[22] = 0xFF                        # the first byte of the kind tag
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"kind tag b'\\xffff_hom.*' is not UTF-8"):
        load_field(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dump_field_rejects_a_non_finite_value(tmp_path, value):
    grid = TorusGrid(4, 2)
    values = sample_noise(grid, 1)
    values[1, 2] = value
    path = tmp_path / "f.hf"
    with pytest.raises(ValueError, match="finite"):
        dump_field(FieldSample("gff_hom", LatticeField(grid, values)), path)
    assert not path.exists()


def test_shifted_solve_cap_raises_solver_error(monkeypatch):
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 3)
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    with pytest.raises(SolverError) as err:
        solver.inv_sqrt(grid, a, sample_noise(grid, 4), 1e-8)
    assert err.value.report.iterations == 3


def test_field_sample_kind_validation():
    grid = TorusGrid(4, 2)
    with pytest.raises(ValueError):
        FieldSample("mystery", LatticeField(grid, sample_noise(grid, 0)))
