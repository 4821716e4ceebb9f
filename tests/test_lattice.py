import numpy as np
import pytest

from homfield.lattice import (
    LatticeField,
    TorusGrid,
    dft,
    eigenvalue_continuum,
    eigenvalue_discrete,
    fourier_mode,
    idft,
)
from reference import norm


def test_grid_geometry():
    grid = TorusGrid(16, 2)
    assert grid.n == 256
    assert grid.shape == (16, 16)
    coords = grid.coordinates_1d()
    assert coords[0] == -8 and coords[-1] == 7
    assert grid.index_of((0, 0)) == (8, 8)
    assert grid.index_of((-8, 7)) == (0, 15)
    # periodic wrap
    assert grid.index_of((8, -9)) == grid.index_of((-8, 7))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, 2)
    with pytest.raises(ValueError):
        TorusGrid(8, 0)
    grid = TorusGrid(8, 2)
    with pytest.raises(ValueError):
        grid.check_frequency((4, 0))  # window is [-4, 4)
    assert grid.check_frequency((-4, 3)).tolist() == [-4, 3]
    odd = TorusGrid(7, 1)  # window is [-3, 3]
    for k in (-3, 3):
        assert odd.check_frequency((k,)).tolist() == [k]
    for k in (-4, 4):
        with pytest.raises(ValueError):
            odd.check_frequency((k,))


def test_field_inner_product_normalization():
    grid = TorusGrid(8, 2)
    ones = np.ones(grid.shape)
    assert np.vdot(ones, ones) / grid.n == pytest.approx(1.0)
    assert norm(ones) == pytest.approx(1.0)


def test_lattice_field_checks_its_shape():
    grid = TorusGrid(8, 2)
    assert LatticeField(grid, np.zeros(grid.shape)).values.shape == grid.shape
    for shape in ((8,), (8, 4), (2, 8, 8)):
        with pytest.raises(ValueError, match="do not fit grid"):
            LatticeField(grid, np.zeros(shape))


def test_fourier_modes_orthonormal():
    grid = TorusGrid(8, 2)
    m1 = fourier_mode(grid, (1, 0))
    m2 = fourier_mode(grid, (2, 3))
    assert np.vdot(m1, m1) / grid.n == pytest.approx(1.0, abs=1e-13)
    assert abs(np.vdot(m2, m1) / grid.n) < 1e-13
    assert norm(m1) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d, N", [(1, 7), (1, 16), (2, 9), (2, 16), (3, 5), (3, 12)])
def test_fourier_mode_matches_the_exponential_of_its_phase(d, N):
    # the product of d one-dimensional factors is exp(2 pi i k.x / N),
    # down to the Nyquist frequency k = -N/2 of an even N
    grid = TorusGrid(N, d)
    x = np.stack(np.meshgrid(*[grid.coordinates_1d()] * d, indexing="ij"), axis=-1)
    for k in [(-(N // 2),) * d, (1,) + (0,) * (d - 1), tuple(range(-1, d - 1)), (N // 2 - 1,) * d]:
        expected = np.exp(2j * np.pi * (x @ np.array(k)) / N)
        assert np.max(np.abs(fourier_mode(grid, k) - expected)) <= 1e-14


def test_eigenvalue_relation():
    # half-angle identity as an independent oracle:
    # 4 N^2 sin^2(pi k / N) = 2 N^2 (1 - cos(2 pi k / N))
    for N, k in [(16, (1, 0)), (16, (3, 5)), (64, (7, -2)), (8, (-4, 4 - 8))]:
        lam = eigenvalue_discrete(N, k)
        ref = sum(2.0 * N**2 * (1.0 - np.cos(2 * np.pi * ki / N)) for ki in k)
        assert lam == pytest.approx(ref, rel=1e-13)
    assert eigenvalue_continuum((1, 0)) == pytest.approx(4 * np.pi**2)
    assert eigenvalue_continuum((2, 1)) == pytest.approx(20 * np.pi**2)


def test_eigenvalue_discrete_approaches_continuum():
    k = (1, 0)
    errs = [abs(eigenvalue_discrete(N, k) - eigenvalue_continuum(k)) for N in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    # O(N^-2) decay of 1/lambda^(N) - 1/lambda
    r = [abs(1 / eigenvalue_discrete(N, k) - 1 / eigenvalue_continuum(k)) * N**2
         for N in (64, 128, 256)]
    assert max(r) / min(r) < 1.1


def test_operator_eigenfunction_identity():
    # modes diagonalize the discrete Laplacian with eigenvalue lambda^(N)_k
    from homfield.environment import EnvironmentLaw, apply_operator, sample_environment
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.constant(1.0), grid, 0)
    for k in [(1, 0), (2, 3), (-4, 1)]:
        mode = fourier_mode(grid, k)
        out = apply_operator(a, mode)
        lam = eigenvalue_discrete(grid.N, k)
        assert np.allclose(out, lam * mode, rtol=1e-10, atol=1e-6)


def test_dft_roundtrip_and_parseval():
    grid = TorusGrid(16, 2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.shape)
    spec = dft(f)
    back = idft(spec)
    assert np.allclose(back.real, f, atol=1e-12)
    assert np.max(np.abs(back.imag)) < 1e-12
    assert np.linalg.norm(spec) == pytest.approx(norm(f), rel=1e-12)


def test_dft_of_mode_is_delta():
    grid = TorusGrid(8, 2)
    spec = dft(fourier_mode(grid, (2, -1)))
    expected = np.zeros(grid.shape, dtype=complex)
    expected[grid.index_of((2, -1))] = 1.0
    assert np.allclose(spec, expected, atol=1e-13)
    assert spec[grid.index_of((2, -1))] == pytest.approx(1.0)


def test_eigenvalue_grids_match_scalars():
    grid = TorusGrid(8, 2)
    lam_d = eigenvalue_discrete(grid.N, grid.coordinates())
    lam_c = eigenvalue_continuum(grid.coordinates())
    for k in [(0, 0), (1, 0), (-4, 3)]:
        idx = grid.index_of(k)
        assert lam_d[idx] == pytest.approx(eigenvalue_discrete(8, k))
        assert lam_c[idx] == pytest.approx(eigenvalue_continuum(k))
