import itertools
import math

import numpy as np
import pytest

from homfield import solver
from homfield.environment import (
    Conductances,
    EnvironmentLaw,
    apply_operator,
    sample_environment,
)
from homfield.lattice import (
    LatticeField,
    TorusGrid,
    eigenvalue_discrete,
    fourier_mode,
)
from homfield.solver import (
    SolverError,
    _inv_sqrt_quadrature,
    _spectral_apply,
    _spectral_multiplier,
    green_column,
    inv_sqrt,
    pseudo_eigenfunction,
    solve_dense,
    solve_heterogeneous,
    solve_homogeneous,
)


def _random_rhs(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    return LatticeField(grid, v - v.mean())


def test_homogeneous_solve_inverts_operator():
    grid = TorusGrid(16, 2)
    rhs = _random_rhs(grid)
    u = solve_homogeneous(grid, rhs)
    assert u.is_mean_zero()
    a = Conductances.constant(grid, 1.0)
    back = apply_operator(a, u)
    assert np.allclose(back.values, rhs.values, atol=1e-9 * np.abs(rhs.values).max())


def test_cg_matches_dense_oracle():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    rhs = _random_rhs(grid, 1)
    u_cg, report = solve_heterogeneous(a, rhs, tol=1e-12)
    u_dense = solve_dense(a, rhs)
    assert np.allclose(u_cg.values, u_dense.values, atol=1e-9)
    assert report.residual <= 1e-12


def test_one_dimensional_closed_form():
    # in d=1 the flux a u' is constant plus the integrated rhs, so the
    # solution is an explicit double cumulative sum
    N = 32
    grid = TorusGrid(N, 1)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 7)
    rhs = _random_rhs(grid, 2)
    u, _ = solve_heterogeneous(a, rhs, tol=1e-12)
    w = a.weights[0]
    # flux on edge (x, x+1): N^2 w_x (u_x - u_{x+1}) ; difference of fluxes = rhs
    flux = N**2 * w * (u.values - np.roll(u.values, -1))
    recovered = flux - np.roll(flux, 1)
    assert np.allclose(recovered, rhs.values, atol=1e-7)
    # direct construction: flux recurrence F_x - F_{x-1} = rhs_x fixes the
    # fluxes up to F_0, which the periodicity of u determines; u then follows
    # by one more cumulative sum
    s = np.cumsum(rhs.values) - rhs.values[0]  # F_x - F_0
    f0 = -np.sum(s / w) / np.sum(1.0 / w)
    d = (f0 + s) / (N**2 * w)  # u_x - u_{x+1}
    u_ref = np.concatenate([[0.0], -np.cumsum(d)[:-1]])
    u_ref -= u_ref.mean()
    assert np.allclose(u.values, u_ref, atol=1e-7)


@pytest.mark.parametrize("N", [2, 3, 7, 8, 15])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectral_apply_real_matches_complex_transform(d, N):
    # the half-spectrum path must equal the full complex transform, odd N
    # and the Nyquist layer of even N included
    grid = TorusGrid(N, d)
    v = np.random.default_rng(N + d).standard_normal(grid.shape)
    for exponent, shift in ((-1.0, 0.0), (-0.5, 0.0), (-1.0, 3.5)):
        mult = _spectral_multiplier(grid, exponent, shift)
        out = _spectral_apply(v, mult)
        ref = np.fft.ifftn(np.fft.fftn(v) * mult).real
        assert out.dtype == np.float64
        assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.abs(ref).max())


def test_real_solve_returns_float64():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 2)
    u, _ = solve_heterogeneous(a, _random_rhs(grid, 8))
    assert u.values.dtype == np.float64


def test_complex_rhs():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 4)
    mode = fourier_mode(grid, (1, 1))
    u, _ = solve_heterogeneous(a, mode, tol=1e-11)
    back = apply_operator(a, u)
    assert np.allclose(back.values, mode.values, atol=1e-7)


def test_complex_rhs_small_imaginary_part():
    # real and imaginary parts iterate together in one CG run; a part six
    # orders smaller must still match its own dense solve
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 10)
    re, im = _random_rhs(grid, 6), _random_rhs(grid, 7)
    rhs = LatticeField(grid, re.values + 1e-6j * im.values)
    u, _ = solve_heterogeneous(a, rhs, tol=1e-12)
    assert np.allclose(u.values.real, solve_dense(a, re).values, rtol=0, atol=1e-9)
    assert np.allclose(u.values.imag / 1e-6, solve_dense(a, im).values, rtol=0, atol=1e-9)


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_pcg_iterations_do_not_grow_with_size(N):
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 9)
    _, report = solve_heterogeneous(a, _random_rhs(grid, 5))
    assert report.iterations <= 20


def test_mean_zero_enforced():
    grid = TorusGrid(8, 2)
    a = Conductances.constant(grid, 1.0)
    nan = _random_rhs(grid).values
    nan[0, 0] = np.nan
    for bad in (LatticeField(grid, np.ones(grid.shape)), LatticeField(grid, nan)):
        with pytest.raises(ValueError, match="mean-zero"):
            solve_heterogeneous(a, bad)
        with pytest.raises(ValueError, match="mean-zero"):
            solve_homogeneous(grid, bad)


@pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, float("nan")])
def test_solve_heterogeneous_rejects_bad_tolerance(tol):
    grid = TorusGrid(8, 2)
    with pytest.raises(ValueError, match="tolerance must lie in"):
        solve_heterogeneous(Conductances.constant(grid, 1.0), _random_rhs(grid), tol=tol)


def test_solver_error_on_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 2)
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    rhs = _random_rhs(grid, 3)
    with pytest.raises(SolverError) as err:
        solve_heterogeneous(a, rhs, tol=1e-14)
    assert err.value.report.iterations == 2


def _pcg_stack(grid, dtype):
    # two random fields, not mean-zero, around a smooth mode
    rng = np.random.default_rng(12)
    noise = rng.standard_normal((2,) + grid.shape) + 0.25
    if dtype == complex:
        noise = noise + 1j * rng.standard_normal(noise.shape)
    mode = fourier_mode(grid, (1, 0)).values
    return np.stack([noise[0], mode if dtype == complex else mode.real, noise[1]])


@pytest.mark.parametrize("shift", [0.0, 37.5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pcg_stack_matches_field_by_field(dtype, shift):
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid, dtype)
    x, report = solver._pcg(a, stack, 1e-10, 500, shift)
    assert x.dtype == stack.dtype
    singles = [solver._pcg(a, field[None], 1e-10, 500, shift) for field in stack]
    for image, (single, rep) in zip(x, singles):
        assert _rel_err(image, single[0]) < 1e-13
    assert report.iterations == max(rep.iterations for _, rep in singles)
    assert report.residual == pytest.approx(max(rep.residual for _, rep in singles),
                                            rel=1e-6)


def test_pcg_field_that_converges_early_keeps_its_iterate():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    rng = np.random.default_rng(0)
    early = rng.standard_normal(grid.shape)
    late = fourier_mode(grid, (1, 0)).values.real
    own, own_report = solver._pcg(a, early[None], 1e-10, 500)
    x, report = solver._pcg(a, np.stack([early, late]), 1e-10, 500)
    # premise: the stack iterates past the point where the first field stops
    assert own_report.iterations < report.iterations
    # one more step would move it by about tol, far above this bound
    assert _rel_err(x[0], own[0]) < 1e-14


def test_pcg_zero_field_in_a_stack_returns_zeros():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    for dtype in (float, complex):
        stack = _pcg_stack(grid, dtype)
        stack[1] = 0.0
        x, report = solver._pcg(a, stack, 1e-10, 500, 2.0)
        assert np.array_equal(x[1], np.zeros(grid.shape))
        single, _ = solver._pcg(a, stack[[0]], 1e-10, 500, 2.0)
        assert _rel_err(x[0], single[0]) < 1e-13
        x, report = solver._pcg(a, np.zeros((2,) + grid.shape, dtype), 1e-10, 500)
        assert not np.any(x) and report.iterations == 0 and report.residual == 0.0


def test_stack_error_on_iteration_cap_reports_worst_residual(monkeypatch):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 2)
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid, complex)
    residuals = []
    for field in stack:
        with pytest.raises(SolverError) as err:
            inv_sqrt(grid, a, field, "krylov", tol=1e-14)
        residuals.append(err.value.report.residual)
    with pytest.raises(SolverError) as err:
        inv_sqrt(grid, a, stack, "krylov", tol=1e-14)
    assert err.value.report.iterations == 2
    assert err.value.report.residual == pytest.approx(max(residuals), rel=1e-10)
    assert len(set(residuals)) == 3


@pytest.mark.parametrize("tol", [1e-8, 1e-13])
@pytest.mark.parametrize("N", [7, 16, 33, 128])
def test_solutions_are_mean_zero_without_projections(N, tol):
    # CG centres its solution once on return; its iterates carry no projection
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, N)
    rng = np.random.default_rng(N)
    real = rng.standard_normal(grid.shape) + 0.5
    for values in (real, real + 1j * rng.standard_normal(grid.shape)):
        rhs = LatticeField(grid, values - values.mean())
        u, _ = solve_heterogeneous(a, rhs, tol=tol)
        assert u.is_mean_zero(1e-12)
        image = LatticeField(grid, inv_sqrt(grid, a, values, "krylov", tol=tol))
        assert image.is_mean_zero(1e-12)


def test_energy_history_decreases():
    # CG runs the same iterates whatever its tolerance, so looser tolerances
    # stop it after fewer steps: 0.5 x.Ax - b.x over those stopping points
    # is the energy along one run
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    rhs = _random_rhs(grid, 4)
    energy = {0: 0.0}
    for k in range(1, 41):
        x, report = solve_heterogeneous(a, rhs, tol=10 ** (-0.25 * k))
        ax = apply_operator(a, x).values
        energy[report.iterations] = float(0.5 * np.sum(x.values * ax)
                                          - np.sum(rhs.values * x.values))
    n = max(energy)
    assert sorted(energy) == list(range(n + 1))
    energy = np.asarray([energy[it] for it in range(n + 1)])
    assert len(energy) > 2
    assert np.all(np.diff(energy) <= 1e-12)


def test_green_column_matches_spectral_sum():
    # homogeneous Green's function as an explicit eigen-expansion
    grid = TorusGrid(8, 2)
    y = (1, -2)
    g = green_column(None, grid, y)
    ref = np.zeros(grid.shape, dtype=complex)
    for k0 in grid.coordinates_1d():
        for k1 in grid.coordinates_1d():
            if (k0, k1) == (0, 0):
                continue
            lam = eigenvalue_discrete(grid.N, (k0, k1))
            mode = fourier_mode(grid, (k0, k1))
            ref += mode.values * np.conj(mode.values[grid.index_of(y)]) / lam
    ref /= grid.n
    assert np.allclose(g.values, ref.real, atol=1e-12)


def test_green_symmetry_all_pairs():
    grid = TorusGrid(6, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 8)
    coords = [(x, y) for x in grid.coordinates_1d() for y in grid.coordinates_1d()]
    cols = {y: green_column(a, grid, y, tol=1e-12) for y in coords}
    for x in coords:
        for y in coords:
            gxy = cols[y].values[grid.index_of(x)]
            gyx = cols[x].values[grid.index_of(y)]
            assert gxy == pytest.approx(gyx, abs=1e-8)


def test_pseudo_eigenfunction_constant_environment():
    grid = TorusGrid(16, 2)
    a = Conductances.constant(grid, 1.5)
    for k in [(1, 0), (2, -3)]:
        phi = pseudo_eigenfunction(a, 1.5, k, tol=1e-12)
        mode = fourier_mode(grid, k)
        assert (phi - mode).norm() < 1e-8


def test_pseudo_eigenfunction_rejects_zero_mode():
    grid = TorusGrid(8, 2)
    a = Conductances.constant(grid, 1.0)
    with pytest.raises(ValueError):
        pseudo_eigenfunction(a, 1.0, (0, 0))
    with pytest.raises(ValueError):
        pseudo_eigenfunction(a, -1.0, (1, 0))


def test_inv_sqrt_node_count_reaches_tol():
    # The derived node count keeps the scalar quadrature error within tol
    # across the whole spectral interval [4 N^2 sin^2(pi/N), 4 d Lambda N^2].
    for d in (1, 2, 3):
        for lam_max in (1.0, 2.0, 10.0):
            for N in (2, 3, 5, 8, 16, 32, 64, 128, 256, 512, 1024):
                lo = 4.0 * N**2 * math.sin(math.pi / N) ** 2
                hi = 4.0 * d * lam_max * N**2
                lam = np.geomspace(lo, hi, 2000)
                for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                    shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
                    approx = (weights[:, None] / (shifts[:, None] + lam)).sum(axis=0)
                    assert np.max(np.abs(approx * np.sqrt(lam) - 1.0)) <= tol


def test_inv_sqrt_nodes_match_scipy_elliptic_functions():
    # The AGM values of K(m) and sn, cn, dn(u | m) against scipy's cephes
    # ellipk/ellipj, over the grid of the node-count test; N=2, d=1 with
    # Lambda=1 is the degenerate interval lo == hi (m = 0).
    special = pytest.importorskip("scipy.special")
    degenerate = 0
    for d, lam_max, N, tol in itertools.product(
            (1, 2, 3), (1.0, 2.0, 10.0), (2, 3, 5, 8, 16, 32, 64, 128, 256, 512, 1024),
            (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)):
        lo = 4.0 * N**2 * math.sin(math.pi / N) ** 2
        hi = 4.0 * d * lam_max * N**2
        degenerate += lo == hi
        shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
        n = len(shifts)
        big_k = special.ellipk(1.0 - lo / hi)
        sn, cn, dn, _ = special.ellipj((np.arange(n) + 0.5) * big_k / n, 1.0 - lo / hi)
        np.testing.assert_allclose(shifts, lo * (sn / cn) ** 2, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            weights, 2.0 * math.sqrt(lo) * big_k / (math.pi * n) * dn / cn**2,
            rtol=1e-10, atol=0)
    assert degenerate == 5


def _inv_sqrt_inputs(grid):
    # a stack of two real fields and one complex field, none of them mean-zero
    rng = np.random.default_rng(11)
    real = rng.standard_normal((2,) + grid.shape) + 0.5
    cplx = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return real, cplx


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_inv_sqrt_backends_agree_on_laplacian():
    grid = TorusGrid(8, 2)
    for values in _inv_sqrt_inputs(grid):
        ref = inv_sqrt(grid, None, values, "spectral")
        assert ref.shape == values.shape
        assert np.max(np.abs(ref.mean(axis=(-2, -1)))) < 1e-15
        for backend in (None, "dense", "krylov"):
            assert _rel_err(inv_sqrt(grid, None, values, backend), ref) < 1e-7
        # applied twice it is the mean-zero inverse of -Lap_N
        fields = values.reshape((-1,) + grid.shape)
        twice = inv_sqrt(grid, None, ref).reshape(fields.shape)
        for field, out in zip(fields, twice):
            solved = solve_homogeneous(grid, LatticeField(grid, field - field.mean()))
            assert _rel_err(out, solved.values) < 1e-12


@pytest.mark.parametrize("d, N", [(1, 16), (2, 8), (3, 8)])
def test_inv_sqrt_dense_and_krylov_agree_on_environment(d, N):
    grid = TorusGrid(N, d)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    for values in _inv_sqrt_inputs(grid):
        dense = inv_sqrt(grid, a, values, "dense")
        assert _rel_err(inv_sqrt(grid, a, values), dense) < 1e-7
        assert _rel_err(inv_sqrt(grid, a, values, "krylov"), dense) < 1e-7


@pytest.mark.parametrize("backend", ["spectral", "dense", "krylov"])
def test_inv_sqrt_stack_matches_field_by_field(backend):
    grid = TorusGrid(8, 2)
    a = (None if backend == "spectral"
         else sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5))
    real, cplx = _inv_sqrt_inputs(grid)
    stack = np.stack([real[0], real[1], cplx])
    out = inv_sqrt(grid, a, stack, backend)
    for field, image in zip(stack, out):
        assert np.allclose(image, inv_sqrt(grid, a, field, backend), rtol=0, atol=1e-13)


def test_inv_sqrt_rejects_bad_backend():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    values = _inv_sqrt_inputs(grid)[0]
    with pytest.raises(ValueError, match="unknown backend"):
        inv_sqrt(grid, None, values, "bogus")
    with pytest.raises(ValueError, match="unknown backend"):
        inv_sqrt(grid, a, values, "bogus")
    with pytest.raises(ValueError, match="homogeneous"):
        inv_sqrt(grid, a, values, "spectral")
    with pytest.raises(ValueError, match="grid mismatch"):
        inv_sqrt(TorusGrid(4, 2), a, values[:, :4, :4])
