import numpy as np
import pytest
from scipy import stats

from homfield.environment import (
    Conductances,
    _stencil,
    EnvironmentLaw,
    apply_operator,
    extend,
    operator_matrix,
    project,
    sample_environment,
)
from homfield.lattice import TorusGrid
from reference import stencil_by_slices


def test_law_constructors_and_parse():
    law = EnvironmentLaw.parse("bernoulli(0.5,1,2)")
    assert law.variant == "bernoulli"
    assert law.params == (0.5, 1.0, 2.0)
    assert law.ellipticity == 2.0
    assert EnvironmentLaw.parse(law.describe()) == law


def test_law_rejects_support_below_one():
    with pytest.raises(ValueError):
        EnvironmentLaw.uniform(0.5, 2.0)
    with pytest.raises(ValueError):
        EnvironmentLaw.constant(0.9)
    # boundary atom at exactly 1 is admitted (laws like 1 + Ber)
    EnvironmentLaw.bernoulli(0.5, 1.0, 2.0)


@pytest.mark.parametrize("text", ["constant(inf)", "constant(nan)", "uniform(1,inf)",
                                  "bernoulli(0.5,1,inf)", "bernoulli(0.5,nan,2)"])
def test_law_rejects_non_finite_parameters(text):
    with pytest.raises(ValueError, match="non-finite"):
        EnvironmentLaw.parse(text)


@pytest.mark.parametrize("variant, params, message", [
    ("bernoulli", (1.5, 1.0, 2.0), "probability"),
    ("uniform", (2.0, 1.0), "lo < hi"),
    ("constant", (1.0, 2.0), "has 2 parameters, expected 1"),
])
def test_law_checks_its_parameters_on_direct_construction(variant, params, message):
    with pytest.raises(ValueError, match=message):
        EnvironmentLaw(variant, params)


def test_law_point_mass():
    for text in ("constant(1.5)", "bernoulli(0,1.5,2)", "bernoulli(1,1,1.5)",
                 "bernoulli(0.5,1.5,1.5)"):
        law = EnvironmentLaw.parse(text)
        assert law.point_mass
        assert np.unique(sample_environment(law, TorusGrid(8, 2), 0).weights).size == 1
    for text in ("bernoulli(0.5,1,2)", "bernoulli(1e-9,1,2)", "uniform(1,1.5)"):
        assert not EnvironmentLaw.parse(text).point_mass


def test_law_parse_errors():
    with pytest.raises(ValueError):
        EnvironmentLaw.parse("exponential(1)")
    with pytest.raises(ValueError):
        EnvironmentLaw.parse("uniform")
    with pytest.raises(ValueError, match="bernoulli law has 4 parameters, expected 3"):
        EnvironmentLaw.parse("bernoulli(0.5,1,2,3)")
    with pytest.raises(ValueError, match="constant law has 0 parameters, expected 1"):
        EnvironmentLaw.parse("constant()")


def test_sample_environment_reproducible_and_in_range():
    grid = TorusGrid(16, 2)
    law = EnvironmentLaw.uniform(1, 2)
    a1 = sample_environment(law, grid, 42)
    a2 = sample_environment(law, grid, 42)
    a3 = sample_environment(law, grid, 43)
    assert np.array_equal(a1.weights, a2.weights)
    assert not np.array_equal(a1.weights, a3.weights)
    assert a1.weights.min() >= 1.0 and a1.weights.max() <= 2.0
    # axes carry independent streams
    assert not np.array_equal(a1.weights[0], a1.weights[1])


def test_uniform_law_distribution_ks():
    grid = TorusGrid(128, 2)
    law = EnvironmentLaw.uniform(1, 2)
    a = sample_environment(law, grid, 7)
    stat = stats.kstest(a.weights.ravel(), stats.uniform(loc=1, scale=1).cdf)
    assert stat.pvalue > 0.01


def test_bernoulli_law_frequencies():
    grid = TorusGrid(64, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 3)
    vals = np.unique(a.weights)
    assert set(vals) == {1.0, 2.0}
    frac = np.mean(a.weights == 2.0)
    assert abs(frac - 0.5) < 4 * 0.5 / np.sqrt(a.weights.size)


def test_conductances_validation():
    grid = TorusGrid(4, 2)
    with pytest.raises(ValueError):
        Conductances(grid, np.full((2, 4, 4), 0.5), ellipticity=2.0)
    with pytest.raises(ValueError):
        Conductances(grid, np.ones((1, 4, 4)), ellipticity=2.0)
    with pytest.raises(ValueError):
        Conductances(grid, np.full((2, 4, 4), np.nan), ellipticity=2.0)
    with pytest.raises(ValueError):
        Conductances(grid, np.ones((2, 4, 4)), ellipticity=float("nan"))
    with pytest.raises(ValueError):
        Conductances(grid, np.full((2, 4, 4), 2.5), ellipticity=2.0)
    assert np.all(sample_environment(EnvironmentLaw.constant(1.5), grid, 0).weights == 1.5)


def test_project_extend_roundtrip():
    # even, odd and mixed sides: the windows of N and M differ in parity
    for N, M in [(8, 24), (5, 15), (5, 12), (8, 13)]:
        a = sample_environment(EnvironmentLaw.uniform(1, 2), TorusGrid(N, 2), 5)
        big = extend(a, M)
        assert big.grid.N == M
        back = project(big, N)
        assert np.array_equal(back.weights, a.weights)


def test_project_extend_composite_is_periodic():
    grid = TorusGrid(12, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 9)
    pn = extend(project(a, 4), 12)
    assert pn.grid.N == 12
    w = pn.weights
    assert np.array_equal(w[:, :4, :4], w[:, 4:8, 4:8])


def test_project_larger_than_source_raises():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.constant(1.0), grid, 0)
    with pytest.raises(ValueError):
        project(a, 16)
    with pytest.raises(ValueError):
        extend(a, 4)


def test_operator_symmetric_psd_with_constant_kernel():
    grid = TorusGrid(6, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 1)
    mat = operator_matrix(a)
    assert np.allclose(mat, mat.T, atol=1e-9)
    evals = np.linalg.eigvalsh(mat)
    assert evals[0] > -1e-6 * evals[-1]
    # kernel is exactly the constants
    assert np.sum(evals < 1e-8 * evals[-1]) == 1
    const = np.ones(grid.n)
    assert np.max(np.abs(mat @ const)) < 1e-6 * np.abs(mat).max()


def test_apply_operator_output_sums_to_zero():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 2)
    rng = np.random.default_rng(0)
    out = apply_operator(a, rng.standard_normal(grid.shape))
    assert abs(out.sum()) < 1e-8 * np.abs(out).max() * grid.n


def test_apply_operator_matches_stencil_definition():
    # direct per-site loop over the four incident edges
    grid = TorusGrid(4, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 11)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    out = apply_operator(a, f)
    N = grid.N
    for i in range(N):
        for j in range(N):
            acc = 0.0
            acc += a.weights[0, i, j] * (f[i, j] - f[(i + 1) % N, j])
            acc += a.weights[0, (i - 1) % N, j] * (f[i, j] - f[(i - 1) % N, j])
            acc += a.weights[1, i, j] * (f[i, j] - f[i, (j + 1) % N])
            acc += a.weights[1, i, (j - 1) % N] * (f[i, j] - f[i, (j - 1) % N])
            assert out[i, j] == pytest.approx(N**2 * acc, rel=1e-10)


def test_apply_operator_takes_stacks_and_rejects_fields_off_the_grid():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 2)
    stack = np.random.default_rng(3).standard_normal((3,) + grid.shape)
    assert np.array_equal(apply_operator(a, stack), np.stack([apply_operator(a, v) for v in stack]))
    for values in (np.zeros((16, 16)), np.zeros((8, 4)), np.zeros(8), np.zeros((8, 8, 2))):
        with pytest.raises(ValueError, match="do not end in grid"):
            apply_operator(a, values)


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_operator_matches_roll_stencil(d, N):
    grid = TorusGrid(N, d)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 4)
    rng = np.random.default_rng(N * d)
    real = rng.standard_normal((3,) + grid.shape)
    for stack in (real, real + 1j * rng.standard_normal(real.shape)):
        outs = []
        for v in stack:
            ref = np.zeros_like(v)
            for axis in range(d):
                flux = a.weights[axis] * (v - np.roll(v, -1, axis=axis))
                ref = ref + flux - np.roll(flux, 1, axis=axis)
            out = apply_operator(a, v)
            assert out.dtype == v.dtype
            assert np.allclose(out, N**2 * ref, rtol=1e-14, atol=0)
            outs.append(out)
        # the solver's kernel maps a stack, and its buffers may hold garbage
        out, flux = np.full(stack.shape, np.nan, stack.dtype), np.empty_like(stack)
        _stencil(a, stack, out, flux)
        assert np.array_equal(out, np.stack(outs))
        # a stack with two leading axes maps the same way
        _stencil(a, stack.reshape((3, 1) + grid.shape), out.reshape((3, 1) + grid.shape),
                 flux.reshape((3, 1) + grid.shape))
        assert np.array_equal(out, np.stack(outs))


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_pass_every_axis_equals_the_slice_stencil(d, N):
    # along every axis the flattened stack takes differences and fluxes
    # across row ends and overwrites them; every output bit must be the
    # slices' own, for a single field and stacks of one and two leading axes
    grid = TorusGrid(N, d)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    rng = np.random.default_rng(10 * d + N)
    real = rng.standard_normal((2, 3) + grid.shape)
    for stack in (real, real + 1j * rng.standard_normal(real.shape)):
        for v in (stack, stack[0], stack[0, 0]):
            want, got = np.empty_like(v), np.full(v.shape, np.nan, v.dtype)
            stencil_by_slices(a, v, want, np.empty_like(v))
            _stencil(a, v, got, np.full(v.shape, np.nan, v.dtype))
            assert np.array_equal(got, want)


def test_stencil_rejects_non_contiguous_buffers():
    # a reshape of a strided buffer would copy it and drop the writes
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    v = np.random.default_rng(0).standard_normal((2,) + grid.shape)
    wide = np.zeros((2, 8, 16))
    for out, flux in ((wide[..., ::2], np.empty_like(v)), (np.empty_like(v), wide[..., ::2]),
                      (np.empty((8, 8, 2)).transpose(2, 0, 1), np.empty_like(v))):
        with pytest.raises(ValueError, match="C-contiguous"):
            _stencil(a, v, out, flux)
    assert not wide.any()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_operator_matrix_equals_operator_columns(d, N):
    # N = 2 makes the neighbours x + e_i and x - e_i one site
    grid = TorusGrid(N, d)
    for law in (EnvironmentLaw.uniform(1, 2), EnvironmentLaw.bernoulli(0.5, 1, 2)):
        a = sample_environment(law, grid, 7)
        eye = np.eye(grid.n)
        columns = np.stack([apply_operator(a, e.reshape(grid.shape)).ravel() for e in eye],
                           axis=1)
        assert np.array_equal(operator_matrix(a), columns)


def test_operator_matrix_rejects_grid_beyond_site_limit():
    grid = TorusGrid(65, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    with pytest.raises(ValueError, match="4225 sites"):
        operator_matrix(a)
