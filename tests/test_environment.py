import struct

import numpy as np
import pytest
from scipy import stats

from homfield.environment import (
    Conductances,
    _stencil,
    EnvironmentLaw,
    apply_operator,
    dump_environment,
    extend,
    load_environment,
    operator_matrix,
    project,
    sample_environment,
)
from homfield.lattice import LatticeField, TorusGrid


def test_law_constructors_and_parse():
    law = EnvironmentLaw.parse("bernoulli(0.5,1,2)")
    assert law.variant == "bernoulli"
    assert law.params == (0.5, 1.0, 2.0)
    assert law.ellipticity == 2.0
    assert law.mean() == pytest.approx(1.5)
    assert EnvironmentLaw.parse(law.describe()) == law
    uni = EnvironmentLaw.uniform(1, 2)
    assert uni.mean() == pytest.approx(1.5)
    assert EnvironmentLaw.constant(1.5).mean() == 1.5


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


def test_law_parse_errors():
    with pytest.raises(ValueError):
        EnvironmentLaw.parse("exponential(1)")
    with pytest.raises(ValueError):
        EnvironmentLaw.parse("uniform")


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
        Conductances(grid, np.full((2, 4, 4), 0.5))
    with pytest.raises(ValueError):
        Conductances(grid, np.ones((1, 4, 4)))
    with pytest.raises(ValueError):
        Conductances(grid, np.full((2, 4, 4), np.nan))
    with pytest.raises(ValueError):
        Conductances(grid, np.ones((2, 4, 4)), ellipticity=float("nan"))
    assert np.all(Conductances.constant(grid, 1.5).weights == 1.5)


def test_project_extend_roundtrip():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 5)
    big = extend(a, 24)
    assert big.grid.N == 24
    back = project(big, 8)
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
    a = Conductances.constant(grid, 1.0)
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
    f = LatticeField(grid, rng.standard_normal(grid.shape))
    out = apply_operator(a, f)
    assert abs(out.values.sum()) < 1e-8 * np.abs(out.values).max() * grid.n


def test_apply_operator_matches_stencil_definition():
    # direct per-site loop over the four incident edges
    grid = TorusGrid(4, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 11)
    rng = np.random.default_rng(1)
    f = LatticeField(grid, rng.standard_normal(grid.shape))
    out = apply_operator(a, f)
    N = grid.N
    for i in range(N):
        for j in range(N):
            acc = 0.0
            acc += a.weights[0, i, j] * (f.values[i, j] - f.values[(i + 1) % N, j])
            acc += a.weights[0, (i - 1) % N, j] * (f.values[i, j] - f.values[(i - 1) % N, j])
            acc += a.weights[1, i, j] * (f.values[i, j] - f.values[i, (j + 1) % N])
            acc += a.weights[1, i, (j - 1) % N] * (f.values[i, j] - f.values[i, (j - 1) % N])
            assert out.values[i, j] == pytest.approx(N**2 * acc, rel=1e-10)


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
            out = apply_operator(a, LatticeField(grid, v)).values
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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_operator_matrix_equals_operator_columns(d, N):
    # N = 2 makes the neighbours x + e_i and x - e_i one site
    grid = TorusGrid(N, d)
    for law in (EnvironmentLaw.uniform(1, 2), EnvironmentLaw.bernoulli(0.5, 1, 2)):
        a = sample_environment(law, grid, 7)
        eye = np.eye(grid.n)
        columns = np.stack([apply_operator(a, LatticeField(grid, e.reshape(grid.shape)))
                            .values.ravel() for e in eye], axis=1)
        assert np.array_equal(operator_matrix(a), columns)


def test_dump_load_roundtrip(tmp_path):
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 4)
    path = tmp_path / "env.hfenv"
    dump_environment(a, path)
    b = load_environment(path)
    assert b.grid == a.grid
    assert b.ellipticity == a.ellipticity
    assert np.array_equal(b.weights, a.weights)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTENV" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_environment(path)


@pytest.mark.parametrize("corruption", ["truncated", "huge_n", "short_header", "nan_lambda"])
def test_load_rejects_corrupt_dump(tmp_path, corruption):
    path = tmp_path / "env.hfenv"
    dump_environment(sample_environment(EnvironmentLaw.uniform(1, 2), TorusGrid(8, 2), 4), path)
    raw = path.read_bytes()
    magic, data = raw[:6], raw[30:]
    path.write_bytes({
        "truncated": raw[:-8],
        "huge_n": magic + struct.pack("<qqd", 2, 2**40, 2.0) + data,
        "short_header": raw[:16],
        "nan_lambda": magic + struct.pack("<qqd", 2, 8, float("nan")) + data,
    }[corruption])
    with pytest.raises(ValueError):
        load_environment(path)
