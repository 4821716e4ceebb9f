import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from homfield import experiments
from homfield.environment import EnvironmentLaw, sample_environment
from homfield.experiments import (
    ExperimentConfig,
    RateSeries,
    bilap_error_rate,
    block_inner_product,
    coupling_error,
    discretization_rate,
    fit_rate,
    gff_covariance_limit,
    pseudo_eigen_rate,
    sine_ratio,
    truncation_error,
    _mode_representatives,
)
from homfield.lattice import TorusGrid, dft, eigenvalue_discrete
from homfield.sampler import formal_constant, sample_gff
from homfield.solver import inv_sqrt

BERNOULLI = EnvironmentLaw.bernoulli(0.5, 1, 2)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_power_law():
    slope, _, hw = fit_rate([(n, n**-2.0) for n in (16, 32, 64, 128)])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert hw < 1e-12


def test_fit_rate_constant():
    slope, _, _ = fit_rate([(n, 3.7) for n in (8, 16, 32)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_log_corrected_power_law():
    pts = [(n, n**-2.0 * np.log(n)) for n in (16, 32, 64, 128, 256)]
    raw, _, _ = fit_rate(pts)
    assert -2.0 < raw < -1.6
    corrected, _, _ = fit_rate([(n, v / np.log(n)) for n, v in pts])
    assert corrected == pytest.approx(-2.0, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0), (16, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0), (16, -0.5), (32, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0), (8, 0.5), (16, 0.2)])


def test_rate_series_from_points():
    rs = RateSeries.from_points("q", [(n, n**-1.0, 0.0) for n in (8, 16, 32)],
                                log_correct=True)
    assert rs.slope == pytest.approx(-1.0, abs=1e-12)
    assert rs.corrected is not None
    assert rs.points[0][0] == 8


# ---------------------------------------------------------------------------
# config validation


def test_config_beta_thresholds():
    # free-field experiments need beta > d/4
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, field_kind="gff", beta=0.5, Ns=(8, 16))
    ExperimentConfig(d=2, field_kind="gff", beta=0.51, Ns=(8, 16))
    # bi-Laplacian experiments need beta > d/4 - 1/2
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, field_kind="bilap", beta=0.0, Ns=(8, 16))
    ExperimentConfig(d=2, field_kind="bilap", beta=0.25, Ns=(8, 16))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, field_kind="exotic", Ns=(8,))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(16, 8))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(8, 16), kset=((0, 0),))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(8,), kset=((1, 0, 0),))


@pytest.mark.parametrize("Ns", [(8, 16, 0), (0, 8, 16), (-4, 8, 16), (1, 8, 16)])
def test_config_rejects_ladder_sizes_below_two(Ns):
    with pytest.raises(ValueError, match="ladder size must be at least 2"):
        ExperimentConfig(d=2, Ns=Ns)


@pytest.mark.parametrize("name", ["replicates", "noise_replicates"])
@pytest.mark.parametrize("value", [0, -3])
def test_config_rejects_fewer_than_one_replicate(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {value}$"):
        ExperimentConfig(d=2, Ns=(8, 16), **{name: value})


def test_config_resolve_ahom():
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(8,), ahom=1.4)
    assert cfg.resolve_ahom() == 1.4
    cfg2 = ExperimentConfig(d=2, law=None, Ns=(8,))
    assert cfg2.resolve_ahom() == 1.0


def test_resolve_ahom_estimates_at_the_configured_tol(monkeypatch):
    seen = {}

    def fake_estimate(law, N, M, seed, d=2, **kwargs):
        seen.update(N=N, d=d, **kwargs)
        return SimpleNamespace(mean=1.5)

    monkeypatch.setattr(experiments, "estimate_ahom", fake_estimate)
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(8, 16), tol=1e-6)
    assert cfg.resolve_ahom() == 1.5
    assert seen == {"N": 16, "d": 2, "tol": 1e-6}


# ---------------------------------------------------------------------------
# block inner products and closed forms


def test_sine_ratio_zero_frequency():
    assert sine_ratio(8, 0) == pytest.approx(1.0 / 8)
    assert sine_ratio(8, 4) == pytest.approx(np.sin(np.pi / 2) / (4 * np.pi))


def test_block_inner_product_against_quadrature():
    # midpoint quadrature at 1e6 points over the cell
    N, k, y = 8, (1, 0), (2, 3)
    val = block_inner_product(N, k, y)
    m = 1000
    t = (np.arange(m) + 0.5) / (m * N) - 1.0 / (2 * N)
    fx = np.mean(np.exp(2j * np.pi * k[0] * (y[0] / N + t)))
    fy = np.mean(np.exp(2j * np.pi * k[1] * (y[1] / N + t)))
    assert abs(val - fx * fy / N**2) < 1e-6


def test_block_modes_have_unit_mass():
    # sum over all aliases of |N^d prod sine_ratio|^2 equals 1: check the
    # truncated sum approaches 1 from below
    N, d = 4, 2
    kcut = 200
    rng = np.arange(-kcut, kcut + 1)
    for k in [(1, 0), (1, 1)]:
        total = 0.0
        for m0 in rng[np.mod(rng - k[0], N) == 0]:
            for m1 in rng[np.mod(rng - k[1], N) == 0]:
                b = N**d * sine_ratio(N, int(m0)) * sine_ratio(N, int(m1))
                total += b * b
        assert total < 1.0
        # the alias series decays like 1/m^2, so the truncated mass
        # approaches 1 only at O(1/kcut)
        assert total == pytest.approx(1.0, abs=0.02)


def test_mode_representatives_cover_window():
    grid = TorusGrid(8, 2)
    count = sum(mult for _, mult in _mode_representatives(grid, None))
    assert count == grid.n - 1
    # with a cutoff: all nonzero modes with sup-norm <= 2
    count2 = sum(mult for _, mult in _mode_representatives(grid, 2))
    assert count2 == 5 * 5 - 1


@pytest.mark.parametrize("N,d,cutoff", [(2, 1, None), (7, 1, 2), (5, 2, 1),
                                         (6, 2, 4), (4, 3, None), (6, 3, 2)])
def test_mode_representatives_pair_each_frequency_once(N, d, cutoff):
    grid = TorusGrid(N, d)
    reps = list(_mode_representatives(grid, cutoff))
    covered = []
    for k, mult in reps:
        pair = {grid.index_of(k), grid.index_of(-np.asarray(k))}
        assert len(pair) == mult
        covered += pair
    c = N if cutoff is None else cutoff
    window = [grid.index_of(k) for k in itertools.product(range(-(N // 2), N - N // 2), repeat=d)
              if any(k) and max(map(abs, k)) <= c]
    assert sorted(covered) == sorted(window)
    assert [k for k, _ in reps] == sorted(k for k, _ in reps)


def test_truncation_error_remainder_guard():
    with pytest.raises(ValueError):
        truncation_error(8, 2, 0.75, kcut=5)
    val = truncation_error(8, 2, 0.75, kcut=64)
    assert val > 0


def test_truncation_error_cutoff_stable():
    a = truncation_error(8, 2, 0.75, kcut=64)
    b = truncation_error(8, 2, 0.75, kcut=128)
    assert b == pytest.approx(a, rel=1e-3)
    assert b > a  # larger cutoff captures more positive mass


def test_coupling_error_positive_and_decreasing():
    vals = [coupling_error(N, 2, 0.75) for N in (8, 16, 32)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_discretization_rate_slope():
    cfg = ExperimentConfig(d=2, field_kind="bilap", beta=0.75, Ns=(8, 16, 32, 64))
    rs = discretization_rate(cfg)
    assert abs(rs.slope - (2 - 4 - 4 * 0.75)) < 0.3
    assert all(s == 0.0 for _, _, s in rs.points)  # deterministic


def test_discretization_rate_validates_beta():
    cfg = ExperimentConfig(d=2, field_kind="bilap", Ns=(8, 16, 32))
    with pytest.raises(ValueError):
        discretization_rate(cfg)


# ---------------------------------------------------------------------------
# Monte-Carlo experiments (reduced sizes; acceptance runs the full versions)


def test_pseudo_eigen_rate_constant_law_trivial():
    cfg = ExperimentConfig(d=2, law=EnvironmentLaw.constant(1.5), field_kind="gff",
                           Ns=(8, 16, 32), kset=((1, 0),), replicates=2,
                           seed=0, ahom=1.5)
    rs = pseudo_eigen_rate(cfg)
    for _, v, _ in rs.points:
        assert v < 1e-14
    assert np.isnan(rs.slope)


def test_pseudo_eigen_k_dependence():
    # value grows with |k| but no faster than the quartic envelope allows
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="gff", Ns=(16,),
                           kset=((1, 0),), replicates=12, seed=4,
                           ahom=float(np.sqrt(2)))
    v1 = pseudo_eigen_rate(cfg, k=(1, 0)).points[0][1]
    v2 = pseudo_eigen_rate(cfg, k=(2, 0)).points[0][1]
    assert v2 > v1
    assert v2 / v1 <= 16 * 1.5


def test_bilap_error_constant_law_trivial():
    cfg = ExperimentConfig(d=2, law=EnvironmentLaw.constant(2.0), field_kind="bilap",
                           beta=0.75, Ns=(8, 16, 32), replicates=2, seed=0,
                           ahom=2.0, mode_cutoff=2)
    res = bilap_error_rate(cfg)
    for _, v, _ in res.series.points:
        assert v < 1e-16


def test_bilap_estimators_cross_validate():
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="bilap", beta=0.75,
                           Ns=(8, 16), replicates=6, noise_replicates=24,
                           seed=1, ahom=float(np.sqrt(2)), mode_cutoff=2)
    res = bilap_error_rate(cfg, mc_at=(8,))
    ex_m, ex_s = res.exact_at_mc[8]
    mc_m, mc_s = res.monte_carlo[8]
    z = abs(ex_m - mc_m) / np.hypot(ex_s, mc_s)
    assert z < 3.0


def test_gff_covariance_homogeneous_diagonal():
    cfg = ExperimentConfig(d=2, law=None, field_kind="gff", Ns=(16,),
                           kset=((1, 0), (0, 1)), replicates=2,
                           noise_replicates=400, seed=2)
    rep = gff_covariance_limit(cfg)
    assert rep.max_offdiag_z() < 4.0
    assert np.all(rep.diagonal_z() < 4.0)
    assert rep.fitted_constant > 0


def test_gff_covariance_homogeneous_exact_is_diagonal():
    cfg = ExperimentConfig(d=2, law=None, field_kind="gff", Ns=(8,),
                           kset=((1, 0), (0, 1), (1, 1)), replicates=2,
                           noise_replicates=50, seed=2)
    rep = gff_covariance_limit(cfg)
    lam = np.asarray([eigenvalue_discrete(8, k) for k in cfg.kset])
    expected = formal_constant("gff", 2) ** 2 / lam
    assert np.allclose(np.diag(rep.exact_covariance), expected, rtol=1e-12, atol=0)
    assert rep.offdiag_frobenius(exact=True) < 1e-12 * expected.max()


def test_gff_covariance_krylov_keeps_per_draw_realization():
    # Reference: one A^(-1/2)z draw per noise seed, projected by the DFT.
    kset = ((1, 0), (0, 1), (1, 1), (2, 0))
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="gff", Ns=(16,),
                           kset=kset, replicates=2, noise_replicates=50, seed=4)
    grid = TorusGrid(16, 2)
    scale = formal_constant("gff", 2) * grid.N
    coeffs = []
    for env in range(cfg.replicates):
        a = sample_environment(BERNOULLI, grid,
                               np.random.SeedSequence(cfg.seed, spawn_key=(200, env)))
        for s in range(cfg.noise_replicates):
            seed = np.random.SeedSequence(cfg.seed, spawn_key=(201, env, s))
            spec = dft(sample_gff(grid, a, seed, backend="krylov", tol=cfg.tol).field)
            coeffs.append([scale * spec.coefficient(k) for k in kset])
    coeffs = np.asarray(coeffs)
    reference = np.mean(coeffs[:, :, None] * coeffs[:, None, :].conj(), axis=0)

    krylov = gff_covariance_limit(cfg, backend="krylov")
    dense = gff_covariance_limit(cfg, backend="dense")
    peak = np.abs(reference).max()
    assert np.abs(krylov.covariance - reference).max() < 1e-6 * peak
    exact_peak = np.abs(dense.exact_covariance).max()
    assert np.abs(krylov.exact_covariance - dense.exact_covariance).max() < 1e-6 * exact_peak


def test_gff_covariance_krylov_beyond_dense_limit():
    # N=128 has 16384 sites, four times the dense operator's limit.
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="gff", Ns=(128,),
                           kset=((1, 0), (0, 1), (1, 1), (2, 0)), replicates=2,
                           noise_replicates=50, seed=5)
    rep = gff_covariance_limit(cfg, backend="krylov")
    exact = rep.exact_covariance
    assert np.allclose(exact, exact.conj().T, rtol=0, atol=1e-14 * np.abs(exact).max())
    gap = np.abs(np.real(np.diag(rep.covariance)) - np.real(np.diag(exact)))
    assert np.all(gap < 4 * np.diag(rep.stderr))
    assert np.isfinite(rep.offdiag_frobenius(exact=True))


def test_gff_covariance_insufficient_replicates():
    cfg = ExperimentConfig(d=2, law=None, field_kind="gff", Ns=(8,),
                           kset=((1, 0),), replicates=2, noise_replicates=10,
                           seed=0)
    with pytest.raises(ValueError):
        gff_covariance_limit(cfg)


def test_gff_covariance_dense_v_matches_eigh(monkeypatch):
    # with an environment, cov's dense V comes from the shifted-solve
    # quadrature; the dense backend's eigh is its independent oracle
    calls = []

    def spy(grid, a, values, backend, tol):
        v = inv_sqrt(grid, a, values, backend=backend, tol=tol)
        calls.append((a, values, v))
        return v

    monkeypatch.setattr(experiments, "inv_sqrt", spy)
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="gff", Ns=(16,),
                           kset=((1, 0), (0, 1), (1, 1), (2, 0)), replicates=2,
                           noise_replicates=50, seed=61)
    gff_covariance_limit(cfg, backend="dense")
    assert len(calls) == cfg.replicates
    for a, values, v in calls:
        eigh = inv_sqrt(a.grid, a, values, backend="dense")
        assert np.abs(v - eigh).max() < 1e-12 * np.abs(eigh).max()


def test_gff_covariance_dense_exact_matches_empirical_scale():
    cfg = ExperimentConfig(d=2, law=BERNOULLI, field_kind="gff", Ns=(8,),
                           kset=((1, 0), (0, 1)), replicates=3,
                           noise_replicates=300, seed=6)
    rep = gff_covariance_limit(cfg, backend="dense")
    assert rep.exact_covariance is not None
    emp = np.real(np.diag(rep.covariance))
    exact = np.real(np.diag(rep.exact_covariance))
    err = np.diag(rep.stderr)
    assert np.all(np.abs(emp - exact) < 4 * err)
