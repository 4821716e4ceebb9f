import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from homfield import experiments
from homfield.environment import EnvironmentLaw, sample_environment
from homfield.experiments import (
    CutoffError,
    ExperimentConfig,
    RateSeries,
    bilap_error_rate,
    discretization_rate,
    fit_rate,
    formal_constant,
    gff_covariance_limit,
    pseudo_eigen_rate,
    truncation_error,
    _mode_representatives,
)
from homfield.lattice import TorusGrid, dft, eigenvalue_discrete, fourier_mode
from homfield.sampler import sample_gff
from reference import (
    bilap_monte_carlo_point,
    dense_power,
    norm,
    pseudo_eigenfunction,
    two_scale_expansion,
)

BERNOULLI = EnvironmentLaw.bernoulli(0.5, 1, 2)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_power_law():
    slope, hw, chi2 = fit_rate([(n, n**-2.0, 0.01 * n**-2.0) for n in (16, 32, 64, 128)])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert hw > 0  # from the points' errors, not from the fit's zero scatter
    assert chi2 < 1e-20


def test_fit_rate_constant():
    slope, _, _ = fit_rate([(n, 3.7, 0.1) for n in (8, 16, 32)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_log_corrected_power_law():
    pts = [(n, n**-2.0 * np.log(n), 0.0) for n in (16, 32, 64, 128, 256)]
    raw, _, _ = fit_rate(pts)
    assert -2.0 < raw < -1.6
    corrected, _, _ = fit_rate([(n, v / np.log(n), 0.0) for n, v, _ in pts])
    assert corrected == pytest.approx(-2.0, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0, 0.1), (16, 0.5, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0, 0.1), (16, -0.5, 0.1), (32, 0.1, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(8, 1.0, 0.1), (8, 0.5, 0.1), (16, 0.2, 0.1)])
    with pytest.raises(ValueError, match="must not be negative"):
        fit_rate([(8, 1.0, 0.1), (16, 0.5, -0.1), (32, 0.2, 0.1)])


def test_fit_rate_half_width_and_chi2():
    # equal relative errors sigma: the slope's standard error is
    # sigma / sqrt(S_xx), and chi2 is the residual sum of squares / sigma^2
    pts = [(16, 1.0), (32, 0.3), (64, 0.06), (128, 0.02)]
    sigma = 0.05
    slope, hw, chi2 = fit_rate([(n, v, sigma * v) for n, v in pts])
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    sxx = np.sum((x - x.mean()) ** 2)
    fit, rss = np.polyfit(x, y, 1, full=True)[:2]
    assert slope == pytest.approx(fit[0], rel=1e-12)
    assert hw == pytest.approx(1.959963984540054 * sigma / np.sqrt(sxx), rel=1e-12)
    assert chi2 == pytest.approx(rss[0] / sigma**2, rel=1e-9)
    rs = RateSeries.from_points("q", [(n, v, sigma * v) for n, v in pts], log_correct=True)
    assert (rs.slope, rs.half_width, rs.chi2) == (slope, hw, chi2)
    # value / log N keeps each point's relative error, so the half-width
    # too: the series keeps the corrected fit's slope and chi2 alone
    c_slope, c_hw, c_chi2 = fit_rate([(n, v / np.log(n), sigma * v / np.log(n)) for n, v in pts])
    assert rs.corrected == (c_slope, c_chi2)
    assert c_hw == pytest.approx(hw, rel=1e-12)


def test_fit_rate_unknown_and_exact_errors():
    # one replicate leaves its error unknown (NaN); closed-form points have
    # none (0): the slope stands, the half-width is NaN or 0, chi2 is NaN
    ladder = [(n, n**-2.0 * (1 + 0.1 * (-1) ** i)) for i, n in enumerate((8, 16, 32, 64))]
    slope, hw, chi2 = fit_rate([(n, v, math.nan) for n, v in ladder])
    assert math.isfinite(slope) and math.isnan(hw) and math.isnan(chi2)
    exact_slope, hw, chi2 = fit_rate([(n, v, 0.0) for n, v in ladder])
    assert exact_slope == slope and hw == 0.0 and math.isnan(chi2)


@pytest.mark.parametrize("unequal", [False, True])
def test_fit_rate_interval_covers_the_true_slope(unequal):
    # 4000 ladders from an exact power law with known Gaussian log-errors:
    # the 95 % interval covers the true slope in 95 +- 2 % of them, and with
    # equal errors chi2 averages its n - 2 degrees of freedom
    rng = np.random.default_rng(1936)
    ns = np.array([8, 16, 32, 64, 128])
    sigma = np.array([0.08, 0.02, 0.05, 0.01, 0.03]) if unequal else np.full(5, 0.03)
    covered, chi2s = 0, []
    for _ in range(4000):
        vals = 3.0 * ns**-2.0 * np.exp(sigma * rng.standard_normal(len(ns)))
        slope, hw, chi2 = fit_rate(list(zip(ns, vals, sigma * vals)))
        covered += abs(slope + 2.0) <= hw
        chi2s.append(chi2)
    assert abs(covered / 4000 - 0.95) <= 0.02
    if not unequal:
        assert np.mean(chi2s) == pytest.approx(len(ns) - 2, rel=0.05)


def test_rate_series_from_points():
    rs = RateSeries.from_points("q", [(n, n**-1.0, 0.0) for n in (8, 16, 32)],
                                log_correct=True)
    assert rs.slope == pytest.approx(-1.0, abs=1e-12)
    assert rs.corrected is not None
    assert rs.points[0][0] == 8


# ---------------------------------------------------------------------------
# config validation


def test_config_beta_thresholds():
    # beta is read only by bi-Laplacian experiments, which need beta > d/4 - 1/2
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, beta=0.0, Ns=(8, 16))
    ExperimentConfig(d=2, beta=0.25, Ns=(8, 16))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(16, 8))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(8, 16), kset=((0, 0),))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, Ns=(8,), kset=((1, 0, 0),))


def test_config_rejects_a_repeated_frequency():
    with pytest.raises(ValueError, match="kset repeats a frequency"):
        ExperimentConfig(d=2, Ns=(8,), kset=((1, 0), (0, 1), [1, 0]))
    # k and -k are distinct modes
    assert ExperimentConfig(d=2, Ns=(8,), kset=((1, 0), (-1, 0))).kset == ((1, 0), (-1, 0))


@pytest.mark.parametrize("Ns", [(8, 16, 0), (0, 8, 16), (-4, 8, 16), (1, 8, 16)])
def test_config_rejects_ladder_sizes_below_two(Ns):
    with pytest.raises(ValueError, match="ladder size must be at least 2"):
        ExperimentConfig(d=2, Ns=Ns)


@pytest.mark.parametrize("experiment", [pseudo_eigen_rate, gff_covariance_limit,
                                        bilap_error_rate, discretization_rate])
def test_experiments_reject_an_empty_ladder(experiment):
    # otherwise a valid config for all four; with ahom given, an empty ladder
    # would pass every other check and yield an empty series
    cfg = ExperimentConfig(d=2, law=BERNOULLI, beta=0.75, kset=((1, 0),), ahom=1.4,
                           replicates=4, noise_replicates=25)
    with pytest.raises(ValueError, match="^Ns is empty"):
        experiment(cfg)


@pytest.mark.parametrize("name", ["replicates", "noise_replicates"])
@pytest.mark.parametrize("value", [0, -3])
def test_config_rejects_fewer_than_one_replicate(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {value}$"):
        ExperimentConfig(d=2, Ns=(8, 16), **{name: value})


@pytest.mark.parametrize("tol", [0.0, 1.0, 5.0, -1.0, float("nan")])
def test_config_rejects_tolerance_outside_unit_interval(tol):
    with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1\)"):
        ExperimentConfig(d=2, Ns=(8, 16, 32), beta=0.75, tol=tol)


@pytest.mark.parametrize("ahom", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_non_finite_or_non_positive_ahom(ahom):
    with pytest.raises(ValueError, match="ahom must be finite and positive"):
        ExperimentConfig(d=2, law=BERNOULLI, Ns=(8, 16), ahom=ahom)


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
# bi-Laplacian mode sums and closed forms


def test_stacked_pseudo_errors_equal_one_mode_results():
    # 12 complex modes at N=64 go through the stacked PCG in 3 chunks
    grid = TorusGrid(64, 2)
    a = sample_environment(BERNOULLI, grid, 4)
    ahom = np.sqrt(2.0)
    ks = [k for k, _ in _mode_representatives(grid, 2)]
    stacked = experiments._pseudo_sq_error(a, ahom, ks, 1e-8)
    assert len(stacked) == 12
    for k, err in zip(ks, stacked):
        one = experiments._pseudo_sq_error(a, ahom, [k], 1e-8)[0]
        u = pseudo_eigenfunction(a, ahom, k, 1e-8)
        own = norm(u - fourier_mode(grid, k)) ** 2
        assert one == pytest.approx(err, rel=1e-14, abs=0)
        assert own == pytest.approx(err, rel=1e-14, abs=0)


def test_pseudo_errors_solve_batches_within_the_byte_budget(monkeypatch):
    # a budget of 3 modes cuts the 129 modes of the N=16 window into 43
    # solves, whose distances equal those of one batch bit for bit
    grid = TorusGrid(16, 2)
    a = sample_environment(BERNOULLI, grid, 4)
    ks = [k for k, _ in _mode_representatives(grid, None)]
    budget = 3 * 16 * grid.n
    sizes, pcg = [], experiments._pcg

    def spy(a, b, *args, **kwargs):
        sizes.append(b.nbytes)
        return pcg(a, b, *args, **kwargs)

    monkeypatch.setattr(experiments, "_pcg", spy)
    monkeypatch.setattr(experiments, "_PSEUDO_BATCH_BYTES", budget)
    batched = experiments._pseudo_sq_error(a, np.sqrt(2.0), ks, 1e-8)
    assert len(sizes) == math.ceil(len(ks) / 3) and max(sizes) <= budget
    sizes.clear()
    monkeypatch.setattr(experiments, "_PSEUDO_BATCH_BYTES", 2**40)
    assert experiments._pseudo_sq_error(a, np.sqrt(2.0), ks, 1e-8) == batched
    assert sizes == [len(ks) * 16 * grid.n]


def test_bilap_exact_sum_pins_weights_and_scale(monkeypatch):
    # sum over every nonzero k with |k|_inf <= 2 of
    # lambda_k^(-2 beta) c_b^2 |u_k - phi_k|^2 / (ahom lambda_k^(N))^2,
    # with c_b = 1/(2d) = 1/4 and each of the 24 modes counted once
    calls = []
    exact_in_noise = experiments._bilap_exact_in_noise

    def spy(a, *args):
        value = exact_in_noise(a, *args)
        calls.append((a, value))
        return value

    monkeypatch.setattr(experiments, "_bilap_exact_in_noise", spy)
    N, beta, ahom, tol = 16, 0.75, np.sqrt(2.0), 1e-8
    cfg = ExperimentConfig(d=2, law=BERNOULLI, beta=beta, Ns=(N,), replicates=1,
                           ahom=ahom, tol=tol, mode_cutoff=2, seed=3)
    res = bilap_error_rate(cfg)
    (a, value), = calls
    (n, mean, stderr), = res.points
    # one replicate leaves the standard error unknown
    assert (n, mean) == (N, value) and math.isnan(stderr)
    expected = 0.0
    for k in itertools.product(range(-2, 3), repeat=2):
        if not any(k):
            continue
        lam = 4.0 * np.pi**2 * (k[0] ** 2 + k[1] ** 2)
        lam_n = 4.0 * N**2 * (np.sin(np.pi * k[0] / N) ** 2 + np.sin(np.pi * k[1] / N) ** 2)
        u = pseudo_eigenfunction(a, ahom, k, tol)
        err = norm(u - fourier_mode(a.grid, k)) ** 2
        expected += lam ** (-2 * beta) * 0.25**2 * err / (ahom * lam_n) ** 2
    assert value == pytest.approx(expected, rel=1e-13, abs=0)


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
    with pytest.raises(CutoffError):
        truncation_error(8, 2, 0.75, kcut=5)
    val = truncation_error(8, 2, 0.75, kcut=64)
    assert val > 0


def test_truncation_error_matches_brute_force_sum():
    beta, kcut = 0.75, 24
    for N, d in itertools.product((7, 8), (1, 2)):
        lo, hi = -(N // 2), (N - 1) // 2
        ref = math.fsum(
            (4 * np.pi**2 * sum(c * c for c in k)) ** (-2 * beta - 2)
            for k in itertools.product(range(-kcut, kcut + 1), repeat=d)
            if any(not lo <= c <= hi for c in k))
        assert truncation_error(N, d, beta, kcut) == pytest.approx(ref, rel=1e-12)


def test_truncation_error_cutoff_stable():
    a = truncation_error(8, 2, 0.75, kcut=64)
    b = truncation_error(8, 2, 0.75, kcut=128)
    assert b == pytest.approx(a, rel=1e-3)
    assert b > a  # larger cutoff captures more positive mass


def test_discretization_rate_slope():
    cfg = ExperimentConfig(d=2, beta=0.75, Ns=(8, 16, 32, 64))
    rs = discretization_rate(cfg)
    assert abs(rs.slope - (2 - 4 - 4 * 0.75)) < 0.3
    assert all(s == 0.0 for _, _, s in rs.points)  # deterministic
    assert rs.ahom is None  # no heterogeneous field, so no ahom


def test_truncation_error_sums_the_cube_in_blocks(monkeypatch):
    # d = 3 at kcut = 24 is one block of 49 slabs by default; one slab per
    # block sums the same frequencies in another order
    whole = truncation_error(8, 3, 0.75, kcut=24)
    monkeypatch.setattr(experiments, "_TRUNCATION_BLOCK", 1)
    assert truncation_error(8, 3, 0.75, kcut=24) == pytest.approx(whole, rel=1e-13)


def test_discretization_rate_doubles_the_cutoff_until_the_guard_passes():
    # beta = 0.01 in d = 2: at 2 max(N) = 64 the remainder bound is 0.147 of
    # the partial sum at N = 32; at 128 it is 0.034
    with pytest.raises(CutoffError):
        truncation_error(32, 2, 0.01, kcut=64)
    rs = discretization_rate(ExperimentConfig(d=2, beta=0.01, Ns=(8, 16, 32)))
    assert [v for _, v, _ in rs.points] == [truncation_error(N, 2, 0.01, kcut=128)
                                           for N in (8, 16, 32)]
    assert abs(rs.slope - (2 - 4 - 4 * 0.01)) < 0.1


def test_discretization_rate_validates_beta():
    cfg = ExperimentConfig(d=2, Ns=(8, 16, 32))
    with pytest.raises(ValueError):
        discretization_rate(cfg)


# ---------------------------------------------------------------------------
# Monte-Carlo experiments (reduced sizes; acceptance runs the full versions)


@pytest.mark.parametrize("law", [
    EnvironmentLaw.constant(1.5),
    EnvironmentLaw.bernoulli(0, 1.5, 2),
    EnvironmentLaw.bernoulli(1, 1, 1.5),
    EnvironmentLaw.bernoulli(0.5, 1.5, 1.5),
], ids=["constant", "bernoulli-p0", "bernoulli-p1", "bernoulli-equal-atoms"])
def test_pseudo_eigen_rate_constant_law_trivial(law):
    # every point-mass law puts 1.5 on each edge, whatever its variant
    cfg = ExperimentConfig(d=2, law=law, Ns=(8, 16, 32),
                           kset=((1, 0),), replicates=2,
                           seed=0, ahom=1.5)
    rs = pseudo_eigen_rate(cfg)
    for _, v, _ in rs.points:
        assert v < 1e-14
    assert np.isnan(rs.slope)
    assert rs.ahom == 1.5


def test_pseudo_eigen_k_dependence():
    # value grows with |k| but no faster than the quartic envelope allows
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(16,),
                           kset=((1, 0),), replicates=12, seed=4,
                           ahom=float(np.sqrt(2)))
    v1 = pseudo_eigen_rate(cfg).points[0][1]
    v2 = pseudo_eigen_rate(dataclasses.replace(cfg, kset=((2, 0),))).points[0][1]
    assert v2 > v1
    assert v2 / v1 <= 16 * 1.5


def test_pseudo_eigen_rate_d3_slope_is_minus_two():
    # d = 3 has no log correction; ahom is the effective-medium value
    cfg = ExperimentConfig(d=3, law=BERNOULLI, Ns=(8, 16, 32), kset=((1, 0, 0),),
                           replicates=8, seed=0, ahom=1.4430)
    rs = pseudo_eigen_rate(cfg)
    assert abs(rs.slope + 2) < 0.3
    assert rs.corrected is None


def test_two_scale_expansion_explains_the_pseudo_eigenfunction_error():
    # d = 2: the remainder u - u~ of the two-scale expansion takes a falling
    # share of ||u - phi||^2, and ||u~ - phi||^2 predicts ||u - phi||^2,
    # closer at N=64 than at N=16 (means over the environments that
    # pseudo_eigen_rate draws at seed 0). Seeds 0-23 all passed, with shares
    # 0.32-0.36, 0.25-0.29 and 0.20-0.23 and N=64 ratios 1.050-1.098 (the
    # last check's closest margin 3e-4, at seed 19); 32 environments per
    # size failed one of the three checks at 6 of the 24 seeds.
    k, ahom, shares, ratios = (1, 0), math.sqrt(2), [], []
    for i, (N, M) in enumerate([(16, 256), (32, 128), (64, 128)]):
        grid = TorusGrid(N, 2)
        phi = fourier_mode(grid, k)
        meas = pred = rest = 0.0
        for rep in range(M):
            a = sample_environment(BERNOULLI, grid, np.random.SeedSequence(0, spawn_key=(i, rep)))
            u, u2 = pseudo_eigenfunction(a, ahom, k, 1e-8), two_scale_expansion(a, ahom, k)
            meas += norm(u - phi) ** 2
            pred += norm(u2 - phi) ** 2
            rest += norm(u - u2) ** 2
        shares.append(rest / meas)
        ratios.append(pred / meas)
    assert shares[0] > shares[1] > shares[2]
    assert abs(ratios[2] - 1) < 0.15
    assert abs(ratios[2] - 1) < abs(ratios[0] - 1)


def test_bilap_error_rate_d3_slope_is_minus_two():
    # beta = 0.75 lies above the d = 3 threshold 1/4; seeds 0-11 gave slopes
    # from -2.081 to -1.960, at about 0.6 s a call
    cfg = ExperimentConfig(d=3, law=BERNOULLI, beta=0.75, Ns=(4, 8, 16), replicates=8,
                           seed=0, ahom=1.4430, mode_cutoff=1)
    rs = bilap_error_rate(cfg)
    assert abs(rs.slope + 2) < 0.3
    assert rs.corrected is None


def test_bilap_error_constant_law_trivial():
    cfg = ExperimentConfig(d=2, law=EnvironmentLaw.constant(2.0), beta=0.75,
                           Ns=(8, 16, 32), replicates=2, seed=0,
                           ahom=2.0, mode_cutoff=2)
    res = bilap_error_rate(cfg)
    for _, v, _ in res.points:
        assert v < 1e-16
    assert res.ahom == 2.0


def test_bilap_estimators_cross_validate():
    cfg = ExperimentConfig(d=2, law=BERNOULLI, beta=0.75,
                           Ns=(8, 16), replicates=6, noise_replicates=24,
                           seed=1, ahom=float(np.sqrt(2)), mode_cutoff=2)
    (_, ex_m, ex_s), _ = bilap_error_rate(cfg).points
    mc_m, mc_s = bilap_monte_carlo_point(cfg, 8)
    z = abs(ex_m - mc_m) / np.hypot(ex_s, mc_s)
    assert z < 3.0


def test_gff_limit_constant_is_the_duality_ahom():
    # The diagonal of cov's covariance is <phi_k, A^(-1) phi_k>, which is
    # <phi_k, u_k> / (ahom lambda_k) for the pseudo-eigenfunction u_k, so
    # r = Re <phi_k, u_k> / N^d tends to 1 for the right ahom alone: sqrt 2
    # (Keller-Dykhne duality for Bernoulli(0.5,1,2) in d = 2), not the
    # arithmetic mean 3/2 (r about 1.06) nor the harmonic mean 4/3 (r about
    # 0.94). Five other seeds put sqrt 2 within 2.6 SE at every size and
    # each wrong constant beyond 9 SE.
    k = (1, 0)
    for N in (16, 32, 64, 128):
        grid = TorusGrid(N, 2)
        phi = fourier_mode(grid, k)
        ratios = []
        for rep in range(16):
            a = sample_environment(BERNOULLI, grid, np.random.SeedSequence(31, spawn_key=(0, rep)))
            ratios.append([np.vdot(phi, pseudo_eigenfunction(a, ahom, k, 1e-8)).real
                           / grid.n for ahom in (np.sqrt(2.0), 1.5, 4 / 3)])
        mean = np.mean(ratios, axis=0) - 1
        se = np.std(ratios, axis=0, ddof=1) / np.sqrt(len(ratios))
        assert abs(mean[0]) <= 3 * se[0]
        assert mean[1] > 5 * se[1] and mean[2] < -5 * se[2]
    assert se[0] < 1e-3


def test_gff_covariance_homogeneous_diagonal():
    cfg = ExperimentConfig(d=2, law=None, Ns=(16,),
                           kset=((1, 0), (0, 1)), replicates=2,
                           noise_replicates=400, seed=2)
    rep = gff_covariance_limit(cfg)
    assert rep.max_offdiag_z() < 4.0
    assert np.all(rep.diagonal_z() < 4.0)
    assert rep.fitted_constant > 0


def test_gff_covariance_homogeneous_exact_is_diagonal():
    cfg = ExperimentConfig(d=2, law=None, Ns=(8,),
                           kset=((1, 0), (0, 1), (1, 1)), replicates=2,
                           noise_replicates=50, seed=2)
    rep = gff_covariance_limit(cfg)
    lam = np.asarray([eigenvalue_discrete(8, k) for k in cfg.kset])
    expected = formal_constant("gff", 2) ** 2 / lam
    assert np.allclose(np.diag(rep.exact_covariance), expected, rtol=1e-12, atol=0)
    assert rep.offdiag_frobenius() < 1e-12 * expected.max()


def test_gff_covariance_quadrature_keeps_per_draw_realization():
    # Reference: one A^(-1/2)z draw per noise seed, projected by the DFT.
    kset = ((1, 0), (0, 1), (1, 1), (2, 0))
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(16,),
                           kset=kset, replicates=2, noise_replicates=50, seed=4)
    grid = TorusGrid(16, 2)
    scale = formal_constant("gff", 2) * grid.N
    coeffs, exacts = [], []
    for env in range(cfg.replicates):
        a = sample_environment(BERNOULLI, grid,
                               np.random.SeedSequence(cfg.seed, spawn_key=(200, env)))
        for s in range(cfg.noise_replicates):
            seed = np.random.SeedSequence(cfg.seed, spawn_key=(201, env, s))
            spec = dft(sample_gff(grid, a, seed))
            coeffs.append([scale * spec[grid.index_of(k)] for k in kset])
        # the noise-exact covariance from the eigh oracle's V = A^(-1/2) conj(phi_k)
        modes = np.stack([fourier_mode(grid, k).conj() for k in kset])
        v = dense_power(a, modes, -0.5).reshape(len(kset), -1) * scale / grid.n
        exacts.append(v @ v.conj().T)
    coeffs = np.asarray(coeffs)
    reference = np.mean(coeffs[:, :, None] * coeffs[:, None, :].conj(), axis=0)
    exact = np.mean(exacts, axis=0)

    quadrature = gff_covariance_limit(cfg)
    peak = np.abs(reference).max()
    assert np.abs(quadrature.covariance - reference).max() < 1e-6 * peak
    exact_peak = np.abs(exact).max()
    assert np.abs(quadrature.exact_covariance - exact).max() < 1e-6 * exact_peak


def test_gff_covariance_quadrature_beyond_dense_limit():
    # N=128 has 16384 sites, four times the dense operator's limit.
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(128,),
                           kset=((1, 0), (0, 1), (1, 1), (2, 0)), replicates=2,
                           noise_replicates=50, seed=5)
    rep = gff_covariance_limit(cfg)
    exact = rep.exact_covariance
    assert np.allclose(exact, exact.conj().T, rtol=0, atol=1e-14 * np.abs(exact).max())
    gap = np.abs(np.real(np.diag(rep.covariance)) - np.real(np.diag(exact)))
    assert np.all(gap < 4 * np.diag(rep.stderr))
    assert np.isfinite(rep.offdiag_frobenius())


def test_gff_covariance_insufficient_replicates():
    cfg = ExperimentConfig(d=2, law=None, Ns=(8,),
                           kset=((1, 0),), replicates=2, noise_replicates=10,
                           seed=0)
    with pytest.raises(ValueError):
        gff_covariance_limit(cfg)


def test_gff_covariance_dense_exact_matches_empirical_scale():
    cfg = ExperimentConfig(d=2, law=BERNOULLI, Ns=(8,),
                           kset=((1, 0), (0, 1)), replicates=3,
                           noise_replicates=300, seed=6)
    rep = gff_covariance_limit(cfg)
    assert rep.exact_covariance is not None
    emp = np.real(np.diag(rep.covariance))
    exact = np.real(np.diag(rep.exact_covariance))
    err = np.diag(rep.stderr)
    assert np.all(np.abs(emp - exact) < 4 * err)
