"""Monte-Carlo convergence experiments: pseudo-eigenfunction error rates,
spectral covariance of the environment free field, coupled bi-Laplacian
error norms, and the closed-form discretization error of the homogeneous
field. Log-log slopes are fitted by ordinary least squares; in d = 2 the
expected logarithmic correction is divided out before fitting.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .environment import _DENSE_SITES, EnvironmentLaw, sample_environment
from .homogenization import estimate_ahom
from .lattice import (
    LatticeField,
    TorusGrid,
    _rng,
    dft,
    eigenvalue_continuum,
    eigenvalue_discrete,
    eigenvalues_continuum,
    eigenvalues_discrete,
    fourier_mode,
)
from .sampler import formal_constant, sample_noise
from .solver import (
    DEFAULT_TOL,
    inv_sqrt,
    pseudo_eigenfunction,
    solve_heterogeneous,
    solve_homogeneous,
)

__all__ = [
    "RateSeries",
    "ExperimentConfig",
    "CovarianceReport",
    "fit_rate",
    "pseudo_eigen_rate",
    "gff_covariance_limit",
    "bilap_error_rate",
    "BilapErrorResult",
    "discretization_rate",
    "truncation_error",
    "coupling_error",
    "block_inner_product",
    "sine_ratio",
]


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(points) -> tuple:
    """Least-squares fit of log(value) against log(N).

    ``points`` is a sequence of (N, value) pairs with positive values, at
    least three of them. Returns (slope, intercept, half_width) where the
    half width is twice the standard error of the slope estimated from the
    fit residuals.
    """
    points = sorted(points)
    if len(points) < 3:
        raise ValueError(f"need at least 3 points for a rate fit, got {len(points)}")
    ns = np.asarray([p[0] for p in points], dtype=float)
    vals = np.asarray([p[1] for p in points], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("rate fits require strictly positive values")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("N values must be strictly increasing")
    x = np.log(ns)
    y = np.log(vals)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = np.sum((x - xbar) * (y - y.mean())) / sxx
    intercept = y.mean() - slope * xbar
    resid = y - (intercept + slope * x)
    dof = len(points) - 2
    sigma2 = np.sum(resid**2) / dof
    half_width = 2.0 * float(np.sqrt(sigma2 / sxx))
    return float(slope), float(intercept), half_width


@dataclass(frozen=True)
class RateSeries:
    """Measured values over an N ladder with the fitted log-log slope.

    ``corrected`` holds the (slope, intercept, half_width) fit of
    value / log(N), used in d = 2 where the bounds carry a log factor;
    it is None otherwise.
    """

    quantity: str
    points: tuple  # of (N, value, stderr)
    slope: float
    intercept: float
    half_width: float
    corrected: tuple = None

    @classmethod
    def from_points(cls, quantity: str, points, log_correct: bool = False) -> "RateSeries":
        points = tuple(sorted(points))
        slope, intercept, hw = fit_rate([(n, v) for n, v, _ in points])
        corrected = None
        if log_correct:
            corrected = fit_rate([(n, v / np.log(n)) for n, v, _ in points])
        return cls(quantity, points, slope, intercept, hw, corrected)


# ---------------------------------------------------------------------------
# configuration


AHOM_ESTIMATE_M = 32   # environments behind an estimated ahom
_EXACT_V_TOL = 1e-13  # krylov tolerance of cov's dense V, about eigh's rounding


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the Monte-Carlo experiments.

    ``field_kind`` selects the convergence regime being probed and gates the
    admissible Sobolev orders: free-field experiments need beta > d/4,
    bi-Laplacian experiments beta > d/4 - 1/2.
    """

    d: int
    law: EnvironmentLaw = None
    field_kind: str = "bilap"
    beta: float = None
    Ns: tuple = ()
    kset: tuple = ()
    replicates: int = 8
    noise_replicates: int = 32
    seed: int = 0
    ahom: float = None
    tol: float = DEFAULT_TOL
    mode_cutoff: int = None

    def __post_init__(self):
        if self.field_kind not in ("gff", "bilap"):
            raise ValueError(f"unknown field kind {self.field_kind!r}")
        if self.beta is not None:
            threshold = self.d / 4.0
            if self.field_kind == "bilap":
                threshold -= 0.5
            if self.beta <= threshold:
                raise ValueError(
                    f"beta={self.beta} violates the convergence threshold "
                    f"beta > {threshold} for {self.field_kind} in d={self.d}"
                )
        for name in ("replicates", "noise_replicates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.mode_cutoff is not None and self.mode_cutoff < 1:
            raise ValueError(f"mode_cutoff must be at least 1, got {self.mode_cutoff}")
        object.__setattr__(self, "Ns", tuple(int(n) for n in self.Ns))
        if any(n < 2 for n in self.Ns):
            raise ValueError(f"every ladder size must be at least 2, got {self.Ns}")
        if any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ValueError("Ns must be strictly increasing")
        object.__setattr__(self, "kset", tuple(tuple(int(c) for c in k) for k in self.kset))
        for k in self.kset:
            if len(k) != self.d:
                raise ValueError(f"mode {k} does not have {self.d} components")
            if not any(k):
                raise ValueError("k = 0 is excluded from every experiment")

    def resolve_ahom(self) -> float:
        """Effective coefficient to use: the configured value, or an estimate
        from AHOM_ESTIMATE_M environments at the largest ladder size when
        none was given."""
        if self.ahom is not None:
            return float(self.ahom)
        if self.law is None:
            return 1.0
        return estimate_ahom(self.law, max(self.Ns), AHOM_ESTIMATE_M,
                             seed=self.seed + 77, d=self.d, tol=self.tol).mean


def _replicate_seed(cfg: ExperimentConfig, tag: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(cfg.seed, spawn_key=(tag, rep))


def _ladder(cfg: ExperimentConfig, tag: int, per_env, sizes=None) -> list:
    """(N, mean, stderr) of per_env(a, rep) over the environments
    _replicate_seed(cfg, tag + i, rep) at the i-th size of cfg.Ns, for
    every size or only those in ``sizes``; one tag means one set of draws."""
    points = []
    for i, N in enumerate(cfg.Ns):
        if sizes is not None and N not in sizes:
            continue
        grid = TorusGrid(N, cfg.d)
        vals = np.asarray([
            per_env(sample_environment(cfg.law, grid, _replicate_seed(cfg, tag + i, rep)), rep)
            for rep in range(cfg.replicates)], dtype=float)
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        points.append((N, float(vals.mean()), stderr))
    return points


def _rate_series(cfg: ExperimentConfig, quantity: str, points) -> RateSeries:
    """The fitted series of a Monte-Carlo ladder, with the log correction in
    d = 2. Under a constant law the values are at solver-tolerance level,
    and fewer than 3 sizes cannot be fitted: both give NaN slope fields."""
    if cfg.law.variant == "constant" or len(points) < 3:
        nan = float("nan")
        return RateSeries(quantity, tuple(points), nan, nan, nan)
    return RateSeries.from_points(quantity, points, log_correct=(cfg.d == 2))


def _pseudo_sq_error(a, ahom: float, k, tol: float) -> float:
    """Squared l2 distance between the pseudo-eigenfunction of mode k in
    environment a and the Fourier mode phi_k."""
    phi = pseudo_eigenfunction(a, ahom, k, tol=tol)
    return (phi - fourier_mode(a.grid, k)).norm() ** 2


# ---------------------------------------------------------------------------
# pseudo-eigenfunction convergence


def pseudo_eigen_rate(cfg: ExperimentConfig, k=None) -> RateSeries:
    """Mean squared l2 distance between the pseudo-eigenfunction and the
    Fourier mode over the N ladder, with its fitted slope.

    For a constant law the distance is at solver-tolerance level and the fit
    is skipped (slope fields are NaN).
    """
    if k is None:
        if not cfg.kset:
            raise ValueError("pseudo_eigen_rate needs a mode: set kset")
        k = cfg.kset[0]
    if not any(k):
        raise ValueError("k must be nonzero")
    if cfg.law is None:
        raise ValueError("pseudo_eigen_rate needs an environment law")
    ahom = cfg.resolve_ahom()
    points = _ladder(cfg, 0, lambda a, rep: _pseudo_sq_error(a, ahom, k, cfg.tol))
    return _rate_series(cfg, "pseudo_eigen_sq_error", points)


# ---------------------------------------------------------------------------
# free-field spectral covariance


@dataclass(frozen=True)
class CovarianceReport:
    """Empirical spectral covariance of free-field coefficients, plus the
    noise-exact (infinite-sample) covariance averaged over the same
    environments."""

    N: int
    kset: tuple
    covariance: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    fitted_constant: float
    samples: int
    environments: int
    exact_covariance: np.ndarray = field(repr=False)

    def offdiag_frobenius(self, exact: bool = False) -> float:
        """Frobenius mass of the off-diagonal entries. ``exact=True`` uses
        the noise-exact covariance, removing the Monte-Carlo floor that
        otherwise dominates this statistic."""
        cov = self.exact_covariance if exact else self.covariance
        off = cov - np.diag(np.diag(cov))
        return float(np.sqrt(np.sum(np.abs(off) ** 2)))

    def max_offdiag_z(self) -> float:
        z = np.abs(self.covariance) / np.where(self.stderr > 0, self.stderr, np.inf)
        np.fill_diagonal(z, 0.0)
        return float(z.max())

    def diagonal_z(self) -> np.ndarray:
        """Distance of the diagonal from fitted_constant / lambda_k, in
        standard errors."""
        lam = np.asarray([eigenvalue_continuum(k) for k in self.kset])
        target = self.fitted_constant / lam
        diag = np.real(np.diag(self.covariance))
        err = np.diag(self.stderr)
        return np.abs(diag - target) / np.where(err > 0, err, np.inf)


def gff_covariance_limit(cfg: ExperimentConfig, backend: str = None) -> CovarianceReport:
    """Empirical covariance of the formal free-field coefficients over the
    configured modes at N = max(cfg.Ns), averaged over cfg.noise_replicates
    samples in each of cfg.replicates environments, and the noise-exact
    covariance over the same environments.

    In the limit the matrix is diagonal with entries proportional to
    1/lambda_k; the proportionality constant is fitted once across modes.

    A^(-1/2) is real symmetric, so the coefficient of a draw A^(-1/2) z at
    mode k is (A^(-1/2) conj(phi_k)) . z / N^d. Each environment therefore
    needs one inverse square root per mode, not one per draw: the rows
    v_k = A^(-1/2) conj(phi_k) form V, every draw's coefficients come from
    a product with V, and the noise-exact covariance is proportional to
    V V^H. V comes from one :func:`homfield.solver.inv_sqrt` call per
    environment, with ``backend`` and cfg.tol passed through. With an
    environment, ``backend="dense"`` means "V to rounding, and the noise of
    an environment drawn as one block": V then comes from the krylov
    quadrature at tolerance 1e-13, within about 1e-13 of the ``eigh`` V at
    a small fraction of its cost at N=64, and like ``eigh`` it is limited
    to 4096 sites. Otherwise the noise is drawn per sample, as
    :func:`homfield.sampler.sample_gff` would.
    """
    N, samples = max(cfg.Ns), cfg.noise_replicates
    if samples * cfg.replicates < 100:
        raise ValueError("covariance estimation needs at least 100 replicates")
    if not cfg.kset:
        raise ValueError("a nonempty k-set is required")
    grid = TorusGrid(N, cfg.d)
    scale = formal_constant("gff", cfg.d) * grid.N ** (grid.d / 2.0) / grid.n
    modes = np.stack([fourier_mode(grid, k).values.conj() for k in cfg.kset])
    block_noise = cfg.law is not None and backend == "dense"
    if block_noise and grid.n > _DENSE_SITES:
        # the noise block holds N^d x samples draws
        raise ValueError(f"dense backend with {grid.n} sites is too large")
    v_backend, v_tol = ("krylov", _EXACT_V_TOL) if block_noise else (backend, cfg.tol)

    def coefficients(v, env_idx):
        if block_noise:
            return _rng(cfg.seed, 201, env_idx).standard_normal((grid.n, samples)).T @ v.T
        # One draw at a time keeps memory at |kset| x N^d, not samples x N^d.
        return np.stack([
            v @ sample_noise(grid, np.random.SeedSequence(
                cfg.seed, spawn_key=(201, env_idx, s))).values.ravel()
            for s in range(samples)])

    blocks, exacts = [], []
    for env_idx in range(cfg.replicates):
        a = (None if cfg.law is None
             else sample_environment(cfg.law, grid, _replicate_seed(cfg, 200, env_idx)))
        v = inv_sqrt(grid, a, modes, backend=v_backend, tol=v_tol).reshape(len(modes), -1)
        blocks.append(scale * coefficients(v, env_idx))
        exacts.append(scale**2 * (v @ v.conj().T))
    coeffs = np.concatenate(blocks, axis=0)
    total = coeffs.shape[0]
    products = np.einsum("si,sj->sij", coeffs, coeffs.conj())
    cov = products.mean(axis=0)
    stderr = products.std(axis=0, ddof=1) / np.sqrt(total)

    lam = np.asarray([eigenvalue_continuum(k) for k in cfg.kset])
    diag = np.real(np.diag(cov))
    fitted = float(np.sum(diag / lam) / np.sum(1.0 / lam**2))
    return CovarianceReport(N, cfg.kset, cov, np.real(stderr), fitted,
                            total, cfg.replicates, np.mean(exacts, axis=0))


# ---------------------------------------------------------------------------
# bi-Laplacian error field


def _mode_representatives(grid: TorusGrid, cutoff: int):
    """Nonzero frequencies of the grid with sup-norm at most cutoff, grouped
    into conjugate pairs: yields (k, multiplicity) with multiplicity 2 when
    -k is a distinct in-window frequency, else 1."""
    lo, hi = -(grid.N // 2), grid.N - grid.N // 2 - 1
    if cutoff is not None:
        lo, hi = max(lo, -cutoff), min(hi, cutoff)
    for kvec in itertools.product(range(lo, hi + 1), repeat=grid.d):
        # -k, wrapped at -N/2, lies in the same range, so each pair is
        # yielded once, at its lexicographically first member.
        neg = tuple(c if 2 * c == -grid.N else -c for c in kvec)
        if any(kvec) and kvec <= neg:
            yield kvec, 1 if neg == kvec else 2


def _bilap_exact_in_noise(cfg: ExperimentConfig, a, ahom: float, modes) -> float:
    """Noise-exact squared H^{-beta} error of the coupled bi-Laplacian pair
    for one environment: a weighted mode sum of pseudo-eigenfunction errors."""
    cb = formal_constant("bilap", cfg.d)
    total = 0.0
    for k, mult in modes:
        err = _pseudo_sq_error(a, ahom, k, cfg.tol)
        total += (mult * eigenvalue_continuum(k) ** (-2.0 * cfg.beta) * cb**2 * err
                  / (ahom * eigenvalue_discrete(a.grid.N, k)) ** 2)
    return total


def _bilap_monte_carlo(cfg: ExperimentConfig, a, ahom: float, modes, env_idx: int) -> float:
    """Shared-noise Monte-Carlo estimate of the same squared error norm,
    averaged over cfg.noise_replicates draws."""
    grid = a.grid
    cb = formal_constant("bilap", cfg.d)
    scale = cb * grid.N ** (grid.d / 2.0)
    weights = np.asarray([mult * eigenvalue_continuum(k) ** (-2.0 * cfg.beta)
                          for k, mult in modes])
    kidx = tuple(np.array([grid.index_of(k) for k, _ in modes]).T)
    vals = []
    for s in range(cfg.noise_replicates):
        noise = sample_noise(grid, np.random.SeedSequence(cfg.seed, spawn_key=(300, env_idx, s)))
        rhs = noise.centered()
        u_env, _ = solve_heterogeneous(a, rhs, tol=cfg.tol)
        u_hom = solve_homogeneous(grid, rhs)
        diff = LatticeField(grid, u_env.values - u_hom.values / ahom)
        spec = dft(diff)
        coeffs = scale * spec.coefficients[kidx]
        vals.append(float(np.sum(weights * np.abs(coeffs) ** 2)))
    return float(np.mean(vals))


@dataclass(frozen=True)
class BilapErrorResult:
    series: RateSeries
    monte_carlo: dict  # N -> (mean, stderr)
    exact_at_mc: dict  # N -> (mean, stderr)


def bilap_error_rate(cfg: ExperimentConfig, mc_at=()) -> BilapErrorResult:
    """Environment-averaged squared H^{-beta} distance between the
    heterogeneous bi-Laplacian field and its rescaled homogeneous partner.

    Uses the noise-exact per-mode identity for the rate series; at the sizes
    in ``mc_at`` a shared-noise Monte-Carlo estimate is computed as an
    internal cross-check. The mode sum runs over grid frequencies with
    sup-norm at most ``cfg.mode_cutoff`` (whole window when None); both
    estimators use the identical truncation.
    """
    if cfg.beta is None:
        raise ValueError("bilap_error_rate needs a Sobolev order beta")
    if cfg.law is None:
        raise ValueError("bilap_error_rate needs an environment law")
    ahom = cfg.resolve_ahom()
    modes = {N: list(_mode_representatives(TorusGrid(N, cfg.d), cfg.mode_cutoff))
             for N in cfg.Ns}
    points = _ladder(cfg, 100, lambda a, rep: _bilap_exact_in_noise(
        cfg, a, ahom, modes[a.grid.N]))
    # The same tag redraws the environments behind the exact points.
    mc = {N: (mean, stderr) for N, mean, stderr in _ladder(
        cfg, 100, lambda a, rep: _bilap_monte_carlo(cfg, a, ahom, modes[a.grid.N], rep),
        sizes=mc_at)}
    exact = {N: (mean, stderr) for N, mean, stderr in points}
    return BilapErrorResult(_rate_series(cfg, "bilap_sq_error", points), mc,
                            {N: exact[N] for N in mc})


# ---------------------------------------------------------------------------
# closed-form discretization error of the homogeneous field


def sine_ratio(N: int, m: int) -> float:
    """One-dimensional factor of the block/mode inner product:
    sin(pi m / N) / (pi m), equal to 1/N at m = 0."""
    if m == 0:
        return 1.0 / N
    return float(np.sin(np.pi * m / N) / (np.pi * m))


def block_inner_product(N: int, k, y) -> complex:
    """Exact inner product of the continuum mode exp(2 pi i k.x) with the
    indicator of the cell of side 1/N centred at the grid point y/N."""
    k = np.asarray(k, dtype=int)
    y = np.asarray(y, dtype=float)
    phase = np.exp(2j * np.pi * np.dot(k, y) / N)
    return complex(phase * np.prod([sine_ratio(N, int(m)) for m in k]))


def _shell_tail_bound(d: int, p: float, kcut: int) -> float:
    """Upper bound on sum of |k|^{-p} over integer k with sup-norm > kcut.

    Shells of sup-norm n contain at most 2d (2n+1)^{d-1} <= 2d (3n)^{d-1}
    points, each with |k| >= n; the shell series is then compared with the
    integral of t^{d-1-p}. Requires p > d.
    """
    if p <= d:
        raise ValueError(f"shell tail diverges for decay power {p} <= d={d}")
    s = p - (d - 1)
    return float(2 * d * 3 ** (d - 1) * kcut ** (1.0 - s) / (s - 1.0))


def truncation_error(N: int, d: int, beta: float, kcut: int) -> float:
    """Squared H^{-beta} mass of the continuum homogeneous bi-Laplacian
    field beyond the grid's frequency window.

    The discrete field has no coefficient at frequencies outside the window,
    so each such mode contributes exactly lambda_k^{-2 beta - 2} (Sobolev
    weight times the coefficient variance 1/lambda_k^2). The sum is
    enumerated up to sup-norm kcut; the analytic remainder bound must stay
    below 10% of the partial sum.
    """
    lam = eigenvalues_continuum(TorusGrid(2 * kcut + 1, d))
    c = np.arange(-kcut, kcut + 1)
    in_window = (c >= -(N // 2)) & (c <= N - N // 2 - 1)
    outside = ~functools.reduce(np.logical_and.outer, [in_window] * d)
    lam = lam[outside & (lam > 0)]
    partial = float(np.sum(lam ** (-2.0 * beta - 2.0)))
    remainder = (4.0 * np.pi**2) ** (-2.0 * beta - 2.0) * _shell_tail_bound(
        d, 4.0 * beta + 4.0, kcut
    )
    if remainder > 0.1 * partial:
        raise ValueError(
            f"spectral cutoff {kcut} too small at N={N}: remainder bound "
            f"{remainder:.3e} exceeds 10% of the partial sum {partial:.3e}"
        )
    return partial


def coupling_error(N: int, d: int, beta: float) -> float:
    """Squared H^{-beta} distance, on the shared frequency window, between
    the coupled discrete and continuum homogeneous bi-Laplacian fields.

    Per in-window mode k the two coefficients multiply correlated unit
    Gaussians of the shared white noise, with correlation equal to the block
    inner product b(k) = prod_i sinc(pi k_i / N), so the second moment is

        (1/lambda^(N)_k - 1/lambda_k)^2 + 2 (1 - b(k)) / (lambda^(N)_k lambda_k).

    Exact, no truncation. The b(k)-mismatch term decays like N^{-2} per
    mode, so in the regime where the mode sum converges this component is
    of the same N^{-2} order as the environment-coupling errors and
    dominates the window-truncation component; the two are therefore
    reported separately (see :func:`discretization_rate`).
    """
    grid = TorusGrid(N, d)
    sinc = functools.reduce(np.multiply.outer, [np.sinc(grid.coordinates_1d() / N)] * d)
    lam_n, lam = eigenvalues_discrete(grid), eigenvalues_continuum(grid)
    mask = lam > 0
    lam, lam_n, b = lam[mask], lam_n[mask], sinc[mask]
    per_mode = (1.0 / lam_n - 1.0 / lam) ** 2 + 2.0 * (1.0 - b) / (lam_n * lam)
    return float(np.sum(lam ** (-2.0 * beta) * per_mode))


def discretization_rate(cfg: ExperimentConfig) -> RateSeries:
    """Closed-form window-truncation error of the discrete homogeneous
    bi-Laplacian field against its continuum limit, over the N ladder.

    No sampling is involved: the value at each N is the exact spectral mass
    lambda_k^{-2 beta - 2} of the continuum field over frequencies outside
    the grid window (see :func:`truncation_error`), the component of the
    coupled discretization error that carries the d - 4 - 4 beta exponent.
    The complementary in-window coupling component is an independent closed
    form (:func:`coupling_error`); it decays at the slower universal N^{-2}
    order whenever the mode sum converges and is deliberately kept out of
    this fit so the truncation exponent remains identifiable.
    """
    if cfg.beta is None:
        raise ValueError("discretization_rate needs a Sobolev order beta")
    kcut = 2 * max(cfg.Ns)
    points = [(N, truncation_error(N, cfg.d, cfg.beta, kcut), 0.0) for N in cfg.Ns]
    return RateSeries.from_points("truncation_sq_error", points)
