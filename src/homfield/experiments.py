"""Monte-Carlo convergence experiments: pseudo-eigenfunction error rates,
spectral covariance of the environment free field, coupled bi-Laplacian
error norms, and the closed-form window-truncation error of the
homogeneous field. Log-log slopes are fitted by ordinary least squares, with
half-widths from the standard errors each ladder point carries; in d = 2 the
expected logarithmic correction is divided out before fitting.
Fields enter as formal coefficients c N^(d/2) (f, phi_k), c from
:func:`formal_constant`; H^(-beta) norms weight mode k by lambda_k^(-2 beta).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .environment import EnvironmentLaw, sample_environment
from .homogenization import _mean_stderr, estimate_ahom
from .lattice import (
    TorusGrid,
    eigenvalue_continuum,
    eigenvalue_discrete,
    fourier_mode,
)
from .sampler import sample_noise
from .solver import DEFAULT_TOL, _check_tol, _pcg, _replicates, inv_sqrt

__all__ = [
    "RateSeries",
    "ExperimentConfig",
    "CovarianceReport",
    "fit_rate",
    "pseudo_eigen_rate",
    "gff_covariance_limit",
    "bilap_error_rate",
    "discretization_rate",
    "truncation_error",
    "CutoffError",
    "formal_constant",
]


def formal_constant(kind: str, d: int) -> float:
    """Scaling constant c of the formal field c N^(d/2) (f, phi_k):
    (2d)^(-1/2) for free fields, (2d)^(-1) for bi-Laplacian fields."""
    if kind.startswith("gff"):
        return (2.0 * d) ** -0.5
    return 1.0 / (2.0 * d)


# ---------------------------------------------------------------------------
# rate fitting


_Z975 = 1.959963984540054  # the normal 0.975 quantile


def fit_rate(points) -> tuple:
    """Least-squares fit of log(value) against log(N), with the slope's
    half-width taken from the points' own standard errors.

    ``points`` is a sequence of (N, value, stderr) triples with positive
    values, at least three of them. The slope is the ordinary least-squares
    one, sum c_i y_i with c_i = (x_i - xbar) / S_xx; the errors, taken as
    known, do not weight it. Each point's log error is
    sigma_i = stderr_i / value_i, so the slope's standard error is
    sqrt(sum c_i^2 sigma_i^2). Returns (slope, half_width, chi2):
    half_width is 1.96 of those standard errors, and chi2 is
    sum (r_i / sigma_i)^2 over the fit's residuals r_i, the misfit that the
    half-width leaves out (n - 2 on average for a power law with equal
    errors). A NaN stderr (one replicate) leaves both NaN; zero errors
    (closed-form points) give half_width 0 and a NaN chi2.
    """
    points = sorted(points)
    if len(points) < 3:
        raise ValueError(f"need at least 3 points for a rate fit, got {len(points)}")
    ns, vals, errs = np.asarray(points, dtype=float).T
    if np.any(vals <= 0):
        raise ValueError("rate fits require strictly positive values")
    if np.any(errs < 0):
        raise ValueError("standard errors must not be negative")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("N values must be strictly increasing")
    x = np.log(ns)
    y = np.log(vals)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = np.sum((x - xbar) * (y - y.mean())) / sxx
    resid = y - y.mean() - slope * (x - xbar)
    sigma = errs / vals
    half_width = _Z975 * float(np.sqrt(np.sum(((x - xbar) / sxx * sigma) ** 2)))
    # written so that a NaN or zero error leaves chi2 NaN
    chi2 = float(np.sum((resid / sigma) ** 2)) if np.all(sigma > 0) else math.nan
    return float(slope), half_width, chi2


@dataclass(frozen=True)
class RateSeries:
    """Measured values over an N ladder with the fitted log-log slope.

    ``half_width`` and ``chi2`` are the slope's 95 % half-width from the
    points' standard errors and the fit's chi-square (see :func:`fit_rate`).
    ``corrected`` holds the (slope, chi2) fit of value / log(N), used in
    d = 2 where the bounds carry a log factor. Its points keep their
    relative errors, and the half-width depends on those alone, so
    ``half_width`` serves both fits. It is None otherwise, and where fewer
    than 3 points leave the fit fields NaN.
    ``ahom`` is the effective coefficient the measured fields were compared
    against, None where none was used.
    """

    quantity: str
    points: tuple  # of (N, value, stderr)
    slope: float
    half_width: float
    chi2: float
    corrected: tuple = None
    ahom: float = None

    @classmethod
    def from_points(cls, quantity: str, points, log_correct: bool = False,
                    ahom: float = None) -> "RateSeries":
        points = tuple(sorted(points))
        if len(points) < 3:
            return cls(quantity, points, *(math.nan,) * 3, ahom=ahom)
        corrected = None
        if log_correct:
            slope, _, chi2 = fit_rate([(n, v / np.log(n), s / np.log(n)) for n, v, s in points])
            corrected = (slope, chi2)
        return cls(quantity, points, *fit_rate(points), corrected, ahom)


# ---------------------------------------------------------------------------
# configuration


AHOM_ESTIMATE_M = 32  # environments behind an estimated ahom


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the Monte-Carlo experiments. Only the
    bi-Laplacian experiments read ``beta``, so it must be finite and pass
    their convergence threshold beta > d/4 - 1/2."""

    d: int
    law: EnvironmentLaw = None
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
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")
        threshold = self.d / 4.0 - 0.5
        # written so that a NaN beta fails the check
        if self.beta is not None and not threshold < self.beta < math.inf:
            raise ValueError(f"beta={self.beta} is not finite or violates the convergence "
                             f"threshold beta > {threshold} in d={self.d}")
        # written so that a NaN ahom fails the check
        if self.ahom is not None and not 0 < self.ahom < math.inf:
            raise ValueError(f"ahom must be finite and positive, got {self.ahom}")
        for name in ("replicates", "noise_replicates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        _check_tol(self.tol)
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
        if len(set(self.kset)) < len(self.kset):
            raise ValueError(f"kset repeats a frequency: {self.kset}")

    def resolve_ahom(self) -> float:
        """Effective coefficient to use: the configured value, or an estimate
        from AHOM_ESTIMATE_M environments at the largest ladder size when
        none was given, announced on stderr before it runs."""
        if self.ahom is not None:
            return float(self.ahom)
        if self.law is None:
            return 1.0
        print(f"ahom not configured: estimating it from M={AHOM_ESTIMATE_M} "
              f"environments at N={max(self.Ns)}", file=sys.stderr)
        return estimate_ahom(self.law, max(self.Ns), AHOM_ESTIMATE_M,
                             seed=self.seed + 77, d=self.d, tol=self.tol).mean


def _require_ladder(cfg: ExperimentConfig) -> None:
    if not cfg.Ns:
        raise ValueError("Ns is empty: the experiment needs at least one ladder size")


def _replicate_seed(cfg: ExperimentConfig, tag: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(cfg.seed, spawn_key=(tag, rep))


def _ladder(cfg: ExperimentConfig, tag: int, per_env) -> list:
    """(N, mean, stderr) of per_env(a, rep) over the environments
    _replicate_seed(cfg, tag + i, rep) at the i-th size of cfg.Ns, run
    through the replicate runner; one tag means one set of draws."""
    points = []
    for i, N in enumerate(cfg.Ns):
        grid = TorusGrid(N, cfg.d)
        vals = _replicates(grid, cfg.replicates, lambda rep: per_env(
            sample_environment(cfg.law, grid, _replicate_seed(cfg, tag + i, rep)), rep))
        mean, stderr = _mean_stderr(np.asarray(vals, dtype=float))
        points.append((N, float(mean), float(stderr)))
    return points


def _rate_series(cfg: ExperimentConfig, quantity: str, points, ahom: float) -> RateSeries:
    """The fitted series of a Monte-Carlo ladder, with the log correction in
    d = 2. Under a point-mass law the values are at solver-tolerance level,
    so the fit is skipped: NaN slope fields."""
    if cfg.law.point_mass:
        return RateSeries(quantity, tuple(points), *(math.nan,) * 3, ahom=ahom)
    return RateSeries.from_points(quantity, points, log_correct=(cfg.d == 2), ahom=ahom)


# Right-hand-side bytes that _pseudo_sq_error holds at once: 32 PCG chunks
# keep every CPU busy, where a whole window's N^d / 2 modes would take
# N^(2d) / 2 complex values (2.1 GB per environment at N=128).
_PSEUDO_BATCH_BYTES = 8 * 1024 * 1024


def _pseudo_sq_error(a, ahom: float, ks, tol: float) -> list:
    """Squared l2 distances between the pseudo-eigenfunctions
    u_k = A^(-1) (ahom lambda_k^(N) phi_k) of the modes ks in environment a
    and their Fourier modes phi_k. Each batch of _PSEUDO_BATCH_BYTES is
    formed, solved in place by one PCG stack and scored before the next; a
    field's CG iterates, and so its distance, do not depend on the cut."""
    grid, errs = a.grid, []
    batch = max(1, _PSEUDO_BATCH_BYTES // (16 * grid.n))
    for part in (ks[i:i + batch] for i in range(0, len(ks), batch)):
        us = np.empty((len(part),) + grid.shape, np.complex128)
        for u, k in zip(us, part):
            np.multiply(ahom * eigenvalue_discrete(grid.N, k), fourier_mode(grid, k), out=u)
        _pcg(a, us, tol, out=us)
        errs += [float(np.sum(np.abs(u - fourier_mode(grid, k)) ** 2) / grid.n)
                 for k, u in zip(part, us)]
    return errs


# ---------------------------------------------------------------------------
# pseudo-eigenfunction convergence


def pseudo_eigen_rate(cfg: ExperimentConfig) -> RateSeries:
    """Mean squared l2 distance between the pseudo-eigenfunction of the one
    mode of cfg.kset and its Fourier mode over the N ladder, with its fitted
    slope.

    For a point-mass law the distance is at solver-tolerance level and the
    fit is skipped (slope fields are NaN).
    """
    _require_ladder(cfg)
    if len(cfg.kset) != 1:
        raise ValueError(f"pseudo_eigen_rate measures one mode: set kset to one "
                         f"frequency, got {len(cfg.kset)}")
    if cfg.law is None:
        raise ValueError("pseudo_eigen_rate needs an environment law (config key 'law')")
    for N in cfg.Ns:  # the smallest window fails first, before ahom is estimated
        TorusGrid(N, cfg.d).check_frequency(cfg.kset[0])
    ahom = cfg.resolve_ahom()
    points = _ladder(cfg, 0, lambda a, rep: _pseudo_sq_error(a, ahom, cfg.kset, cfg.tol)[0])
    return _rate_series(cfg, "pseudo_eigen_sq_error", points, ahom)


# ---------------------------------------------------------------------------
# free-field spectral covariance


@dataclass(frozen=True)
class CovarianceReport:
    """Empirical spectral covariance of free-field coefficients, plus the
    noise-exact (infinite-sample) covariance averaged over the same
    environments."""

    kset: tuple
    covariance: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    fitted_constant: float
    exact_covariance: np.ndarray = field(repr=False)

    def offdiag_frobenius(self) -> float:
        """Frobenius mass of the off-diagonal entries of the noise-exact
        covariance, which carries no Monte-Carlo floor."""
        off = self.exact_covariance - np.diag(np.diag(self.exact_covariance))
        return float(np.sqrt(np.sum(np.abs(off) ** 2)))

    def max_offdiag_z(self) -> float:
        z = np.abs(self.covariance) / np.where(self.stderr > 0, self.stderr, np.inf)
        np.fill_diagonal(z, 0.0)
        return float(z.max())

    def diagonal_z(self) -> np.ndarray:
        """Distance of the diagonal from fitted_constant / lambda_k, in
        standard errors."""
        lam = eigenvalue_continuum(np.transpose(self.kset))
        target = self.fitted_constant / lam
        diag = np.real(np.diag(self.covariance))
        err = np.diag(self.stderr)
        return np.abs(diag - target) / np.where(err > 0, err, np.inf)


def gff_covariance_limit(cfg: ExperimentConfig) -> CovarianceReport:
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
    environment at cfg.tol, and the noise of each draw is the one
    :func:`homfield.sampler.sample_gff` would draw.
    """
    _require_ladder(cfg)
    N, samples = max(cfg.Ns), cfg.noise_replicates
    if samples * cfg.replicates < 100:
        raise ValueError(f"covariance estimation needs at least 100 draws, config keys 'm' x "
                         f"'noise_replicates' = {cfg.replicates} x {samples} = "
                         f"{cfg.replicates * samples}")
    if not cfg.kset:
        raise ValueError("a nonempty k-set is required")
    grid = TorusGrid(N, cfg.d)
    scale = formal_constant("gff", cfg.d) * grid.N ** (grid.d / 2.0) / grid.n
    modes = np.stack([fourier_mode(grid, k).conj() for k in cfg.kset])

    def environment(env_idx):
        """The draws' coefficients and the noise-exact covariance of one environment."""
        a = (None if cfg.law is None
             else sample_environment(cfg.law, grid, _replicate_seed(cfg, 200, env_idx)))
        v = inv_sqrt(grid, a, modes, tol=cfg.tol).reshape(len(modes), -1)
        # One draw at a time keeps memory at |kset| x N^d, not samples x N^d.
        block = scale * np.stack([
            v @ sample_noise(grid, np.random.SeedSequence(
                cfg.seed, spawn_key=(201, env_idx, s))).ravel()
            for s in range(samples)])
        return block, scale**2 * (v @ v.conj().T)

    blocks, exacts = zip(*_replicates(grid, cfg.replicates, environment))
    coeffs = np.concatenate(blocks, axis=0)
    cov, stderr = _mean_stderr(np.einsum("si,sj->sij", coeffs, coeffs.conj()))

    lam = eigenvalue_continuum(np.transpose(cfg.kset))
    diag = np.real(np.diag(cov))
    fitted = float(np.sum(diag / lam) / np.sum(1.0 / lam**2))
    return CovarianceReport(cfg.kset, cov, stderr, fitted, np.mean(exacts, axis=0))


# ---------------------------------------------------------------------------
# bi-Laplacian error field


def _mode_representatives(grid: TorusGrid, cutoff: int):
    """Nonzero frequencies of the grid with sup-norm at most cutoff, grouped
    into conjugate pairs: yields (k, multiplicity) with multiplicity 2 when
    -k is a distinct in-window frequency, else 1."""
    c = grid.coordinates_1d()
    lo, hi = c[0], c[-1]
    if cutoff is not None:
        lo, hi = max(lo, -cutoff), min(hi, cutoff)
    for kvec in itertools.product(range(lo, hi + 1), repeat=grid.d):
        # -k, wrapped at -N/2, lies in the same range, so each pair is
        # yielded once, at its lexicographically first member.
        neg = tuple(c if 2 * c == -grid.N else -c for c in kvec)
        if any(kvec) and kvec <= neg:
            yield kvec, 1 if neg == kvec else 2


def _bilap_exact_in_noise(a, ahom: float, ks, weights, cb: float, tol: float) -> float:
    """Noise-exact squared H^{-beta} error of the coupled bi-Laplacian pair
    for one environment: the pseudo-eigenfunction errors of the modes ks,
    each weighted by its Sobolev weight and cb^2 / (ahom lambda_k^(N))^2."""
    errs = _pseudo_sq_error(a, ahom, ks, tol)
    lam = eigenvalue_discrete(a.grid.N, np.transpose(ks))
    return float(sum(w * cb**2 * err / (ahom * lam_k) ** 2
                     for lam_k, w, err in zip(lam, weights, errs)))


def _bilap_modes(cfg: ExperimentConfig, N: int) -> tuple:
    """The representative modes k of the size-N grid and their weights
    mult * lambda_k^(-2 beta)."""
    ks, mult = zip(*_mode_representatives(TorusGrid(N, cfg.d), cfg.mode_cutoff))
    lam = eigenvalue_continuum(np.transpose(ks))
    # one scalar power per mode: numpy's vectorized pow may differ from it in the last bit
    return list(ks), np.asarray([m * lam_k ** (-2.0 * cfg.beta) for m, lam_k in zip(mult, lam)])


def bilap_error_rate(cfg: ExperimentConfig) -> RateSeries:
    """Environment-averaged squared H^{-beta} distance between the
    heterogeneous bi-Laplacian field and its rescaled homogeneous partner,
    from the noise-exact per-mode identity, over the N ladder.

    The mode sum runs over grid frequencies with sup-norm at most
    ``cfg.mode_cutoff`` (whole window when None).
    """
    _require_ladder(cfg)
    if cfg.beta is None:
        raise ValueError("bilap_error_rate needs a Sobolev order (config key 'beta')")
    if cfg.law is None:
        raise ValueError("bilap_error_rate needs an environment law (config key 'law')")
    ahom = cfg.resolve_ahom()
    cb = formal_constant("bilap", cfg.d)
    modes = {N: _bilap_modes(cfg, N) for N in cfg.Ns}
    points = _ladder(cfg, 100, lambda a, rep: _bilap_exact_in_noise(
        a, ahom, *modes[a.grid.N], cb, cfg.tol))
    return _rate_series(cfg, "bilap_sq_error", points, ahom)


# ---------------------------------------------------------------------------
# closed-form discretization error of the homogeneous field


class CutoffError(RuntimeError):
    """A spectral cutoff too small for :func:`truncation_error`, on a valid config."""


class _UnderflowError(CutoffError):
    """Every term of :func:`truncation_error`'s sum underflows: no cutoff helps."""


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


# Frequencies that truncation_error scores at once, in whole slabs of the
# cube's first axis: memory stays O(max(one slab, this many)).
_TRUNCATION_BLOCK = 1 << 20


def truncation_error(N: int, d: int, beta: float, kcut: int) -> float:
    """Squared H^{-beta} mass of the continuum homogeneous bi-Laplacian
    field beyond the grid's frequency window.

    The discrete field has no coefficient at frequencies outside the window,
    so each such mode contributes exactly lambda_k^{-2 beta - 2} (Sobolev
    weight times the coefficient variance 1/lambda_k^2). The sum is
    enumerated up to sup-norm kcut, a block of slabs of the frequency cube
    at a time; the analytic remainder bound must stay below 10% of the
    partial sum, else CutoffError. A partial sum that underflows to 0 fails
    too: every term beyond the cutoff is smaller still.
    """
    ks = TorusGrid(2 * kcut + 1, d).coordinates()
    window = TorusGrid(N, d).coordinates_1d()
    rows = max(1, _TRUNCATION_BLOCK // (2 * kcut + 1) ** (d - 1))
    partial = 0.0
    for j in range(0, 2 * kcut + 1, rows):
        block = (ks[0][j:j + rows],) + ks[1:]
        inside = functools.reduce(
            np.logical_and, [(c >= window[0]) & (c <= window[-1]) for c in block])
        lam = eigenvalue_continuum(block)
        lam = lam[~inside & (lam > 0)]
        partial += float(np.sum(lam ** (-2.0 * beta - 2.0)))
    remainder = (4.0 * np.pi**2) ** (-2.0 * beta - 2.0) * _shell_tail_bound(
        d, 4.0 * beta + 4.0, kcut
    )
    if partial == 0.0:
        raise _UnderflowError(
            f"every term lambda_k^(-2 beta - 2) outside the N={N} window underflows to 0 "
            f"at beta={beta}: the truncation error lies below the floating-point range"
        )
    if remainder > 0.1 * partial:
        raise CutoffError(
            f"spectral cutoff {kcut} too small at N={N}: remainder bound "
            f"{remainder:.3e} exceeds 10% of the partial sum {partial:.3e}"
        )
    return partial


def discretization_rate(cfg: ExperimentConfig) -> RateSeries:
    """Closed-form window-truncation error of the discrete homogeneous
    bi-Laplacian field against its continuum limit, over the N ladder.

    No sampling is involved: the value at each N is the exact spectral mass
    lambda_k^{-2 beta - 2} of the continuum field over frequencies outside
    the grid window (see :func:`truncation_error`), the component of the
    coupled discretization error that carries the d - 4 - 4 beta exponent.
    The complementary in-window coupling component decays at the slower
    universal N^{-2} order whenever the mode sum converges, and is
    deliberately kept out of this fit so the truncation exponent remains
    identifiable.

    Every size shares one cutoff: the smallest 2^j * 2 max(Ns), up to
    16 max(Ns), whose remainder guard passes at the largest N, which has the
    smallest partial sum. A doubling divides the remainder bound by
    2^(4 beta + 4 - d) > 4 above the beta threshold; the partial sum grows.
    A partial sum that underflows to 0 raises at once, as doublings only add
    smaller terms.
    """
    _require_ladder(cfg)
    if cfg.beta is None:
        raise ValueError("discretization_rate needs a Sobolev order (config key 'beta')")
    kcut = 2 * max(cfg.Ns)
    while True:
        try:
            points = [(N, truncation_error(N, cfg.d, cfg.beta, kcut), 0.0)
                      for N in reversed(cfg.Ns)]
            return RateSeries.from_points("truncation_sq_error", points)
        except CutoffError as exc:
            if isinstance(exc, _UnderflowError) or kcut >= 16 * max(cfg.Ns):
                raise
            kcut *= 2
