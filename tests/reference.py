"""Reference code that only the tests use, written over the package's
engine: the normalized l2 norm and the mean-zero test of a field, the
delta right-hand side of a Green's-function column, one corrector solve,
the environments of an ahom estimate and their per-axis energies from
correctors solved to a tight residual, the full periodic matrix of an
environment, a power of A from one dense eigendecomposition, A^(-1/2)
solved one quadrature node at a time, one pseudo-eigenfunction solved on
its own and its two-scale expansion, the shared-noise Monte-Carlo
estimate of the bi-Laplacian error norm that cross-checks the noise-exact
one, and the operator stencil with
every axis taken as strided slices, which the package's one-pass last axis
must match bit for bit."""

import dataclasses

import numpy as np

from homfield.environment import operator_matrix, sample_environment
from homfield.experiments import ExperimentConfig, _bilap_modes, _ladder, formal_constant
from homfield.homogenization import corrector_rhs
from homfield.lattice import TorusGrid, dft, eigenvalue_discrete, fourier_mode
from homfield.sampler import sample_noise
from homfield.solver import DEFAULT_TOL, _inv_sqrt_quadrature, _pcg, solve


def norm(values: np.ndarray) -> float:
    """The normalized l2 norm (N^(-d) sum_x |f(x)|^2)^(1/2) of a field."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) / values.size))


def has_zero_mean(values: np.ndarray, rtol: float = 1e-12) -> bool:
    """Whether |mean(f)| <= rtol max |f|."""
    return abs(values.mean()) <= rtol * np.max(np.abs(values))


def delta_rhs(grid: TorusGrid, y) -> np.ndarray:
    """delta_{x,y} - 1/N^d: its mean-zero solution is the column G(., y) of
    the Green's function."""
    values = np.full(grid.shape, -1.0 / grid.n)
    values[grid.index_of(y)] += 1.0
    return values


def solve_corrector(a, axis: int, tol: float = DEFAULT_TOL) -> tuple:
    """(chi, report): the mean-zero corrector chi_axis with
    -div a grad chi = div(a e_axis), solved on its own and stopped, as
    ``estimate_ahom`` stops it, once its energy is within tol of the
    solution's."""
    x, report = _pcg(a, corrector_rhs(a, axis)[None], tol, energy=True)
    return x[0], report


def replicate_environments(law, N: int, M: int, seed, d: int = 2) -> list:
    """The M environments that ``estimate_ahom(law, N, M, seed, d)`` draws,
    in replicate order."""
    grid = TorusGrid(N, d)
    return [sample_environment(law, grid, np.random.SeedSequence(seed, spawn_key=(10_000 + rep,)))
            for rep in range(M)]


def axis_energies(a, chis) -> list:
    """Per-axis energies <(e_i + grad chi_i) . a (e_i + grad chi_i)> of the
    correctors ``chis``, the terms whose mean is the energy estimator."""
    grid = a.grid
    energies = []
    for i, chi in enumerate(chis):
        grads = [grid.N * (np.roll(chi, -1, axis=axis) - chi) + (axis == i)
                 for axis in range(grid.d)]
        energies.append(sum(np.sum(a.weights[axis] * g * g) for axis, g in enumerate(grads))
                        / grid.n)
    return energies


def residual_energies(a, tol: float = 1e-13) -> list:
    """The :func:`axis_energies` of the environment, from its d correctors
    solved as one ``_pcg`` stack to relative residual tol."""
    rhs = np.stack([corrector_rhs(a, axis) for axis in range(a.grid.d)])
    return axis_energies(a, _pcg(a, rhs, tol)[0])


def periodic_matrix(a, tol: float = DEFAULT_TOL) -> tuple:
    """(A, chis): the full periodic matrix
    A_ij = <(e_i + grad chi_i) . a (e_j + grad chi_j)> of the environment,
    from its d correctors solved as one ``_pcg`` stack, and those correctors.
    tr A / d is the energy that ``_mean_energy`` reads as a flux average."""
    grid = a.grid
    rhs = np.stack([corrector_rhs(a, axis) for axis in range(grid.d)])
    chis = _pcg(a, rhs, tol)[0]
    grads = [[grid.N * (np.roll(chi, -1, axis=axis) - chi) + (axis == i)
              for axis in range(grid.d)] for i, chi in enumerate(chis)]
    matrix = np.array([[sum(np.sum(w * gi * gj) for w, gi, gj in zip(a.weights, g_i, g_j))
                        for g_j in grads] for g_i in grads])
    return matrix / grid.n, chis


def dense_power(a, values: np.ndarray, exponent: float) -> np.ndarray:
    """A^exponent on the mean-zero subspace, applied to the fields stacked
    along the leading axes of ``values``, from one ``eigh`` of the dense
    operator matrix. Eigenvalues below 1e-10 of the largest span the
    constant kernel and map to 0. An O(n^3) oracle for small grids."""
    evals, evecs = np.linalg.eigh(operator_matrix(a))
    keep = evals > 1e-10 * evals.max()
    power = np.zeros_like(evals)
    power[keep] = evals[keep] ** exponent
    flat = values.reshape(-1, a.grid.n)
    return (((flat @ evecs) * power) @ evecs.T).reshape(values.shape)


def inv_sqrt_by_node(grid: TorusGrid, a, values: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A^(-1/2) with an environment as ``solver.inv_sqrt`` sums it, over the
    same quadrature nodes in the same order, but with one PCG stack of the
    fields per node, solved one node after another."""
    lo = eigenvalue_discrete(grid.N, (1,))
    hi = 4.0 * grid.d * a.ellipticity * grid.N**2
    fields = values.reshape((-1,) + grid.shape)
    out = np.zeros(fields.shape, np.result_type(fields, np.float64))
    for s, w in zip(*_inv_sqrt_quadrature(lo, hi, tol)):
        out += w * _pcg(a, fields, tol, shift=s)[0]
    out = out.reshape(values.shape)
    return out - out.mean(axis=tuple(range(-grid.d, 0)), keepdims=True)


def pseudo_eigenfunction(a, ahom: float, k, tol: float) -> np.ndarray:
    """The pseudo-eigenfunction u_k = A^(-1) (ahom lambda_k^(N) phi_k) of
    the nonzero mode k, from the public ``solve`` of its one field."""
    grid = a.grid
    return solve(grid, a, ahom * eigenvalue_discrete(grid.N, k) * fourier_mode(grid, k), tol)


def two_scale_expansion(a, ahom: float, k, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The two-scale prediction (ahom / A_kk)(phi_k + sum_i chi_i grad_i phi_k)
    of the pseudo-eigenfunction of the nonzero mode k, with the environment's
    own correctors chi_i and periodic coefficient A_kk = khat . A khat in
    the direction of k (both from :func:`periodic_matrix` at tol); grad_i is
    the forward difference along axis i times N."""
    grid = a.grid
    matrix, chis = periodic_matrix(a, tol)
    khat = np.asarray(k) / np.linalg.norm(k)
    phi = fourier_mode(grid, k)
    corrector = sum(chi * grid.N * (np.roll(phi, -1, axis=i) - phi)
                    for i, chi in enumerate(chis))
    return ahom / (khat @ matrix @ khat) * (phi + corrector)


def _bilap_monte_carlo(cfg: ExperimentConfig, a, ahom: float, ks, weights, cb: float,
                       env_idx: int) -> float:
    """Shared-noise Monte-Carlo estimate of the same squared error norm,
    averaged over cfg.noise_replicates draws, which are solved as one stack
    in the environment and one without."""
    grid = a.grid
    scale = cb * grid.N ** (grid.d / 2.0)
    kidx = tuple(np.array([grid.index_of(k) for k in ks]).T)
    noise = np.stack([
        sample_noise(grid, np.random.SeedSequence(cfg.seed, spawn_key=(300, env_idx, s)))
        for s in range(cfg.noise_replicates)])
    rhs = noise - noise.mean(axis=tuple(range(1, noise.ndim)), keepdims=True)
    errors = solve(grid, a, rhs, cfg.tol) - solve(grid, None, rhs) / ahom
    return float(np.mean([np.sum(weights * np.abs(scale * dft(e)[kidx]) ** 2)
                          for e in errors]))


def bilap_monte_carlo_point(cfg: ExperimentConfig, N: int) -> tuple:
    """(mean, stderr) of :func:`_bilap_monte_carlo` over the environments
    that ``bilap_error_rate(cfg)`` draws at the ladder size N, with its
    modes, weights and scale: the engine's own ``_ladder`` at the same tag."""
    ahom, cb = cfg.resolve_ahom(), formal_constant("bilap", cfg.d)
    ks, weights = _bilap_modes(cfg, N)
    return tuple(_ladder(dataclasses.replace(cfg, Ns=(N,)), 100 + cfg.Ns.index(N),
                         lambda a, rep: _bilap_monte_carlo(cfg, a, ahom, ks, weights, cb, rep))[0][1:])


def stencil_by_slices(a, v: np.ndarray, out: np.ndarray, flux: np.ndarray) -> None:
    """The operator of ``environment._stencil`` written with slices of the
    stack instead of passes over its flattened arrays: along every axis the
    differences and fluxes of the sites 0..N-2 and of the wrap-round layer,
    in the same elementwise operations and order, so the two agree bit for
    bit."""
    d = a.grid.d
    out.fill(0)
    for axis in range(d):
        head, tail, first, last = (
            (Ellipsis, s) + (slice(None),) * (d - 1 - axis) for s in
            (slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None)))
        np.subtract(v[head], v[tail], out=flux[head])
        np.subtract(v[last], v[first], out=flux[last])
        flux *= a.weights[axis]
        out += flux
        out[tail] -= flux[head]
        out[first] -= flux[last]
    out *= a.grid.N**2
