"""Mean-zero elliptic solves on the torus.

Three backends cover the operators -Lap_N and -div a grad:

* ``spectral``: exact FFT diagonalization, homogeneous operator only;
* ``cg``: conjugate gradient on the mean-zero subspace, preconditioned by
  the homogeneous spectral inverse, for real and complex right-hand sides;
* ``dense``: pseudo-inverse of the explicitly assembled matrix, small grids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .environment import Conductances, apply_operator, operator_matrix
from .lattice import (
    LatticeField,
    TorusGrid,
    eigenvalue_discrete,
    eigenvalues_discrete,
    fourier_mode,
)

__all__ = [
    "SolveReport",
    "SolverError",
    "solve_homogeneous",
    "solve_heterogeneous",
    "solve_dense",
    "green_column",
    "pseudo_eigenfunction",
    "default_max_iterations",
]

MEAN_ZERO_RTOL = 1e-10
DEFAULT_TOL = 1e-8


@dataclass
class SolveReport:
    iterations: int
    residual: float
    tolerance: float
    backend: str
    energy_history: list = field(default_factory=list, repr=False)


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def default_max_iterations(grid: TorusGrid) -> int:
    return int(50 * grid.N ** (grid.d / 2))


def _require_mean_zero(rhs: LatticeField) -> None:
    scale = np.max(np.abs(rhs.values))
    if scale > 0 and abs(rhs.mean()) > MEAN_ZERO_RTOL * scale:
        raise ValueError(
            f"right-hand side must be mean-zero; relative mean is "
            f"{abs(rhs.mean()) / scale:.3e}"
        )


@functools.lru_cache(maxsize=16)
def _spectral_multiplier(grid: TorusGrid, exponent: float) -> np.ndarray:
    """Read-only lambda^exponent of -Lap_N in standard FFT layout, with the
    zero mode set to 0."""
    lam = eigenvalues_discrete(grid)
    mult = np.zeros_like(lam)
    mask = lam > 0
    mult[mask] = lam[mask] ** exponent
    mult = np.fft.ifftshift(mult)
    mult.flags.writeable = False
    return mult


def _spectral_power(grid: TorusGrid, values: np.ndarray, exponent: float) -> np.ndarray:
    """Apply (-Lap_N)^exponent on the mean-zero subspace (zero on constants)."""
    out = np.fft.ifftn(np.fft.fftn(values) * _spectral_multiplier(grid, exponent))
    return out.real if np.isrealobj(values) else out


def solve_homogeneous(grid: TorusGrid, rhs: LatticeField) -> LatticeField:
    """Unique mean-zero solution of -Lap_N u = rhs, computed spectrally."""
    if rhs.grid != grid:
        raise ValueError("rhs grid mismatch")
    _require_mean_zero(rhs)
    return LatticeField(grid, _spectral_power(grid, rhs.values, -1.0))


def _pcg(a: Conductances, b: np.ndarray, tol: float, maxiter: int) -> tuple:
    """CG for the divergence-form operator, preconditioned by the spectral
    inverse of -Lap_N.

    The operator is real symmetric, so complex right-hand sides iterate in
    place with Hermitian inner products. Iterates on the mean-zero subspace;
    the mean is projected out of every update. Tracks the quadratic
    functional 0.5 x.A x - b.x, whose decrease is equivalent to the decrease
    of the energy norm of the error.
    """
    grid = a.grid

    def matvec(v):
        return apply_operator(a, LatticeField(grid, v)).values

    b = b - b.mean()
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, []
    r = b.copy()
    z = _spectral_power(grid, r, -1.0)
    p = z.copy()
    rz = np.vdot(r, z).real
    energy = [0.0]
    for it in range(1, maxiter + 1):
        ap = matvec(p)
        alpha = rz / np.vdot(p, ap).real
        x = x + alpha * p
        x = x - x.mean()
        r = r - alpha * ap
        r = r - r.mean()
        # One CG step changes 0.5 x.A x - b.x by exactly -0.5 alpha (r.z).
        energy.append(energy[-1] - 0.5 * alpha * rz)
        res = np.linalg.norm(r) / bnorm
        if res <= tol:
            return x, it, res, energy
        z = _spectral_power(grid, r, -1.0)
        rz_new = np.vdot(r, z).real
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, maxiter, np.linalg.norm(r) / bnorm, energy


def solve_heterogeneous(a: Conductances, rhs: LatticeField, tol: float = DEFAULT_TOL,
                        maxiter: int = None):
    """Mean-zero solution of -div a grad u = rhs by preconditioned conjugate
    gradient; ``rhs`` may be real or complex.

    Returns (solution, report); raises SolverError when the iteration cap is
    hit before the relative residual reaches tol.
    """
    if rhs.grid != a.grid:
        raise ValueError("rhs grid mismatch")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    _require_mean_zero(rhs)
    grid = a.grid
    if maxiter is None:
        maxiter = default_max_iterations(grid)
    x, iterations, residual, energy = _pcg(a, rhs.values, tol, maxiter)
    report = SolveReport(iterations, float(residual), tol, "cg", energy)
    if residual > tol:
        raise SolverError(
            f"CG did not reach tol={tol} within {maxiter} iterations "
            f"(residual {residual:.3e})",
            report,
        )
    return LatticeField(grid, x), report


def solve_dense(a: Conductances, rhs: LatticeField) -> LatticeField:
    """Pseudo-inverse solve via the dense operator matrix (oracle path)."""
    _require_mean_zero(rhs)
    mat = operator_matrix(a)
    sol = np.linalg.pinv(mat, rcond=1e-12) @ rhs.values.ravel()
    sol = sol - sol.mean()
    return LatticeField(a.grid, sol.reshape(a.grid.shape))


def _delta_rhs(grid: TorusGrid, y) -> LatticeField:
    values = np.full(grid.shape, -1.0 / grid.n)
    values[grid.index_of(y)] += 1.0
    return LatticeField(grid, values)


def green_column(a: Conductances | None, grid: TorusGrid, y,
                 tol: float = DEFAULT_TOL) -> LatticeField:
    """Column G(., y) of the Green's function: the mean-zero solution of

        (-div a grad G(., y))(x) = delta_{x,y} - 1/N^d.

    Pass ``a=None`` for the unit-conductance torus, solved spectrally.
    """
    rhs = _delta_rhs(grid, y)
    if a is None:
        return solve_homogeneous(grid, rhs)
    u, _ = solve_heterogeneous(a, rhs, tol=tol)
    return u


def pseudo_eigenfunction(a: Conductances, ahom: float, k,
                         tol: float = DEFAULT_TOL) -> LatticeField:
    """Solution of -div a grad u = ahom * lambda_k^(N) * phi_k.

    Converges to the Fourier mode phi_k as N grows; for constant a = ahom it
    equals phi_k up to solver tolerance.
    """
    grid = a.grid
    k = grid.check_frequency(k)
    if not np.any(k):
        raise ValueError("pseudo-eigenfunctions are defined for k != 0 only")
    if ahom <= 0:
        raise ValueError(f"ahom must be positive, got {ahom}")
    lam = eigenvalue_discrete(grid.N, k)
    rhs = LatticeField(grid, ahom * lam * fourier_mode(grid, k).values)
    u, _ = solve_heterogeneous(a, rhs, tol=tol)
    return u
