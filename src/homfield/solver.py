"""Mean-zero elliptic solves on the torus, and the inverse square root of
the operator.

Three backends cover the operators -Lap_N and -div a grad:

* ``spectral``: exact FFT diagonalization, homogeneous operator only;
* ``cg``: conjugate gradient on the mean-zero subspace, preconditioned by
  the homogeneous spectral inverse, for real and complex right-hand sides;
  the preconditioner applies real FFTs (``rfftn``/``irfftn``) to real
  residuals;
* ``dense``: eigendecomposition of the explicitly assembled matrix, small
  grids.

:func:`inv_sqrt` is the one entry point for A^(-1/2) on the mean-zero
subspace, and the one place that picks its backend: ``spectral`` (exact,
homogeneous only; the default without an environment), ``dense`` (one
``eigh``, up to 4096 sites; the independent oracle for the quadrature) or
``krylov`` (a quadrature over shifted CG solves, each to relative residual
tol, with all fields solved together at each shift; the default with an
environment).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# apply_operator stays bound here only for perfbench's tracer test, which
# checks its wrapper. That tracer no longer sees _pcg's stencil work; drop
# the binding once ROADMAP item 1 or 5 counts stencil applications.
from .environment import Conductances, _stencil, apply_operator, operator_matrix  # noqa: F401
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
    "inv_sqrt",
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


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def default_max_iterations(grid: TorusGrid) -> int:
    return int(50 * grid.N ** (grid.d / 2))


def _require_mean_zero(rhs: LatticeField) -> None:
    if not rhs.is_mean_zero(MEAN_ZERO_RTOL):
        scale = np.max(np.abs(rhs.values))
        raise ValueError(
            f"right-hand side must be mean-zero; relative mean is "
            f"{abs(rhs.mean()) / scale:.3e}"
        )


@functools.lru_cache(maxsize=16)
def _spectral_multiplier(grid: TorusGrid, exponent: float, shift: float) -> np.ndarray:
    """Read-only (lambda + shift)^exponent over the eigenvalues lambda of
    -Lap_N in standard FFT layout, with the zero mode set to 0."""
    lam = eigenvalues_discrete(grid)
    mult = np.zeros_like(lam)
    mask = lam > 0
    mult[mask] = (lam[mask] + shift) ** exponent
    mult = np.fft.ifftshift(mult)
    mult.flags.writeable = False
    return mult


def _spectral_apply(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a multiplier from ``_spectral_multiplier`` to site values.

    The transforms run over the trailing ``mult.ndim`` axes, so fields
    stacked along leading axes are mapped one by one. Real values go through
    the half-spectrum real transforms. The multiplier is even in k, so the
    half spectrum takes its first N//2 + 1 entries along the last axis, and
    the product keeps the Hermitian symmetry that makes the result real.
    """
    axes = tuple(range(-mult.ndim, 0))
    if np.iscomplexobj(values):
        return np.fft.ifftn(np.fft.fftn(values, axes=axes) * mult, axes=axes)
    spec = np.fft.rfftn(values, axes=axes)
    spec *= mult[..., : values.shape[-1] // 2 + 1]
    return np.fft.irfftn(spec, s=values.shape[-mult.ndim:], axes=axes)


def solve_homogeneous(grid: TorusGrid, rhs: LatticeField) -> LatticeField:
    """Unique mean-zero solution of -Lap_N u = rhs, computed spectrally."""
    if rhs.grid != grid:
        raise ValueError("rhs grid mismatch")
    _require_mean_zero(rhs)
    return LatticeField(grid, _spectral_apply(rhs.values, _spectral_multiplier(grid, -1.0, 0.0)))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re <u_i, v_i> for the fields i stacked along the first axis; a complex
    field is read as its real and imaginary parts side by side."""
    m = len(u)
    u, v = (w.reshape(m, -1).view(np.float64) for w in (u, v))
    # a batched matmul reaches BLAS; einsum made inv_sqrt 2-7 % slower
    return (u[:, None, :] @ v[:, :, None]).reshape(m)


def _pcg(a: Conductances, b: np.ndarray, tol: float, maxiter: int,
         shift: float = 0.0) -> tuple:
    """CG for the divergence-form operator plus ``shift`` times the identity,
    preconditioned by the spectral inverse of -Lap_N + shift, for the
    right-hand sides stacked along the first axis of ``b``.

    Since -Lap_N <= A <= Lambda (-Lap_N), the preconditioned condition number
    is at most Lambda for every shift. The operator is real symmetric, so
    complex right-hand sides iterate in place with Hermitian inner products.
    The fields share one loop, but each keeps its own step lengths and
    stopping test, and leaves the loop when its relative residual reaches
    tol: its iterates are those of its own solve, up to the rounding of the
    inner products. The means of the right-hand sides are removed once.
    The iterates then stay mean-zero up to rounding without a projection,
    because the preconditioner zeroes the mean mode and every operator
    output sums to zero; x is centred once on return.

    Returns (x, report), the report holding the largest iteration count and
    the worst final residual of the stack; raises SolverError when the
    iteration cap is hit before every relative residual reaches tol.
    """
    precond = _spectral_multiplier(a.grid, -1.0, shift)
    axes = tuple(range(1, b.ndim))
    col = (-1,) + (1,) * len(axes)        # one coefficient per field
    b = np.array(b, dtype=np.result_type(b, np.float64))
    b -= b.mean(axis=axes, keepdims=True)
    bnorm = np.sqrt(_dots(b, b))
    live = np.flatnonzero(bnorm)          # fields still iterating
    if not live.size:
        return np.zeros_like(b), SolveReport(0, 0.0, tol, "cg")
    shape = b.shape
    r, bnorm = b[live], bnorm[live]
    del b                                 # r holds the live rows
    x = np.zeros_like(r)
    z = _spectral_apply(r, precond)
    p = z.copy()
    rz = _dots(r, z)
    res = np.ones(len(live))
    # kept for the whole solve, each iteration using the rows of live
    # fields; flux is the stencil's scratch and then the step buffer
    ap_buf, flux_buf = np.empty_like(r), np.empty_like(r)
    solved = []                           # (fields, iterates) that left
    worst = 0.0
    for it in range(1, maxiter + 1):
        ap, step = ap_buf[: len(live)], flux_buf[: len(live)]
        _stencil(a, p, ap, step)
        if shift:
            ap += np.multiply(p, shift, out=step)
        alpha = (rz / _dots(p, ap)).reshape(col)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        res = np.sqrt(_dots(r, r)) / bnorm
        done = res <= tol
        if done.any():
            solved.append((live[done], x[done]))
            worst = max(worst, float(res[done].max()))
            keep = ~done
            live, x, r, p, rz, res, bnorm = (
                v[keep] for v in (live, x, r, p, rz, res, bnorm))
            if not live.size:
                break
        z = _spectral_apply(r, precond)
        rz_new = _dots(r, z)
        p *= (rz_new / rz).reshape(col)
        p += z
        rz = rz_new
    else:
        worst = max(worst, float(res.max()))
        raise SolverError(
            f"CG did not reach tol={tol} within {maxiter} iterations (residual {worst:.3e})",
            SolveReport(maxiter, worst, tol, "cg"),
        )
    out = np.zeros(shape, x.dtype)
    for fields, iterates in solved:
        out[fields] = iterates
    out -= out.mean(axis=axes, keepdims=True)
    return out, SolveReport(it, worst, tol, "cg")


def _inv_sqrt_quadrature(lo: float, hi: float, tol: float) -> tuple:
    """Shifts s_j and weights w_j with |sum_j w_j / (s_j + lam) - lam^(-1/2)|
    <= tol lam^(-1/2) for every lam in [lo, hi].

    Midpoint rule on A^(-1/2) = (2/pi) int_0^inf (t^2 + A)^(-1) dt after the
    substitution t = sqrt(lo) sc(u | 1 - lo/hi), u in [0, K] (Hale, Higham &
    Trefethen, SIAM J. Numer. Anal. 46, 2008). The error decays like
    exp(-2 pi^2 n / log(16 hi/lo)), which fixes the node count n.

    K(m) and sn, cn, dn(u | m) come from the arithmetic-geometric mean of 1
    and sqrt(1 - m) (Abramowitz & Stegun 16.4, the cephes ``ellpj``
    algorithm): K = pi / (2 a_M), and the phases phi_M = 2^M a_M u,
    phi_(j-1) = (phi_j + arcsin((c_j / a_j) sin phi_j)) / 2 give
    sn = sin phi_0, cn = cos phi_0, dn = cn / cos(phi_1 - phi_0). For
    lo == hi (m = 0) there is no AGM step and dn = 1.
    """
    a, b, c = 1.0, math.sqrt(lo / hi), math.sqrt(1.0 - lo / hi)
    ratios = []
    # bounded: rounding can leave c one ulp above the stop test for good
    while c > 1e-16 * a and len(ratios) < 16:
        a, b, c = (a + b) / 2, math.sqrt(a * b), (a - b) / 2
        ratios.append(c / a)
    big_k = math.pi / (2.0 * a)
    n = math.ceil(math.log(16.0 * hi / lo) * math.log(40.0 / tol) / (2.0 * math.pi**2))
    u = (np.arange(n) + 0.5) * big_k / n
    phi = prev = 2.0 ** len(ratios) * a * u
    for ratio in reversed(ratios):
        prev, phi = phi, (phi + np.arcsin(ratio * np.sin(phi))) / 2
    sn, cn = np.sin(phi), np.cos(phi)
    dn = cn / np.cos(prev - phi) if ratios else np.ones_like(u)
    shifts = lo * (sn / cn) ** 2
    weights = 2.0 * math.sqrt(lo) * big_k / (math.pi * n) * dn / cn**2
    return shifts, weights


def _dense_power(a: Conductances, values: np.ndarray, exponent: float) -> np.ndarray:
    """A^exponent on the mean-zero subspace, applied to the fields stacked
    along the leading axes of ``values``, from one ``eigh`` of the dense
    operator matrix. Eigenvalues below 1e-10 of the largest span the
    constant kernel and map to 0."""
    evals, evecs = np.linalg.eigh(operator_matrix(a))
    keep = evals > 1e-10 * evals.max()
    power = np.zeros_like(evals)
    power[keep] = evals[keep] ** exponent
    flat = values.reshape(-1, a.grid.n)
    return (((flat @ evecs) * power) @ evecs.T).reshape(values.shape)


def _check_tol(tol: float) -> None:
    # written so that a NaN tolerance fails the check
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")


def inv_sqrt(grid: TorusGrid, a: Conductances | None, values: np.ndarray,
             backend: str = None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply A^(-1/2) on the mean-zero subspace to the fields stacked along
    the leading axes of ``values`` (trailing axes ``grid.shape``, real or
    complex), with A = -Lap_N when ``a`` is None; the backends are listed in
    the module docstring. Returns the mean-zero images.

    Krylov sums w_j (A + s_j)^(-1) z over the nodes of
    :func:`_inv_sqrt_quadrature`. At each node, all fields go to one
    shifted PCG, which they share while each keeps its own stopping test.
    The nodes are computed once per call for the interval
    [4 N^2 sin^2(pi/N), 4 d Lambda N^2], which holds the spectrum of A on the
    mean-zero subspace because every weight lies in [1, Lambda].
    """
    if backend is None:
        backend = "spectral" if a is None else "krylov"
    if a is None:
        if backend != "spectral":
            a = Conductances.constant(grid, 1.0)
    elif a.grid != grid:
        raise ValueError("environment grid mismatch")
    elif backend == "spectral":
        raise ValueError("spectral backend requires the homogeneous operator")
    if backend == "spectral":
        out = _spectral_apply(values, _spectral_multiplier(grid, -0.5, 0.0))
    elif backend == "dense":
        out = _dense_power(a, values, -0.5)
    elif backend == "krylov":
        _check_tol(tol)
        lo = eigenvalue_discrete(grid.N, (1,))
        hi = 4.0 * grid.d * a.ellipticity * grid.N**2
        shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
        maxiter = default_max_iterations(grid)
        fields = values.reshape((-1,) + grid.shape)
        out = np.zeros(fields.shape, np.result_type(fields, np.float64))
        for s, w in zip(shifts, weights):
            out += w * _pcg(a, fields, tol, maxiter, shift=s)[0]
        out = out.reshape(values.shape)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return out - out.mean(axis=tuple(range(-grid.d, 0)), keepdims=True)


def solve_heterogeneous(a: Conductances, rhs: LatticeField, tol: float = DEFAULT_TOL):
    """Mean-zero solution of -div a grad u = rhs by preconditioned conjugate
    gradient; ``rhs`` may be real or complex.

    Returns (solution, report); raises SolverError when the cap of
    :func:`default_max_iterations` is hit before the relative residual
    reaches tol.
    """
    if rhs.grid != a.grid:
        raise ValueError("rhs grid mismatch")
    _check_tol(tol)
    _require_mean_zero(rhs)
    x, report = _pcg(a, rhs.values[None], tol, default_max_iterations(a.grid))
    return LatticeField(a.grid, x[0]), report


def solve_dense(a: Conductances, rhs: LatticeField) -> LatticeField:
    """Mean-zero solve via the eigendecomposition of the dense operator
    matrix (oracle path)."""
    _require_mean_zero(rhs)
    sol = _dense_power(a, rhs.values, -1.0)
    return LatticeField(a.grid, sol - sol.mean())


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
