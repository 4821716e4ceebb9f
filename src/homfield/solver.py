"""The two powers A^(-1) and A^(-1/2) of A = -div a grad (A = -Lap_N without
an environment) on the mean-zero subspace of the torus.

:func:`solve` (A^(-1)) and :func:`inv_sqrt` (A^(-1/2)) take real fields
stacked along leading axes, so every FFT is a real one; a complex field,
such as a Fourier mode, enters as two rows, its real and imaginary parts.
Without an environment they are exact. With one, conjugate gradient on the
mean-zero subspace, preconditioned by the homogeneous spectral inverse,
solves one stack: the right-hand sides, or for :func:`inv_sqrt` all the
shifted solves of a quadrature, each field with its own shift and stopping
test, in chunks of at most 256 KiB. Each field's iterates do not depend
on the chunking or on the thread count, up to the last bits of the inner
products. The test is on the relative residual, or for ahom's correctors
on the energy error.

One in-order work queue, :func:`_parallel`, hands out the chunks of a stack
to every CPU the process may use. :func:`_replicates` holds the one rule for
the environments of ahom, the rate ladders and cov: through that queue once
one environment's weights fill a chunk, else in turn.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

# apply_operator stays bound here only for perfbench's tracer test, which
# checks its wrapper. That tracer no longer sees _pcg's stencil work; drop
# the binding once ROADMAP item 7 counts stencil applications.
from .environment import Conductances, _stencil, apply_operator  # noqa: F401
from .lattice import LatticeField, TorusGrid, eigenvalue_discrete

__all__ = [
    "SolveReport",
    "SolverError",
    "solve",
    "solve_homogeneous",
    "inv_sqrt",
    "default_max_iterations",
]

MEAN_ZERO_RTOL = 1e-10
DEFAULT_TOL = 1e-8
# Largest stack that _pcg iterates as one: with the ~7 arrays of a step it
# stays inside a 2 MiB L2 cache.
_CHUNK_BYTES = 256 * 1024


@dataclass
class SolveReport:
    iterations: int
    residual: float


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def default_max_iterations(grid: TorusGrid) -> int:
    return int(50 * grid.N ** (grid.d / 2))


def _require_mean_zero(grid: TorusGrid, values: np.ndarray) -> None:
    """Reject the whole stack unless each field f has |mean f| <= MEAN_ZERO_RTOL max |f|."""
    axes = tuple(range(-grid.d, 0))
    mean = np.abs(values.mean(axis=axes))
    scale = np.abs(values).max(axis=axes)
    bad = ~(mean <= MEAN_ZERO_RTOL * scale)  # written so that a NaN field fails
    if bad.any():
        raise ValueError(
            f"right-hand side must be mean-zero; relative mean is "
            f"{np.max(mean[bad] / scale[bad]):.3e}"
        )


@functools.lru_cache(maxsize=64)
def _spectral_multiplier(grid: TorusGrid, exponent: float, shift: float) -> np.ndarray:
    """Read-only (lambda + shift)^exponent over the eigenvalues lambda of -Lap_N
    on the real FFT's half spectrum (last axis N//2 + 1), zero mode set to 0."""
    lam = eigenvalue_discrete(grid.N, grid.coordinates())
    mult = np.zeros_like(lam)
    mask = lam > 0
    mult[mask] = (lam[mask] + shift) ** exponent
    mult = np.ascontiguousarray(np.fft.ifftshift(mult)[..., : grid.N // 2 + 1])
    mult.flags.writeable = False
    return mult


def _spectral_apply(values: np.ndarray, mult: np.ndarray, spec: np.ndarray = None,
                    out: np.ndarray = None, d: int = None) -> np.ndarray:
    """Apply a multiplier from ``_spectral_multiplier`` to site values over
    their trailing ``d`` axes (by default ``mult.ndim``): fields stacked
    along leading axes map one by one, and a stack of multipliers along
    those axes, one per field or one row for all, passes ``d``. The
    multiplier is even in k, so its product with the half spectrum of the
    real values keeps the Hermitian symmetry that makes the result real.

    ``spec`` (complex, the shape of the half spectrum) and ``out`` are
    optional buffers that an iterative solve keeps for its whole run. The
    half spectrum is transformed back in place, one axis at a time in the
    axis order of ``np.fft.irfftn``, so the result equals its bit for bit.
    """
    axes = tuple(range(-(d or mult.ndim), 0))
    spec = np.fft.rfftn(values, axes=axes, out=spec)
    spec *= mult
    for axis in axes[:-1]:
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=values.shape[-1], axis=-1, out=out)


def _check_fields(grid: TorusGrid, a: Conductances | None, values: np.ndarray) -> None:
    """Reject complex fields (a complex field enters as two rows, its real and
    imaginary parts), fields off ``grid`` or not finite, and ``a`` off ``grid``."""
    if np.iscomplexobj(values):
        raise ValueError("the solver takes real fields: split a complex one into two rows")
    grid.check_fields(values)
    if a is not None and a.grid != grid:
        raise ValueError("environment grid mismatch")


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_i, v_i> for the real fields i stacked along the first axis."""
    # einsum calls no BLAS, so the sums do not depend on the BLAS thread count
    return np.einsum("ij,ij->i", u.reshape(len(u), -1), v.reshape(len(v), -1))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                # no affinity call on this platform
        return os.cpu_count() or 1


_in_job = threading.local()               # .active: this thread runs a _parallel job


def _parallel(count: int, job) -> list:
    """[job(0), ..., job(count - 1)], run on the calling thread and one
    ``threading.Thread`` per further CPU the process may use, at most one
    thread per job.

    The jobs are handed out in order and none after a job has raised, so
    every job before a failing one has run: the first failure in job order,
    the one a serial loop would meet, is re-raised after the join. A call
    made inside a job runs all its jobs on that job's thread, as the CPUs
    are taken already.
    """
    results, failures = [None] * count, {}
    todo = iter(range(count))
    lock = threading.Lock()

    def work():
        outer, _in_job.active = getattr(_in_job, "active", False), True
        try:
            while True:
                with lock:
                    j = next(todo, None)
                    if j is None or failures:
                        return
                try:
                    results[j] = job(j)
                except Exception as exc:  # re-raised by the caller after the join
                    failures[j] = exc
        finally:
            _in_job.active = outer

    nested = getattr(_in_job, "active", False)
    helpers = [] if nested else [threading.Thread(target=work)
                                 for _ in range(min(_cpus(), count) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _replicates(grid: TorusGrid, count: int, job) -> list:
    """[job(0), ..., job(count - 1)], each job drawing, solving and scoring
    its own environment on ``grid``: through :func:`_parallel` once one
    environment's weights (8 d N^d bytes) fill a PCG chunk, else in turn on
    the calling thread, where threads would only contend for the
    interpreter. Either way the results and the first exception come in
    replicate order, whatever the CPU count."""
    if 8 * grid.d * grid.n >= _CHUNK_BYTES:
        return _parallel(count, job)
    return [job(rep) for rep in range(count)]


def _pcg(a: Conductances, b: np.ndarray, tol: float, shift: float | np.ndarray = 0.0,
         out: np.ndarray = None, iters: np.ndarray = None, energy: bool = False) -> tuple:
    """CG for the divergence-form operator plus ``shift`` times the identity,
    preconditioned by the spectral inverse of -Lap_N + shift, for the
    right-hand sides stacked along the first axis of ``b``. ``shift`` is one
    number for the whole stack, or an array of one per field of ``b``.

    Since -Lap_N <= A <= Lambda (-Lap_N), the preconditioned condition number
    is at most Lambda for every shift.

    A stack of more than _CHUNK_BYTES is cut into consecutive chunks of
    max(1, _CHUNK_BYTES // field bytes) fields, so that the arrays of a step
    stay in one core's cache. The chunks are independent solves whose FFTs
    and array operations release the GIL, so they go through
    :func:`_parallel` in stack order, each with its slice of the per-field
    shifts. Within a chunk the fields share one loop, but each keeps its own
    shift, step lengths and stopping test, and leaves the loop when its
    relative residual reaches tol: its iterates are those of its own solve,
    up to the rounding of the inner products, whatever thread runs its
    chunk. The means of the right-hand sides are removed once. The iterates
    then stay mean-zero up to rounding without a projection, because the
    preconditioner zeroes the mean mode and every operator output sums to
    zero; x is centred once on return.

    ``out``, a float64 array of the shape of ``b``, receives x when
    given. It may be ``b`` itself: each chunk is read before its rows are
    overwritten, so a caller done with its right-hand sides saves a stack.
    ``iters``, an integer array of length ``len(b)``, receives the
    iteration count of each field when given.

    With ``energy`` a field leaves instead once <r, z> / N^d <= tol, for z
    the preconditioned residual: as -Lap_N + shift <= A + shift, that bounds
    <r, (A + shift)^(-1) r> / N^d, the iterate's energy in excess of the
    solution's (Arioli, Numer. Math. 97, 2004).

    Returns (x, report), the report holding the largest iteration count and
    the worst final residual of the stack. Raises ValueError for fields
    :func:`_check_fields` rejects, a tol outside (0, 1) or a shift array not
    of shape ``(len(b),)``, and SolverError when the cap of
    default_max_iterations is hit before every relative residual of a chunk
    reaches tol, with the report of the first such chunk in stack order.
    """
    _check_fields(a.grid, a, b)
    _check_tol(tol)
    shift = np.asarray(shift, np.float64)
    if shift.shape not in ((), (len(b),)):
        raise ValueError(f"shifts of shape {shift.shape} for a stack of {len(b)} fields")
    shift = np.broadcast_to(shift, len(b))
    x = np.empty(b.shape) if out is None else out
    iters = np.empty(len(b), np.int64) if iters is None else iters
    chunk = max(1, _CHUNK_BYTES // (8 * a.grid.n))
    rows = [slice(start, start + chunk) for start in range(0, len(b), chunk)]
    reports = _parallel(len(rows), lambda j: _pcg_chunk(
        a, b[rows[j]], tol, shift[rows[j]], x[rows[j]], iters[rows[j]], energy))
    return x, SolveReport(max((r.iterations for r in reports), default=0),
                          max((r.residual for r in reports), default=0.0))


def _pcg_chunk(a: Conductances, b: np.ndarray, tol: float, shift: np.ndarray,
               out: np.ndarray, iters: np.ndarray, energy: bool) -> SolveReport:
    """The loop of :func:`_pcg` for one chunk of its stack, with one shift
    per field; writes the solutions into ``out`` and the iteration counts
    into ``iters``, and returns the chunk's report.

    Every per-field quantity is a stack of rows along the first axis:
    iterates, residuals, norms, shifts and preconditioner multipliers.
    Shifts that agree are one shared row, as is their multiplier, kept while
    any field iterates. Each step starts with the test, and the fields that
    pass leave with their rows, a zero right-hand side before the first
    step. The residual test runs before z = M r is formed, so a leaving
    field forms none; the energy test reads <r, z>, formed after the step.
    """
    grid = a.grid
    axes = tuple(range(-grid.d, 0))
    col = (-1,) + (1,) * grid.d           # one coefficient per field
    shift = (shift[:1] if np.all(shift == shift[0]) else shift).reshape(col)
    rows = [_spectral_multiplier(grid, -1.0, s)[None] for s in shift.flat]
    precond = rows[0] if len(rows) == 1 else np.concatenate(rows)  # a shared row: a view
    maxiter = default_max_iterations(grid)
    r = np.array(b, dtype=np.float64)
    r -= r.mean(axis=axes, keepdims=True)
    bnorm = np.sqrt(_dots(r, r))
    out.fill(0)
    iters.fill(0)
    # x iterates in out until a field leaves; the residual of x = 0 reads 0
    # for a zero right-hand side, which leaves before the first step
    live, x, res = np.arange(len(r)), out, np.sign(bnorm)
    # kept for the whole solve, each step using the rows of live fields.
    # spec, the preconditioner's spectrum, shares its memory with flux, the
    # stencil's scratch and then the step buffer, and ap's buffer takes the
    # preconditioned residual z: a step is done with flux and ap before the
    # preconditioner writes spec and z.
    spec_buf = np.empty(r.shape[:-1] + (r.shape[-1] // 2 + 1,), np.complex128)
    flux_buf = spec_buf.reshape(-1).view(np.float64)[: r.size].reshape(r.shape)
    ap_buf = np.empty_like(r)
    p = _spectral_apply(r, precond, spec_buf, np.empty_like(r), grid.d)
    rz = _dots(r, p)

    def descend(p, r, rz):
        """p = z + (<r, z> / rz) p for z the preconditioned r; returns <r, z>."""
        z = _spectral_apply(r, precond, spec_buf[: len(r)], ap_buf[: len(r)], grid.d)
        rz_new = _dots(r, z)
        p *= (rz_new / rz).reshape(col)
        p += z
        return rz_new

    worst = 0.0
    for it in range(maxiter + 1):
        done = rz <= tol * grid.n if energy else res <= tol
        if done.any():
            out[live[done]] = x[done]
            iters[live[done]] = it
            worst = max(worst, float(res[done].max()))
            if done.all():
                break
            live, x, r, p, rz, res, bnorm, shift, precond = (  # a shared row stays
                v[~done] if len(v) > 1 else v
                for v in (live, x, r, p, rz, res, bnorm, shift, precond))
        if it == maxiter:
            worst = max(worst, float(res.max()))
            raise SolverError(
                f"CG did not reach tol={tol} within {maxiter} iterations (residual {worst:.3e})",
                SolveReport(maxiter, worst),
            )
        if it and not energy:             # the first direction is p = z as set above
            rz = descend(p, r, rz)
        ap, step = ap_buf[: len(r)], flux_buf[: len(r)]
        _stencil(a, p, ap, step)
        if shift.any():
            ap += np.multiply(p, shift, out=step)
        alpha = (rz / _dots(p, ap)).reshape(col)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        res = np.sqrt(_dots(r, r)) / bnorm
        if energy:                        # z and <r, z> before the test that reads them
            rz = descend(p, r, rz)
    out -= out.mean(axis=axes, keepdims=True)
    return SolveReport(it, worst)


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


def _check_tol(tol: float) -> None:
    # written so that a NaN tolerance fails the check
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")


def inv_sqrt(grid: TorusGrid, a: Conductances | None, values: np.ndarray,
             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply A^(-1/2) on the mean-zero subspace to the fields stacked along
    the leading axes of ``values`` (real, trailing axes ``grid.shape``),
    with A = -Lap_N when ``a`` is None. Returns the mean-zero images.

    Without an environment the images are exact, from the FFT, which zeroes
    the mean mode. With one they sum w_j (A + s_j)^(-1) z over the nodes of
    :func:`_inv_sqrt_quadrature`, in node order, mean-zero to rounding as
    PCG centres each node's solution. One PCG to tol solves every node's
    copy of the fields as one node-major stack, each with its own shift and
    stopping test, in place. The nodes are computed once per call for the
    interval [4 N^2 sin^2(pi/N), 4 d Lambda N^2], Lambda the largest weight:
    by Gershgorin it holds the spectrum of A on the mean-zero subspace.
    Raises ValueError, before any work, for fields that
    :func:`_check_fields` rejects: complex, off ``grid`` or not finite.
    """
    _check_fields(grid, a, values)
    if a is None:
        return _spectral_apply(values, _spectral_multiplier(grid, -0.5, 0.0))
    _check_tol(tol)
    lo = eigenvalue_discrete(grid.N, (1,))
    hi = 4.0 * grid.d * a.ellipticity * grid.N**2
    shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
    fields = values.reshape((-1,) + grid.shape)
    stack = np.empty((len(shifts),) + fields.shape)
    stack[...] = fields
    nodes = stack.reshape((-1,) + grid.shape)
    _pcg(a, nodes, tol, shift=np.repeat(shifts, len(fields)), out=nodes)
    out = np.zeros(fields.shape)
    for w, x in zip(weights, stack):
        out += np.multiply(x, w, out=x)
    return out.reshape(values.shape)


def solve(grid: TorusGrid, a: Conductances | None, values: np.ndarray,
          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mean-zero solutions of A u = f for the mean-zero fields f, stacked as
    :func:`inv_sqrt` takes them: exact by FFT for A = -Lap_N (``a`` None),
    one PCG stack to relative residual tol with an environment. Raises
    ValueError as :func:`inv_sqrt` does, and when any field is not mean-zero."""
    _check_fields(grid, a, values)
    _require_mean_zero(grid, values)
    if a is None:
        return _spectral_apply(values, _spectral_multiplier(grid, -1.0, 0.0))
    return _pcg(a, values.reshape((-1,) + grid.shape), tol)[0].reshape(values.shape)


def solve_homogeneous(grid: TorusGrid, rhs: LatticeField) -> LatticeField:
    """:func:`solve` without an environment for one field; the benchmark's probe times it."""
    return LatticeField(grid, solve(grid, None, rhs.values))

