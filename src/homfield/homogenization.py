"""Effective-coefficient estimation by the periodic representative-volume
method.

For each axis i the corrector chi_i makes x_i/N + chi_i harmonic for the
heterogeneous operator on the torus. A single environment then yields the
flux average of the corrected affine function, equal to its energy; the
mean over independent environments estimates the homogenized coefficient.
Each corrector solve stops once that energy is certified within a relative
tol of the exact one. The environments run through the solver's replicate
runner, by its one rule for ahom, the rate ladders and cov: on every CPU
once one environment's weights fill a PCG chunk, in turn below that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Conductances, EnvironmentLaw, sample_environment
from .lattice import TorusGrid
from .solver import DEFAULT_TOL, SolverError, _pcg, _replicates

__all__ = ["AhomEstimate", "estimate_ahom"]


@dataclass(frozen=True)
class AhomEstimate:
    mean: float
    stderr: float
    samples: int
    failures: int = 0
    # PCG iterations summed over the corrector solves of the replicates in
    # the estimate, and the worst final relative residual among those
    # solves, which stop on their energy: about 1e-4 at tol 1e-8
    iterations: int = 0
    max_residual: float = 0.0


def corrector_rhs(a: Conductances, axis: int) -> np.ndarray:
    """Site values of the discrete divergence of the flux a e_axis,
    mean-zero by telescoping: the right-hand side of the corrector chi_axis."""
    w = a.weights[axis]
    return a.grid.N * (w - np.roll(w, 1, axis=axis))


def _mean_energy(a: Conductances, chis) -> float:
    """The energy (1/d) sum_i <(e_i + grad chi_i) . a (e_i + grad chi_i)>
    of one environment's correctors ``chis`` (axes 0 .. d-1, in order), read
    as the flux average (1/d) sum_i <a_i (1 + grad_i chi_i)>. The two differ
    by <chi, A chi - b> / N^d, which Galerkin orthogonality zeroes for every
    iterate of ``_pcg`` started at chi = 0, so the energy stop certifies it."""
    grid = a.grid
    flux = [np.mean(w * (1.0 + grid.N * (np.roll(chi, -1, axis=i) - chi)))
            for i, (w, chi) in enumerate(zip(a.weights, chis))]
    return float(np.sum(flux) / grid.d)


def _mean_stderr(values: np.ndarray) -> tuple:
    """Mean and standard error of the replicates stacked along the first
    axis of ``values``; the error of a single replicate is unknown, NaN."""
    if len(values) < 2:
        return values.mean(axis=0), np.full(values.shape[1:], np.nan)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(len(values))


def estimate_ahom(law: EnvironmentLaw, N: int, M: int, seed, d: int = 2,
                  tol: float = DEFAULT_TOL) -> AhomEstimate:
    """Monte-Carlo mean and standard error of the energy estimator over M
    independent environments.

    The d correctors of an environment are solved as one PCG stack, each
    with its own stopping test, so each equals its own solve of
    :func:`corrector_rhs`, and stops on ``_pcg``'s energy test: its energy
    lies within tol above the exact one, which is >= 1 as every weight is.
    Replicates draw from counter-based substreams of
    the master seed. They run one per CPU once one environment's weights
    (d N^d float64, as its corrector stack) fill a PCG chunk, in turn below
    that, and are read in replicate order, so the estimate does not depend
    on the CPU count. Solver failures are tolerated up to M/2; failure
    M//2 + 1 in replicate order aborts the estimate.
    """
    if law is None:
        raise ValueError("ahom needs an environment law")
    if M < 2:
        raise ValueError(f"need at least 2 replicates, got {M}")
    grid = TorusGrid(N, d)

    def replicate(rep):
        """(energy, iterations, worst residual) of replicate ``rep``, or its SolverError."""
        a = sample_environment(law, grid, np.random.SeedSequence(seed, spawn_key=(10_000 + rep,)))
        rhs = np.empty((d,) + grid.shape)
        for axis in range(d):
            rhs[axis] = corrector_rhs(a, axis)
        counts = np.empty(d, np.int64)
        try:
            chis, report = _pcg(a, rhs, tol, out=rhs, iters=counts, energy=True)
        except SolverError as exc:
            return exc.with_traceback(None)  # the frames hold the solve's arrays
        return _mean_energy(a, chis), int(counts.sum()), report.residual

    values = []
    failures = iterations = 0
    max_residual = 0.0
    for result in _replicates(grid, M, replicate):
        if isinstance(result, SolverError):
            failures += 1
            if failures > M // 2:
                raise result
            continue
        energy, its, residual = result
        values.append(energy)
        iterations += its
        max_residual = max(max_residual, residual)
    mean, stderr = _mean_stderr(np.asarray(values))
    return AhomEstimate(float(mean), float(stderr), len(values), failures, iterations,
                        max_residual)
