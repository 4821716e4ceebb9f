"""Effective-coefficient estimation by the periodic representative-volume
method.

For each axis i the corrector chi_i makes x_i/N + chi_i harmonic for the
heterogeneous operator on the torus. A single environment then yields the
energy of the corrected affine function, whose average over independent
environments estimates the homogenized coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Conductances, EnvironmentLaw, sample_environment
from .lattice import TorusGrid
from .solver import DEFAULT_TOL, SolverError, _pcg

__all__ = ["AhomEstimate", "estimate_ahom"]


@dataclass(frozen=True)
class AhomEstimate:
    mean: float
    stderr: float
    samples: int
    failures: int = 0
    # PCG iterations summed over the corrector solves of the replicates in
    # the estimate, and the worst final relative residual among those solves
    iterations: int = 0
    max_residual: float = 0.0


def corrector_rhs(a: Conductances, axis: int) -> np.ndarray:
    """Site values of the discrete divergence of the flux a e_axis,
    mean-zero by telescoping: the right-hand side of the corrector chi_axis."""
    w = a.weights[axis]
    return a.grid.N * (w - np.roll(w, 1, axis=axis))


def _mean_energy(a: Conductances, chis) -> float:
    """The energy estimator of one environment,
    (1/d) sum_i <(e_i + grad chi_i) . a (e_i + grad chi_i)>, for the
    corrector values ``chis`` of the axes i = 0 .. d-1, in that order."""
    grid = a.grid
    diag = np.empty(grid.d)
    for i, chi in enumerate(chis):
        val = 0.0
        for axis in range(grid.d):
            g = grid.N * (np.roll(chi, -1, axis=axis) - chi)
            if axis == i:
                g = g + 1.0
            val += np.sum(a.weights[axis] * g * g)
        diag[i] = val / grid.n
    return float(np.sum(diag) / grid.d)


def estimate_ahom(law: EnvironmentLaw, N: int, M: int, seed, d: int = 2,
                  tol: float = DEFAULT_TOL) -> AhomEstimate:
    """Monte-Carlo mean and standard error of the energy estimator over M
    independent environments.

    The d correctors of an environment are solved as one PCG stack, each
    with its own stopping test, so each equals its own solve of
    :func:`corrector_rhs`. Replicates draw from counter-based substreams of
    the master seed. Solver failures are tolerated up to M/2; beyond that
    the estimate aborts.
    """
    if M < 2:
        raise ValueError(f"need at least 2 replicates, got {M}")
    grid = TorusGrid(N, d)
    values = []
    failures = iterations = 0
    max_residual = 0.0
    counts = np.empty(d, np.int64)
    for rep in range(M):
        rep_seed = np.random.SeedSequence(seed, spawn_key=(10_000 + rep,))
        a = sample_environment(law, grid, rep_seed)
        rhs = np.stack([corrector_rhs(a, axis) for axis in range(d)])
        try:
            chis, report = _pcg(a, rhs, tol, out=rhs, iters=counts)
        except SolverError:
            failures += 1
            if failures > M // 2:
                raise
            continue
        iterations += int(counts.sum())
        max_residual = max(max_residual, report.residual)
        values.append(_mean_energy(a, chis))
    values = np.asarray(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return AhomEstimate(mean, stderr, len(values), failures, iterations, max_residual)
