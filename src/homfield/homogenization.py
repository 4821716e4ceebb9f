"""Correctors and effective-coefficient estimation by the periodic
representative-volume method.

For each axis i the corrector chi_i makes x_i/N + chi_i harmonic for the
heterogeneous operator on the torus. A single environment then yields the
energy of the corrected affine function, whose average over independent
environments estimates the homogenized coefficient.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .environment import Conductances, EnvironmentLaw, sample_environment
from .lattice import LatticeField, TorusGrid
from .solver import DEFAULT_TOL, SolverError, solve_heterogeneous

__all__ = [
    "CorrectorSolution",
    "AhomEstimate",
    "solve_corrector",
    "effective_sample",
    "effective_matrix",
    "flux_sample",
    "estimate_ahom",
    "write_ahom_csv",
]


@dataclass(frozen=True)
class CorrectorSolution:
    direction: int
    chi: LatticeField
    residual: float
    iterations: int


@dataclass(frozen=True)
class AhomEstimate:
    mean: float
    stderr: float
    samples: int
    N: int
    law: EnvironmentLaw
    seed: object = None
    failures: int = 0
    # PCG iterations summed over the corrector solves of the replicates in
    # the estimate, and the worst final relative residual among those solves
    iterations: int = 0
    max_residual: float = 0.0


def corrector_rhs(a: Conductances, axis: int) -> LatticeField:
    """Discrete divergence of the flux a e_axis, mean-zero by telescoping."""
    w = a.weights[axis]
    values = a.grid.N * (w - np.roll(w, 1, axis=axis))
    return LatticeField(a.grid, values)


def solve_corrector(a: Conductances, axis: int, tol: float = DEFAULT_TOL) -> CorrectorSolution:
    """Mean-zero chi with -div a grad chi = div(a e_axis)."""
    if not 0 <= axis < a.grid.d:
        raise ValueError(f"axis {axis} invalid for d={a.grid.d}")
    chi, report = solve_heterogeneous(a, corrector_rhs(a, axis), tol=tol)
    return CorrectorSolution(axis, chi, report.residual, report.iterations)


def _corrected_gradients(a: Conductances, corr: CorrectorSolution) -> list:
    """Per-axis edge values of e_i + grad chi_i (N-scaled differences)."""
    grid = a.grid
    chi = corr.chi.values
    grads = []
    for axis in range(grid.d):
        g = grid.N * (np.roll(chi, -1, axis=axis) - chi)
        if axis == corr.direction:
            g = g + 1.0
        grads.append(g)
    return grads


def effective_sample(a: Conductances, correctors) -> float:
    """Energy average (1/d) sum_i <(e_i + grad chi_i) . a (e_i + grad chi_i)>.

    Equals c exactly for the constant environment a = c, and lies between the
    minimum and maximum edge weight for any environment.
    """
    return float(np.trace(effective_matrix(a, correctors)) / a.grid.d)


def effective_matrix(a: Conductances, correctors) -> np.ndarray:
    """Full d x d effective-coefficient matrix from the corrector energies."""
    grid = a.grid
    correctors = list(correctors)
    if len(correctors) != grid.d:
        raise ValueError(f"need {grid.d} correctors, got {len(correctors)}")
    by_dir = sorted(correctors, key=lambda c: c.direction)
    if [c.direction for c in by_dir] != list(range(grid.d)):
        raise ValueError("correctors must cover each axis exactly once")
    for c in by_dir:
        if c.chi.grid != grid:
            raise ValueError("corrector solved on a different grid")
    grads = [_corrected_gradients(a, c) for c in by_dir]
    mat = np.empty((grid.d, grid.d))
    for i in range(grid.d):
        for j in range(i, grid.d):
            val = 0.0
            for axis in range(grid.d):
                val += np.sum(a.weights[axis] * grads[i][axis] * grads[j][axis])
            mat[i, j] = mat[j, i] = val / grid.n
    return mat


def flux_sample(a: Conductances, corrector: CorrectorSolution) -> float:
    """Average flux <a (e_i + grad chi_i) . e_i>; equals the energy form up to
    the corrector equation's tolerance."""
    i = corrector.direction
    grads = _corrected_gradients(a, corrector)
    return float(np.sum(a.weights[i] * grads[i]) / a.grid.n)


def estimate_ahom(law: EnvironmentLaw, N: int, M: int, seed, d: int = 2,
                  tol: float = DEFAULT_TOL) -> AhomEstimate:
    """Monte-Carlo mean and standard error of the energy estimator over M
    independent environments.

    Replicates draw from counter-based substreams of the master seed. Solver
    failures are tolerated up to M/2; beyond that the estimate aborts.
    """
    if M < 2:
        raise ValueError(f"need at least 2 replicates, got {M}")
    grid = TorusGrid(N, d)
    values = []
    failures = iterations = 0
    max_residual = 0.0
    for rep in range(M):
        rep_seed = np.random.SeedSequence(seed, spawn_key=(10_000 + rep,))
        a = sample_environment(law, grid, rep_seed)
        try:
            correctors = [solve_corrector(a, axis, tol=tol) for axis in range(d)]
        except SolverError:
            failures += 1
            if failures > M // 2:
                raise
            continue
        iterations += sum(c.iterations for c in correctors)
        max_residual = max(max_residual, *(c.residual for c in correctors))
        values.append(effective_sample(a, correctors))
    values = np.asarray(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return AhomEstimate(mean, stderr, len(values), N, law, seed, failures,
                        iterations, max_residual)


def write_ahom_csv(path, estimates, d: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["law", "d", "N", "M", "ahom_mean", "ahom_stderr", "seed"])
        for est in estimates:
            writer.writerow([
                est.law.describe(), d, est.N, est.samples,
                repr(est.mean), repr(est.stderr), est.seed,
            ])
