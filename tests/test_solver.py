import functools
import itertools
import math
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from homfield import solver
from homfield.environment import (
    EnvironmentLaw,
    apply_operator,
    sample_environment,
)
from homfield.experiments import _pseudo_sq_error
from homfield.lattice import (
    LatticeField,
    TorusGrid,
    eigenvalue_discrete,
    fourier_mode,
)
from homfield.solver import (
    SolverError,
    _inv_sqrt_quadrature,
    _spectral_apply,
    _spectral_multiplier,
    inv_sqrt,
    solve,
    solve_homogeneous,
)
from reference import delta_rhs, dense_power, has_zero_mean, inv_sqrt_by_node


def solve_dense(a, rhs):
    """Mean-zero solve via the eigendecomposition of the dense operator
    matrix: the reference that the CG solves are checked against."""
    sol = dense_power(a, rhs, -1.0)
    return sol - sol.mean()


def _random_rhs(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    return v - v.mean()


def test_homogeneous_solve_inverts_operator():
    grid = TorusGrid(16, 2)
    rhs = _random_rhs(grid)
    u = solve_homogeneous(grid, LatticeField(grid, rhs)).values
    assert has_zero_mean(u)
    a = sample_environment(EnvironmentLaw.constant(1.0), grid, 0)
    back = apply_operator(a, u)
    assert np.allclose(back, rhs, atol=1e-9 * np.abs(rhs).max())


def test_cg_matches_dense_oracle():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    rhs = _random_rhs(grid, 1)
    u_cg, report = solver._pcg(a, rhs[None], 1e-12)
    u_dense = solve_dense(a, rhs)
    assert np.allclose(u_cg[0], u_dense, atol=1e-9)
    assert report.residual <= 1e-12


def test_one_dimensional_closed_form():
    # in d=1 the flux a u' is constant plus the integrated rhs, so the
    # solution is an explicit double cumulative sum
    N = 32
    grid = TorusGrid(N, 1)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 7)
    rhs = _random_rhs(grid, 2)
    u = solve(grid, a, rhs, tol=1e-12)
    w = a.weights[0]
    # flux on edge (x, x+1): N^2 w_x (u_x - u_{x+1}) ; difference of fluxes = rhs
    flux = N**2 * w * (u - np.roll(u, -1))
    recovered = flux - np.roll(flux, 1)
    assert np.allclose(recovered, rhs, atol=1e-7)
    # direct construction: flux recurrence F_x - F_{x-1} = rhs_x fixes the
    # fluxes up to F_0, which the periodicity of u determines; u then follows
    # by one more cumulative sum
    s = np.cumsum(rhs) - rhs[0]  # F_x - F_0
    f0 = -np.sum(s / w) / np.sum(1.0 / w)
    d = (f0 + s) / (N**2 * w)  # u_x - u_{x+1}
    u_ref = np.concatenate([[0.0], -np.cumsum(d)[:-1]])
    u_ref -= u_ref.mean()
    assert np.allclose(u, u_ref, atol=1e-7)


@pytest.mark.parametrize("N", [2, 3, 7, 8, 15])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectral_apply_real_matches_complex_transform(d, N):
    # the half-spectrum path must equal the full complex transform, odd N
    # and the Nyquist layer of even N included. The full spectrum is built
    # here, on numpy's FFT frequencies.
    grid = TorusGrid(N, d)
    rng = np.random.default_rng(N + d)
    v = rng.standard_normal(grid.shape)
    lam = eigenvalue_discrete(N, np.ix_(*[np.fft.fftfreq(N, 1 / N)] * d))
    for exponent, shift in ((-1.0, 0.0), (-0.5, 0.0), (-1.0, 3.5)):
        mult = _spectral_multiplier(grid, exponent, shift)
        assert mult.shape == grid.shape[:-1] + (N // 2 + 1,) and mult.flags.c_contiguous
        full = np.zeros(grid.shape)
        full[lam > 0] = (lam[lam > 0] + shift) ** exponent
        out = _spectral_apply(v, mult)
        ref = np.fft.ifftn(np.fft.fftn(v) * full).real
        assert out.dtype == np.float64
        assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_buffered_spectral_apply_equals_numpy_nd_transforms(d, N):
    # bit for bit, which pins the axis order of the in-place inverse
    # transform: numpy's irfftn runs its leading axes first to last
    grid = TorusGrid(N, d)
    mult = _spectral_multiplier(grid, -1.0, 3.5)
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(N + d)
    for lead in ((), (3,), (2, 2)):
        v = rng.standard_normal(lead + grid.shape)
        ref = np.fft.irfftn(np.fft.rfftn(v, axes=axes) * mult, s=grid.shape, axes=axes)
        spec = np.empty(v.shape[:-1] + (N // 2 + 1,), complex)
        out = np.full_like(v, np.nan)
        assert _spectral_apply(v, mult, spec, out) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(_spectral_apply(v, mult), ref)


@pytest.mark.parametrize("entry", ["solve", "solve-env", "inv_sqrt", "inv_sqrt-env", "_pcg"])
def test_complex_stacks_are_rejected_before_any_work(monkeypatch, entry):
    # a caller splits a complex field into its real and imaginary rows; the
    # solver neither transforms nor iterates a complex stack
    def no_work(*args, **kwargs):
        raise AssertionError("the solver worked on a complex stack")

    monkeypatch.setattr(solver, "_spectral_apply", no_work)
    monkeypatch.setattr(solver, "_pcg_chunk", no_work)
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 2)
    stack = np.stack([_random_rhs(grid, 8), fourier_mode(grid, (1, 1))])
    with pytest.raises(ValueError, match="real fields"):
        if entry == "_pcg":
            solver._pcg(a, stack, 1e-8)
        else:
            name, _, env = entry.partition("-")
            getattr(solver, name)(grid, a if env else None, stack)


def test_real_solve_returns_float64():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 2)
    assert solve(grid, a, _random_rhs(grid, 8)).dtype == np.float64


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_pcg_iterations_do_not_grow_with_size(N):
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 9)
    _, report = solver._pcg(a, _random_rhs(grid, 5)[None], solver.DEFAULT_TOL)
    assert report.iterations <= 20


def test_mean_zero_enforced():
    # a single field, and a stack of three whose middle field alone is bad
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.constant(1.0), grid, 0)
    nan = _random_rhs(grid)
    nan[0, 0] = np.nan
    for bad, reason in ((np.ones(grid.shape), "mean-zero"), (nan, "must be finite")):
        stack = np.stack([_random_rhs(grid, 1), bad, _random_rhs(grid, 2)])
        for values in (bad, stack):
            for env in (a, None):
                with pytest.raises(ValueError, match=reason):
                    solve(grid, env, values)
        with pytest.raises(ValueError, match=reason):
            solve_homogeneous(grid, LatticeField(grid, bad))


@pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, float("nan")])
def test_solve_rejects_bad_tolerance(tol):
    grid = TorusGrid(8, 2)
    with pytest.raises(ValueError, match="tolerance must lie in"):
        solve(grid, sample_environment(EnvironmentLaw.constant(1.0), grid, 0),
              _random_rhs(grid), tol=tol)
    with pytest.raises(ValueError, match="tolerance must lie in"):
        solver._pcg(sample_environment(EnvironmentLaw.constant(1.0), grid, 0),
                    _random_rhs(grid)[None], tol)


def test_solver_error_on_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 2)
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    rhs = _random_rhs(grid, 3)
    with pytest.raises(SolverError) as err:
        solve(grid, a, rhs, tol=1e-14)
    assert err.value.report.iterations == 2


def _pcg_stack(grid, parts=False):
    # two random fields, not mean-zero, around a smooth mode; with parts,
    # the real and imaginary rows of those three fields made complex
    rng = np.random.default_rng(12)
    noise = rng.standard_normal((2,) + grid.shape) + 0.25
    mode = fourier_mode(grid, (1, 0))
    if not parts:
        return np.stack([noise[0], mode.real, noise[1]])
    im = rng.standard_normal(noise.shape)
    return np.stack([noise[0], im[0], mode.real, mode.imag, noise[1], im[1]])


@pytest.mark.parametrize("shift", [0.0, 37.5])
@pytest.mark.parametrize("parts", [False, True], ids=["fields", "parts"])
def test_pcg_stack_matches_field_by_field(parts, shift):
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid, parts)
    x, report = solver._pcg(a, stack, 1e-10, shift)
    assert x.dtype == np.float64
    singles = [solver._pcg(a, field[None], 1e-10, shift) for field in stack]
    for image, (single, rep) in zip(x, singles):
        assert _rel_err(image, single[0]) < 1e-13
    assert report.iterations == max(rep.iterations for _, rep in singles)
    assert report.residual == pytest.approx(max(rep.residual for _, rep in singles),
                                            rel=1e-6)


def test_pcg_field_that_converges_early_keeps_its_iterate():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    rng = np.random.default_rng(0)
    early = rng.standard_normal(grid.shape)
    late = fourier_mode(grid, (1, 0)).real
    own, own_report = solver._pcg(a, early[None], 1e-10)
    x, report = solver._pcg(a, np.stack([early, late]), 1e-10)
    # premise: the stack iterates past the point where the first field stops
    assert own_report.iterations < report.iterations
    # one more step would move it by about tol, far above this bound
    assert _rel_err(x[0], own[0]) < 1e-14


def test_pcg_zero_field_in_a_stack_returns_zeros():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid)
    stack[1] = 0.0
    x, report = solver._pcg(a, stack, 1e-10, 2.0)
    assert np.array_equal(x[1], np.zeros(grid.shape))
    single, _ = solver._pcg(a, stack[[0]], 1e-10, 2.0)
    assert _rel_err(x[0], single[0]) < 1e-13
    x, report = solver._pcg(a, np.zeros((2,) + grid.shape), 1e-10)
    assert not np.any(x) and report.iterations == 0 and report.residual == 0.0


@pytest.mark.parametrize("parts", [False, True], ids=["fields", "parts"])
def test_pcg_per_field_shifts_match_single_shift_solves(parts):
    # the fields of _pcg_stack and a zero field, each at a small and at a
    # large shift, in one stack
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    fields = np.concatenate([_pcg_stack(grid, parts), np.zeros((1,) + grid.shape)])
    stack = np.concatenate([fields, fields])
    shifts = np.repeat([0.5, 4000.0], len(fields))
    iters = np.empty(len(stack), np.int64)
    x, report = solver._pcg(a, stack, 1e-10, shifts, iters=iters)
    singles = [solver._pcg(a, field[None], 1e-10, s) for field, s in zip(stack, shifts)]
    zero = len(fields) - 1
    # premise: the fields leave the loop at different steps
    assert len(set(np.delete(iters, [zero, zero + len(fields)]))) > 2
    for k, (image, (single, _)) in enumerate(zip(x, singles)):
        if k % len(fields) == zero:
            assert not np.any(image) and iters[k] == 0
        else:
            assert _rel_err(image, single[0]) < 1e-13
    assert report.iterations == max(rep.iterations for _, rep in singles)
    assert report.residual == pytest.approx(max(rep.residual for _, rep in singles), rel=1e-6)
    # one shift repeated for every field is the scalar shift, bit for bit
    same, _ = solver._pcg(a, fields, 1e-10, np.full(len(fields), 0.5))
    assert np.array_equal(same, solver._pcg(a, fields, 1e-10, 0.5)[0])


def test_pcg_rejects_shifts_not_one_per_field():
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid)
    for shifts in ([1.0, 2.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="shifts of shape"):
            solver._pcg(a, stack, 1e-8, shifts)


def test_stack_error_on_iteration_cap_reports_worst_residual(monkeypatch):
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 2)
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = _pcg_stack(grid)
    residuals = []
    for field in stack:
        with pytest.raises(SolverError) as err:
            inv_sqrt(grid, a, field, tol=1e-14)
        residuals.append(err.value.report.residual)
    with pytest.raises(SolverError) as err:
        inv_sqrt(grid, a, stack, tol=1e-14)
    assert err.value.report.iterations == 2
    assert err.value.report.residual == pytest.approx(max(residuals), rel=1e-10)
    assert len(set(residuals)) == 3


def _spy_chunks(monkeypatch):
    sizes = []
    chunk = solver._pcg_chunk

    def spy(a, b, *args):
        sizes.append(len(b))
        return chunk(a, b, *args)

    monkeypatch.setattr(solver, "_pcg_chunk", spy)
    return sizes


def test_pcg_splits_a_stack_into_chunks_of_256_kib(monkeypatch):
    # 12 fields of 64^2 sites, 32 KiB each: chunks of 8 and 4
    grid = TorusGrid(64, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = np.random.default_rng(3).standard_normal((12,) + grid.shape)
    mode = fourier_mode(grid, (1, 2))     # a smooth mode converges sooner
    stack[8], stack[9] = mode.real, mode.imag
    singles = [solver._pcg(a, field[None], 1e-10) for field in stack]
    sizes = _spy_chunks(monkeypatch)
    x, report = solver._pcg(a, stack, 1e-10)
    assert sorted(sizes) == [4, 8]        # chunks on several CPUs run in any order
    for image, (single, _) in zip(x, singles):
        assert _rel_err(image, single[0]) < 1e-13
    reports = [rep for _, rep in singles]
    assert len({rep.iterations for rep in reports}) > 1
    assert report.iterations == max(rep.iterations for rep in reports)
    assert report.residual == pytest.approx(max(rep.residual for rep in reports), rel=1e-6)


def test_solver_error_in_a_later_chunk_carries_its_report(monkeypatch):
    # the first chunk holds zero fields and returns at once; the second
    # hits the iteration cap
    grid = TorusGrid(64, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = np.zeros((12,) + grid.shape)
    mode = fourier_mode(grid, (1, 0))
    stack[8::2], stack[9::2] = mode.real, mode.imag
    sizes = _spy_chunks(monkeypatch)
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 2)
    with pytest.raises(SolverError) as err:
        solver._pcg(a, stack, 1e-14)
    assert sorted(sizes) == [4, 8]
    assert err.value.report.iterations == 2
    assert err.value.report.residual > 1e-14


def _mode_rows(grid, k):
    """The cosine and sine rows of the Fourier mode k."""
    mode = fourier_mode(grid, k)
    return np.stack([mode.real, mode.imag])


def _pcg_on_cpus(monkeypatch, cpus, *args, **kwargs):
    """_pcg as run by a process that may use ``cpus`` CPUs; returns the
    solution, the report and the per-field iteration counts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    iters = np.full(len(args[1]), -1)
    x, report = solver._pcg(*args, iters=iters, **kwargs)
    return x, report, iters


@pytest.mark.parametrize("N, modes", [(256, 0), (64, 12)], ids=["noise-N256", "modes-N64"])
def test_chunks_on_every_cpu_equal_one_cpu(monkeypatch, N, modes):
    # N=256: 2 noise fields of 512 KiB, one chunk each; N=64: the cosine and
    # sine rows of 12 modes, 24 fields of 32 KiB in 3 chunks of 8
    all_cpus = solver._cpus()
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 7)
    if modes:
        ks = [(k1, k2) for k1 in range(1, 4) for k2 in range(4)][:modes]
        stack = np.concatenate([_mode_rows(grid, k) for k in ks])
    else:
        stack = np.random.default_rng(4).standard_normal((2,) + grid.shape)
    x1, rep1, it1 = _pcg_on_cpus(monkeypatch, 1, a, stack, 1e-8, shift=0.5)
    for cpus in {all_cpus, 3}:
        x, rep, it = _pcg_on_cpus(monkeypatch, cpus, a, stack, 1e-8, shift=0.5)
        assert np.array_equal(x, x1)
        assert rep == rep1
        assert np.array_equal(it, it1)
    assert it1.min() > 0 and it1.max() == rep1.iterations


def test_threaded_chunks_each_run_once(monkeypatch):
    # 16 real fields of 128 KiB in 8 chunks of 2, on more threads than CPUs,
    # switching threads as often as the interpreter allows
    grid = TorusGrid(128, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 8)
    stack = np.random.default_rng(5).standard_normal((16,) + grid.shape)
    x1, rep1, it1 = _pcg_on_cpus(monkeypatch, 1, a, stack, 1e-6)
    sizes = _spy_chunks(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        x, rep, it = _pcg_on_cpus(monkeypatch, 8, a, stack, 1e-6)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [2] * 8
    assert np.array_equal(x, x1)
    assert rep == rep1
    assert np.array_equal(it, it1)


def test_threaded_solver_error_is_the_first_failing_chunk(monkeypatch):
    # the cosine and sine rows of 6 modes, 12 fields of 32 KiB in chunks of
    # 8 and 4; both chunks hit the cap, and the error carries the first
    # chunk's report on any CPU count. The capped residual grows along the
    # stack (mode (k, 1) leaves a larger one for smaller k), so the first 6,
    # 8 and 10 rows each have their own report, and a cut of 6 + 6 or
    # 10 + 2 raises another one.
    grid = TorusGrid(64, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    stack = np.concatenate([_mode_rows(grid, (k, 1)) for k in range(6, 0, -1)])
    monkeypatch.setattr(solver, "default_max_iterations", lambda grid: 3)
    reports = []
    for cpus in (1, 2, 6):
        with pytest.raises(SolverError) as err:
            _pcg_on_cpus(monkeypatch, cpus, a, stack, 1e-14)
        reports.append(err.value.report)
    head_reports = []
    monkeypatch.setattr(solver, "_CHUNK_BYTES", stack.nbytes)   # each head as one chunk
    for rows in (stack[:6], stack[:8], stack[:10]):
        with pytest.raises(SolverError) as err:
            solver._pcg(a, rows, 1e-14)
        head_reports.append(err.value.report)
    assert len({report.residual for report in head_reports}) == 3
    assert reports == [head_reports[1]] * 3


def test_parallel_queue_nested_in_a_job_stays_on_its_thread(monkeypatch):
    # 3 CPUs: the outer queue starts 2 threads, and each job's own queue of
    # 4 runs on the job's thread; the flag that marks a job's thread is
    # cleared again, so the next queue on the calling thread starts threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counted)

    def job(j):
        return j, threading.get_ident(), solver._parallel(4, lambda k: threading.get_ident())

    results = solver._parallel(6, job)
    assert [j for j, _, _ in results] == list(range(6))
    assert all(inner == [ident] * 4 for _, ident, inner in results)
    assert len(made) == 2
    assert solver._parallel(3, lambda j: j * j) == [0, 1, 4]
    assert len(made) == 4


@pytest.mark.parametrize("cpus", [1, 4])
def test_parallel_queue_raises_the_first_failure_in_job_order(monkeypatch, cpus):
    # on 4 CPUs job 3 fails first in time while jobs 0-2 still run; job 2
    # then fails too, and no job goes out after the failures
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []

    def job(j):
        started.append(j)
        if j < 3:
            time.sleep(0.1)
        if j in (2, 3):
            raise ValueError(f"job {j}")
        return j

    with pytest.raises(ValueError, match="job 2"):
        solver._parallel(40, job)
    assert sorted(started) == {1: [0, 1, 2], 4: [0, 1, 2, 3]}[cpus]


@pytest.mark.parametrize("tol", [1e-8, 1e-13])
@pytest.mark.parametrize("N", [7, 16, 33, 128])
def test_solutions_are_mean_zero_without_projections(N, tol):
    # CG centres its solution once on return; its iterates carry no projection
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, N)
    rng = np.random.default_rng(N)
    real = rng.standard_normal(grid.shape) + 0.5
    for values in (real, np.stack([real, rng.standard_normal(grid.shape)])):
        u = solve(grid, a, values - values.mean(axis=(-2, -1), keepdims=True), tol=tol)
        image = inv_sqrt(grid, a, values, tol=tol)
        for field in (u, image):
            for row in field.reshape((-1,) + grid.shape):
                assert has_zero_mean(row, 1e-12)


def test_energy_history_decreases():
    # CG runs the same iterates whatever its tolerance, so looser tolerances
    # stop it after fewer steps: 0.5 x.Ax - b.x over those stopping points
    # is the energy along one run
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 6)
    rhs = _random_rhs(grid, 4)
    energy = {0: 0.0}
    for k in range(1, 41):
        x, report = solver._pcg(a, rhs[None], 10 ** (-0.25 * k))
        x = x[0]
        ax = apply_operator(a, x)
        energy[report.iterations] = float(0.5 * np.sum(x * ax) - np.sum(rhs * x))
    n = max(energy)
    assert sorted(energy) == list(range(n + 1))
    energy = np.asarray([energy[it] for it in range(n + 1)])
    assert len(energy) > 2
    assert np.all(np.diff(energy) <= 1e-12)


def test_green_column_matches_spectral_sum():
    # homogeneous Green's function as an explicit eigen-expansion
    grid = TorusGrid(8, 2)
    y = (1, -2)
    g = solve(grid, None, delta_rhs(grid, y))
    ref = np.zeros(grid.shape, dtype=complex)
    for k0 in grid.coordinates_1d():
        for k1 in grid.coordinates_1d():
            if (k0, k1) == (0, 0):
                continue
            lam = eigenvalue_discrete(grid.N, (k0, k1))
            mode = fourier_mode(grid, (k0, k1))
            ref += mode * np.conj(mode[grid.index_of(y)]) / lam
    ref /= grid.n
    assert np.allclose(g, ref.real, atol=1e-12)


def test_green_symmetry_all_pairs():
    grid = TorusGrid(6, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 8)
    coords = [(x, y) for x in grid.coordinates_1d() for y in grid.coordinates_1d()]
    deltas = np.stack([delta_rhs(grid, y) for y in coords])
    cols = dict(zip(coords, solve(grid, a, deltas, tol=1e-12)))
    for x in coords:
        for y in coords:
            gxy = cols[y][grid.index_of(x)]
            gyx = cols[x][grid.index_of(y)]
            assert gxy == pytest.approx(gyx, abs=1e-8)


def test_pseudo_eigenfunction_constant_environment():
    # the package's stacked in-place pass: with a = ahom every u_k is phi_k
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.constant(1.5), grid, 0)
    errs = _pseudo_sq_error(a, 1.5, [(1, 0), (2, -3)], 1e-12)
    assert len(errs) == 2
    for err in errs:
        assert np.sqrt(err) < 1e-8


def test_inv_sqrt_node_count_reaches_tol():
    # The derived node count keeps the scalar quadrature error within tol
    # across the whole spectral interval [4 N^2 sin^2(pi/N), 4 d Lambda N^2].
    for d in (1, 2, 3):
        for lam_max in (1.0, 2.0, 10.0):
            for N in (2, 3, 5, 8, 16, 32, 64, 128, 256, 512, 1024):
                lo = 4.0 * N**2 * math.sin(math.pi / N) ** 2
                hi = 4.0 * d * lam_max * N**2
                lam = np.geomspace(lo, hi, 2000)
                for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                    shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
                    approx = (weights[:, None] / (shifts[:, None] + lam)).sum(axis=0)
                    assert np.max(np.abs(approx * np.sqrt(lam) - 1.0)) <= tol


def test_inv_sqrt_nodes_match_scipy_elliptic_functions():
    # The AGM values of K(m) and sn, cn, dn(u | m) against scipy's cephes
    # ellipk/ellipj, over the grid of the node-count test; N=2, d=1 with
    # Lambda=1 is the degenerate interval lo == hi (m = 0).
    special = pytest.importorskip("scipy.special")
    degenerate = 0
    for d, lam_max, N, tol in itertools.product(
            (1, 2, 3), (1.0, 2.0, 10.0), (2, 3, 5, 8, 16, 32, 64, 128, 256, 512, 1024),
            (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)):
        lo = 4.0 * N**2 * math.sin(math.pi / N) ** 2
        hi = 4.0 * d * lam_max * N**2
        degenerate += lo == hi
        shifts, weights = _inv_sqrt_quadrature(lo, hi, tol)
        n = len(shifts)
        big_k = special.ellipk(1.0 - lo / hi)
        sn, cn, dn, _ = special.ellipj((np.arange(n) + 0.5) * big_k / n, 1.0 - lo / hi)
        np.testing.assert_allclose(shifts, lo * (sn / cn) ** 2, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            weights, 2.0 * math.sqrt(lo) * big_k / (math.pi * n) * dn / cn**2,
            rtol=1e-10, atol=0)
    assert degenerate == 5


def _inv_sqrt_inputs(grid):
    # two stacks of two fields, none of them mean-zero: the second holds the
    # real and imaginary rows of a complex field
    rng = np.random.default_rng(11)
    real = rng.standard_normal((2,) + grid.shape) + 0.5
    parts = rng.standard_normal((2,) + grid.shape)
    return real, parts


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_inv_sqrt_fft_quadrature_and_eigh_agree_on_laplacian():
    # the exact FFT path without an environment, against the quadrature and
    # the eigh oracle on unit conductances
    grid = TorusGrid(8, 2)
    unit = sample_environment(EnvironmentLaw.constant(1.0), grid, 0)
    for values in _inv_sqrt_inputs(grid):
        ref = inv_sqrt(grid, None, values)
        assert ref.shape == values.shape
        assert np.max(np.abs(ref.mean(axis=(-2, -1)))) < 1e-15
        assert _rel_err(inv_sqrt(grid, unit, values), ref) < 1e-7
        assert _rel_err(dense_power(unit, values, -0.5), ref) < 1e-7
        # applied twice it is the mean-zero inverse of -Lap_N
        twice = inv_sqrt(grid, None, ref)
        solved = solve(grid, None, values - values.mean(axis=(-2, -1), keepdims=True))
        for out, field in zip(twice.reshape((-1,) + grid.shape),
                              solved.reshape((-1,) + grid.shape)):
            assert _rel_err(out, field) < 1e-12


@pytest.mark.parametrize("d, N", [(1, 16), (2, 8), (3, 8)])
def test_inv_sqrt_quadrature_matches_eigh_on_environment(d, N):
    grid = TorusGrid(N, d)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    for values in _inv_sqrt_inputs(grid):
        dense = dense_power(a, values, -0.5)
        assert _rel_err(inv_sqrt(grid, a, values), dense) < 1e-7


@pytest.mark.parametrize("method", ["spectral", "dense", "quadrature"])
def test_inv_sqrt_stack_matches_field_by_field(method):
    # "dense" is the eigh oracle that the tests apply to stacks of modes;
    # without and with an environment, solve runs on the centred stack too
    grid = TorusGrid(8, 2)
    a = (None if method == "spectral"
         else sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5))
    apply = (functools.partial(dense_power, a, exponent=-0.5) if method == "dense"
             else functools.partial(inv_sqrt, grid, a))
    stack = np.concatenate(_inv_sqrt_inputs(grid))
    cases = [(apply, stack)]
    if method != "dense":
        cases.append((functools.partial(solve, grid, a),
                      stack - stack.mean(axis=(1, 2), keepdims=True)))
    for apply, fields in cases:
        out = apply(fields)
        for field, image in zip(fields, out):
            assert np.allclose(image, apply(field), rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [8, 64])
def test_inv_sqrt_matches_node_by_node_loop(N):
    # at N = 64 each node-major stack spans several chunks
    grid = TorusGrid(N, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    for values in _inv_sqrt_inputs(grid):
        assert _rel_err(inv_sqrt(grid, a, values), inv_sqrt_by_node(grid, a, values)) < 1e-13


def test_inv_sqrt_rejects_an_environment_on_another_grid():
    # the environment picks the method, so it must live on the same grid
    grid = TorusGrid(8, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 5)
    values = _inv_sqrt_inputs(grid)[0]
    with pytest.raises(ValueError, match="grid mismatch"):
        inv_sqrt(TorusGrid(4, 2), a, values[:, :4, :4])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("law", [None, EnvironmentLaw.bernoulli(0.5, 1, 2)])
@pytest.mark.parametrize("apply", [solve, inv_sqrt])
def test_non_finite_fields_fail_before_any_work(apply, law, value):
    # a SolverError here would mean that CG ran to its iteration cap
    grid = TorusGrid(32, 2)
    a = None if law is None else sample_environment(law, grid, 5)
    values = np.stack([_random_rhs(grid, seed) for seed in range(3)])
    values[1, 4, 7] = value
    with pytest.raises(ValueError, match="must be finite"):
        apply(grid, a, values)


@pytest.mark.parametrize("law", [None, EnvironmentLaw.bernoulli(0.5, 1, 2)])
@pytest.mark.parametrize("apply", [solve, inv_sqrt])
def test_fields_must_end_in_the_grid_shape(apply, law):
    grid = TorusGrid(8, 2)
    a = None if law is None else sample_environment(law, grid, 5)
    rng = np.random.default_rng(0)
    for shape in [(2, 4, 16), (64,)]:
        values = rng.standard_normal(shape)
        values -= values.mean()
        message = f"fields of shape {shape} do not end in grid (8, 8)"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply(grid, a, values)
