import csv
import dataclasses
import math
import os
import threading
import time

import numpy as np
import pytest

from homfield import experiments, homogenization, solver
from homfield.cli import EXIT_OK, EXIT_SOLVER, main
from homfield.environment import EnvironmentLaw, sample_environment
from homfield.experiments import (
    ExperimentConfig,
    bilap_error_rate,
    gff_covariance_limit,
    pseudo_eigen_rate,
)
from homfield.homogenization import (
    _mean_energy,
    corrector_rhs,
    estimate_ahom,
)
from homfield.lattice import TorusGrid
from homfield.solver import SolverError
from reference import (
    axis_energies,
    has_zero_mean,
    replicate_environments,
    residual_energies,
    solve_corrector,
)


def test_corrector_rhs_mean_zero():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.bernoulli(0.5, 1, 2), grid, 0)
    for axis in range(2):
        assert has_zero_mean(corrector_rhs(a, axis))


def test_constant_environment_corrector_vanishes():
    grid = TorusGrid(16, 2)
    a = sample_environment(EnvironmentLaw.constant(1.5), grid, 0)
    chis = [solve_corrector(a, axis)[0] for axis in range(2)]
    for chi in chis:
        assert np.max(np.abs(chi)) < 1e-12
    assert axis_energies(a, chis) == pytest.approx([1.5, 1.5], abs=1e-10)
    assert _mean_energy(a, chis) == pytest.approx(1.5, abs=1e-10)


def test_effective_sample_between_harmonic_and_arithmetic_mean():
    grid = TorusGrid(32, 2)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 1)
    val = _mean_energy(a, [solve_corrector(a, axis)[0] for axis in range(2)])
    harmonic = 1.0 / np.mean(1.0 / a.weights)
    arithmetic = np.mean(a.weights)
    assert harmonic - 1e-9 <= val <= arithmetic + 1e-9


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-8])
@pytest.mark.parametrize("N, d", [(256, 1), (32, 2), (12, 3)])
@pytest.mark.parametrize("law", [EnvironmentLaw.bernoulli(0.5, 1, 2),
                                 EnvironmentLaw.bernoulli(0.1, 1, 100),
                                 EnvironmentLaw.uniform(1, 10)], ids=EnvironmentLaw.describe)
def test_flux_equals_energy(law, N, d, tol):
    # Galerkin orthogonality: CG from chi = 0 leaves <chi, b - A chi> = 0 at
    # every iterate, so _mean_energy's flux average equals the energy of the
    # correctors however early the energy test stops them
    for a in replicate_environments(law, N, 2, seed=9, d=d):
        rhs = np.stack([corrector_rhs(a, axis) for axis in range(d)])
        chis = solver._pcg(a, rhs, tol, energy=True)[0]
        assert _mean_energy(a, chis) == pytest.approx(np.mean(axis_energies(a, chis)),
                                                      rel=1e-13, abs=0)


def test_one_dimensional_effective_is_harmonic_mean():
    # single d=1 environment: the effective coefficient is exactly the
    # harmonic mean of the edge weights (constant flux through the cycle)
    grid = TorusGrid(64, 1)
    a = sample_environment(EnvironmentLaw.uniform(1, 2), grid, 3)
    val = _mean_energy(a, [solve_corrector(a, 0, tol=1e-12)[0]])
    harmonic = 1.0 / np.mean(1.0 / a.weights[0])
    assert val == pytest.approx(harmonic, rel=1e-8)


def test_estimate_ahom_d3_lies_inside_the_wiener_bounds():
    # Bernoulli(0.5, 1, 2) in d = 3: the harmonic mean 4/3 and the arithmetic
    # mean 3/2 bound ahom; the effective-medium value is 1.4430
    est = estimate_ahom(EnvironmentLaw.bernoulli(0.5, 1, 2), 16, 8, seed=0, d=3)
    assert 4 / 3 < est.mean < 3 / 2


def test_estimate_ahom_deterministic():
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    e1 = estimate_ahom(law, 16, 4, seed=10, d=2)
    e2 = estimate_ahom(law, 16, 4, seed=10, d=2)
    assert e1.mean == e2.mean
    assert e1.stderr == e2.stderr
    e3 = estimate_ahom(law, 16, 4, seed=11, d=2)
    assert e1.mean != e3.mean


def test_estimate_ahom_reports_solve_telemetry():
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    est = estimate_ahom(law, 8, 3, seed=2, tol=1e-9)
    iterations, worst = 0, 0.0
    for rep in range(3):
        a = sample_environment(law, TorusGrid(8, 2),
                               np.random.SeedSequence(2, spawn_key=(10_000 + rep,)))
        for axis in range(2):
            _, report = solve_corrector(a, axis, tol=1e-9)
            iterations += report.iterations
            worst = max(worst, report.residual)
    assert est.iterations == iterations > 0
    assert est.max_residual == worst
    exact = np.mean([np.mean(residual_energies(a))
                     for a in replicate_environments(law, 8, 3, seed=2)])
    assert exact <= est.mean <= exact * (1 + 1e-9)


@pytest.mark.parametrize("N, d", [(64, 2), (192, 2), (12, 3)])
def test_estimate_ahom_equals_its_corrector_solves(N, d):
    # N=64: both correctors in one PCG chunk; N=192: one chunk each
    law = EnvironmentLaw.uniform(1, 3)
    est = estimate_ahom(law, N, 2, seed=4, d=d)
    values, iterations, worst = [], 0, 0.0
    for rep in range(2):
        a = sample_environment(law, TorusGrid(N, d),
                               np.random.SeedSequence(4, spawn_key=(10_000 + rep,)))
        chis, reports = zip(*(solve_corrector(a, axis) for axis in range(d)))
        values.append(_mean_energy(a, chis))
        iterations += sum(r.iterations for r in reports)
        worst = max(worst, *(r.residual for r in reports))
    assert est.mean == float(np.mean(values))
    assert est.stderr == float(np.std(values, ddof=1) / np.sqrt(2))
    assert (est.iterations, est.max_residual) == (iterations, worst)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("N, d", [(64, 2), (1024, 1), (12, 3)])
@pytest.mark.parametrize("law", [EnvironmentLaw.uniform(1, 3), EnvironmentLaw.bernoulli(0.5, 1, 2),
                                 EnvironmentLaw.bernoulli(0.1, 1, 100)],
                         ids=EnvironmentLaw.describe)
def test_energy_stop_certifies_each_corrector_energy(law, N, d, tol):
    # stopped at <r, z> / N^d <= tol, each corrector's energy exceeds that
    # of the solution (a residual solve at 1e-13) by at most tol E*
    for a in replicate_environments(law, N, 2, seed=7, d=d):
        rhs = np.stack([corrector_rhs(a, axis) for axis in range(d)])
        energies = axis_energies(a, solver._pcg(a, rhs, tol, energy=True)[0])
        for e_h, e_star in zip(energies, residual_energies(a)):
            assert 0 <= e_h - e_star <= tol * e_star


def test_energy_stop_takes_fewer_iterations_than_the_residual_stop():
    a = replicate_environments(EnvironmentLaw.bernoulli(0.5, 1, 2), 64, 1, seed=7)[0]
    rhs = np.stack([corrector_rhs(a, axis) for axis in range(2)])
    energy_iters, residual_iters = np.empty(2, np.int64), np.empty(2, np.int64)
    solver._pcg(a, rhs, 1e-8, iters=energy_iters, energy=True)
    solver._pcg(a, rhs, 1e-8, iters=residual_iters)
    assert np.all(energy_iters < residual_iters)


def test_estimate_ahom_validates_m():
    with pytest.raises(ValueError):
        estimate_ahom(EnvironmentLaw.uniform(1, 2), 8, 1, seed=0)
    with pytest.raises(ValueError, match="ahom needs an environment law"):
        estimate_ahom(None, 16, 4, 0)


def _fail_by_replicate(monkeypatch, module, failing, delayed=()):
    """Make the solves of ``module`` (homogenization or experiments) in
    each replicate in ``failing`` raise a SolverError naming it, after
    0.1 s for those also in ``delayed``, keyed on the replicate's seed
    (spawn key 10_000 + rep for ahom, (tag, rep) for a ladder) rather than
    on the order of the _pcg calls, which threads leave open."""
    sample, pcg = module.sample_environment, module._pcg
    current = threading.local()

    def keyed_sample(law, grid, seed):
        current.rep = seed.spawn_key[-1] % 10_000
        return sample(law, grid, seed)

    def failing_pcg(*args, **kwargs):
        if current.rep in failing:
            time.sleep(0.1 if current.rep in delayed else 0.0)
            raise SolverError(f"forced failure in replicate {current.rep}", None)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(module, "sample_environment", keyed_sample)
    monkeypatch.setattr(module, "_pcg", failing_pcg)


def test_estimate_ahom_one_failed_replicate_is_solver_failure(tmp_path, monkeypatch, capsys):
    # one failed corrector solve in six fails the estimate: no mean over
    # the other five, and the command exits 3 and removes the --out it made
    _fail_by_replicate(monkeypatch, homogenization, {4})
    with pytest.raises(SolverError, match="in replicate 4$"):
        estimate_ahom(EnvironmentLaw.bernoulli(0.5, 1, 2), 8, 6, seed=2)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 8\nlaw = bernoulli(0.5,1,2)\nM = 6\nseed = 2\n")
    out = tmp_path / "o"
    assert main(["ahom", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    assert "solver failure: forced failure in replicate 4" in capsys.readouterr().err
    assert not out.exists()


def _count_threads(monkeypatch):
    """Count the threading.Thread objects made from now on."""
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counted)
    return made


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_threaded_replicates_equal_serial_replicates(monkeypatch):
    # d=2, N=128: a corrector stack of 256 KiB fills a PCG chunk, so the
    # replicates go to threads, each solving its stack on its own thread
    law = EnvironmentLaw.bernoulli(0.5, 1, 2)
    all_cpus = solver._cpus()
    _on_cpus(monkeypatch, 1)
    serial = estimate_ahom(law, 128, 4, seed=3)
    for cpus in {all_cpus, 3}:
        _on_cpus(monkeypatch, cpus)
        made = _count_threads(monkeypatch)
        assert estimate_ahom(law, 128, 4, seed=3) == serial
        assert len(made) == cpus - 1
    assert serial.iterations > 0


@pytest.mark.parametrize("d, N", [(1, 4096), (2, 16)])
def test_small_corrector_stacks_start_no_thread(monkeypatch, d, N):
    # below one PCG chunk per environment, threads only contend for the
    # GIL: the replicates of ahom, of a rate ladder and of the covariance
    # limit run in turn. cov runs without a law, as its quadrature stack at
    # d=1, N=4096 would fill several chunks, which the solver threads itself.
    law = EnvironmentLaw.uniform(1, 3)
    cfg = ExperimentConfig(d=d, law=law, Ns=(N,), kset=((1,) + (0,) * (d - 1),),
                           replicates=4, noise_replicates=25, ahom=2.0)
    _on_cpus(monkeypatch, 4)
    made = _count_threads(monkeypatch)
    estimate_ahom(law, N, 4, seed=0, d=d)
    pseudo_eigen_rate(cfg)
    gff_covariance_limit(dataclasses.replace(cfg, law=None))
    assert made == []


def _runner_experiments():
    """The points of a pseudo and a bilap ladder and the covariance report
    of cov, at sizes up to d=2, N=128, where one environment's weights fill
    a PCG chunk and the replicates go to threads."""
    cfg = ExperimentConfig(d=2, law=EnvironmentLaw.bernoulli(0.5, 1, 2), Ns=(16, 128),
                           kset=((1, 0),), replicates=3, noise_replicates=34,
                           ahom=math.sqrt(2), beta=0.75, mode_cutoff=1, tol=1e-6)
    cov = gff_covariance_limit(cfg)
    return (pseudo_eigen_rate(cfg).points, bilap_error_rate(cfg).points,
            [cov.covariance, cov.stderr, cov.exact_covariance, cov.fitted_constant])


def test_threaded_experiments_equal_serial_experiments(monkeypatch):
    _on_cpus(monkeypatch, 1)
    serial = _runner_experiments()
    for cpus in (2, 3):
        _on_cpus(monkeypatch, cpus)
        made = _count_threads(monkeypatch)
        pseudo, bilap, cov = _runner_experiments()
        assert (pseudo, bilap) == serial[:2]
        assert all(np.array_equal(x, y) for x, y in zip(cov, serial[2]))
        assert len(made) == 3 * (cpus - 1)   # one queue per experiment, at N=128 only


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_threaded_ladder_raises_the_first_solver_error_in_replicate_order(monkeypatch, cpus):
    # replicate 1 fails late and replicate 3 at once: on several CPUs 3
    # fails first in time, and the ladder still raises 1's error
    monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
    _on_cpus(monkeypatch, cpus)
    made = _count_threads(monkeypatch)
    _fail_by_replicate(monkeypatch, experiments, {1, 3}, delayed={1})
    cfg = ExperimentConfig(d=2, law=EnvironmentLaw.bernoulli(0.5, 1, 2), Ns=(8,),
                           kset=((1, 0),), replicates=6, ahom=1.5)
    with pytest.raises(SolverError, match="in replicate 1$"):
        pseudo_eigen_rate(cfg)
    assert len(made) == cpus - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_threaded_replicates_abort_at_the_same_failure(monkeypatch, cpus):
    # replicate 1 fails late and replicate 3 at once: on several CPUs 3
    # fails first in time, and the estimate still raises 1's error
    monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
    _on_cpus(monkeypatch, cpus)
    made = _count_threads(monkeypatch)
    _fail_by_replicate(monkeypatch, homogenization, {1, 3}, delayed={1})
    with pytest.raises(SolverError, match="in replicate 1$"):
        estimate_ahom(EnvironmentLaw.bernoulli(0.5, 1, 2), 16, 6, seed=5)
    assert len(made) == cpus - 1


def test_write_ahom_csv(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 8\nd = 2\nlaw = constant(1.5)\nM = 2\nseed = 0\n")
    out = tmp_path / "o"
    assert main(["ahom", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    with open(out / "ahom.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["ahom_mean"]) == pytest.approx(1.5, abs=1e-10)
    assert rows[0]["law"] == "constant(1.5)"
