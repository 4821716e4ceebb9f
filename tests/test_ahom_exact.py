"""Exact checks on the effective-coefficient engine, environment by
environment, on the full periodic matrix A of ``reference.periodic_matrix``:

* discrete Keller-Dykhne duality in d = 2: the dual network lives on the
  plaquettes, with weight 1/a on each edge it crosses, and its matrix is
  R A^(-1) R^T for the quarter turn R (Keller, J. Math. Phys. 5 (1964);
  Dykhne, Sov. Phys. JETP 32 (1971));
* the per-axis Reuss and Voigt bounds: the harmonic mean of the axis-i
  weights <= A_ii <= their arithmetic mean;
* tr A / d is ``_mean_energy``'s flux average from the same correctors,
  equal to the energy form to rounding (1e-13 relative).

A wrong wrap, a misaligned weight or a wrong energy formula moves these by
1e-3 or more, far outside what solver tolerance and rounding leave. Needs
hypothesis (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homfield.environment import Conductances, EnvironmentLaw, sample_environment  # noqa: E402
from homfield.homogenization import _mean_energy  # noqa: E402
from homfield.lattice import TorusGrid  # noqa: E402
from reference import periodic_matrix  # noqa: E402

TOL = 1e-12
CONTRAST = st.floats(1.0, 100.0)
LAWS = st.one_of(
    st.builds(EnvironmentLaw.constant, CONTRAST),
    st.builds(lambda lo, span: EnvironmentLaw.uniform(lo, lo + span),
              st.floats(1.0, 10.0), st.floats(1e-3, 90.0)),
    st.builds(EnvironmentLaw.bernoulli, st.floats(0.0, 1.0), CONTRAST, CONTRAST),
)
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


@st.composite
def environments(draw, d):
    """An environment of a law above, on a torus of d dimensions whose side,
    odd or even, keeps it to at most 4096 sites."""
    N = draw(st.integers(2, {1: 64, 2: 64, 3: 16}[d]))
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_environment(draw(LAWS), TorusGrid(N, d), seed)


def _dual(a: Conductances) -> Conductances:
    """The plaquette network of a d = 2 environment, its weights 1/a scaled
    by Lambda into [1, Lambda]: the horizontal edge {x, x+e_1} crosses the
    dual edge {x-e_2, x}, the vertical edge {x, x+e_2} the dual edge
    {x-e_1, x}."""
    w0, w1 = a.weights
    lam = a.ellipticity
    weights = np.stack([np.roll(1.0 / w1, -1, axis=0), np.roll(1.0 / w0, -1, axis=1)])
    return Conductances(a.grid, np.clip(lam * weights, 1.0, lam))


@settings(max_examples=40, deadline=None, database=None)
@given(environments(2))
def test_planar_duality(a):
    matrix = periodic_matrix(a, TOL)[0]
    dual = periodic_matrix(_dual(a), TOL)[0] / a.ellipticity
    predicted = QUARTER_TURN @ np.linalg.inv(matrix) @ QUARTER_TURN.T
    assert np.abs(dual - predicted).max() <= 1e-12 * np.abs(predicted).max()


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(environments))
def test_axis_bounds_and_energy_of_the_periodic_matrix(a):
    matrix, chis = periodic_matrix(a, TOL)
    slack = 1e-12
    for i, w in enumerate(a.weights):
        harmonic, arithmetic = 1.0 / np.mean(1.0 / w), np.mean(w)
        assert harmonic * (1 - slack) <= matrix[i, i] <= arithmetic * (1 + slack)
    energy = _mean_energy(a, chis)
    assert abs(np.trace(matrix) / a.grid.d - energy) <= 1e-13 * energy
