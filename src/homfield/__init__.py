"""Numerical laboratory for Gaussian free fields and bi-Laplacian fields in
random conductance environments on the discrete torus."""

from .lattice import (
    TorusGrid,
    fourier_mode,
    dft,
    idft,
)
from .environment import (
    EnvironmentLaw,
    Conductances,
    sample_environment,
    apply_operator,
)
from .solver import solve, solve_homogeneous, SolverError
from .homogenization import estimate_ahom
from .sampler import (
    sample_noise,
    coarsen,
    sample_gff,
    sample_bilaplacian,
)
from .experiments import (
    ExperimentConfig,
    RateSeries,
    fit_rate,
    pseudo_eigen_rate,
    gff_covariance_limit,
    bilap_error_rate,
    discretization_rate,
)

__version__ = "1.0.0"
