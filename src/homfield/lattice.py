"""Discrete torus geometry, Fourier modes and transforms.

The domain is the d-dimensional discrete torus with N sites per axis.
Integer site coordinates run over the symmetric window [-floor(N/2),
ceil(N/2)) per axis; physical positions are obtained by dividing by N.
A field is a numpy array of shape ``grid.shape``, row-major over that
window, so array index i along an axis is the integer coordinate i - N//2;
a stack of fields adds leading axes.

All inner products are normalized: (f, g) = N^{-d} sum_x f(x) conj(g(x)),
which makes the complex exponentials exp(2*pi*i*k.x) an orthonormal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "LatticeField",
    "fourier_mode",
    "eigenvalue_discrete",
    "eigenvalue_continuum",
    "dft",
    "idft",
]


@dataclass(frozen=True)
class TorusGrid:
    """Geometry and indexing of the discrete torus."""

    N: int
    d: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def n(self) -> int:
        """Total number of sites, N^d."""
        return self.N**self.d

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    def coordinates_1d(self) -> np.ndarray:
        """Integer coordinates along one axis, [-floor(N/2), ceil(N/2))."""
        return np.arange(self.N) - self.N // 2

    def coordinates(self) -> tuple:
        """The d open integer coordinate arrays of the window, one per axis,
        which broadcast to every site (or frequency) of the grid."""
        return np.ix_(*[self.coordinates_1d()] * self.d)

    def index_of(self, x) -> tuple:
        """Array index of the site (or frequency) with integer coordinates x
        (periodic)."""
        x = np.asarray(x, dtype=int)
        if x.shape != (self.d,):
            raise ValueError(f"expected {self.d} coordinates, got shape {x.shape}")
        s = self.N // 2
        return tuple((np.mod(x + s, self.N)).tolist())

    def check_frequency(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=int)
        if k.shape != (self.d,):
            raise ValueError(f"expected {self.d} frequency components, got {k!r}")
        c = self.coordinates_1d()
        if not (np.all(k >= c[0]) and np.all(k <= c[-1])):
            raise ValueError(
                f"frequency {k.tolist()} outside the window [{c[0]}, {c[-1]}] for N={self.N}"
            )
        return k

    def check_fields(self, values: np.ndarray) -> None:
        """Reject an array whose trailing axes are not ``shape`` (fields are
        stacked along leading axes only) or that holds a non-finite value."""
        if values.shape[-self.d:] != self.shape:
            raise ValueError(f"fields of shape {values.shape} do not end in grid {self.shape}")
        if not np.isfinite(values).all():
            raise ValueError("fields must be finite, got a NaN or infinite value")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator of SeedSequence(seed, spawn_key=key), for an int
    seed and int keys: the one place a random stream is named. A run draws
    each (seed, key) once. The keys under a run's seed, an environment's
    extended by the axis (:func:`homfield.environment.sample_environment`)::

        (1,), (1, idx)    sample's environment; figure1's of panel idx
        (2,)              sample's and figure1's site noise
        (i, rep)          rates pseudo: environment rep at the i-th size
        (100 + i, rep)    rates bilap: environment rep at the i-th size
        (200, env)        cov: environment env
        (201, env, s)     cov: noise draw s in environment env
        (10_000 + rep,)   ahom: environment rep; under seed + 77, those of
                          the ahom that rates estimates
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class LatticeField:
    """One field and its grid, checked to fit: the field of a dump record."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != self.grid.shape:
            raise ValueError(f"values of shape {values.shape} do not fit grid {self.grid.shape}")
        object.__setattr__(self, "values", values)


def fourier_mode(grid: TorusGrid, k) -> np.ndarray:
    """The complex exponential exp(2*pi*i*k.x) restricted to the grid, as the
    broadcast product of its d one-dimensional factors exp(2*pi*i*k_j*x_j).

    Has unit norm in the normalized l2 inner product.
    """
    k = grid.check_frequency(k)
    return math.prod(np.exp(2j * np.pi * (k_j * c_j / grid.N))
                     for k_j, c_j in zip(k, grid.coordinates()))


def eigenvalue_discrete(N: int, k):
    """Eigenvalue sum_i 4 N^2 sin^2(pi k_i / N) of the N^2-normalized
    discrete Laplacian at frequency k. Each component may be an array, for
    instance those of :meth:`TorusGrid.coordinates`."""
    return sum(4.0 * N**2 * np.sin(np.pi * k_i / N) ** 2 for k_i in k)


def eigenvalue_continuum(k):
    """Eigenvalue sum_i 4 pi^2 k_i^2 of the continuum Laplacian on the unit
    torus; each component may be an array, as in :func:`eigenvalue_discrete`."""
    return sum(4.0 * np.pi**2 * k_i**2 for k_i in k)


def dft(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients (f, phi_k) of the field f for all k at once, in
    the site layout: the coefficient of mode k is ``dft(f)[grid.index_of(k)]``.

    The site array lives on the symmetric window, so it is unshifted to the
    standard FFT layout first and the frequency axes are shifted back.
    """
    f0 = np.fft.ifftshift(values)
    return np.fft.fftshift(np.fft.fftn(f0)) / values.size


def idft(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft`; returns a complex-valued field."""
    c0 = np.fft.ifftshift(coefficients) * coefficients.size
    return np.fft.fftshift(np.fft.ifftn(c0))
