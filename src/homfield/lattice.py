"""Discrete torus geometry, Fourier transforms and spectral Sobolev norms.

The domain is the d-dimensional discrete torus with N sites per axis.
Integer site coordinates run over the symmetric window [-floor(N/2),
ceil(N/2)) per axis; physical positions are obtained by dividing by N.
Fields are stored as d-dimensional numpy arrays in row-major order over
that window, so array index i along an axis corresponds to the integer
coordinate i - N//2.

All inner products are normalized: (f, g) = N^{-d} sum_x f(x) conj(g(x)),
which makes the complex exponentials exp(2*pi*i*k.x) an orthonormal basis.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "LatticeField",
    "SpectralField",
    "fourier_mode",
    "eigenvalue_discrete",
    "eigenvalue_continuum",
    "eigenvalues_discrete",
    "eigenvalues_continuum",
    "dft",
    "idft",
    "sobolev_norm",
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

    @property
    def origin_index(self) -> tuple:
        """Array index of the site (or frequency) with coordinate 0."""
        return (self.N // 2,) * self.d

    def coordinates_1d(self) -> np.ndarray:
        """Integer coordinates along one axis, [-floor(N/2), ceil(N/2))."""
        return np.arange(self.N) - self.N // 2

    def index_of(self, x) -> tuple:
        """Array index of the site with integer coordinates x (periodic)."""
        x = np.asarray(x, dtype=int)
        if x.shape != (self.d,):
            raise ValueError(f"expected {self.d} coordinates, got shape {x.shape}")
        s = self.N // 2
        return tuple((np.mod(x + s, self.N)).tolist())

    def frequency_in_range(self, k) -> bool:
        k = np.asarray(k, dtype=int)
        lo = -(self.N // 2)
        hi = self.N - self.N // 2  # exclusive
        return bool(np.all(k >= lo) and np.all(k < hi))

    def check_frequency(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=int)
        if k.shape != (self.d,):
            raise ValueError(f"expected {self.d} frequency components, got {k!r}")
        if not self.frequency_in_range(k):
            raise ValueError(
                f"frequency {k.tolist()} outside the window [-{self.N // 2}, "
                f"{self.N - self.N // 2}) for N={self.N}"
            )
        return k


def _check_values(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape == (grid.n,):
        values = values.reshape(grid.shape)
    if values.shape != grid.shape:
        raise ValueError(f"values of shape {values.shape} do not fit grid {grid.shape}")
    return values


def _read_values(fh, grid: TorusGrid, leading: tuple = ()) -> np.ndarray:
    """Read the rest of an open binary dump as little-endian float64 values
    of shape leading + grid.shape.

    The remaining byte count must match exactly; it is checked before any
    allocation, so a corrupt header cannot request an absurd array.
    """
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    count = math.prod(leading)
    for _ in range(grid.d):
        count *= grid.N
        if 8 * count > remaining:
            break
    if 8 * count != remaining:
        raise ValueError(
            f"dump holds {remaining} data bytes, which does not match its "
            f"header (d={grid.d}, N={grid.N})"
        )
    data = np.frombuffer(fh.read(remaining), dtype="<f8")
    return data.reshape(tuple(leading) + grid.shape).copy()


@dataclass(frozen=True)
class LatticeField:
    """Scalar function on the discrete torus with normalized l2 structure."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values))

    def mean(self):
        return self.values.mean()

    def is_mean_zero(self, rtol: float = 1e-12) -> bool:
        scale = np.max(np.abs(self.values))
        if scale == 0.0:
            return True
        return abs(self.mean()) <= rtol * scale

    def centered(self) -> "LatticeField":
        return LatticeField(self.grid, self.values - self.mean())

    def inner(self, other: "LatticeField"):
        """Normalized inner product (f, g) = N^-d sum f conj(g)."""
        return np.vdot(other.values, self.values) / self.grid.n

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.grid.n))

    def __add__(self, other):
        return LatticeField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return LatticeField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return LatticeField(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a lattice field, indexed over the symmetric
    frequency window in the same row-major layout as site values."""

    grid: TorusGrid
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = _check_values(self.grid, self.coefficients)
        object.__setattr__(self, "coefficients", np.asarray(coeffs, dtype=complex))

    def coefficient(self, k) -> complex:
        k = self.grid.check_frequency(k)
        return complex(self.coefficients[self.grid.index_of(k)])

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coefficients) ** 2)))


def fourier_mode(grid: TorusGrid, k) -> LatticeField:
    """The complex exponential exp(2*pi*i*k.x) restricted to the grid.

    Has unit norm in the normalized l2 inner product.
    """
    k = grid.check_frequency(k)
    x = grid.coordinates_1d() / grid.N
    phase = np.zeros(grid.shape)
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = grid.N
        phase = phase + k[axis] * x.reshape(shape)
    return LatticeField(grid, np.exp(2j * np.pi * phase))


def eigenvalue_discrete(N: int, k) -> float:
    """Eigenvalue of the N^2-normalized discrete Laplacian at frequency k."""
    k = np.asarray(k, dtype=float)
    return float(4.0 * N**2 * np.sum(np.sin(np.pi * k / N) ** 2))


def eigenvalue_continuum(k) -> float:
    """Eigenvalue of the continuum Laplacian on the unit torus, 4*pi^2*|k|^2."""
    k = np.asarray(k, dtype=float)
    return float(4.0 * np.pi**2 * np.sum(k**2))


def _freq_axes(grid: TorusGrid):
    c = grid.coordinates_1d().astype(float)
    axes = []
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = grid.N
        axes.append(c.reshape(shape))
    return axes


def eigenvalues_discrete(grid: TorusGrid) -> np.ndarray:
    """Array of discrete-Laplacian eigenvalues over the frequency window."""
    out = np.zeros(grid.shape)
    for ax in _freq_axes(grid):
        out = out + 4.0 * grid.N**2 * np.sin(np.pi * ax / grid.N) ** 2
    return out


def eigenvalues_continuum(grid: TorusGrid) -> np.ndarray:
    """Array of continuum eigenvalues 4*pi^2*|k|^2 over the frequency window."""
    out = np.zeros(grid.shape)
    for ax in _freq_axes(grid):
        out = out + 4.0 * np.pi**2 * ax**2
    return out


def dft(fld: LatticeField) -> SpectralField:
    """Fourier coefficients (f, phi_k) for all k at once.

    The site array lives on the symmetric window, so it is unshifted to the
    standard FFT layout first and the frequency axes are shifted back.
    """
    f0 = np.fft.ifftshift(fld.values)
    coeffs = np.fft.fftshift(np.fft.fftn(f0)) / fld.grid.n
    return SpectralField(fld.grid, coeffs)


def idft(spec: SpectralField) -> LatticeField:
    """Inverse of :func:`dft`; returns a complex-valued field."""
    c0 = np.fft.ifftshift(spec.coefficients) * spec.grid.n
    values = np.fft.fftshift(np.fft.ifftn(c0))
    return LatticeField(spec.grid, values)


def sobolev_norm(spec: SpectralField, beta: float, grid_eigenvalues: bool = False) -> float:
    """Spectral Sobolev norm (sum_{k != 0} |c_k|^2 lambda_k^{2 beta})^{1/2}.

    beta may be negative. By default the continuum eigenvalues 4*pi^2*|k|^2
    weight the modes; ``grid_eigenvalues=True`` substitutes the eigenvalues of
    the discrete Laplacian instead.
    """
    grid = spec.grid
    if grid_eigenvalues:
        lam = eigenvalues_discrete(grid)
    else:
        lam = eigenvalues_continuum(grid)
    lam = lam.copy()
    lam[grid.origin_index] = 1.0  # k = 0 is excluded below
    weights = lam ** (2.0 * beta)
    mags = np.abs(spec.coefficients) ** 2
    mags[grid.origin_index] = 0.0
    return float(np.sqrt(np.sum(mags * weights)))
