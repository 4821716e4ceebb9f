"""Gaussian field samplers: white noise with fine-to-coarse coupling,
discrete free fields and bi-Laplacian fields, and the rescaled spectral
("formal") representation used by the convergence experiments.

The free-field covariance is the pseudo-inverse of the (possibly
heterogeneous) divergence-form operator, so sampling amounts to applying the
inverse square root of that operator to site-wise white noise, through
:func:`homfield.solver.inv_sqrt`. Its ``backend`` is "spectral" (exact FFT
synthesis, homogeneous only; the default without an environment), "dense"
(an eigendecomposition, small grids) or "krylov" (a quadrature over shifted
conjugate-gradient solves; the default with an environment).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

# apply_operator stays bound here: perfbench's tracer test checks its wrapper.
from .environment import Conductances, apply_operator  # noqa: F401
from .lattice import LatticeField, SpectralField, TorusGrid, _read_values, dft
from .solver import DEFAULT_TOL, inv_sqrt, solve_heterogeneous, solve_homogeneous

__all__ = [
    "FieldSample",
    "NoiseHierarchy",
    "sample_noise",
    "sample_gff",
    "sample_bilaplacian",
    "formal_field",
    "formal_constant",
    "dump_field",
    "load_field",
]

FIELD_MAGIC = b"HFFLD1"
FIELD_KINDS = ("gff_hom", "gff_env", "bilap_hom", "bilap_env")


@dataclass(frozen=True)
class FieldSample:
    kind: str
    field: LatticeField
    environment: Conductances = None
    noise: LatticeField = None
    scaled: bool = False

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")


def formal_constant(kind: str, d: int) -> float:
    """Scaling constant of the formal field: (2d)^{-1/2} for free fields,
    (2d)^{-1} for bi-Laplacian fields."""
    if kind.startswith("gff"):
        return (2.0 * d) ** -0.5
    return 1.0 / (2.0 * d)


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_noise(grid: TorusGrid, seed) -> LatticeField:
    """I.i.d. standard normal values per site, reproducible from the seed."""
    rng = _generator(seed)
    return LatticeField(grid, rng.standard_normal(grid.shape))


@dataclass(frozen=True)
class NoiseHierarchy:
    """A finest-level white noise together with its consistent coarsenings.

    Coarse level N (dividing the finest side) aggregates disjoint blocks of
    (N_max/N)^d finest values, scaled to keep unit variance per site. Blocks
    are aligned with the site array, so coarsening through an intermediate
    level gives exactly the same field as coarsening directly.
    """

    finest: LatticeField

    @property
    def n_max(self) -> int:
        return self.finest.grid.N

    def level(self, N: int) -> LatticeField:
        grid = self.finest.grid
        if N == self.n_max:
            return self.finest
        if self.n_max % N != 0:
            raise ValueError(f"{N} does not divide the finest side {self.n_max}")
        r = self.n_max // N
        v = self.finest.values
        shape = []
        for _ in range(grid.d):
            shape.extend([N, r])
        blocks = v.reshape(shape)
        out = blocks.sum(axis=tuple(range(1, 2 * grid.d, 2)))
        return LatticeField(TorusGrid(N, grid.d), out * r ** (-grid.d / 2.0))


def sample_gff(grid: TorusGrid, a: Conductances | None, seed, backend: str = None,
               tol: float = DEFAULT_TOL) -> FieldSample:
    """Sample a discrete free field with covariance given by the Green's
    function of the (homogeneous or environment) operator.

    ``a=None`` selects the homogeneous field. The field is
    :func:`homfield.solver.inv_sqrt` applied to seed-coupled white noise;
    ``backend`` and ``tol`` are passed through, so every backend consumes
    the same noise vector, and the dense and krylov backends agree up to tol.
    """
    z = sample_noise(grid, seed)
    values = inv_sqrt(grid, a, z.values, backend=backend, tol=tol)
    kind = "gff_hom" if a is None else "gff_env"
    return FieldSample(kind, LatticeField(grid, values), environment=a, noise=z)


def sample_bilaplacian(grid: TorusGrid, a: Conductances | None, noise: LatticeField,
                       tol: float = DEFAULT_TOL) -> FieldSample:
    """Solve the driven equation -div a grad u = noise - mean(noise).

    Deterministic given (a, noise); pass ``a=None`` for the homogeneous
    field, which is solved spectrally.
    """
    if noise.grid != grid:
        raise ValueError("noise grid mismatch")
    rhs = noise.centered()
    if a is None:
        u = solve_homogeneous(grid, rhs)
        return FieldSample("bilap_hom", u, noise=noise)
    u, _ = solve_heterogeneous(a, rhs, tol=tol)
    return FieldSample("bilap_env", u, environment=a, noise=noise)


def formal_field(sample: FieldSample, apply_constant: bool = True) -> SpectralField:
    """Spectral coefficients of the rescaled point-mass field.

    Coefficient at k is c * N^{d/2} * (f, phi_k) with c the kind-dependent
    constant (skipped when ``apply_constant`` is false); modes outside the
    grid's frequency window are identically zero by convention.
    """
    grid = sample.field.grid
    spec = dft(sample.field)
    scale = grid.N ** (grid.d / 2.0)
    if apply_constant:
        scale *= formal_constant(sample.kind, grid.d)
    return SpectralField(grid, spec.coefficients * scale)


_KIND_TAGS = {kind: kind.encode().ljust(12, b"\0") for kind in FIELD_KINDS}


def dump_field(sample: FieldSample, path) -> None:
    """Binary dump: magic "HFFLD1", d and N as little-endian 64-bit ints, a
    12-byte kind tag, then N^d float64 site values in canonical order."""
    grid = sample.field.grid
    if np.iscomplexobj(sample.field.values):
        raise ValueError("field dumps store real-valued fields only")
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<qq", grid.d, grid.N))
        fh.write(_KIND_TAGS[sample.kind])
        fh.write(sample.field.values.astype("<f8").tobytes())


def load_field(path) -> FieldSample:
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a field dump: bad magic {magic!r}")
        header = fh.read(28)
        if len(header) != 28:
            raise ValueError("truncated field dump header")
        d, N, tag = struct.unpack("<qq12s", header)
        grid = TorusGrid(N, d)
        fld = LatticeField(grid, _read_values(fh, grid))
    return FieldSample(tag.rstrip(b"\0").decode(), fld)
