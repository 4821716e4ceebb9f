"""Gaussian field samplers: white noise with fine-to-coarse coupling,
discrete free fields and bi-Laplacian fields, and their binary dumps.

Fields are arrays of shape ``grid.shape``. Both fields apply a power of the
(possibly heterogeneous) divergence-form operator A to site-wise white
noise: the free field is A^(-1/2) of it, through
:func:`homfield.solver.inv_sqrt`, and the bi-Laplacian field A^(-1) of the
centred noise, through :func:`homfield.solver.solve`. Both are exact by FFT
without an environment and use conjugate-gradient solves with one.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

# apply_operator stays bound here: perfbench's tracer test checks its wrapper.
from .environment import Conductances, apply_operator  # noqa: F401
from .lattice import LatticeField, TorusGrid, _rng
from .solver import inv_sqrt, solve

__all__ = [
    "FieldSample",
    "sample_noise",
    "coarsen",
    "sample_gff",
    "sample_bilaplacian",
    "dump_field",
    "load_field",
]

FIELD_MAGIC = b"HFFLD1"
FIELD_KINDS = ("gff_hom", "gff_env", "bilap_hom", "bilap_env")


@dataclass(frozen=True)
class FieldSample:
    """The record of a field dump: a kind tag of FIELD_KINDS and the field."""

    kind: str
    field: LatticeField

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")


def sample_noise(grid: TorusGrid, seed) -> np.ndarray:
    """I.i.d. standard normal values per site, reproducible from the seed."""
    return _rng(seed).standard_normal(grid.shape)


def coarsen(noise: np.ndarray, N: int) -> np.ndarray:
    """The white noise ``noise``, a cube of sites, coarsened to side N,
    which must divide its side: each coarse site sums a block of
    (N_noise/N)^d values, scaled to keep unit variance per site. Blocks are
    aligned with the site array, so coarsening through an intermediate side
    gives exactly the same field as coarsening directly."""
    grid = TorusGrid(N, noise.ndim)
    if len(set(noise.shape)) != 1:
        raise ValueError(f"noise of shape {noise.shape} is not a cube of sites")
    if noise.shape[0] % N != 0:
        raise ValueError(f"{N} does not divide the noise side {noise.shape[0]}")
    r = noise.shape[0] // N
    if r == 1:
        return noise
    blocks = noise.reshape([N, r] * grid.d)
    out = blocks.sum(axis=tuple(range(1, 2 * grid.d, 2)))
    return out * r ** (-grid.d / 2.0)


def sample_gff(grid: TorusGrid, a: Conductances | None, seed) -> np.ndarray:
    """Sample a discrete free field with covariance given by the Green's
    function of the (homogeneous or environment) operator.

    ``a=None`` selects the homogeneous field. The field is
    :func:`homfield.solver.inv_sqrt` applied to seed-coupled white noise at
    the solver's DEFAULT_TOL; ``inv_sqrt(grid, a, sample_noise(grid, seed),
    tol)`` draws the same field at another tolerance.
    """
    return inv_sqrt(grid, a, sample_noise(grid, seed))


def sample_bilaplacian(grid: TorusGrid, a: Conductances | None, noise: np.ndarray) -> np.ndarray:
    """The bi-Laplacian field u = A^(-1)(noise - mean(noise)), through
    :func:`homfield.solver.solve`, with A = -div a grad, or -Lap_N when
    ``a`` is None. Deterministic given (a, noise)."""
    if noise.shape != grid.shape:
        raise ValueError(f"noise of shape {noise.shape} does not fit grid {grid.shape}")
    return solve(grid, a, noise - noise.mean())


def dump_field(sample: FieldSample, path) -> None:
    """Binary dump: magic "HFFLD1", d and N as little-endian 64-bit ints, a
    12-byte kind tag, then N^d float64 site values in canonical order.
    A complex or non-finite field raises ValueError before the file opens."""
    grid = sample.field.grid
    if np.iscomplexobj(sample.field.values):
        raise ValueError("field dumps store real-valued fields only")
    grid.check_fields(sample.field.values)
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<qq", grid.d, grid.N))
        fh.write(sample.kind.encode().ljust(12, b"\0"))
        fh.write(sample.field.values.astype("<f8").tobytes())


def _read_values(fh, grid: TorusGrid) -> np.ndarray:
    """Read the rest of an open field dump as little-endian float64 values
    of shape grid.shape.

    The remaining byte count must match exactly; it is checked before any
    allocation, so a corrupt header cannot request an absurd array.
    """
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    count = 1
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
    return data.reshape(grid.shape).copy()


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
        values = _read_values(fh, grid)
    grid.check_fields(values)
    try:
        return FieldSample(tag.rstrip(b"\0").decode(), LatticeField(grid, values))
    except UnicodeDecodeError:
        raise ValueError(f"field dump kind tag {tag!r} is not UTF-8") from None
