"""Random conductance environments on torus edges and the associated
divergence-form operator.

Edge weights are stored per site and per axis: ``weights[i, x]`` is the
conductance of the edge from site x to its periodic neighbour x + e_i, kept
at the lexicographically smaller endpoint. Environments are sampled from
product laws with every atom inside the ellipticity interval.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeField, TorusGrid, _read_values, _rng

__all__ = [
    "EnvironmentLaw",
    "Conductances",
    "sample_environment",
    "project",
    "extend",
    "apply_operator",
    "operator_matrix",
    "dump_environment",
    "load_environment",
]

ENV_MAGIC = b"HFENV1"
_DENSE_SITES = 4096  # largest grid of the dense backends


@dataclass(frozen=True)
class EnvironmentLaw:
    """Product law for i.i.d. edge conductances.

    Variants: ``constant(c)``, ``uniform(lo, hi)`` and ``bernoulli(p, a, b)``
    where the Bernoulli law puts mass p on b and 1-p on a. Every parameter
    is finite and every atom lies in [1, Lambda], as :class:`Conductances`
    requires; Lambda is the largest atom.
    """

    variant: str
    params: tuple

    @classmethod
    def constant(cls, c: float) -> "EnvironmentLaw":
        return cls("constant", (float(c),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "EnvironmentLaw":
        if not lo < hi:
            raise ValueError(f"uniform law needs lo < hi, got ({lo}, {hi})")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def bernoulli(cls, p: float, a: float, b: float) -> "EnvironmentLaw":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
        return cls("bernoulli", (float(p), float(a), float(b)))

    def __post_init__(self):
        if self.variant not in ("constant", "uniform", "bernoulli"):
            raise ValueError(f"unknown law variant {self.variant!r}")
        if not all(np.isfinite(self.params)):
            raise ValueError(f"law {self.describe()} has a non-finite parameter")
        if min(self.atoms_range) < 1.0:
            raise ValueError(f"law {self.describe()} has support below 1, the "
                             f"ellipticity lower bound")

    @property
    def atoms_range(self) -> tuple:
        if self.variant == "constant":
            (c,) = self.params
            return (c, c)
        if self.variant == "uniform":
            return self.params
        p, a, b = self.params
        return (min(a, b), max(a, b))

    @property
    def ellipticity(self) -> float:
        """Upper ellipticity bound Lambda implied by the parameters."""
        return max(self.atoms_range)

    def mean(self) -> float:
        if self.variant == "constant":
            return self.params[0]
        if self.variant == "uniform":
            lo, hi = self.params
            return 0.5 * (lo + hi)
        p, a, b = self.params
        return (1.0 - p) * a + p * b

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.variant == "constant":
            return np.full(shape, self.params[0])
        if self.variant == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size=shape)
        p, a, b = self.params
        return np.where(rng.random(size=shape) < p, b, a)

    def describe(self) -> str:
        args = ",".join(repr(v) for v in self.params)
        return f"{self.variant}({args})"

    @classmethod
    def parse(cls, text: str) -> "EnvironmentLaw":
        """Parse strings like ``constant(1.5)`` or ``bernoulli(0.5,1,2)``."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise ValueError(f"cannot parse environment law {text!r}")
        name, argstr = text[:-1].split("(", 1)
        args = [float(v) for v in argstr.split(",")] if argstr.strip() else []
        name = name.strip().lower()
        factories = {"constant": cls.constant, "uniform": cls.uniform,
                     "bernoulli": cls.bernoulli}
        if name not in factories:
            raise ValueError(f"unknown environment law {name!r}")
        return factories[name](*args)


@dataclass(frozen=True)
class Conductances:
    """Edge-indexed environment on a torus grid, uniformly elliptic."""

    grid: TorusGrid
    weights: np.ndarray = field(repr=False)
    ellipticity: float = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        expected = (self.grid.d,) + self.grid.shape
        if w.shape != expected:
            raise ValueError(f"weights shape {w.shape}, expected {expected}")
        lam = self.ellipticity if self.ellipticity is not None else float(w.max())
        # written so that NaN weights or a NaN lam fail the check
        if not (w.min() >= 1.0 and w.max() <= lam):
            raise ValueError(
                f"edge weights must lie in [1, {lam}], found range "
                f"[{w.min()}, {w.max()}]"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ellipticity", float(lam))

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "Conductances":
        return cls(grid, np.full((grid.d,) + grid.shape, float(c)))


def sample_environment(law: EnvironmentLaw, grid: TorusGrid, seed) -> Conductances:
    """Draw i.i.d. edge weights from the law, reproducibly.

    Each axis consumes an independent counter-based stream spawned from the
    master seed, so the result does not depend on generation order.
    """
    weights = np.empty((grid.d,) + grid.shape)
    for axis in range(grid.d):
        weights[axis] = law.draw(_rng(seed, axis), grid.shape)
    return Conductances(grid, weights, ellipticity=law.ellipticity)


def project(a: Conductances, N: int) -> Conductances:
    """Restrict an ambient environment to the torus with side N.

    For each target site x in the symmetric window and each axis, the edge
    weight of {x, x + e_i} is read from the ambient lattice; the wrap-around
    edges of the target torus reuse the ambient edge leaving the window.
    """
    M = a.grid.N
    if N > M:
        raise ValueError(f"cannot project side {M} onto larger side {N}")
    target = TorusGrid(N, a.grid.d)
    # Ambient array index of each target-site coordinate.
    idx = [(c + M // 2) for c in (np.arange(N) - N // 2)]
    sel = np.ix_(range(a.grid.d), *([np.asarray(i) for i in [idx] * a.grid.d]))
    return Conductances(target, a.weights[sel], ellipticity=a.ellipticity)


def extend(a: Conductances, M: int) -> Conductances:
    """Tile an environment periodically onto the torus with side M >= N."""
    N = a.grid.N
    if M < N:
        raise ValueError(f"cannot extend side {N} onto smaller side {M}")
    target = TorusGrid(M, a.grid.d)
    # Target coordinate reduced into the source window, per axis.
    src = np.mod((np.arange(M) - M // 2) + N // 2, N)
    sel = np.ix_(range(a.grid.d), *([src] * a.grid.d))
    return Conductances(target, a.weights[sel], ellipticity=a.ellipticity)


def apply_operator(a: Conductances, f: LatticeField) -> LatticeField:
    """Apply the divergence-form operator:

        (-div a grad f)(x) = N^2 sum_{y ~ x} a_{x,y} (f(x) - f(y)).

    Linear, symmetric and positive semidefinite; its output always sums to
    zero because each edge contributes antisymmetrically.
    """
    if f.grid != a.grid:
        raise ValueError("field and environment live on different grids")
    out = np.empty(f.values.shape, np.result_type(f.values, a.weights))
    _stencil(a, f.values, out, np.empty_like(out))
    return LatticeField(f.grid, out)


def _stencil(a: Conductances, v: np.ndarray, out: np.ndarray, flux: np.ndarray) -> None:
    """Write the operator applied to ``v`` into ``out``, for fields stacked
    along the leading axes of ``v`` (trailing axes ``a.grid.shape``).

    ``flux`` is scratch space of the shape and dtype of ``out``; both are
    overwritten, so an iterative solve can keep them for its whole run. Each
    field goes through the same elementwise operations in the same order, so
    a stack maps bit for bit like its fields one at a time.
    """
    d = a.grid.d
    out.fill(0)
    for axis in range(d):
        # Index tuples for sites 0..N-2, 1..N-1, 0 and N-1 along this axis,
        # counted from the trailing end so that leading stack axes pass.
        head, tail, first, last = (
            (Ellipsis, s) + (slice(None),) * (d - 1 - axis) for s in
            (slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None)))
        # flux(x) = a_i(x) (f(x) - f(x+e_i)), the last layer wrapping round
        np.subtract(v[head], v[tail], out=flux[head])
        np.subtract(v[last], v[first], out=flux[last])
        flux *= a.weights[axis]
        # out(x) += flux(x) - flux(x-e_i)
        out += flux
        out[tail] -= flux[head]
        out[first] -= flux[last]
    out *= a.grid.N**2


def operator_matrix(a: Conductances) -> np.ndarray:
    """Dense matrix of the operator in the canonical site basis (for small
    grids and oracle checks).

    Each edge {x, x + e_i} adds a_i(x) to both diagonal entries and -a_i(x)
    to both off-diagonal ones, summed in the order of
    :func:`apply_operator`, so the matrix equals its columns exactly.
    """
    grid = a.grid
    n = grid.n
    if n > _DENSE_SITES:
        raise ValueError(f"dense operator with {n} sites is too large")
    sites = np.arange(n).reshape(grid.shape)
    mat = np.zeros((n, n))
    for axis in range(grid.d):
        x, y = sites.ravel(), np.roll(sites, -1, axis).ravel()
        w = a.weights[axis].ravel()
        np.add.at(mat, (np.concatenate([x, y, x, y]), np.concatenate([x, y, y, x])),
                  np.concatenate([w, w, -w, -w]))
    mat *= grid.N**2
    return mat


def dump_environment(a: Conductances, path) -> None:
    """Binary dump: magic "HFENV1", then d, N, Lambda as little-endian
    64-bit values, then the n*d edge weights in canonical order."""
    with open(path, "wb") as fh:
        fh.write(ENV_MAGIC)
        fh.write(struct.pack("<qqd", a.grid.d, a.grid.N, a.ellipticity))
        fh.write(a.weights.astype("<f8").tobytes())


def load_environment(path) -> Conductances:
    with open(path, "rb") as fh:
        magic = fh.read(len(ENV_MAGIC))
        if magic != ENV_MAGIC:
            raise ValueError(f"not an environment dump: bad magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError("truncated environment dump header")
        d, N, lam = struct.unpack("<qqd", header)
        grid = TorusGrid(N, d)
        weights = _read_values(fh, grid, leading=(d,))
    return Conductances(grid, weights, ellipticity=lam)
