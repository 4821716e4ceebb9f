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

from .lattice import LatticeField, TorusGrid, _read_values

__all__ = [
    "EnvironmentLaw",
    "Conductances",
    "sample_environment",
    "project",
    "extend",
    "project_extend",
    "apply_operator",
    "operator_matrix",
    "dump_environment",
    "load_environment",
]

ENV_MAGIC = b"HFENV1"


@dataclass(frozen=True)
class EnvironmentLaw:
    """Product law for i.i.d. edge conductances.

    Variants: ``constant(c)``, ``uniform(lo, hi)`` and ``bernoulli(p, a, b)``
    where the Bernoulli law puts mass p on b and 1-p on a. Atoms must lie in
    (1, Lambda]; ``allow_boundary_atom`` admits the closed interval [1, Lambda]
    so that laws like 1 + Ber(0.5) with an atom at exactly 1 are usable.
    """

    variant: str
    params: tuple
    allow_boundary_atom: bool = True

    @classmethod
    def constant(cls, c: float) -> "EnvironmentLaw":
        return cls("constant", (float(c),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "EnvironmentLaw":
        if not lo < hi:
            raise ValueError(f"uniform law needs lo < hi, got ({lo}, {hi})")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def bernoulli(cls, p: float, a: float, b: float,
                  allow_boundary_atom: bool = True) -> "EnvironmentLaw":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
        return cls("bernoulli", (float(p), float(a), float(b)), allow_boundary_atom)

    def __post_init__(self):
        if self.variant not in ("constant", "uniform", "bernoulli"):
            raise ValueError(f"unknown law variant {self.variant!r}")
        lo = min(self.atoms_range)
        floor = 1.0 if self.allow_boundary_atom else np.nextafter(1.0, 2.0)
        if lo < floor:
            raise ValueError(
                f"law {self} has support down to {lo}, below the ellipticity "
                f"lower bound"
            )

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

    def edge_weight(self, x, axis: int) -> float:
        """Weight of the edge from site x to x + e_axis (periodic)."""
        return float(self.weights[(axis,) + self.grid.index_of(x)])


def sample_environment(law: EnvironmentLaw, grid: TorusGrid, seed) -> Conductances:
    """Draw i.i.d. edge weights from the law, reproducibly.

    Each axis consumes an independent counter-based stream spawned from the
    master seed, so the result does not depend on generation order.
    """
    weights = np.empty((grid.d,) + grid.shape)
    for axis in range(grid.d):
        if isinstance(seed, np.random.SeedSequence):
            ss = np.random.SeedSequence(seed.entropy,
                                        spawn_key=seed.spawn_key + (axis,))
        else:
            ss = np.random.SeedSequence(seed, spawn_key=(axis,))
        rng = np.random.Generator(np.random.Philox(ss))
        weights[axis] = law.draw(rng, grid.shape)
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


def project_extend(a: Conductances, N: int) -> Conductances:
    """The composite a_N: project to side N, then tile back periodically."""
    return extend(project(a, N), a.grid.N)


def apply_operator(a: Conductances, f: LatticeField) -> LatticeField:
    """Apply the divergence-form operator:

        (-div a grad f)(x) = N^2 sum_{y ~ x} a_{x,y} (f(x) - f(y)).

    Linear, symmetric and positive semidefinite; its output always sums to
    zero because each edge contributes antisymmetrically.
    """
    if f.grid != a.grid:
        raise ValueError("field and environment live on different grids")
    v = f.values
    dtype = np.result_type(v, a.weights)
    out = np.zeros(v.shape, dtype)
    flux = np.empty(v.shape, dtype)
    for axis in range(a.grid.d):
        # Index tuples for sites 0..N-2, 1..N-1, 0 and N-1 along this axis.
        head, tail, first, last = (
            (slice(None),) * axis + (s,) for s in
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
    return LatticeField(f.grid, out)


def operator_matrix(a: Conductances) -> np.ndarray:
    """Dense matrix of the operator in the canonical site basis (for small
    grids and oracle checks)."""
    grid = a.grid
    n = grid.n
    if n > 4096:
        raise ValueError(f"dense operator with {n} sites is too large")
    mat = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        col = apply_operator(a, LatticeField(grid, eye[j].reshape(grid.shape)))
        mat[:, j] = col.values.ravel()
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
