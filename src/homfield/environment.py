"""Random conductance environments on torus edges and the associated
divergence-form operator.

Edge weights are stored per site and per axis: ``weights[i, x]`` is the
conductance of the edge from site x to its periodic neighbour x + e_i, kept
at the lexicographically smaller endpoint. Environments are sampled from
product laws with every atom at least 1; an environment's upper ellipticity
bound is its largest weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import TorusGrid, _rng

__all__ = [
    "EnvironmentLaw",
    "Conductances",
    "sample_environment",
    "project",
    "extend",
    "apply_operator",
    "operator_matrix",
]

_DENSE_SITES = 4096  # largest grid of operator_matrix
_ARITY = {"constant": 1, "uniform": 2, "bernoulli": 3}  # parameters per law variant


@dataclass(frozen=True)
class EnvironmentLaw:
    """Product law for i.i.d. edge conductances.

    Variants: ``constant(c)``, ``uniform(lo, hi)`` with lo < hi, and
    ``bernoulli(p, a, b)`` with mass p in [0, 1] on b and 1-p on a. Every
    parameter is checked on construction: finite, and every atom at least
    1, as :class:`Conductances` requires.
    """

    variant: str
    params: tuple

    @classmethod
    def constant(cls, c: float) -> "EnvironmentLaw":
        return cls("constant", (float(c),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "EnvironmentLaw":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def bernoulli(cls, p: float, a: float, b: float) -> "EnvironmentLaw":
        return cls("bernoulli", (float(p), float(a), float(b)))

    def __post_init__(self):
        if self.variant not in _ARITY:
            raise ValueError(f"unknown law variant {self.variant!r}")
        if len(self.params) != _ARITY[self.variant]:
            raise ValueError(f"{self.variant} law has {len(self.params)} "
                             f"parameters, expected {_ARITY[self.variant]}")
        if self.variant == "uniform" and not self.params[0] < self.params[1]:
            raise ValueError(f"uniform law needs lo < hi, got {self.params}")
        if self.variant == "bernoulli" and not 0.0 <= self.params[0] <= 1.0:
            raise ValueError(f"bernoulli probability must be in [0, 1], got {self.params[0]}")
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
    def point_mass(self) -> bool:
        """Whether every draw is the same conductance: constant(c), or
        bernoulli(p, a, b) with p in {0, 1} or a == b."""
        lo, hi = self.atoms_range
        return lo == hi or (self.variant == "bernoulli" and self.params[0] in (0.0, 1.0))

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
        args = tuple(float(v) for v in argstr.split(",")) if argstr.strip() else ()
        return cls(name.strip().lower(), args)


@dataclass(frozen=True)
class Conductances:
    """Edge-indexed environment on a torus grid, its weights finite and at
    least 1; ``ellipticity``, the upper bound Lambda, is the largest weight."""

    grid: TorusGrid
    weights: np.ndarray = field(repr=False)
    ellipticity: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        expected = (self.grid.d,) + self.grid.shape
        if w.shape != expected:
            raise ValueError(f"weights shape {w.shape}, expected {expected}")
        lam = float(w.max())
        # written so that NaN weights fail the check
        if not (w.min() >= 1.0 and lam < np.inf):
            raise ValueError(f"edge weights must be finite and at least 1, found range "
                             f"[{w.min()}, {lam}]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ellipticity", lam)


def sample_environment(law: EnvironmentLaw | None, grid: TorusGrid, seed: int,
                       *key: int) -> Conductances | None:
    """Draw i.i.d. edge weights from the law, or return None (the
    homogeneous medium) for no law. Axis i draws from the stream
    ``key + (i,)`` under ``seed`` (:func:`homfield.lattice._rng`), so the
    result does not depend on generation order."""
    if law is None:
        return None
    weights = np.empty((grid.d,) + grid.shape)
    for axis in range(grid.d):
        weights[axis] = law.draw(_rng(seed, *key, axis), grid.shape)
    return Conductances(grid, weights)


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
    idx = target.coordinates_1d() - a.grid.coordinates_1d()[0]
    sel = np.ix_(range(a.grid.d), *[idx] * a.grid.d)
    return Conductances(target, a.weights[sel])


def extend(a: Conductances, M: int) -> Conductances:
    """Tile an environment periodically onto the torus with side M >= N."""
    N = a.grid.N
    if M < N:
        raise ValueError(f"cannot extend side {N} onto smaller side {M}")
    target = TorusGrid(M, a.grid.d)
    # Target coordinate reduced into the source window, per axis.
    src = np.mod(target.coordinates_1d() - a.grid.coordinates_1d()[0], N)
    sel = np.ix_(range(a.grid.d), *[src] * a.grid.d)
    return Conductances(target, a.weights[sel])


def apply_operator(a: Conductances, values: np.ndarray) -> np.ndarray:
    """Apply the divergence-form operator to the fields stacked along the
    leading axes of ``values`` (trailing axes ``a.grid.shape``):

        (-div a grad f)(x) = N^2 sum_{y ~ x} a_{x,y} (f(x) - f(y)).

    Linear, symmetric and positive semidefinite; its output always sums to
    zero because each edge contributes antisymmetrically. Raises ValueError
    for fields off the grid's shape or holding a non-finite value.
    """
    a.grid.check_fields(values)
    out = np.empty(values.shape, np.result_type(values, a.weights))
    _stencil(a, values, out, np.empty_like(out))
    return out


def _stencil(a: Conductances, v: np.ndarray, out: np.ndarray, flux: np.ndarray) -> None:
    """Write the operator applied to ``v`` into ``out``, for fields stacked
    along the leading axes of ``v`` (trailing axes ``a.grid.shape``).

    ``flux`` is scratch space of the shape and dtype of ``out``; both are
    overwritten, so an iterative solve can keep them for its whole run.
    Along axis i the flattened stack is a run of rows, each of N slabs of
    R = N^(d-1-i) sites, so x + e_i lies R places on from x. Each operation
    is one pass over the flattened arrays, and the wrap slab of every row
    is then overwritten with the wrap-round values; this is why ``out`` and
    ``flux`` must be C-contiguous. Each field goes through the same
    elementwise operations in the same order, so a stack maps bit for bit
    like its fields one at a time. Raises ValueError for a non-contiguous
    ``out`` or ``flux``.
    """
    if not (out.flags.c_contiguous and flux.flags.c_contiguous):
        raise ValueError("the stencil's out and flux must be C-contiguous")
    N = a.grid.N
    flat_v, flat_out, flat_flux = v.reshape(-1), out.reshape(-1), flux.reshape(-1)
    out.fill(0)
    for axis, w in enumerate(a.weights):
        R = N ** (a.grid.d - 1 - axis)
        rows_v = flat_v.reshape(-1, N * R)
        rows_out = flat_out.reshape(-1, N * R)
        rows_flux = flat_flux.reshape(-1, N * R)
        # flux(x) = a_i(x) (f(x) - f(x+e_i)), the last slab wrapping round
        np.subtract(flat_v[:-R], flat_v[R:], out=flat_flux[:-R])
        np.subtract(rows_v[:, -R:], rows_v[:, :R], out=rows_flux[:, -R:])
        flux *= w
        # out(x) += flux(x) - flux(x-e_i), the first slab wrapping round
        out += flux
        row_start = rows_out[:, :R] - rows_flux[:, -R:]
        flat_out[R:] -= flat_flux[:-R]
        rows_out[:, :R] = row_start
    out *= N**2


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

