"""Uniform cube grids in R^(2n+1) and per-node section data.

The convex-integration solver and its verifier work on sampled data: a
complex vector field a (the dz-coefficients of a 1-form restricted to the
real slice) and a skew matrix field beta (the formal stand-in for the curl
of a).  Grids are uniform per axis; all heavy numerics are numpy arrays
indexed [i1, ..., im] with trailing component axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import Expr, LaurentPoly
from .errors import DimensionError, PoleError, PreconditionError
from .forms import Form

MIN_NODES = 5  # the second-order one-sided stencils reach two nodes in


class CubeGrid:
    """A uniform grid on a product of intervals in R^m, m = 2n+1."""

    __slots__ = ("n", "m", "nodes", "bounds", "h")

    def __init__(self, n: int, nodes: int = 33,
                 bounds: list[tuple[float, float]] | None = None):
        if n < 1:
            raise DimensionError("need n >= 1")
        if nodes < MIN_NODES:
            raise PreconditionError(f"stencils need at least {MIN_NODES} nodes per axis")
        self.n = n
        self.m = 2 * n + 1
        self.nodes = nodes
        if bounds is None:
            bounds = [(0.0, 1.0)] * self.m
        if len(bounds) != self.m:
            raise DimensionError("bounds count != 2n+1")
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        for lo, hi in self.bounds:
            if not hi > lo:
                raise PreconditionError(f"empty axis interval [{lo}, {hi}]")
        self.h = tuple((hi - lo) / (nodes - 1) for lo, hi in self.bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes,) * self.m

    @property
    def n_nodes(self) -> int:
        return self.nodes ** self.m

    def axis(self, k: int) -> np.ndarray:
        lo, hi = self.bounds[k]
        return np.linspace(lo, hi, self.nodes)

    def axes(self) -> list[np.ndarray]:
        return [self.axis(k) for k in range(self.m)]

    def node_coords(self, idx: tuple[int, ...]) -> tuple[float, ...]:
        if len(idx) != self.m:
            raise DimensionError("node index length != m")
        out = []
        for k, i in enumerate(idx):
            if not 0 <= i < self.nodes:
                raise DimensionError(f"node index {idx} out of range")
            lo, _ = self.bounds[k]
            out.append(lo + i * self.h[k])
        return tuple(out)

    def interior_mask(self, width: int = 1) -> np.ndarray:
        """Boolean mask excluding ``width`` node layers at every face."""
        mask = np.zeros(self.shape, dtype=bool)
        core = tuple(slice(width, self.nodes - width) for _ in range(self.m))
        mask[core] = True
        return mask

    def refine(self) -> "CubeGrid":
        """Same cube, mesh halved (nodes -> 2*nodes - 1)."""
        return CubeGrid(self.n, 2 * self.nodes - 1, self.bounds)

    def __eq__(self, other):
        if not isinstance(other, CubeGrid):
            return NotImplemented
        return (self.n, self.nodes, self.bounds) == (other.n, other.nodes, other.bounds)

    def __repr__(self):
        return f"CubeGrid(n={self.n}, nodes={self.nodes})"


def laurent_on_grid(poly: LaurentPoly, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate a Laurent coefficient on the real slice over a product grid.

    On the slice both z_k and zbar_k equal the real coordinate x_k, so a
    monomial contributes the product of per-axis power vectors; evaluation
    is a sum of outer products, never a per-node Python loop.
    """
    m = poly.m
    if len(axes) != m:
        raise DimensionError("axis count != number of variables")
    shape = tuple(len(ax) for ax in axes)
    out = np.zeros(shape, dtype=complex)
    pow_cache: dict[tuple[int, int], np.ndarray] = {}

    def axis_pow(k: int, e: int) -> np.ndarray:
        key = (k, e)
        got = pow_cache.get(key)
        if got is None:
            ax = axes[k]
            if e < 0 and np.any(ax == 0):
                raise PoleError(f"negative exponent on axis {k + 1} touching 0")
            got = ax.astype(float) ** e
            pow_cache[key] = got
        return got

    for mono, coeff in poly.terms.items():
        term = np.full(shape, complex(coeff))
        for k in range(m):
            e = mono.zexp[k] + mono.zbarexp[k]
            if e == 0:
                continue
            vec = axis_pow(k, e)
            idx = [None] * m
            idx[k] = slice(None)
            term = term * vec[tuple(idx)]
        out += term
    return out


def expr_on_grid(expr: Expr, axes: list[np.ndarray]) -> np.ndarray:
    """Pointwise Expr evaluation over a product grid (Python-loop fallback)."""
    shape = tuple(len(ax) for ax in axes)
    out = np.empty(shape, dtype=complex)
    grids = np.meshgrid(*axes, indexing="ij")
    flat = [g.ravel() for g in grids]
    res = out.ravel()
    for pos in range(res.size):
        z = [complex(f[pos]) for f in flat]
        res[pos] = expr.eval(z)
    return out


def coefficient_on_grid(coeff, axes: list[np.ndarray]) -> np.ndarray:
    if isinstance(coeff, LaurentPoly):
        return laurent_on_grid(coeff, axes)
    return expr_on_grid(coeff, axes)


class GridSection:
    """Sampled pair (a, beta) over a cube grid.

    ``a`` has shape grid.shape + (m,), ``beta`` grid.shape + (m, m) and is
    exactly antisymmetric in its last two axes.
    """

    __slots__ = ("grid", "a", "beta")

    def __init__(self, grid: CubeGrid, a: np.ndarray, beta: np.ndarray):
        m = grid.m
        a = np.asarray(a, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        if a.shape != grid.shape + (m,):
            raise DimensionError(f"a field shape {a.shape} != {grid.shape + (m,)}")
        if beta.shape != grid.shape + (m, m):
            raise DimensionError("beta field shape mismatch")
        if not np.array_equal(beta, -np.swapaxes(beta, -1, -2)):
            raise DimensionError("beta field is not antisymmetric")
        if not (np.all(np.isfinite(a.view(float))) and np.all(np.isfinite(beta.view(float)))):
            raise PreconditionError("section contains non-finite values")
        self.grid = grid
        self.a = a
        self.beta = beta

    @classmethod
    def sample(cls, grid: CubeGrid, alpha: Form, beta: Form | None = None) -> "GridSection":
        """Sample symbolic forms on the real slice of the grid.

        ``alpha`` contributes its dz-coefficients; ``beta`` (a 2-form,
        default d alpha) contributes its dz_i^dz_j coefficients.
        """
        from .forms import ext_d
        m = grid.m
        if alpha.m != m or alpha.degree != 1:
            raise DimensionError("alpha must be a 1-form on C^(2n+1)")
        if beta is None:
            beta = ext_d(alpha)
        if beta.m != m or beta.degree != 2:
            raise DimensionError("beta must be a 2-form on C^(2n+1)")
        axes = grid.axes()
        a = np.zeros(grid.shape + (m,), dtype=complex)
        for i in range(m):
            coeff = alpha.terms.get((i,))
            if coeff is not None:
                a[..., i] = coefficient_on_grid(coeff, axes)
        beta_arr = np.zeros(grid.shape + (m, m), dtype=complex)
        for (i, j), coeff in beta.terms.items():
            if i < m and j < m:
                vals = coefficient_on_grid(coeff, axes)
                beta_arr[..., i, j] = vals
                beta_arr[..., j, i] = -vals
        return cls(grid, a, beta_arr)

    def copy(self) -> "GridSection":
        return GridSection(self.grid, self.a.copy(), self.beta.copy())

    def sup_deviation(self, other: "GridSection") -> float:
        """Max over nodes of the max-abs component difference of a."""
        if self.grid != other.grid:
            raise DimensionError("sections on different grids")
        return float(np.max(np.abs(self.a - other.a)))

    def max_beta_deviation(self, other: "GridSection") -> float:
        return float(np.max(np.abs(self.beta - other.beta)))

    def __eq__(self, other):
        if not isinstance(other, GridSection):
            return NotImplemented
        return (self.grid == other.grid and np.array_equal(self.a, other.a)
                and np.array_equal(self.beta, other.beta))

    def __repr__(self):
        return f"GridSection({self.grid!r})"


def _smoothstep5(u: np.ndarray) -> np.ndarray:
    """Quintic ramp with vanishing first and second derivatives at 0 and 1."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class GammaSpec:
    """Frozen boundary strips: full faces only, each with a node-width strip.

    ``faces`` holds (axis, side) pairs with side 0 for the low face and 1
    for the high face.  Corrections are multiplied by a quintic cutoff that
    is exactly zero on the strip plus one extra node layer, so stencils
    evaluated inside the strip never see corrected values.
    """

    faces: frozenset = field(default_factory=frozenset)
    width: int = 3

    def __post_init__(self):
        for axis, side in self.faces:
            if side not in (0, 1) or axis < 0:
                raise DimensionError(f"bad face spec ({axis}, {side})")
        if self.width < 1:
            raise PreconditionError("strip width must be >= 1 node")

    @classmethod
    def empty(cls) -> "GammaSpec":
        return cls(frozenset())

    @classmethod
    def of(cls, faces, width: int = 3) -> "GammaSpec":
        return cls(frozenset(faces), width)

    @property
    def is_empty(self) -> bool:
        return not self.faces

    def frozen_mask(self, grid: CubeGrid) -> np.ndarray:
        """Nodes inside a declared strip (width nodes from a frozen face)."""
        mask = np.zeros(grid.shape, dtype=bool)
        for axis, side in self.faces:
            if axis >= grid.m:
                raise DimensionError(f"face axis {axis} out of range")
            sl = [slice(None)] * grid.m
            if side == 0:
                sl[axis] = slice(0, self.width)
            else:
                sl[axis] = slice(grid.nodes - self.width, grid.nodes)
            mask[tuple(sl)] = True
        return mask

    def cutoff_field(self, grid: CubeGrid) -> np.ndarray:
        """Multiplier in [0,1]: 0 on the strip plus guard nodes, then a
        quintic ramp to 1.

        The guard nodes keep second-order stencils evaluated at strip nodes
        entirely inside unmodified data.
        """
        ramp = max(4, self.width + 2)
        out = np.ones(grid.shape)
        idx = np.arange(grid.nodes, dtype=float)
        for axis, side in self.faces:
            if axis >= grid.m:
                raise DimensionError(f"face axis {axis} out of range")
            dist = idx if side == 0 else idx[::-1]
            u = (dist - (self.width + 1)) / ramp
            factor = _smoothstep5(u)
            shp = [1] * grid.m
            shp[axis] = grid.nodes
            out = out * factor.reshape(shp)
        return out
