"""Uniform cube grids in R^(2n+1), per-node section data and frozen strips.

The convex-integration solver and its verifier work on sampled data: a
complex vector field a (the dz-coefficients of a 1-form restricted to the
real slice) and a skew matrix field beta (the formal stand-in for the curl
of a), stored as its entries above the diagonal in ``upper_pairs`` order.
Grids are uniform per axis; all heavy numerics are numpy arrays indexed
[i1, ..., im] with trailing component axes, stored component-major.

This module is numpy geometry only and knows nothing of forms or their
coefficients: sections are built from arrays (the solver demos,
``jets.curl_grid``, the section reader) and checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionError, PreconditionError, _count

MIN_NODES = 5  # the second-order one-sided stencils reach two nodes in


def _component_major(arr: np.ndarray) -> np.ndarray:
    """``arr`` (itself if already so laid out, else a copy) with its last
    axis slowest in memory: each ``arr[..., c]`` is one contiguous block.
    Ufuncs keep this layout (numpy's order "K")."""
    planes = np.moveaxis(arr, -1, 0)
    return arr if planes.flags.c_contiguous else np.moveaxis(planes.copy(), 0, -1)


def upper_pairs(m: int) -> list[tuple[int, int]]:
    """The upper-triangle pairs (r, s), r < s, row by row: (0,1), (0,2), ...,
    (m-2,m-1).  Column c of a sampled beta is the entry at upper_pairs(m)[c]."""
    return list(combinations(range(_count(m, "dimension m", 0)), 2))


class CubeGrid:
    """A uniform grid on a product of intervals in R^m, m = 2n+1."""

    __slots__ = ("n", "m", "nodes", "bounds", "h")

    def __init__(self, n: int, nodes: int = 33,
                 bounds: list[tuple[float, float]] | None = None):
        _count(n, "n", 1)
        _count(nodes, "nodes per axis", MIN_NODES, PreconditionError)
        self.n = n
        self.m = 2 * n + 1
        self.nodes = nodes
        if bounds is None:
            bounds = [(0.0, 1.0)] * self.m
        if len(bounds) != self.m:
            raise DimensionError("bounds count != 2n+1")
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        self.h = tuple((hi - lo) / (nodes - 1) for lo, hi in self.bounds)
        for k, ((lo, hi), h) in enumerate(zip(self.bounds, self.h)):
            # an empty or reversed interval gives a step <= 0 and a NaN bound a
            # NaN step; finite bounds far apart overflow hi - lo to inf, and a
            # subnormal interval divides down to a zero step
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < h < math.inf):
                raise PreconditionError(f"axis {k}: interval [{lo}, {hi}] and mesh "
                                        f"step {h} must be finite and the step positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes,) * self.m

    @property
    def n_nodes(self) -> int:
        return self.nodes ** self.m

    def axis(self, k: int) -> np.ndarray:
        if _count(k, "axis k", 0) >= self.m:
            raise DimensionError(f"axis {k} does not exist on a grid in R^{self.m}")
        lo, hi = self.bounds[k]
        return np.linspace(lo, hi, self.nodes)

    def node_coords(self, idx: tuple[int, ...]) -> tuple[float, ...]:
        if len(idx) != self.m:
            raise DimensionError("node index length != m")
        out = []
        for k, i in enumerate(idx):
            if not 0 <= _count(i, f"node index {idx}") < self.nodes:
                raise DimensionError(f"node index {idx} out of range")
            lo, _ = self.bounds[k]
            out.append(lo + i * self.h[k])
        return tuple(out)

    def interior_mask(self) -> np.ndarray:
        """Boolean mask excluding the outer node layer at every face."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, self.nodes - 1),) * self.m] = True
        return mask

    def __eq__(self, other):
        if not isinstance(other, CubeGrid):
            return NotImplemented
        return (self.n, self.nodes, self.bounds) == (other.n, other.nodes, other.bounds)

    def __repr__(self):
        return f"CubeGrid(n={self.n}, nodes={self.nodes})"


def _require_finite(a: np.ndarray, beta: np.ndarray) -> None:
    """The constructor's refusal of a NaN or an infinite part, also taken
    by the verifier on an output changed in place."""
    if not (np.isfinite(a).all() and np.isfinite(beta).all()):
        raise PreconditionError("section contains non-finite values")


class GridSection:
    """Sampled pair (a, beta) over a cube grid.

    ``a`` has shape grid.shape + (m,) and ``beta`` grid.shape + (m(m-1)/2,):
    column c of beta is the skew entry at ``upper_pairs(m)[c]``, so beta is
    antisymmetric by construction.  Both are stored component-major
    (``_component_major``); outside data is copied into that layout once.
    """

    __slots__ = ("grid", "a", "beta")

    def __init__(self, grid: CubeGrid, a: np.ndarray, beta: np.ndarray):
        m = grid.m
        a = np.asarray(a, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        for name, arr, width in (("a", a, m), ("beta", beta, m * (m - 1) // 2)):
            if arr.shape != grid.shape + (width,):
                raise DimensionError(f"{name} field shape {arr.shape} != {grid.shape + (width,)}")
        _require_finite(a, beta)
        self.grid = grid
        self.a = _component_major(a)
        self.beta = _component_major(beta)

    def copy(self) -> "GridSection":
        # order "K" keeps the layout; the checks stay, for a changed output
        return GridSection(self.grid, self.a.copy(order="K"), self.beta.copy(order="K"))

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
    is exactly zero on the strip plus two further node layers (through
    distance width + 1 from the face), so stencils evaluated inside the
    strip never see corrected values.
    """

    faces: frozenset = field(default_factory=frozenset)
    width: int = 3

    def __post_init__(self):
        for face in self.faces:
            bad = f"bad face spec {face!r}"
            if not (type(face) is tuple and len(face) == 2
                    and _count(face[1], f"{bad}: side", 0) <= 1):
                raise DimensionError(f"{bad}: need (int axis >= 0, side 0 or 1)")
            _count(face[0], f"{bad}: axis", 0)
        _count(self.width, "strip width", 1, PreconditionError)

    @classmethod
    def empty(cls) -> "GammaSpec":
        return cls(frozenset())

    @classmethod
    def of(cls, faces, width: int = 3) -> "GammaSpec":
        return cls(frozenset(faces), width)

    @property
    def is_empty(self) -> bool:
        return not self.faces

    def _faces_on(self, grid: CubeGrid):
        """The (axis, side) faces, each axis checked against the grid's."""
        for axis, side in self.faces:
            if axis >= grid.m:
                raise DimensionError(f"face axis {axis} out of range")
            yield axis, side

    def strips(self, grid: CubeGrid):
        """Each declared strip (width nodes from a frozen face) as a tuple of
        slices into a grid-shaped array."""
        for axis, side in self._faces_on(grid):
            sl = [slice(None)] * grid.m
            if side == 0:
                sl[axis] = slice(0, self.width)
            else:
                sl[axis] = slice(grid.nodes - self.width, grid.nodes)
            yield tuple(sl)

    def frozen_mask(self, grid: CubeGrid) -> np.ndarray:
        """Nodes inside a declared strip: the union of ``strips``."""
        mask = np.zeros(grid.shape, dtype=bool)
        for strip in self.strips(grid):
            mask[strip] = True
        return mask

    def cutoff_field(self, grid: CubeGrid) -> np.ndarray:
        """Multiplier in [0,1]: 0 on the strip plus two guard node layers
        (distance <= width + 1 from a frozen face), then a quintic ramp to 1
        over max(4, width + 2) nodes.

        The guard layers keep the second-order stencils evaluated at strip
        nodes, which reach two nodes in, entirely inside unmodified data.
        """
        ramp = max(4, self.width + 2)
        out = np.ones(grid.shape)
        idx = np.arange(grid.nodes, dtype=float)
        for axis, side in self._faces_on(grid):
            dist = idx if side == 0 else idx[::-1]
            u = (dist - (self.width + 1)) / ramp
            factor = _smoothstep5(u)
            shp = [1] * grid.m
            shp[axis] = grid.nodes
            out = out * factor.reshape(shp)
        return out
