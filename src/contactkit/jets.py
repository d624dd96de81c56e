"""First-order jets and the open relation controlling the contact condition.

A 1-jet is a value vector a together with a derivative matrix p with the
convention p[i][j] = da_i/dx_j.  With beta_rs = p[s][r] - p[r][s] the
relation value is h = n! Pf([[0, a^T], [-a, beta]]); a jet belongs to the
relation iff h != 0.  Restricting to one row (or column) of p, h is
affine, which is what makes the relation ample in coordinate directions;
the coefficients of that affine function are the slopes dh/dbeta_rs,
signed minor Pfaffians of the bordered matrix (see ``contact``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import relation_h, relation_slope
from .errors import DimensionError, PreconditionError
from .forms import Form, Point
from .grids import CubeGrid, GridSection
from .scalars import QC


@dataclass(frozen=True)
class Jet1:
    """A point of the 1-jet space: value vector a, derivative matrix p.

    Entries are QC (exact) or complex (numeric); rows of p are indexed by
    the component i, columns by the differentiation direction j.
    """

    n: int
    a: tuple
    p: tuple

    def __post_init__(self):
        m = 2 * self.n + 1
        if len(self.a) != m:
            raise DimensionError(f"a has length {len(self.a)}, expected {m}")
        if len(self.p) != m or any(len(row) != m for row in self.p):
            raise DimensionError("p is not a (2n+1) x (2n+1) matrix")

    @property
    def m(self) -> int:
        return 2 * self.n + 1

    @classmethod
    def build(cls, n: int, a, p) -> "Jet1":
        return cls(n, tuple(a), tuple(tuple(row) for row in p))

    def with_row(self, i: int, row) -> "Jet1":
        rows = list(self.p)
        rows[i] = tuple(row)
        return Jet1(self.n, self.a, tuple(rows))


def _readers(j: Jet1):
    """Kernel readers of a jet: a(i), and beta(r, s) = p[s][r] - p[r][s]
    built once for r < s."""
    m = j.m
    beta = {(r, s): j.p[s][r] - j.p[r][s] for r in range(m) for s in range(r + 1, m)}
    return j.a.__getitem__, lambda r, s: beta[r, s]


def relation_value(j: Jet1):
    """h = n! Pf([[0, a^T], [-a, beta]]) with beta = skew(p).  The jet is
    in the relation iff the result is nonzero."""
    return relation_h(*_readers(j), j.n)


@dataclass(frozen=True)
class RestrictedJet:
    """A jet with one derivative row singled out as free.

    ``i`` is the 0-based row index; the stored row values of p are probe
    defaults, not constraints.
    """

    jet: Jet1
    i: int

    def __post_init__(self):
        if not 0 <= self.i < self.jet.m:
            raise DimensionError(f"row index {self.i} out of range")


@dataclass(frozen=True)
class SliceClass:
    """Classification of {row : h(row) != 0} for one free derivative row.

    kind 'empty': h is identically zero over the row.
    kind 'full': h is a nonzero constant; the slice is all of C^(2n+1).
      (Degenerate but still ample: the convex hull is everything.)
    kind 'hyperplane': h = <w, row> + c with w != 0; the slice is the
      complement of one affine complex hyperplane, which is connected and
      has full convex hull.
    """

    kind: str
    w: tuple | None = None
    c: object = 0

    @property
    def is_ample(self) -> bool:
        return self.kind in ("full", "hyperplane")

    def h_of_row(self, row):
        """The affine functional evaluated on a candidate row."""
        if self.kind == "empty":
            return 0
        if self.kind == "full":
            return self.c
        total = self.c
        for wj, rj in zip(self.w, row):
            total = total + wj * rj
        return total

    def contains(self, row) -> bool:
        return bool(self.h_of_row(row))


def _zero_like(template):
    return QC(0) if isinstance(template, QC) else 0j


def ampleness_slice(e: RestrictedJet) -> SliceClass:
    """Decompose h as an affine function of the free row.

    Row i of p enters beta only through beta_ji = p[i][j] - p[j][i], and
    each Pfaffian term holds at most one beta entry with index i, so h is
    affine in the row: c is h at the zero row and w_j is the slope in
    beta_ji, a signed minor Pfaffian (w_i = 0, the diagonal cancels).
    """
    jet, i = e.jet, e.i
    m = jet.m
    zero = _zero_like(jet.a[0])
    readers = _readers(jet.with_row(i, [zero] * m))
    base = relation_h(*readers, jet.n)
    w = [zero if jcol == i else relation_slope(*readers, jet.n, jcol, i)
         for jcol in range(m)]
    if not any(w):
        if not base:
            return SliceClass("empty")
        return SliceClass("full", None, base)
    return SliceClass("hyperplane", tuple(w), base)


def holonomic_jet(alpha: Form, pt: Point) -> Jet1:
    """The jet of a symbolic 1-form at a point of the real slice.

    a_i is the dz_i coefficient; p[i][j] is its z_j derivative.  On the
    real slice the z-derivative is the honest coordinate derivative of the
    restricted coefficient, so this jet is holonomic by construction.
    """
    m = alpha.m
    if m % 2 == 0:
        raise DimensionError("jet space needs odd dimension")
    if alpha.degree != 1:
        raise DimensionError("holonomic_jet expects a 1-form")
    coeffs = [alpha.coeff((i,)) for i in range(m)]
    a = [c.eval(pt.values) for c in coeffs]
    p = [[c.diff_z(jcol).eval(pt.values) for jcol in range(m)] for c in coeffs]
    return Jet1.build((m - 1) // 2, a, p)


def grid_jacobian(a: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """All first derivatives of an a field: out[..., i, j] = da_i/dx_j.

    Second-order central differences inside, second-order one-sided at the
    faces (the numpy gradient stencils with edge_order=2).
    """
    m = grid.m
    out = np.empty(grid.shape + (m, m), dtype=complex)
    for i in range(m):
        comp = a[..., i]
        for j in range(m):
            out[..., i, j] = np.gradient(comp, grid.h[j], axis=j, edge_order=2)
    return out


def finite_diff_jet(s: GridSection, node: tuple[int, ...]) -> Jet1:
    """The finite-difference jet of the sampled a field at one node."""
    grid = s.grid
    m = grid.m
    node = tuple(node)
    if len(node) != m or any(not 0 <= k < grid.nodes for k in node):
        raise DimensionError(f"node {node} out of range")
    a = [complex(v) for v in s.a[node]]
    p = [[0j] * m for _ in range(m)]
    for j in range(m):
        h = grid.h[j]
        kj = node[j]

        def shifted(offset: int) -> np.ndarray:
            idx = list(node)
            idx[j] = kj + offset
            return s.a[tuple(idx)]

        if 0 < kj < grid.nodes - 1:
            deriv = (shifted(1) - shifted(-1)) / (2 * h)
        elif kj == 0:
            deriv = (-3 * shifted(0) + 4 * shifted(1) - shifted(2)) / (2 * h)
        else:
            deriv = (3 * shifted(0) - 4 * shifted(-1) + shifted(-2)) / (2 * h)
        for i in range(m):
            p[i][j] = complex(deriv[i])
    return Jet1.build((m - 1) // 2, a, p)


def skew_of_jacobian(jac: np.ndarray) -> np.ndarray:
    """beta[..., i, j] = p[..., j, i] - p[..., i, j], exactly antisymmetric."""
    return np.swapaxes(jac, -1, -2) - jac


def _grid_readers(a: np.ndarray, beta: np.ndarray):
    return (lambda i: a[..., i]), (lambda r, s: beta[..., r, s])


def relation_grid(a: np.ndarray, beta: np.ndarray, n: int) -> np.ndarray:
    """Vectorized h over a grid: a shape (..., m), beta shape (..., m, m)."""
    return relation_h(*_grid_readers(a, beta), n)


def slope_grid(a: np.ndarray, beta: np.ndarray, n: int, r: int, s: int) -> np.ndarray:
    """Vectorized dh/dt under beta_rs += t, beta_sr -= t (r != s)."""
    return relation_slope(*_grid_readers(a, beta), n, r, s)


def curl_grid(a: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """The finite-difference curl of an a field: skew of its jacobian, the
    beta a holonomic section carries."""
    return skew_of_jacobian(grid_jacobian(a, grid))


def holonomy_defect(s: GridSection) -> float:
    """Max abs entry of the finite-difference curl minus beta.

    Zero (up to stencil error) exactly when beta really is the curl of a,
    i.e. the section is holonomic.
    """
    return float(np.max(np.abs(curl_grid(s.a, s.grid) - s.beta)))


def formal_margin_grid(s: GridSection) -> np.ndarray:
    """|h| per node using the declared beta field (formal membership)."""
    return np.abs(relation_grid(s.a, s.beta, s.grid.n))


def require_formal_margin(s: GridSection, floor: float) -> float:
    """PreconditionError (naming the worst node) unless the formal margin
    clears ``floor`` everywhere."""
    margins = formal_margin_grid(s)
    worst = float(margins.min())
    if worst < floor or worst == 0.0:
        node = np.unravel_index(int(margins.argmin()), margins.shape)
        raise PreconditionError(
            f"formal margin {worst:.3e} below {floor:.3e} at node {tuple(int(k) for k in node)}"
        )
    return worst
