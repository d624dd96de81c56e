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
from itertools import chain

import numpy as np

from .contact import _Bordered, relation_h, relation_slope
from .errors import DimensionError, PreconditionError
from .forms import Form, Point
from .grids import CubeGrid, GridSection, upper_pairs
from .scalars import QC, _affine, _exact_all


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
        # type() is exact: neither a bool nor 1.5 passes as a dimension
        if type(self.n) is not int:
            raise DimensionError(f"n must be an int, got {self.n!r}")
        if self.n < 0:
            raise DimensionError(f"need n >= 0, got {self.n}")
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
    for r < s.  The kernel reads each entry once."""
    p = j.p
    return j.a.__getitem__, lambda r, s: p[s][r] - p[r][s]


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
        if type(self.i) is not int:
            raise DimensionError(f"row index i must be an int, got {self.i!r}")
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

    def __post_init__(self):
        if self.kind not in ("empty", "full", "hyperplane"):
            raise PreconditionError(f"unknown slice kind {self.kind!r}; expected "
                                    "'empty', 'full' or 'hyperplane'")
        if self.kind == "hyperplane" and self.w is None:
            raise PreconditionError("a hyperplane slice needs its slopes w")

    @property
    def is_ample(self) -> bool:
        return self.kind in ("full", "hyperplane")

    def h_of_row(self, row):
        """The affine functional evaluated on a candidate row, in the row's
        ring: an empty slice answers QC(0) for an exact row and 0j for any
        other.  A hyperplane slice's row has the length of w; when c,
        w and the row are all QC, the sum is taken on their triples, and
        any other row goes through the scalars' own operators."""
        if self.kind == "empty":
            return QC(0) if _exact_all(row) is not None else 0j
        if self.kind == "full":
            return self.c
        c, w = self.c, self.w
        if len(row) != len(w):
            raise DimensionError(f"row has length {len(row)}, the slice's w has length {len(w)}")
        total = _affine(c, w, row)
        if total is None:
            total = c
            for wj, rj in zip(w, row):
                total = total + wj * rj
        return total

    def contains(self, row) -> bool:
        return bool(self.h_of_row(row))


def ampleness_slice(e: RestrictedJet) -> SliceClass:
    """Decompose h as an affine function of the free row.

    Row i of p enters beta only through beta_ji = p[i][j] - p[j][i], and
    each Pfaffian term holds at most one beta entry with index i, so h is
    affine in the row: c is h at the zero row and w_j is the slope in
    beta_ji, a signed minor Pfaffian (w_i = 0, the diagonal cancels).  c
    and the m - 1 slopes come from one bordered matrix and share its
    sub-Pfaffians.
    """
    jet, i = e.jet, e.i
    m = jet.m
    # the zero row is exact when every entry the kernel reads is
    read = (*jet.a, *chain.from_iterable(jet.p[:i] + jet.p[i + 1:]))
    zero = QC(0) if _exact_all(read) is not None else 0j
    bordered = _Bordered(*_readers(jet.with_row(i, [zero] * m)), jet.n)
    base = bordered.pf()
    w = [zero if jcol == i else bordered.slope(jcol, i) for jcol in range(m)]
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


def grid_derivative(values: np.ndarray, grid: CubeGrid, axis: int) -> np.ndarray:
    """The derivative of a sampled field along grid axis ``axis``: the
    package's one finite-difference stencil.

    Second-order central differences inside, second-order one-sided at the
    faces (the numpy gradient stencils with edge_order=2).
    """
    return np.gradient(values, grid.h[axis], axis=axis, edge_order=2)


def grid_jacobian(a: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """All first derivatives of an a field: out[..., i, j] = da_i/dx_j."""
    return np.stack([grid_derivative(a, grid, j) for j in range(grid.m)], axis=-1)


def _grid_readers(a: np.ndarray, beta: np.ndarray, n: int):
    # n sizes the columns, so it is checked here before the kernel sees it
    if type(n) is not int or n < 0:
        raise DimensionError(f"n must be an int >= 0, got {n!r}")
    m = 2 * n + 1
    pairs = upper_pairs(m)
    if a.shape[-1:] != (m,) or beta.shape != a.shape[:-1] + (len(pairs),):
        raise DimensionError(f"n = {n} needs a of shape (..., {m}) and beta of shape "
                             f"(..., {len(pairs)}), got {a.shape} and {beta.shape}")
    col = {pair: c for c, pair in enumerate(pairs)}
    return (lambda i: a[..., i]), (lambda r, s: beta[..., col[r, s]])


def relation_grid(a: np.ndarray, beta: np.ndarray, n: int) -> np.ndarray:
    """Vectorized h over a grid: a shape (..., m), beta (..., m(m-1)/2)."""
    return relation_h(*_grid_readers(a, beta, n), n)


def slope_grid(a: np.ndarray, beta: np.ndarray, n: int, r: int, s: int) -> np.ndarray:
    """Vectorized dh/dt under the skew bump beta_rs += t (r != s)."""
    return relation_slope(*_grid_readers(a, beta, n), n, r, s)


def curl_grid(a: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """The finite-difference curl of an a field: skew of its jacobian, the
    beta a holonomic section carries.

    Only the m(m-1) off-diagonal derivatives are taken, one component at a
    time: column (r, s) is da_s/dx_r - da_r/dx_s, bit for bit
    ``jac[..., s, r] - jac[..., r, s]`` of ``jac = grid_jacobian(a, grid)``.
    The columns are stacked as planes, so the result is component-major."""
    return np.moveaxis(np.stack([grid_derivative(a[..., s], grid, r)
                                 - grid_derivative(a[..., r], grid, s)
                                 for r, s in upper_pairs(grid.m)]), 0, -1)


def holonomy_defect(s: GridSection) -> float:
    """Max abs upper entry of the finite-difference curl minus beta.

    Zero (up to stencil error) exactly when beta really is the curl of a,
    i.e. the section is holonomic.
    """
    return float(np.max(np.abs(curl_grid(s.a, s.grid) - s.beta)))


def formal_margin_grid(s: GridSection) -> np.ndarray:
    """|h| per node using the declared beta field (formal membership)."""
    return np.abs(relation_grid(s.a, s.beta, s.grid.n))

