"""Extension of real-slice data into C^m with controlled dbar-defect.

A function f on the real slice y = 0 extends to
F = sum_{|I| <= l} (1/I!) (d^I f)(x) (iy)^I, whose antiholomorphic
derivative vanishes on the slice together with all derivatives up to
order l-1.  Symbolically this stays inside the Laurent ring after the
substitutions x = (z + zbar)/2 and iy = (z - zbar)/2.  The sampled
variant carries stencil jets instead of symbols and has an exactly
y-homogeneous residual.

The same module hosts the asymptotic-holomorphy checks (three vanishing
families at slice points) and the least-squares holomorphic fit used to
close the loop from sampled output back to a symbolic form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from .coefficients import Coefficient, LaurentPoly, Monomial
from .errors import DimensionError, PreconditionError, VariantError
from .forms import Form, PolyMap, pullback
from .grids import CubeGrid
from .reports import fmt_num
from .scalars import QC


def multi_indices(m: int, max_total: int, exact_total: int | None = None):
    """Multi-indices over m slots with bounded (or fixed) total degree."""
    if exact_total is not None:
        totals = [exact_total]
    else:
        totals = range(max_total + 1)
    for total in totals:
        for cuts in itertools.combinations(range(total + m - 1), m - 1):
            prev = -1
            idx = []
            for c in cuts:
                idx.append(c - prev - 1)
                prev = c
            idx.append(total + m - 2 - prev)
            yield tuple(idx)


def _index_factorial(I: tuple[int, ...]) -> int:
    out = 1
    for k in I:
        out *= factorial(k)
    return out


def _check_real_slice_poly(f: LaurentPoly) -> None:
    if f.has_zbar:
        raise PreconditionError("real-slice data must not involve zbar variables")
    if f.has_negative_exponent:
        raise PreconditionError("symbolic extension needs polynomial data (no poles)")


def extend_function(f: LaurentPoly, l: int) -> LaurentPoly:
    """Extend a polynomial on the real slice to a dbar-flat function.

    The result restricts to f on y = 0 and has dbar-derivative vanishing
    there to order l-1.  For f = x^I with l = |I| the output is exactly
    z^I.
    """
    if l < 1:
        raise PreconditionError("extension order l must be >= 1")
    _check_real_slice_poly(f)
    m = f.m
    half = Fraction(1, 2)
    halfsum = [(LaurentPoly.z(m, k) + LaurentPoly.zbar(m, k)) * half for k in range(m)]
    halfdiff = [(LaurentPoly.z(m, k) - LaurentPoly.zbar(m, k)) * half for k in range(m)]

    # d^I f by increasing |I|, each level differentiating the previous one
    derivs: dict[tuple[int, ...], LaurentPoly] = {(0,) * m: f}
    for total in range(1, l + 1):
        for I in multi_indices(m, 0, exact_total=total):
            k = next(i for i, e in enumerate(I) if e > 0)
            lower = tuple(e - (1 if i == k else 0) for i, e in enumerate(I))
            derivs[I] = derivs[lower].diff_z(k)

    total_poly = LaurentPoly.zero(m)
    for I, dI in derivs.items():
        if dI.is_zero:
            continue
        term = dI.substitute(halfsum) * Fraction(1, _index_factorial(I))
        for k, e in enumerate(I):
            for _ in range(e):
                term = term * halfdiff[k]
        total_poly = total_poly + term
    return total_poly


def extend_form(coeffs: list[LaurentPoly], l: int) -> Form:
    """Componentwise extension producing the (1,0)-form sum F_i dz_i."""
    if not coeffs:
        raise DimensionError("need at least one coefficient")
    m = len(coeffs)
    terms = {}
    for i, f in enumerate(coeffs):
        if f.m != m:
            raise DimensionError("coefficient variable count != number of components")
        F = extend_function(f, l)
        if not F.is_zero:
            terms[(i,)] = F
    return Form(m, 1, terms, "laurent")


def _wirtinger_derivative(c: Coefficient, slot: int, m: int) -> Coefficient:
    """Derivative along Wirtinger slot: 0..m-1 are z, m..2m-1 are zbar."""
    if slot < m:
        return c.diff_z(slot)
    return c.diff_zbar(slot - m)


def _coefficients_of(target, m_hint: int | None = None):
    """Normalize Form / PolyMap / Coefficient input to (m, coefficients)."""
    if isinstance(target, Form):
        return target.m, list(target.terms.values())
    if isinstance(target, PolyMap):
        return target.m_src, list(target.components)
    if isinstance(target, LaurentPoly):
        return target.m, [target]
    from .coefficients import Expr
    if isinstance(target, Expr):
        if m_hint is None:
            raise DimensionError("expression input needs an explicit variable count")
        return m_hint, [target]
    raise VariantError(f"cannot measure dbar defect of {type(target).__name__}")


def dbar_defect(target, samples, order: int, m: int | None = None) -> float:
    """Max norm of derivatives of the dbar-components up to order-1.

    ``target`` may be a Coefficient, a Form, or a PolyMap; samples should
    lie on the real slice for the flatness semantics to apply, though the
    evaluation itself works anywhere.
    """
    if order < 1:
        raise PreconditionError("defect order must be >= 1")
    m, coeffs = _coefficients_of(target, m)
    worst = 0.0
    for c in coeffs:
        for j in range(m):
            g = c.diff_zbar(j)
            for gamma in multi_indices(2 * m, order - 1):
                d = g
                for slot, times in enumerate(gamma):
                    for _ in range(times):
                        d = _wirtinger_derivative(d, slot, m)
                if d.is_zero:
                    continue
                for pt in samples:
                    worst = max(worst, abs(complex(d.eval(pt.values))))
    return worst


class SampledExtension:
    """dbar-flat extension of grid-sampled slice data.

    Stores stencil jets J_I for |I| <= l+1 (second-order differences),
    so the dbar-residual at height y is exactly the homogeneous-degree-l
    polynomial (1/2) sum_{|I|=l} (1/I!) J_{I+e_j}(x) (iy)^I.
    """

    def __init__(self, grid: CubeGrid, values: np.ndarray, l: int):
        if l < 1:
            raise PreconditionError("extension order l must be >= 1")
        if values.shape != grid.shape:
            raise DimensionError("value field shape != grid shape")
        if grid.nodes < l + 2:
            raise PreconditionError("grid too small for the requested jets")
        self.grid = grid
        self.l = l
        m = grid.m
        jets: dict[tuple[int, ...], np.ndarray] = {(0,) * m: np.asarray(values, dtype=complex)}
        for total in range(1, l + 2):
            for I in multi_indices(m, 0, exact_total=total):
                k = next(i for i, e in enumerate(I) if e > 0)
                lower = tuple(e - (1 if i == k else 0) for i, e in enumerate(I))
                jets[I] = np.gradient(jets[lower], grid.h[k], axis=k, edge_order=2)
        self.jets = jets

    def value(self, node: tuple[int, ...], y: tuple[float, ...]) -> complex:
        """F at the complex point (node coordinates) + i y."""
        m = self.grid.m
        iy = [1j * float(c) for c in y]
        total = 0j
        for I, J in self.jets.items():
            if sum(I) > self.l:
                continue
            term = complex(J[node]) / _index_factorial(I)
            for k, e in enumerate(I):
                term *= iy[k] ** e
            total += term
        return total

    def dbar_residual(self, node: tuple[int, ...], y: tuple[float, ...], j: int) -> complex:
        """The zbar_j derivative of the extension at (node) + i y."""
        m = self.grid.m
        iy = [1j * float(c) for c in y]
        total = 0j
        ej = tuple(1 if k == j else 0 for k in range(m))
        for I in multi_indices(m, 0, exact_total=self.l):
            bumped = tuple(a + b for a, b in zip(I, ej))
            term = complex(self.jets[bumped][node]) / _index_factorial(I)
            for k, e in enumerate(I):
                term *= iy[k] ** e
            total += term
        return total / 2

    def max_residual(self, nodes, y: tuple[float, ...]) -> float:
        worst = 0.0
        for node in nodes:
            for j in range(self.grid.m):
                worst = max(worst, abs(self.dbar_residual(node, y, j)))
        return worst


@dataclass
class AHReport:
    """Asymptotic-holomorphy check: three vanishing families at samples."""

    tol: float
    max_dbar_a: float = 0.0
    max_b: float = 0.0
    max_db: float = 0.0
    n_samples: int = 0
    precondition_note: str = ""

    @property
    def passed(self) -> bool:
        if self.precondition_note:
            return False
        return max(self.max_dbar_a, self.max_b, self.max_db) <= self.tol

    def failing_families(self) -> list[str]:
        out = []
        if self.max_dbar_a > self.tol:
            out.append("dbar(a)")
        if self.max_b > self.tol:
            out.append("b")
        if self.max_db > self.tol:
            out.append("d(b)")
        return out

    def to_text(self) -> str:
        lines = ["== asymptotic holomorphy =="]
        if self.precondition_note:
            lines.append(f"PRECONDITION FAILED: {self.precondition_note}")
        lines.append(f"samples: {self.n_samples}")
        lines.append(f"max |dbar a_i|: {fmt_num(self.max_dbar_a)}")
        lines.append(f"max |b_i|:      {fmt_num(self.max_b)}")
        lines.append(f"max |d b_i|:    {fmt_num(self.max_db)}")
        lines.append(f"tolerance:      {fmt_num(self.tol)}")
        verdict = "OK" if self.passed else "FAILED"
        if not self.passed and not self.precondition_note:
            verdict += " (" + ", ".join(self.failing_families()) + ")"
        lines.append(f"result: {verdict}")
        return "\n".join(lines) + "\n"


def ah_verify(alpha: Form, samples, tol: float) -> AHReport:
    """Check the three vanishing families of asymptotic holomorphy.

    At each sample: every zbar-derivative of the dz-coefficients a_i, the
    dzbar-coefficients b_i themselves, and every first derivative of the
    b_i must be small.
    """
    if alpha.degree != 1:
        raise DimensionError("ah_verify expects a 1-form")
    m = alpha.m
    report = AHReport(tol=tol)

    a_coeffs = {i: alpha.terms.get((i,)) for i in range(m)}
    b_coeffs = {i: alpha.terms.get((m + i,)) for i in range(m)}
    dbar_a = {(i, j): c.diff_zbar(j) for i, c in a_coeffs.items() if c is not None
              for j in range(m)}
    db = {(i, slot): _wirtinger_derivative(c, slot, m)
          for i, c in b_coeffs.items() if c is not None
          for slot in range(2 * m)}

    for pt in samples:
        s_dbar_a = max((abs(complex(d.eval(pt.values))) for d in dbar_a.values()), default=0.0)
        s_b = max((abs(complex(c.eval(pt.values))) for c in b_coeffs.values() if c is not None),
                  default=0.0)
        s_db = max((abs(complex(d.eval(pt.values))) for d in db.values()), default=0.0)
        report.n_samples += 1
        report.max_dbar_a = max(report.max_dbar_a, s_dbar_a)
        report.max_b = max(report.max_b, s_b)
        report.max_db = max(report.max_db, s_db)
    return report


def ah_pullback_verify(F: PolyMap, alpha: Form, samples, tol: float) -> AHReport:
    """Verify that pulling back an asymptotically holomorphic form along a
    map that is dbar-flat to order 2 preserves asymptotic holomorphy.

    Precondition failures come back as a failed report carrying a note,
    never silently.
    """
    samples = list(samples)
    flatness = dbar_defect(F, samples, 2)
    if flatness > tol:
        return AHReport(tol=tol, n_samples=len(samples),
                        precondition_note=f"map dbar-defect {fmt_num(flatness)} exceeds tol at order 2")
    image_pts = [F.evaluate(pt) for pt in samples]
    upstream = ah_verify(alpha, image_pts, tol)
    if not upstream.passed:
        families = ", ".join(upstream.failing_families())
        return AHReport(tol=tol, n_samples=len(samples),
                        precondition_note=f"input form not asymptotically holomorphic at image points ({families})")
    return ah_verify(pullback(F, alpha), samples, tol)


@dataclass
class FitResult:
    """Holomorphic polynomial least-squares fit and its quality."""

    form: Form
    residual: float
    rank: int
    n_monomials: int
    n_samples: int
    exact: bool

    @property
    def full_rank(self) -> bool:
        return self.rank == self.n_monomials

    def summary(self) -> str:
        mode = "exact" if self.exact else "float"
        rk = "full rank" if self.full_rank else f"rank {self.rank} of {self.n_monomials} (deficient)"
        return (f"fit: {self.n_monomials} monomials on {self.n_samples} samples, "
                f"{mode} solve, {rk}, sup residual {fmt_num(self.residual)}")


def _solve_exact_normal(A: list[list[QC]], rhs_cols: list[list[QC]]):
    """Least squares over Gaussian rationals via the normal equations.

    Returns (solutions per rhs, rank).  Free columns of a rank-deficient
    system get coefficient zero.
    """
    n_rows = len(A)
    n_cols = len(A[0]) if n_rows else 0
    G = [[QC(0)] * n_cols for _ in range(n_cols)]
    for i in range(n_cols):
        for j in range(i, n_cols):
            acc = QC(0)
            for r in range(n_rows):
                acc = acc + A[r][i].conj() * A[r][j]
            G[i][j] = acc
            if j != i:
                G[j][i] = acc.conj()
    B = []
    for rhs in rhs_cols:
        col = []
        for i in range(n_cols):
            acc = QC(0)
            for r in range(n_rows):
                acc = acc + A[r][i].conj() * rhs[r]
            col.append(acc)
        B.append(col)

    # Gaussian elimination with column pivoting on the Hermitian system
    aug = [[G[i][j] for j in range(n_cols)] + [B[k][i] for k in range(len(B))]
           for i in range(n_cols)]
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        best = Fraction(0)
        for r in range(row, n_cols):
            mag = aug[r][col].abs2()
            if mag > best:
                best = mag
                pivot_row = r
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_cols):
            if r != row and not aug[r][col].is_zero:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n_cols:
            break
    rank = len(pivots)
    sols = []
    for k in range(len(B)):
        x = [QC(0)] * n_cols
        for r, col in enumerate(pivots):
            x[col] = aug[r][n_cols + k]
        sols.append(x)
    return sols, rank


def _holomorphic_form(m: int, monos, cols) -> Form:
    """sum_i (sum_I cols[i][I] z^I) dz_i, one LaurentPoly per component;
    LaurentPoly and Form drop the zero coefficients and components."""
    zero = (0,) * m
    return Form(m, 1, {
        (i,): LaurentPoly(m, {Monomial(tuple(I), zero): c for I, c in zip(monos, col)})
        for i, col in enumerate(cols)}, "laurent")


def fit_holomorphic(points, values, degree: int) -> FitResult:
    """Least-squares (1,0)-form with polynomial z-coefficients.

    ``points`` is a list of Point, ``values`` an array-like of per-point
    rows: either the m dz-components or the full 2m covector components
    (the dzbar half then just adds to the residual, since the ansatz is
    holomorphic).  With exact inputs the normal equations are solved in
    rational arithmetic, so exactly representable data is recovered
    exactly; floats go through numpy lstsq.
    """
    points = list(points)
    if not points:
        raise PreconditionError("fit needs at least one sample")
    m = points[0].m
    monos = list(multi_indices(m, degree))
    if len(points) < len(monos):
        raise PreconditionError(
            f"{len(points)} samples cannot determine {len(monos)} monomials")

    rows = [list(r) for r in values]
    if any(len(r) not in (m, 2 * m) for r in rows):
        raise DimensionError("value rows must have m or 2m components")
    if len(rows) != len(points):
        raise DimensionError("one value row per point required")

    def exact_value(v):
        if isinstance(v, QC):
            return v
        if isinstance(v, (int, Fraction)):
            return QC(v)
        return None

    if all(pt.is_exact for pt in points) and all(
            exact_value(v) is not None for r in rows for v in r):
        A = []
        for pt in points:
            row = []
            for I in monos:
                term = QC(1)
                for k, e in enumerate(I):
                    for _ in range(e):
                        term = term * pt.values[k]
                row.append(term)
            A.append(row)
        exact_rows = [[exact_value(v) for v in r] for r in rows]
        rhs_cols = [[exact_rows[r][i] for r in range(len(rows))] for i in range(m)]
        sols, rank = _solve_exact_normal(A, rhs_cols)
        form = _holomorphic_form(m, monos, sols)
        # sup of the squared misfit, exact; an exact recovery reports 0.0
        worst = Fraction(0)
        for r, row in enumerate(exact_rows):
            for i in range(m):
                fit_v = sum((c * av for c, av in zip(sols[i], A[r])), QC(0))
                worst = max(worst, (fit_v - row[i]).abs2())
            for extra in row[m:]:
                worst = max(worst, extra.abs2())
        return FitResult(form, sqrt(worst), rank, len(monos), len(points), True)

    pts_c = [pt.as_complex() for pt in points]
    A = np.empty((len(points), len(monos)), dtype=complex)
    for r, z in enumerate(pts_c):
        for cidx, I in enumerate(monos):
            v = 1.0 + 0j
            for k, e in enumerate(I):
                if e:
                    v *= z[k] ** e
            A[r, cidx] = v
    rhs = np.array([[complex(rows[r][i]) for i in range(m)] for r in range(len(rows))])
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    form = _holomorphic_form(m, monos, [
        [QC(Fraction(c.real), Fraction(c.imag)) for c in map(complex, sol[:, i])]
        for i in range(m)])
    fitted = A @ sol
    residual = float(np.max(np.abs(fitted - rhs))) if len(points) else 0.0
    for r in range(len(rows)):
        for extra in rows[r][m:]:
            residual = max(residual, abs(complex(extra)))
    return FitResult(form, residual, int(rank), len(monos), len(points), False)
