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

Each object has one implementation here: every jet d^I (of symbolic data,
of a sampled field, of the dbar-components behind the defect) comes from
``_derivative_tower``, which takes each derivative once from its parent;
every "max |c(pt)|" over samples is ``_sup``; and both fits take their
design matrix from ``_design_matrix``, which uses only the ring's own
``*`` and ``**``: with QC entries for the exact solve and with Python
complex ones, converted to a numpy array, for ``lstsq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd, prod, sqrt
from operator import mul

import numpy as np

from .coefficients import LaurentPoly, _holomorphic, coefficient_variant
from .errors import DimensionError, PreconditionError
from .forms import Form, PolyMap, _covector_derivative, _form, pullback
from .grids import CubeGrid
from .jets import grid_derivative
from .reports import VerificationReport, fmt_num
from .scalars import QC, _gaussian, _reduced, exact


def multi_indices(m: int, max_total: int):
    """Multi-indices over m slots with total degree at most max_total, by
    increasing total; within a total the last slot's exponent falls first."""
    for total in range(max_total + 1):
        for slots in reversed(list(combinations_with_replacement(range(m), total))):
            yield tuple(map(slots.count, range(m)))


def _derivative_tower(base, top: int, m: int, derive) -> dict:
    """{I: d^I base} for every |I| <= top over m slots, in multi_indices
    order.  Each entry is derive(parent, k): k is the first nonzero slot of
    I and the parent is I lowered there, so each derivative is taken once."""
    tower = {}
    for I in multi_indices(m, top):
        k = next((i for i, e in enumerate(I) if e), None)
        tower[I] = base if k is None else derive(tower[I[:k] + (I[k] - 1,) + I[k + 1:]], k)
    return tower


def _index_factorial(I: tuple[int, ...]) -> int:
    return prod(map(factorial, I))


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
    if type(l) is not int:
        raise PreconditionError(f"extension order l must be an int, got {l!r}")
    if l < 1:
        raise PreconditionError("extension order l must be >= 1")
    _check_real_slice_poly(f)
    m = f.m
    half = Fraction(1, 2)
    halfsum = [(LaurentPoly.z(m, k) + LaurentPoly.zbar(m, k)) * half for k in range(m)]
    halfdiff = [(LaurentPoly.z(m, k) - LaurentPoly.zbar(m, k)) * half for k in range(m)]

    total_poly = LaurentPoly.zero(m)
    for I, dI in _derivative_tower(f, l, m, LaurentPoly.diff_z).items():
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


def _coefficients_of(target, samples: list):
    """``(m, coefficients)`` of a Form, a PolyMap or one coefficient, on
    its samples' C^m; ``coefficient_variant`` refuses anything else."""
    if isinstance(target, Form):
        return target.m, list(target.terms.values())
    if isinstance(target, PolyMap):
        return target.m_src, list(target.components)
    coefficient_variant(target)
    return (samples[0].m if samples else 0), [target]


def _sup(coeffs, samples) -> float:
    """max |c(pt)| over the nonzero coefficients and the samples; 0.0 when
    there are none."""
    return max((abs(complex(c.eval(pt.values)))
                for c in coeffs if not c.is_zero for pt in samples), default=0.0)


def dbar_defect(target, samples, order: int) -> float:
    """Max norm of derivatives of the dbar-components up to order-1.

    ``target`` may be a Form, a PolyMap, or one coefficient on the samples'
    C^m; samples should lie on the real slice for the flatness semantics
    to apply, though the evaluation itself works anywhere.
    """
    if type(order) is not int:
        raise PreconditionError(f"defect order must be an int, got {order!r}")
    if order < 1:
        raise PreconditionError("defect order must be >= 1")
    samples = list(samples)  # _sup reads them once per coefficient
    m, coeffs = _coefficients_of(target, samples)

    def derive(c, slot):
        return _covector_derivative(c, slot, m)

    return max((_sup(_derivative_tower(c.diff_zbar(j), order - 1, 2 * m, derive).values(),
                     samples)
                for c in coeffs for j in range(m)), default=0.0)


class SampledExtension:
    """dbar-flat extension of grid-sampled slice data.

    Stores stencil jets J_I for |I| <= l+1 (second-order differences),
    so the dbar-residual at height y is exactly the homogeneous-degree-l
    polynomial (1/2) sum_{|I|=l} (1/I!) J_{I+e_j}(x) (iy)^I.
    """

    def __init__(self, grid: CubeGrid, values: np.ndarray, l: int):
        if type(l) is not int:
            raise PreconditionError(f"extension order l must be an int, got {l!r}")
        if l < 1:
            raise PreconditionError("extension order l must be >= 1")
        if values.shape != grid.shape:
            raise DimensionError("value field shape != grid shape")
        if grid.nodes < l + 2:
            raise PreconditionError("grid too small for the requested jets")
        self.grid = grid
        self.l = l
        self.jets = _derivative_tower(
            np.asarray(values, dtype=complex), l + 1, grid.m,
            lambda J, k: grid_derivative(J, grid, k))

    def _series(self, node, y, lowest: int, bump: tuple[int, ...]) -> complex:
        """sum over lowest <= |I| <= l of (1/I!) J_{I+bump}(node) (iy)^I."""
        iy = [1j * float(c) for c in y]
        total = 0j
        for I in multi_indices(self.grid.m, self.l):
            if sum(I) < lowest:
                continue
            J = self.jets[tuple(a + b for a, b in zip(I, bump))]
            term = complex(J[node]) / _index_factorial(I)
            for k, e in enumerate(I):
                term *= iy[k] ** e
            total += term
        return total

    def value(self, node: tuple[int, ...], y: tuple[float, ...]) -> complex:
        """F at the complex point (node coordinates) + i y."""
        return self._series(node, y, 0, (0,) * self.grid.m)

    def dbar_residual(self, node: tuple[int, ...], y: tuple[float, ...], j: int) -> complex:
        """The zbar_j derivative of the extension at (node) + i y."""
        ej = tuple(1 if k == j else 0 for k in range(self.grid.m))
        return self._series(node, y, self.l, ej) / 2

    def max_residual(self, nodes, y: tuple[float, ...]) -> float:
        worst = 0.0
        for node in nodes:
            for j in range(self.grid.m):
                worst = max(worst, abs(self.dbar_residual(node, y, j)))
        return worst


def ah_verify(alpha: Form, samples, tol: float) -> VerificationReport:
    """Check the three vanishing families of asymptotic holomorphy.

    At each sample: every zbar-derivative of the dz-coefficients a_i, the
    dzbar-coefficients b_i themselves, and every first derivative of the
    b_i must be small.  One bound check per family.
    """
    if alpha.degree != 1:
        raise DimensionError("ah_verify expects a 1-form")
    m = alpha.m
    samples = list(samples)
    a = [c for (w,), c in alpha.terms.items() if w < m]
    b = [c for (w,), c in alpha.terms.items() if w >= m]
    dbar_a = [c.diff_zbar(j) for c in a for j in range(m)]
    db = [_covector_derivative(c, slot, m) for c in b for slot in range(2 * m)]
    report = VerificationReport(f"asymptotic holomorphy at {len(samples)} samples")
    report.add_bound("max |dbar a_i|", _sup(dbar_a, samples), tol)
    report.add_bound("max |b_i|", _sup(b, samples), tol)
    report.add_bound("max |d b_i|", _sup(db, samples), tol)
    return report


def ah_pullback_verify(F: PolyMap, alpha: Form, samples, tol: float) -> VerificationReport:
    """Verify that pulling back an asymptotically holomorphic form along a
    map that is dbar-flat to order 2 preserves asymptotic holomorphy.

    The two preconditions come first, as checks; a failed one is the
    report's last check.  Otherwise the pulled-back form's three family
    checks follow.
    """
    samples = list(samples)
    report = VerificationReport(f"asymptotic holomorphy of a pullback at {len(samples)} samples")
    if not report.add_bound("map dbar-defect at order 2", dbar_defect(F, samples, 2), tol):
        return report
    upstream = ah_verify(alpha, [F.evaluate(pt) for pt in samples], tol)
    failing = [c.name for c in upstream.checks if not c.passed]
    if report.add("input form asymptotically holomorphic at image points", not failing,
                  ", ".join(failing)):
        report.merge(ah_verify(pullback(F, alpha), samples, tol))
    return report


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


def _solve_gaussian(re: list[list[int]], im: list[list[int]], n_cols: int):
    """Least squares over Gaussian rationals via the normal equations.

    Takes the columns of [A | b] scaled once to Gaussian integers by the
    common denominator L of their entries (``scalars._gaussian``; L^2
    cancels from A^H A x = A^H b), real parts in ``re`` and imaginary parts
    in ``im``, and the column count of A; the exact fit takes its residual
    on the same integers.  One Gauss-Jordan pass runs over [A^H A | A^H b]
    fraction-free, on int pairs: a row is eliminated as pivot * row -
    entry * pivot row and then divided by its integer content.  Each row
    stays a nonzero multiple of the row that division by the pivot would
    give, so the zero pattern, the pivot of each column (its first nonzero
    entry) and the rank are those of the reduced row-echelon form over
    Q(i), which is unique; a solution entry is its row's rhs entry over its
    pivot, reduced once.  Returns (solutions per rhs, rank).  Free columns
    of a rank-deficient system get coefficient zero.
    """
    width = len(re)
    # sum_r conj(a_r) b_r is (a_re|a_im).(b_re|b_im) + i (a_re|a_im).(b_im|-b_re)
    flat = [r + i for r, i in zip(re, im)]
    turned = [i + [-v for v in r] for r, i in zip(re, im)]
    rows = [([0] * width, [0] * width) for _ in range(n_cols)]
    for i in range(n_cols):
        a = flat[i]
        row_re, row_im = rows[i]
        for j in range(i, width):
            x = sum(map(mul, a, flat[j]))
            y = sum(map(mul, a, turned[j]))
            row_re[j], row_im[j] = x, y
            if i < j < n_cols:
                rows[j][0][i], rows[j][1][i] = x, -y
    rows = [_primitive(*row) for row in rows]

    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        p = next((r for r in range(rank, n_cols) if rows[r][0][col] or rows[r][1][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pr, pi = rows[rank]
        a, b = pr[col], pi[col]
        for r in range(n_cols):
            rr, ri = rows[r]
            c, d = rr[col], ri[col]
            if r != rank and (c or d):
                rows[r] = _primitive(
                    [a * x - b * y - c * u + d * v for x, y, u, v in zip(rr, ri, pr, pi)],
                    [a * y + b * x - c * v - d * u for x, y, u, v in zip(rr, ri, pr, pi)])
        pivots.append(col)
    sols = [[QC(0)] * n_cols for _ in range(width - n_cols)]
    for (row_re, row_im), col in zip(rows, pivots):
        c, d = row_re[col], row_im[col]
        n = c * c + d * d
        for x, a, b in zip(sols, row_re[n_cols:], row_im[n_cols:]):
            x[col] = _reduced(a * c + b * d, b * c - a * d, n)
    return sols, len(pivots)


def _primitive(re: list[int], im: list[int]):
    """The row (re, im) divided by the gcd of all its ints."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def _worst_misfit(L: int, re: list[list[int]], im: list[list[int]], sols) -> Fraction:
    """max over rows r and columns k of |(A x_k)[r] - b_k[r]|^2, exact, on
    the solve's Gaussian integers: with [A | b] times L (``re``, ``im``)
    and x_k times its own common denominator D, the misfit of row r is
    (sum_c A[r][c] x_k[c] - D b_k[r]) / (L D), and only a nonzero
    numerator makes a Fraction."""
    n_cols = len(re) - len(sols)
    # row r of A as (a_re|a_im): a.x is that row dotted with (x_re|-x_im)
    # in its real part and with (x_im|x_re) in its imaginary part
    rows = [r + i for r, i in zip(zip(*re[:n_cols]), zip(*im[:n_cols]))]
    worst = Fraction(0)
    for x, b_re, b_im in zip(sols, re[n_cols:], im[n_cols:]):
        D, (x_re,), (x_im,) = _gaussian([x])
        real = x_re + [-v for v in x_im]
        imag = x_im + x_re
        top = 0
        for a, br, bi in zip(rows, b_re, b_im):
            u = sum(map(mul, a, real)) - D * br
            v = sum(map(mul, a, imag)) - D * bi
            top = max(top, u * u + v * v)
        if top:
            worst = max(worst, Fraction(top, (L * D) ** 2))
    return worst


def _holomorphic_form(m: int, monos, cols) -> Form:
    """sum_i (sum_I cols[i][I] z^I) dz_i, one LaurentPoly per component;
    zero coefficients and components are dropped."""
    return _form(m, 1, {(i,): _holomorphic(m, monos, col) for i, col in enumerate(cols)},
                 "laurent")


def _design_matrix(values, monos, one) -> list[list]:
    """The monomials z^I at each point, one row per point of ``values``,
    for ``monos`` in multi_indices order.

    Entry (p, I) is one times values[p][k] ** e over the nonzero exponents
    e of I, multiplied in slot order.  Only the ring's own * and ** are
    used, so both fit paths build their matrix here: QC entries for the
    exact solve, Python complex ones that numpy takes bit for bit.  Each
    power is taken once per (k, e) across all points, and each column is
    an earlier column times one power: I with its last nonzero slot k
    zeroed is the same product stopped one factor short."""
    powers = {}
    cols = {}
    for I in monos:
        k = max((j for j, e in enumerate(I) if e), default=None)
        if k is None:
            cols[I] = [one] * len(values)
            continue
        e = I[k]
        if (k, e) not in powers:
            powers[k, e] = [v[k] ** e for v in values]
        cols[I] = [c * w for c, w in zip(cols[I[:k] + (0,) + I[k + 1:]], powers[k, e])]
    return [list(row) for row in zip(*cols.values())]


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
    if type(degree) is not int:
        raise PreconditionError(f"fit degree must be an int, got {degree!r}")
    if degree < 0:
        raise PreconditionError(f"fit degree must be >= 0, got {degree}")
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

    exact_rows = ([[exact(v) for v in r] for r in rows]
                  if all(pt.is_exact for pt in points) else None)
    if exact_rows and all(v is not None for r in exact_rows for v in r):
        A = _design_matrix([pt.values for pt in points], monos, QC(1))
        rhs_cols = [[exact_rows[r][i] for r in range(len(rows))] for i in range(m)]
        L, re, im = _gaussian([*zip(*A), *rhs_cols])
        sols, rank = _solve_gaussian(re, im, len(monos))
        # sup of the squared misfit, exact; an exact recovery reports 0.0
        worst = _worst_misfit(L, re, im, sols)
        for row in exact_rows:
            for extra in row[m:]:
                if extra:
                    worst = max(worst, extra.abs2())
        return FitResult(_holomorphic_form(m, monos, sols), sqrt(worst), rank, len(monos),
                         len(points), True)

    A = np.array(_design_matrix([pt.as_complex() for pt in points], monos, 1 + 0j),
                 dtype=complex)
    rhs = np.array([[complex(rows[r][i]) for i in range(m)] for r in range(len(rows))])
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    form = _holomorphic_form(m, monos, [
        [QC(Fraction(c.real), Fraction(c.imag)) for c in map(complex, sol[:, i])]
        for i in range(m)])
    fitted = A @ sol
    residual = float(np.max(np.abs(fitted - rhs)))
    for r in range(len(rows)):
        for extra in rows[r][m:]:
            residual = max(residual, abs(complex(extra)))
    return FitResult(form, residual, int(rank), len(monos), len(points), False)
