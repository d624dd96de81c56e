"""Extension operators: symbolic dbar-flat extension, sampled variant,
asymptotic-holomorphy checks, and the holomorphic fit."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit import extend
from contactkit.ci import Loop, ci_solve, demo_flat_section
from contactkit.coefficients import LaurentPoly, Monomial, Z, Zbar, emul
from contactkit.errors import ContactKitError, DimensionError, PreconditionError, VariantError
from contactkit.extend import (
    SampledExtension, _design_matrix, _solve_gaussian, ah_pullback_verify, ah_verify,
    dbar_defect, extend_form, extend_function, fit_holomorphic, multi_indices,
)
from contactkit.forms import Form, Point, PolyMap
from contactkit.gallery import covering_map, std_form
from contactkit.grids import CubeGrid
from contactkit.jets import RestrictedJet
from contactkit.sampling import exact_points, numeric_points, random_jet, random_qc
from contactkit.scalars import QC, _gaussian, _reduced, exact


def gauss_rational(rng, den, spread):
    """A Gaussian rational ``(a + b*i) / den`` with ``|a|, |b| <= spread *
    den``, reduced once: ``random_qc``'s draw over any denominator."""
    top = spread * den
    return _reduced(rng.randint(-top, top), rng.randint(-top, top), den)


def real_points(m, count, seed=0):
    rng = random.Random(seed)
    return [Point([QC(Fraction(rng.randint(-12, 12), 7)) for _ in range(m)])
            for _ in range(count)]


def test_multi_index_counts():
    assert len(list(multi_indices(3, 2))) == 10  # C(5,2)
    assert sum(1 for I in multi_indices(3, 2) if sum(I) == 2) == 6
    assert len(list(multi_indices(1, 4))) == 5
    for I in multi_indices(3, 4):
        assert sum(I) <= 4 and all(e >= 0 for e in I)


def parent_multi_indices(m, max_total):
    """``multi_indices`` before it took ``combinations_with_replacement``:
    stars and bars over the cut positions, verbatim, as the oracle."""
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + m - 1), m - 1):
            prev = -1
            idx = []
            for c in cuts:
                idx.append(c - prev - 1)
                prev = c
            idx.append(total + m - 2 - prev)
            yield tuple(idx)


def parent_index_factorial(I):
    out = 1
    for k in I:
        out *= math.factorial(k)
    return out


@settings(deadline=None)
@given(st.integers(1, 7), st.integers(0, 7))
def test_multi_indices_and_factorials_match_the_parent(m, max_total):
    """Same multi-indices in the same order, and the same I!, as the
    enumeration every tower, series and design matrix used before."""
    got = list(multi_indices(m, max_total))
    assert got == list(parent_multi_indices(m, max_total))
    assert [extend._index_factorial(I) for I in got] == list(map(parent_index_factorial, got))


def test_monomials_extend_to_themselves():
    """x^I with l = |I| comes back as exactly z^I."""
    for I in multi_indices(3, 4):
        f = LaurentPoly(3, {Monomial(tuple(I), (0, 0, 0)): QC(1)})
        assert extend_function(f, max(sum(I), 1)) == f


def test_extension_restricts_to_data_on_slice():
    f = (LaurentPoly.z(3, 0, 2) * LaurentPoly.z(3, 1) * QC(2, 1)
         + LaurentPoly.z(3, 2) + QC(5))
    F = extend_function(f, 1)
    for pt in real_points(3, 10, seed=3):
        assert F.eval(pt.values) == f.eval(pt.values)


def test_extension_flat_to_requested_order():
    """dbar vanishes on the slice to order l-1, and generally not to order l."""
    f = LaurentPoly.z(3, 0, 3)  # cubic slice data
    pts = real_points(3, 6, seed=5)
    for l in (1, 2):
        F = extend_function(f, l)
        assert dbar_defect(F, pts, order=l) == 0.0
    F1 = extend_function(f, 1)
    assert dbar_defect(F1, pts, order=2) > 0.1
    # full-order extension of a cubic is entire: flat to every order
    F3 = extend_function(f, 3)
    assert dbar_defect(F3, pts, order=5) == 0.0


def test_dbar_defect_reads_a_one_shot_iterable_in_full():
    """Every coefficient is measured on every sample, also when the
    samples come from an iterator that can be read only once."""
    z, zbar = LaurentPoly.z, LaurentPoly.zbar
    f = zbar(3, 0) * z(3, 1) + zbar(3, 2, 2) * z(3, 0)
    pts = exact_points(3, 20, 1)
    want = dbar_defect(f, pts, order=1)
    assert want > 2.6
    assert dbar_defect(f, iter(pts), order=1) == want
    assert dbar_defect(f, (pt for pt in pts), order=2) == dbar_defect(f, pts, order=2)


def test_dbar_defect_takes_each_derivative_once(monkeypatch):
    """Per (coefficient, j): dbar_j, then one Wirtinger derivative for each
    further multi-index of total <= order-1 over the 2m slots, taken from
    its parent; at m = 3 and order 4 that is C(9, 3) = 84 derivatives.
    Each is counted where it enters the ring, the signed derivative."""
    real = LaurentPoly._signed_diff
    calls = []

    def counting(self, i, bar, sign):
        calls.append((i, bar))
        return real(self, i, bar, sign)

    monkeypatch.setattr(LaurentPoly, "_signed_diff", counting)
    f = LaurentPoly.z(3, 0, 3) * LaurentPoly.zbar(3, 1, 2) + LaurentPoly.zbar(3, 2, 4)
    dbar_defect(f, real_points(3, 2), order=4)
    assert len(calls) == 3 * math.comb(9, 3)


def test_a_bare_coefficient_measures_as_it_does_inside_a_form():
    """A bare coefficient, expression or Laurent, is measured on C^m for
    its samples' m, as the same coefficient inside a Form on C^m is."""
    pts = [Point(tuple(QC(v.re) for v in p.values)) for p in exact_points(3, 4, 1)]
    mixed = emul(Z(0), Zbar(1))
    assert dbar_defect(mixed, pts, 2) == dbar_defect(Form(3, 1, {(0,): mixed}), pts, 2) == 1.0
    for c in (Zbar(0), mixed, LaurentPoly.z(3, 0, 2) * LaurentPoly.zbar(3, 2)):
        for order in (1, 2, 3):
            assert dbar_defect(c, pts, order) == dbar_defect(Form(3, 1, {(1,): c}), pts, order)


def test_extend_rejects_bad_data():
    with pytest.raises(PreconditionError):
        extend_function(LaurentPoly.zbar(2, 0), 1)
    with pytest.raises(PreconditionError):
        extend_function(LaurentPoly.z(2, 0, -1), 1)
    with pytest.raises(PreconditionError):
        extend_function(LaurentPoly.z(2, 0), 0)


_LOOP = Loop((0, 0, 0), (1, 0, 0), 1.0)
_GRID = CubeGrid(1, nodes=5)

INT_PARAMETERS = [
    (lambda: _LOOP.mean_quadrature(2.5), PreconditionError,
     "phase count k must be an int, got 2.5"),
    (lambda: _LOOP.min_affine_margin((1, 0, 0), 0, k=720.0), PreconditionError,
     "phase count k must be an int, got 720.0"),
    (lambda: RestrictedJet(random_jet(1, random.Random(0)), 1.0), DimensionError,
     "row index i must be an int, got 1.0"),
    (lambda: RestrictedJet(random_jet(1, random.Random(0)), True), DimensionError,
     "row index i must be an int, got True"),
    (lambda: fit_holomorphic(exact_points(1, 4), [[1]] * 4, 1.5), PreconditionError,
     "fit degree must be an int, got 1.5"),
    (lambda: extend_function(LaurentPoly.z(1, 0), 1.5), PreconditionError,
     "extension order l must be an int, got 1.5"),
    (lambda: extend_form([LaurentPoly.z(1, 0)], 2.5), PreconditionError,
     "extension order l must be an int, got 2.5"),
    (lambda: SampledExtension(_GRID, np.zeros(_GRID.shape), 3.5), PreconditionError,
     "extension order l must be an int, got 3.5"),
    (lambda: dbar_defect(LaurentPoly.z(1, 0), [], 1.5), PreconditionError,
     "defect order must be an int, got 1.5"),
    (lambda: ci_solve(*demo_flat_section(5), 0.5, 1e-3, max_sweeps=2.5), PreconditionError,
     "max_sweeps must be an int, got 2.5"),
]


@pytest.mark.parametrize("call, error, fragment", INT_PARAMETERS,
                         ids=[r[2] for r in INT_PARAMETERS])
def test_int_parameters_refuse_every_other_type(call, error, fragment):
    """A count, order or index that is not an int is refused by name; a
    float would otherwise give a raw TypeError or, for a loop's phase
    count, a silently wrong mean."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_extend_form_components():
    coeffs = [LaurentPoly.zero(3), LaurentPoly.z(3, 0), LaurentPoly.const(3, 1)]
    alpha = extend_form(coeffs, 2)
    assert alpha.degree == 1 and alpha.m == 3
    assert (0,) not in alpha.terms
    assert alpha.coeff((1,)) == LaurentPoly.z(3, 0)
    assert alpha.coeff((2,)) == LaurentPoly.const(3, 1)
    with pytest.raises(DimensionError):
        extend_form([LaurentPoly.z(2, 0)], 1)


def test_sampled_extension_value_at_zero_height():
    grid = CubeGrid(1, nodes=17)
    x = grid.axis(0).reshape(-1, 1, 1)
    values = np.sin(x) * np.ones(grid.shape)
    ext = SampledExtension(grid, values, l=2)
    node = (8, 8, 8)
    assert ext.value(node, (0.0, 0.0, 0.0)) == pytest.approx(values[node])


def test_sampled_extension_residual_is_homogeneous():
    """Halving the height divides the residual by exactly 2^l."""
    grid = CubeGrid(1, nodes=17)
    x1 = grid.axis(0).reshape(-1, 1, 1)
    x2 = grid.axis(1).reshape(1, -1, 1)
    values = np.sin(x1) * np.ones(grid.shape) + np.exp(x2) * 0.5
    nodes = [(4, 4, 4), (8, 8, 8), (12, 6, 9)]
    for l in (1, 2, 3):
        ext = SampledExtension(grid, values, l=l)
        hi = ext.max_residual(nodes, (0.2, 0.1, 0.0))
        lo = ext.max_residual(nodes, (0.1, 0.05, 0.0))
        assert hi > 0
        assert hi / lo == pytest.approx(2 ** l, rel=1e-9)


def parent_series(ext, node, y, lowest, bump):
    """``SampledExtension._series`` before the extension kept its (I, I!)
    pairs: the indices and factorials taken again on every call."""
    iy = [1j * float(c) for c in y]
    total = 0j
    for I in multi_indices(ext.grid.m, ext.l):
        if sum(I) < lowest:
            continue
        J = ext.jets[tuple(a + b for a, b in zip(I, bump))]
        term = complex(J[node]) / math.prod(map(math.factorial, I))
        for k, e in enumerate(I):
            term *= iy[k] ** e
        total += term
    return total


def test_sampled_extension_takes_its_indices_once(monkeypatch):
    """The constructor takes ``multi_indices`` twice, for the tower and for
    the (I, I!) pairs, and ``max_residual`` over every node of the grid
    takes it no more; each residual and value is the parent's bit for
    bit."""
    from contactkit import extend
    calls = []
    inner = extend.multi_indices

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(extend, "multi_indices", counted)
    grid = CubeGrid(1, nodes=9)
    x1 = grid.axis(0).reshape(-1, 1, 1)
    x3 = grid.axis(2).reshape(1, 1, -1)
    values = np.sin(x1) * np.exp(x3) + 0.25j * x3 * np.ones(grid.shape)
    nodes = list(np.ndindex(grid.shape))
    y = (0.2, -0.1, 0.05)
    for l in (1, 3):
        ext = SampledExtension(grid, values, l=l)
        assert calls == [(3, l + 1), (3, l)]
        calls.clear()
        got = ext.max_residual(nodes, y)
        assert calls == []
        want = max(abs(parent_series(ext, node, y, l, tuple(int(k == j) for k in range(3))) / 2)
                   for node in nodes for j in range(3))
        assert got.hex() == want.hex() and got > 0
        for node in nodes[::97]:
            assert ext.value(node, y) == parent_series(ext, node, y, 0, (0, 0, 0))


def test_sampled_extension_tracks_true_function():
    """For data sin(x1) the order-2 extension approximates sin(z1)."""
    grid = CubeGrid(1, nodes=33)
    x = grid.axis(0).reshape(-1, 1, 1)
    values = np.sin(x) * np.ones(grid.shape)
    ext = SampledExtension(grid, values, l=2)
    node = (16, 16, 16)
    y = (0.1, 0.0, 0.0)
    z = complex(grid.node_coords(node)[0], y[0])
    got = ext.value(node, y)
    want = np.sin(z)
    # taylor truncation plus stencil error: third order in |y| and h^2
    assert abs(got - want) < 5e-3
    assert abs(got - want) > 0


def test_sampled_extension_validation():
    grid = CubeGrid(1, nodes=5)
    values = np.zeros(grid.shape)
    with pytest.raises(PreconditionError):
        SampledExtension(grid, values, l=0)
    with pytest.raises(PreconditionError):
        SampledExtension(grid, values, l=4)
    with pytest.raises(DimensionError):
        SampledExtension(grid, np.zeros((5, 5)), l=1)


def test_sampled_extension_takes_values_as_a_list():
    grid = CubeGrid(1, nodes=5)
    values = np.arange(125.0).reshape(grid.shape) * (1 - 0.5j)
    listed, want = SampledExtension(grid, values.tolist(), 1), SampledExtension(grid, values, 1)
    y = (0.1, 0.2, 0)
    for node in ((1, 2, 3), (4, 0, 2)):
        assert listed.value(node, y) == want.value(node, y)
        assert listed.dbar_residual(node, y, 2) == want.dbar_residual(node, y, 2)


def test_ah_verify_accepts_holomorphic_forms():
    pts = exact_points(3, 6, seed=11)
    report = ah_verify(std_form(1), pts, 1e-10)
    assert report.passed
    assert [(c.name, c.detail) for c in report.checks] == [
        (name, "value=0.0 bound=1e-10")
        for name in ("max |dbar a_i|", "max |b_i|", "max |d b_i|")]
    assert "6 samples" in report.title and "OK" in report.to_text()


def test_ah_verify_flags_each_family():
    pts = exact_points(3, 4, seed=13)
    # family 1: a coefficient depending on zbar
    bad_a = Form(3, 1, {(0,): LaurentPoly.zbar(3, 0), (2,): LaurentPoly.const(3, 1)})
    r1 = ah_verify(bad_a, pts, 1e-10)
    assert not r1.passed
    assert [c.name for c in r1.checks if not c.passed] == ["max |dbar a_i|"]
    # families 2 and 3: a dzbar component and its derivative
    bad_b = std_form(1) + Form(3, 1, {(3,): LaurentPoly.z(3, 1)})
    r2 = ah_verify(bad_b, pts, 1e-10)
    assert not r2.passed
    assert [c.name for c in r2.checks if not c.passed] == ["max |b_i|", "max |d b_i|"]


def test_ah_pullback_with_named_map():
    from contactkit.gallery import alpha_prime
    pts = exact_points(3, 5, seed=17)
    report = ah_pullback_verify(covering_map(), alpha_prime(), pts, 1e-8)
    assert report.passed, report.to_text()


def test_ah_pullback_precondition_failures_are_reports():
    pts = exact_points(3, 4, seed=19)
    # a map that is not dbar-flat: z1 + zbar1 in the first slot
    crooked = PolyMap(3, [LaurentPoly.z(3, 0) + LaurentPoly.zbar(3, 0),
                          LaurentPoly.z(3, 1), LaurentPoly.z(3, 2)])
    r = ah_pullback_verify(crooked, std_form(1), pts, 1e-8)
    assert not r.passed
    # a failed precondition is the last check: nothing after it was measured
    assert [c.name for c in r.checks] == ["map dbar-defect at order 2"]
    # an input form that is not asymptotically holomorphic
    bad = Form(3, 1, {(0,): LaurentPoly.zbar(3, 1), (2,): LaurentPoly.const(3, 1)})
    r2 = ah_pullback_verify(PolyMap.identity(3), bad, pts, 1e-8)
    assert not r2.passed
    assert [(c.name, c.passed) for c in r2.checks] == [
        ("map dbar-defect at order 2", True),
        ("input form asymptotically holomorphic at image points", False)]
    assert r2.checks[-1].detail == "max |dbar a_i|"


def test_fit_recovers_polynomial_form_exactly():
    alpha = std_form(1)
    pts = exact_points(3, 10, seed=23)
    values = [alpha.covector_at(pt) for pt in pts]
    fit = fit_holomorphic(pts, values, degree=1)
    assert fit.exact
    assert fit.residual == 0.0
    assert fit.form == alpha
    assert fit.full_rank
    assert "residual" in fit.summary()


def test_fit_exact_recovery_reports_zero_residual():
    # the sup residual of an exact fit is computed exactly, not in floats
    rng = random.Random(43)
    for seed in range(10):
        alpha = Form(3, 1, {
            (i,): LaurentPoly.const(3, random_qc(rng))
            + sum((LaurentPoly.z(3, j) * random_qc(rng) for j in range(3)),
                  LaurentPoly.zero(3))
            for i in range(3)})
        pts = exact_points(3, 8, seed=seed)
        fit = fit_holomorphic(pts, [alpha.covector_at(pt) for pt in pts], degree=1)
        assert fit.exact and fit.full_rank
        assert fit.form == alpha
        assert fit.residual == 0.0


def test_fit_float_path_recovers_to_rounding():
    alpha = std_form(1)
    rng = random.Random(29)
    pts = [Point([complex(rng.uniform(-1, 1), 0) for _ in range(3)])
           for _ in range(20)]
    values = [[complex(v) for v in alpha.covector_at(pt)] for pt in pts]
    fit = fit_holomorphic(pts, values, degree=2)
    assert not fit.exact
    assert fit.residual < 1e-12
    got = fit.form.coeff((1,))
    assert abs(complex(got.eval((0.5 + 0j, 0j, 0j))) - 0.5) < 1e-10


def test_fit_reports_misfit_residual():
    # constant ansatz cannot match linear data: residual is the lack of fit
    pts = exact_points(3, 8, seed=31)
    alpha = std_form(1)
    values = [alpha.covector_at(pt) for pt in pts]
    fit = fit_holomorphic(pts, values, degree=0)
    assert fit.residual > 0.01


def test_fit_needs_enough_points():
    pts = exact_points(3, 2, seed=37)
    values = [std_form(1).covector_at(pt) for pt in pts]
    with pytest.raises(PreconditionError):
        fit_holomorphic(pts, values, degree=1)
    with pytest.raises(PreconditionError):
        fit_holomorphic([], [], degree=0)


def test_fit_refuses_a_negative_degree():
    """degree -1 has no monomials; both solve paths refuse it instead of
    reporting an empty full-rank fit."""
    pts = exact_points(3, 30, seed=2)
    exact = [std_form(1).covector_at(pt) for pt in pts]
    floats = [[complex(v) for v in row] for row in exact]
    for values in (exact, floats):
        with pytest.raises(PreconditionError, match="degree must be >= 0, got -1"):
            fit_holomorphic(pts, values, degree=-1)


def test_fit_detects_rank_deficiency():
    pt = exact_points(3, 1, seed=41)[0]
    pts = [pt] * 6
    values = [std_form(1).covector_at(p) for p in pts]
    fit = fit_holomorphic(pts, values, degree=1)
    assert not fit.full_rank


def parent_solve_exact_normal(A: list[list[QC]], rhs_cols: list[list[QC]]):
    """The exact solver before it became one Gauss-Jordan pass, kept
    verbatim as the oracle: least squares over Gaussian rationals via the
    normal equations.

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


def solve_exact(A: list[list[QC]], rhs_cols: list[list[QC]]):
    """The exact fit's solve on [A | b]: scaled to Gaussian integers, then solved."""
    _, re, im = _gaussian([*zip(*A), *rhs_cols])
    return _solve_gaussian(re, im, len(A[0]) if A else 0)


def random_system(rng):
    """Columns are fresh, zero, repeats or sums of earlier columns, so many
    systems are rank-deficient; fewer rows than columns happen too."""
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 5)

    def entry():
        return QC(0) if rng.random() < 0.3 else gauss_rational(rng, rng.randint(1, 3), 1)

    cols = []
    for _ in range(n_cols):
        kind = rng.choice(["fresh", "fresh", "zero", "repeat", "sum"]) if cols else "fresh"
        if kind == "fresh":
            cols.append([entry() for _ in range(n_rows)])
        elif kind == "zero":
            cols.append([QC(0)] * n_rows)
        elif kind == "repeat":
            cols.append(list(rng.choice(cols)))
        else:
            u, v = rng.choice(cols), rng.choice(cols)
            s = gauss_rational(rng, 2, 1)
            cols.append([a + s * b for a, b in zip(u, v)])
    A = [[col[r] for col in cols] for r in range(n_rows)]
    rhs = [[entry() for _ in range(n_rows)] for _ in range(rng.randint(1, 3))]
    return A, rhs


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32))
def test_exact_solver_matches_the_parent(seed):
    A, rhs = random_system(random.Random(seed))
    sols, rank = solve_exact(A, rhs)
    want_sols, want_rank = parent_solve_exact_normal(A, rhs)
    assert rank == want_rank
    assert sols == want_sols
    assert repr(sols) == repr(want_sols)


def test_exact_solver_makes_no_qc_arithmetic(monkeypatch):
    """The solve runs on Gaussian integers: the only QC it makes are the
    zeros of free columns and one reduced value per solution entry."""
    systems = [random_system(random.Random(seed)) for seed in (5, 11, 17)]
    want = [parent_solve_exact_normal(A, rhs) for A, rhs in systems]
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "conj",
                 "inverse"):
        monkeypatch.setattr(QC, name, counted(name, getattr(QC, name)))
    got = [solve_exact(A, rhs) for A, rhs in systems]
    monkeypatch.undo()
    assert calls == []
    assert got == want


def parent_exact_fit(points, values, degree):
    """The exact path of the fit before it solved on Gaussian integers,
    kept as the oracle: the QC solve, the row-by-row residual loop and the
    public constructors.  Returns (form, rank, residual)."""
    m = points[0].m
    monos = list(multi_indices(m, degree))
    rows = [[exact(v) for v in r] for r in values]
    A = [reference_design_row(pt.values, monos, QC(1)) for pt in points]
    sols, rank = parent_solve_exact_normal(A, [[row[i] for row in rows] for i in range(m)])
    zero = (0,) * m
    form = Form(m, 1, {
        (i,): LaurentPoly(m, {Monomial(tuple(I), zero): c for I, c in zip(monos, col)})
        for i, col in enumerate(sols)}, "laurent")
    worst = Fraction(0)
    for r, row in enumerate(rows):
        for i in range(m):
            fit_v = sum((c * av for c, av in zip(sols[i], A[r])), QC(0))
            worst = max(worst, (fit_v - row[i]).abs2())
        for extra in row[m:]:
            worst = max(worst, extra.abs2())
    return form, rank, math.sqrt(worst)


def random_exact_fit(rng):
    """Points drawn from a small pool (repeats and zero coordinates make
    rank-deficient designs), values from a polynomial form with some rows
    moved off it, and sometimes the 2m-component rows of a covector whose
    dzbar half is nonzero."""
    m, degree = rng.randint(1, 3), rng.randint(0, 2)
    n_monos = len(list(multi_indices(m, degree)))
    pool = [Point([QC(0) if rng.random() < 0.2 else gauss_rational(rng, rng.choice([1, 3, 7]), 2)
                   for _ in range(m)]) for _ in range(rng.randint(1, n_monos + 2))]
    points = [rng.choice(pool) for _ in range(n_monos + rng.randint(0, 4))]
    alpha = Form(m, 1, {(i,): sum((LaurentPoly(m, {Monomial(I, (0,) * m):
                                                   gauss_rational(rng, 5, 1)})
                                   for I in multi_indices(m, degree)), LaurentPoly.zero(m))
                        for i in range(m)})
    width = rng.choice([m, 2 * m])
    values = []
    for pt in points:
        row = list(alpha.covector_at(pt))[:m]
        if rng.random() < 0.3:
            row[rng.randrange(m)] += gauss_rational(rng, 3, 1)
        row += [QC(0) if rng.random() < 0.5 else gauss_rational(rng, 2, 1)
                for _ in range(width - m)]
        values.append(row)
    return points, values, degree


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32))
def test_exact_fit_matches_the_parent(seed):
    points, values, degree = random_exact_fit(random.Random(seed))
    fit = fit_holomorphic(points, values, degree)
    form, rank, residual = parent_exact_fit(points, values, degree)
    assert fit.exact
    assert fit.rank == rank
    assert fit.form == form
    assert repr(fit.form) == repr(form)
    assert [list(c.terms) for c in fit.form.terms.values()] == \
        [list(c.terms) for c in form.terms.values()]
    assert fit.residual.hex() == residual.hex()


def reference_design_row(values, monos, one) -> list:
    """The exact path's row builder before both fit paths shared one: the
    monomials z^I at one point, each v = one times values[k] ** e over the
    nonzero exponents e of I.  Kept as the design matrix's oracle."""
    row = []
    for I in monos:
        v = one
        for k, e in enumerate(I):
            if e:
                v = v * values[k] ** e
        row.append(v)
    return row


def design_rows(points, monos):
    """The float design matrix a row at a time through Python's complex
    arithmetic, the oracle with a complex one."""
    return np.array([reference_design_row(pt.as_complex(), monos, 1 + 0j) for pt in points],
                    dtype=complex).reshape(len(points), len(monos))


def float_design_matrix(points, monos):
    """The float fit's matrix: the one builder's rows as a complex array."""
    return np.array(_design_matrix([pt.as_complex() for pt in points], monos, 1 + 0j),
                    dtype=complex)


# signed zeros, units and values whose powers round, over- and underflow
_COORDS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-170, 3e150, math.nan,
           complex(0.0, -0.0), complex(-0.0, 1.0), complex(-1.0, -0.0), 1j, -1j]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(0, 7), st.integers(1, 12), st.integers(0, 2 ** 32))
def test_design_matrix_matches_the_row_products(m, degree, count, seed):
    rng = random.Random(seed)

    def coord():
        if rng.random() < 0.4:
            return rng.choice(_COORDS)
        return complex(rng.uniform(-1.5, 1.5), rng.choice([0.0, rng.uniform(-1.5, 1.5)]))

    points = [Point([coord() for _ in range(m)]) for _ in range(count)]
    monos = list(multi_indices(m, degree))
    try:
        want = design_rows(points, monos)
    except OverflowError:
        with pytest.raises(OverflowError):
            float_design_matrix(points, monos)
        return
    assert float_design_matrix(points, monos).tobytes() == want.tobytes()


def test_design_matrix_past_the_square_and_multiply_exponents():
    """Exponents above 100 take Python's polar-form power."""
    rng = random.Random(4)
    points = [Point([complex(rng.uniform(-1.01, 1.01), rng.uniform(-0.1, 0.1))])
              for _ in range(30)]
    monos = list(multi_indices(1, 105))
    assert float_design_matrix(points, monos).tobytes() == design_rows(points, monos).tobytes()


def test_design_matrix_mixes_exact_and_float_coordinates():
    points = [Point([QC(Fraction(k, 7), -1), 0.25 * k, complex(0, k)]) for k in range(-4, 5)]
    monos = list(multi_indices(3, 4))
    assert float_design_matrix(points, monos).tobytes() == design_rows(points, monos).tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(1, 8), st.integers(0, 2 ** 32))
def test_exact_design_matrix_matches_the_row_products(m, degree, count, seed):
    rng = random.Random(seed)
    points = [Point([gauss_rational(rng, rng.choice([1, 3, 7]), 2) if rng.random() < 0.8 else QC(0)
                     for _ in range(m)]) for _ in range(count)]
    monos = list(multi_indices(m, degree))
    got = _design_matrix([pt.values for pt in points], monos, QC(1))
    want = [reference_design_row(pt.values, monos, QC(1)) for pt in points]
    assert got == want
    assert repr(got) == repr(want)


def test_both_fit_paths_build_through_the_one_design_matrix(monkeypatch):
    ones = []

    def counted(values, monos, one):
        ones.append(one)
        return _design_matrix(values, monos, one)

    monkeypatch.setattr(extend, "_design_matrix", counted)
    alpha = Form(2, 1, {(0,): LaurentPoly.z(2, 1) + QC(1), (1,): LaurentPoly.z(2, 0, 2)})
    points = exact_points(2, 12, seed=8)
    rows = [alpha.covector_at(pt) for pt in points]
    assert fit_holomorphic(points, rows, 2).exact
    floats = [Point(pt.as_complex()) for pt in points]
    assert not fit_holomorphic(floats, [[complex(v) for v in r] for r in rows], 2).exact
    assert ones == [QC(1), 1 + 0j]
    assert [type(one) for one in ones] == [QC, complex]


def _qc_points(m, count):
    return exact_points(m, count, seed=3)


def _x1_squared_residual(j):
    """The zbar_j residual of x1^2 over a 9-node grid at its middle node;
    a j that is no coordinate index once read as the unbumped series."""
    grid = CubeGrid(1, 9)
    values = grid.axis(0).reshape(-1, 1, 1) ** 2 * np.ones(grid.shape)
    return SampledExtension(grid, values, 2).dbar_residual((4, 4, 4), (0.1, 0, 0), j)


def _float_points(m=3):
    return numeric_points(m, 6, seed=1)


def _ones_extension():
    return SampledExtension(CubeGrid(1, 5), np.ones((5, 5, 5)), 1)


def _overflow_at_point_3():
    """Point 3's coordinates have finite squares, |z|^2 / sqrt 2 each, but
    their product is inf: no power overflows in ``**`` and the row still
    does."""
    z = cmath.rect(1.4e154, math.pi / 8)
    pts = numeric_points(3, 10, 1)
    return pts[:3] + [Point([z, z.conjugate(), 0j])] + pts[3:]


def _nan_at_point_2():
    pts = _float_points()
    return pts[:2] + [Point([math.nan, 0j, 0j])] + pts[3:]


def test_float_design_gives_inf_only_on_the_rows_that_overflow():
    """When one point's power overflows in ``**``, that point's row is all
    inf and every other row is the one the whole-matrix build gives."""
    pts = [pt.as_complex() for pt in numeric_points(3, 10, 1)]
    monos = list(multi_indices(3, 2))
    coords = pts[:4] + [(1e200 + 0j, 0j, 0j)] + pts[4:]
    got = extend._float_design(coords, monos)
    assert got.shape == (11, len(monos)) and np.isinf(got[4]).all()
    want = np.array(_design_matrix(pts, monos, 1 + 0j), dtype=complex)
    assert np.array_equal(np.delete(got, 4, axis=0), want)


def test_a_fit_refuses_monomials_only_past_the_float_range():
    """A point with a coordinate of 1e150 fits at degree 2, where its
    largest monomial is 1e300, and is refused at degree 3."""
    pts = numeric_points(3, 20, 1) + [Point([1e150 + 0j, 0j, 0j])]
    fit = fit_holomorphic(pts, [[1, 0, 0]] * 21, 2)
    assert not fit.exact and math.isfinite(fit.residual)
    with pytest.raises(PreconditionError, match="point 20's monomials overflow at degree 3"):
        fit_holomorphic(pts, [[1, 0, 0]] * 21, 3)


def test_a_list_node_reads_as_its_tuple():
    """A node given as a list passes ``CubeGrid.node_coords`` and then
    indexes the jets as the tuple it is: ``value`` and ``dbar_residual``
    give the tuple node's results bit for bit."""
    rng = np.random.default_rng(7)
    grid = CubeGrid(1, 5)
    ext = SampledExtension(grid, rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape), 2)
    y = (0.1, -0.2, 0.3)
    for node in ([1, 2, 3], [2, 2, 2], [0, 4, 1]):
        assert repr(ext.value(node, y)) == repr(ext.value(tuple(node), y))
        for j in range(3):
            assert repr(ext.dbar_residual(node, y, j)) == repr(
                ext.dbar_residual(tuple(node), y, j))


def test_the_x1_squared_residual_vanishes_at_order_2():
    assert [_x1_squared_residual(j) for j in range(3)] == [0j, 0j, 0j]


EXTEND_REFUSALS = [
    (lambda: extend_function(LaurentPoly.zbar(2, 0), 1), PreconditionError,
     "real-slice data must not involve zbar variables"),
    (lambda: extend_function(LaurentPoly.z(2, 0, -1), 1), PreconditionError,
     "symbolic extension needs polynomial data (no poles)"),
    (lambda: extend_function(LaurentPoly.z(1, 0), 1.5), PreconditionError,
     "extension order l must be an int, got 1.5"),
    (lambda: extend_function(LaurentPoly.z(1, 0), 0), PreconditionError,
     "extension order l must be >= 1"),
    (lambda: extend_form([], 1), DimensionError, "need at least one coefficient"),
    (lambda: extend_form([LaurentPoly.z(2, 0)], 1), DimensionError,
     "coefficient variable count != number of components"),
    (lambda: dbar_defect("z1", [], 1), VariantError, "not a coefficient: str"),
    (lambda: dbar_defect(LaurentPoly.z(1, 0), [], 1.5), PreconditionError,
     "defect order must be an int, got 1.5"),
    (lambda: dbar_defect(LaurentPoly.z(1, 0), [], 0), PreconditionError,
     "defect order must be >= 1"),
    (lambda: SampledExtension(_GRID, np.zeros(_GRID.shape), 3.5), PreconditionError,
     "extension order l must be an int, got 3.5"),
    (lambda: SampledExtension(_GRID, np.zeros(_GRID.shape), 0), PreconditionError,
     "extension order l must be >= 1"),
    (lambda: SampledExtension(_GRID, np.zeros(4), 1), DimensionError,
     "value field shape != grid shape"),
    (lambda: _x1_squared_residual(1.5), DimensionError,
     "coordinate index j must be an int, got 1.5"),
    (lambda: _x1_squared_residual(7), DimensionError, "zbar_8 (index 7) does not exist on C^3"),
    (lambda: SampledExtension(_GRID, np.zeros(_GRID.shape), 4), PreconditionError,
     "grid too small for the requested jets"),
    (lambda: ah_verify(Form(2, 2, {(0, 1): LaurentPoly.const(2, 1)}), [], 1e-9),
     DimensionError, "ah_verify expects a 1-form"),
    (lambda: fit_holomorphic([], [], 0), PreconditionError, "fit needs at least one sample"),
    (lambda: fit_holomorphic(_qc_points(1, 4), [[1]] * 4, 1.5), PreconditionError,
     "fit degree must be an int, got 1.5"),
    (lambda: fit_holomorphic(_qc_points(1, 4), [[1]] * 4, -1), PreconditionError,
     "fit degree must be >= 0, got -1"),
    (lambda: fit_holomorphic(_qc_points(2, 2), [[1, 1]] * 2, 1), PreconditionError,
     "2 samples cannot determine 3 monomials"),
    (lambda: fit_holomorphic(_qc_points(2, 4), [[1, 1, 1]] * 4, 1), DimensionError,
     "value rows must have m or 2m components"),
    (lambda: fit_holomorphic(_float_points(), [[1, 1, 1]] * 5 + [[1, 1]], 0), DimensionError,
     "row 5 has 2, m = 3"),
    (lambda: fit_holomorphic(_float_points()[:5] + [(1, 2, 3)], [[1, 1, 1]] * 6, 0),
     PreconditionError, "point 5 is not a Point: (1, 2, 3)"),
    (lambda: fit_holomorphic(_float_points()[:3] + _float_points(2)[:3], [[1, 1, 1]] * 6, 0),
     DimensionError, "point 3 lies in C^2, point 0 in C^3"),
    (lambda: fit_holomorphic(_float_points(2)[:3] + _float_points()[:3], [[1, 1]] * 6, 0),
     DimensionError, "point 3 lies in C^3, point 0 in C^2"),
    (lambda: fit_holomorphic(_nan_at_point_2(), [[1, 1, 1]] * 6, 0), PreconditionError,
     "point 2 is not finite: Point([(nan+0j), 0j, 0j])"),
    (lambda: fit_holomorphic(numeric_points(3, 10, 1) + [Point([1e200, 0j, 0j])],
                             [[1, 0, 0]] * 11, 2), PreconditionError,
     "point 10's monomials overflow at degree 2: Point([(1e+200+0j), 0j, 0j])"),
    (lambda: fit_holomorphic(_overflow_at_point_3(), [[1, 0, 0]] * 11, 2), PreconditionError,
     "point 3's monomials overflow at degree 2"),
    (lambda: fit_holomorphic(_float_points(), [["a", "b", "c"]] * 6, 0), PreconditionError,
     "value row 0 is not a row of numbers: ['a', 'b', 'c']"),
    (lambda: fit_holomorphic(_float_points(), [[1, 1, 1]] * 5 + [[1, math.inf, 1]], 0),
     PreconditionError, "value row 5 component 1 is not finite: inf"),
    (lambda: fit_holomorphic(_float_points(), [[1, 1, 1, math.nan, 0, 0]] * 6, 0),
     PreconditionError, "value row 0 component 3 is not finite: nan"),
    (lambda: fit_holomorphic(_qc_points(3, 6), [[1, 1, 1, math.inf, 0, 0]] * 6, 0),
     PreconditionError, "value row 0 component 3 is not finite: inf"),
    (lambda: _ones_extension().value((0, 0, 0), (0.1, 0, 0, 5, 6)), DimensionError,
     "height y has 5 entries, C^3 needs 3"),
    (lambda: _ones_extension().value((-1, 0, 0), (0.1, 0, 0)), DimensionError,
     "node index (-1, 0, 0) out of range"),
    (lambda: _ones_extension().max_residual([(-1, -1, -1)], (0.1, 0, 0)), DimensionError,
     "node index (-1, -1, -1) out of range"),
    (lambda: _ones_extension().dbar_residual((0, 5, 0), (0.1, 0, 0), 0), DimensionError,
     "node index (0, 5, 0) out of range"),
    (lambda: _ones_extension().value((0.5, 0, 0), (0.1, 0, 0)), DimensionError,
     "node index (0.5, 0, 0) must be an int, got 0.5"),
    (lambda: _ones_extension().value((0, 0), (0.1, 0, 0)), DimensionError,
     "node index length != m"),
    (lambda: fit_holomorphic(_qc_points(2, 4), [[1, 1]] * 3, 1), DimensionError,
     "one value row per point required"),
]


@pytest.mark.parametrize("call, error, fragment", EXTEND_REFUSALS,
                         ids=[r[2] for r in EXTEND_REFUSALS])
def test_every_extend_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``extend.py``, one more for a design row
    that overflows to inf without raising, one for the non-coefficient
    that ``dbar_defect`` leaves to ``coefficient_variant``, and one per
    refused node that ``SampledExtension`` leaves to
    ``CubeGrid.node_coords``: the malformed input, its error class and a
    fragment of its message."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)
