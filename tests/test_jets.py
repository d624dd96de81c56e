"""Jet-space relation: exact affineness, slice classification, grids."""

import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactkit
from contactkit.coefficients import LaurentPoly
from contactkit.contact import contact_defect, relation_h, relation_slope
from contactkit.errors import ContactKitError, DimensionError, PreconditionError
from contactkit.forms import Form, Point
from contactkit.gallery import std_form
from contactkit.grids import CubeGrid, GridSection, upper_pairs
from contactkit.jets import (
    Jet1, RestrictedJet, SliceClass, ampleness_slice, curl_grid, formal_margin_grid,
    grid_jacobian, holonomic_jet, holonomy_defect, relation_grid,
    relation_value, slope_grid,
)
from contactkit.sampling import exact_points, random_jet, random_qc
from contactkit.scalars import QC, _reduced
from oracles import skew_of_jacobian, top_coefficient


def test_relation_value_known():
    # a = (0,0,1), p rotating rows: beta_{01} = p[1][0]-p[0][1] = 1, h = a_2*b_2
    p = [[QC(0)] * 3 for _ in range(3)]
    p[1][0] = QC(1)
    jet = Jet1.build(1, (QC(0), QC(0), QC(1)), p)
    assert relation_value(jet) == QC(1)


def test_every_entry_the_kernel_reads_decides_the_slice_zero():
    """An exact int entry makes a jet no less exact: its slices are those of
    the same jet in QC, whichever entry is the int.  The free row's probe
    defaults are never read, so a complex one there changes nothing.  An
    empty slice answers QC(0) for any exact row."""
    j = random_jet(1, random.Random(3))
    with_int = Jet1(1, (0,) + j.a[1:], j.p)
    with_qc = Jet1(1, (QC(0),) + j.a[1:], j.p)
    assert relation_value(with_int) == QC(Fraction(-248, 49), Fraction(-2, 7))
    for i in range(3):
        want = ampleness_slice(RestrictedJet(with_qc, i))
        assert ampleness_slice(RestrictedJet(with_int, i)) == want
        assert ampleness_slice(RestrictedJet(with_qc.with_row(i, [1j] * 3), i)) == want
    empty = SliceClass("empty")
    assert type(empty.h_of_row((0, QC(1), QC(2)))) is QC
    assert type(empty.h_of_row((0, QC(1), 2j))) is complex


def test_relation_affine_in_each_row():
    """Second differences along any row direction vanish exactly."""
    rng = random.Random(301)
    for n in (1, 2):
        m = 2 * n + 1
        for _ in range(60):
            jet = random_jet(n, rng)
            i = rng.randrange(m)
            base = tuple(random_qc(rng) for _ in range(m))
            step = tuple(random_qc(rng) for _ in range(m))

            def at(t):
                row = tuple(b + QC(t) * s for b, s in zip(base, step))
                return relation_value(jet.with_row(i, row))

            assert at(0) - at(1) * 2 + at(2) == QC(0)


def test_relation_not_affine_jointly():
    """Dependence on the full matrix is genuinely quadratic for n >= 1."""
    rng = random.Random(307)
    found = False
    for _ in range(20):
        jet = random_jet(2, rng)
        other = random_jet(2, rng)

        def at(t):
            p = tuple(tuple(a + QC(t) * b for a, b in zip(ra, rb))
                      for ra, rb in zip(jet.p, other.p))
            return relation_value(Jet1(2, jet.a, p))

        if at(0) - at(1) * 2 + at(2) != QC(0):
            found = True
            break
    assert found


def test_slice_classification_vs_membership():
    """contains() agrees with a direct h != 0 check on random rows."""
    rng = random.Random(311)
    kinds = {"empty": 0, "full": 0, "hyperplane": 0}
    for n in (1, 2):
        m = 2 * n + 1
        for _ in range(40):
            jet = random_jet(n, rng)
            i = rng.randrange(m)
            slc = ampleness_slice(RestrictedJet(jet, i))
            kinds[slc.kind] += 1
            for _ in range(25):
                row = tuple(random_qc(rng) for _ in range(m))
                member = not relation_value(jet.with_row(i, row)).is_zero
                assert member == slc.contains(row)
    # random exact jets are hyperplane-classified essentially always
    assert kinds["hyperplane"] > 0


def test_slice_h_matches_relation():
    rng = random.Random(313)
    for _ in range(30):
        jet = random_jet(1, rng)
        i = rng.randrange(3)
        slc = ampleness_slice(RestrictedJet(jet, i))
        row = tuple(random_qc(rng) for _ in range(3))
        assert slc.h_of_row(row) == relation_value(jet.with_row(i, row))


def test_forced_slice_kinds():
    # zero jet: h vanishes identically in every row
    zero = Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 3] * 3)
    assert ampleness_slice(RestrictedJet(zero, 0)).kind == "empty"
    # a = e_3, p = 0, row 0 free: beta entries never touch row 0 pairings
    # with nonzero partner, h = b_2(row) which is linear: hyperplane
    jet = Jet1.build(1, (QC(0), QC(0), QC(1)), [[QC(0)] * 3] * 3)
    slc = ampleness_slice(RestrictedJet(jet, 0))
    assert slc.kind == "hyperplane"
    assert slc.is_ample
    # freeing the row of a component that cannot influence any pairing
    # containing it when a kills the complementary terms: h constant
    p = [[QC(0)] * 3 for _ in range(3)]
    p[1][0] = QC(1)
    jet_full = Jet1.build(1, (QC(0), QC(0), QC(1)), p)
    slc_full = ampleness_slice(RestrictedJet(jet_full, 2))
    assert slc_full.kind == "full"
    assert slc_full.is_ample
    assert ampleness_slice(RestrictedJet(zero, 0)).is_ample is False


def test_slope_is_the_skew_bump_difference():
    """slope(r, s) = h(beta + e_rs - e_sr) - h(beta) exactly, for every
    ordered pair; bumping p[s][r] by one is that skew bump."""
    rng = random.Random(337)
    for n in (1, 2, 3):
        m = 2 * n + 1
        for _ in range(3):
            jet = random_jet(n, rng)
            h = relation_value(jet)
            beta = lambda r, s: jet.p[s][r] - jet.p[r][s]
            for r in range(m):
                for s in range(m):
                    if r == s:
                        continue
                    p = [list(row) for row in jet.p]
                    p[s][r] = p[s][r] + QC(1)
                    bumped = relation_value(Jet1.build(n, jet.a, p))
                    assert bumped - h == relation_slope(jet.a.__getitem__, beta, n, r, s)
    with pytest.raises(DimensionError):
        relation_slope(jet.a.__getitem__, beta, 3, 2, 2)


def test_slope_grid_matches_bumped_relation_grid():
    rng = np.random.default_rng(347)
    for n in (1, 2):
        m = 2 * n + 1
        a = rng.normal(size=(4, 3, m)) + 1j * rng.normal(size=(4, 3, m))
        jac = rng.normal(size=(4, 3, m, m)) + 1j * rng.normal(size=(4, 3, m, m))
        beta = skew_of_jacobian(jac)
        h = relation_grid(a, beta, n)
        cols = {pair: c for c, pair in enumerate(upper_pairs(m))}
        for r in range(m):
            for s in range(m):
                if r == s:
                    continue
                # beta_rs += 1 and beta_sr -= 1: one upper column moves
                bumped = beta.copy()
                bumped[..., cols[min(r, s), max(r, s)]] += 1 if r < s else -1
                diff = relation_grid(a, bumped, n) - h
                assert np.max(np.abs(slope_grid(a, beta, n, r, s) - diff)) <= 1e-12


@pytest.mark.parametrize("a_shape, beta_shape", [
    ((3, 3, 3, 3), (3, 3, 3, 3, 3)),  # a full (m, m) beta that would broadcast
    ((5, 5, 5, 3), (5, 5, 5, 3, 3)),  # the same where numpy cannot broadcast
    ((3, 3, 3, 3), (3, 3, 3, 4)),     # one column too many at m = 3
    ((3, 3, 3, 4), (3, 3, 3, 3)),     # a wider than 2n + 1
])
def test_grid_readers_refuse_misshapen_fields(a_shape, beta_shape):
    a, beta = np.ones(a_shape, dtype=complex), np.ones(beta_shape, dtype=complex)
    for read in (lambda: relation_grid(a, beta, 1), lambda: slope_grid(a, beta, 1, 0, 1)):
        with pytest.raises(DimensionError, match=re.escape(f"got {a_shape} and {beta_shape}")):
            read()


def probe_slice_oracle(jet, i):
    """The affine decomposition by m+1 probes: c = h(zero row),
    w_j = h(e_j) - c."""
    m = jet.m
    c = relation_value(jet.with_row(i, [QC(0)] * m))
    w = tuple(relation_value(jet.with_row(i, [QC(int(k == j)) for k in range(m)])) - c
              for j in range(m))
    if all(wj.is_zero for wj in w):
        return ("empty", None, 0) if c.is_zero else ("full", None, c)
    return "hyperplane", w, c


def test_ampleness_slice_matches_probe_oracle():
    rng = random.Random(349)
    p = [[QC(0)] * 3 for _ in range(3)]
    p[1][0] = QC(1)
    jets = [Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 3] * 3),
            Jet1.build(1, (QC(0), QC(0), QC(1)), p)]
    jets += [random_jet(n, rng) for n in (1, 2, 3) for _ in range(3)]
    kinds = set()
    for jet in jets:
        for i in range(jet.m):
            slc = ampleness_slice(RestrictedJet(jet, i))
            kinds.add(slc.kind)
            assert (slc.kind, slc.w, slc.c) == probe_slice_oracle(jet, i)
    assert kinds == {"empty", "full", "hyperplane"}


def test_relation_h_is_the_pfaffian_contraction():
    """h = sum_i (-1)^i a_i b_i with b_i from the pfaffian coefficients."""
    from contactkit.contact import pfaffian_coeffs, relation_coefficient
    rng = random.Random(353)
    for n in (0, 1, 2):
        jet = random_jet(n, rng)
        m = jet.m
        upper = {(r, s): jet.p[s][r] - jet.p[r][s] for r in range(m) for s in range(r + 1, m)}

        def beta(r, s):
            return upper[r, s]

        want = relation_coefficient(list(jet.a), pfaffian_coeffs(beta, n))
        assert relation_h(jet.a.__getitem__, beta, n) == want


def test_holonomic_jet_matches_defect():
    """relation_value of the holonomic jet equals the defect coefficient."""
    for n in (1, 2):
        alpha = std_form(n)
        for pt in exact_points(2 * n + 1, 6, seed=41):
            jet = holonomic_jet(alpha, pt)
            h = relation_value(jet)
            assert h == top_coefficient(contact_defect(alpha), pt)


def test_holonomic_jet_entries():
    alpha = std_form(1)  # dz3 + z1 dz2
    pt = exact_points(3, 1, seed=43)[0]
    jet = holonomic_jet(alpha, pt)
    assert jet.a == (QC(0), pt.values[0], QC(1))
    assert jet.p[1][0] == QC(1)
    assert jet.p[2] == (QC(0), QC(0), QC(0))


def grid_section(grid, a_cols, beta_cols):
    """A section built with numpy from fields of the node coordinates:
    ``a_cols[i](x)`` (None for zero) and ``beta_cols[(r, s)](x)`` for the
    upper pairs given, every other beta entry zero; x holds one
    grid-shaped coordinate array per axis."""
    x = np.meshgrid(*(grid.axis(k) for k in range(grid.m)), indexing="ij")
    a = np.zeros(grid.shape + (grid.m,), dtype=complex)
    for i, field in enumerate(a_cols):
        if field is not None:
            a[..., i] = field(x)
    pairs = upper_pairs(grid.m)
    beta = np.zeros(grid.shape + (len(pairs),), dtype=complex)
    for c, pair in enumerate(pairs):
        if pair in beta_cols:
            beta[..., c] = beta_cols[pair](x)
    return GridSection(grid, a, beta)


def one(x):
    return 1.0


def finite_diff_jet(s: GridSection, node: tuple[int, ...]) -> Jet1:
    """The per-node stencil oracle for ``grid_jacobian``: the jet of the
    sampled a field at one node, with the central difference inside and
    the second-order one-sided differences at the faces."""
    grid = s.grid
    m = grid.m
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


def curl_oracle(a: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """The curl as it was taken from the whole Jacobian: numpy's stencil
    along every axis of every component, then its skew part.  Kept as the
    oracle of ``curl_grid``."""
    jac = np.stack([np.gradient(a, grid.h[j], axis=j, edge_order=2)
                    for j in range(grid.m)], axis=-1)
    return skew_of_jacobian(jac)


@pytest.mark.parametrize("nodes", [5, 13, 33])
def test_curl_matches_the_whole_jacobian_oracle(nodes):
    """Bit-equal to the skew of the full Jacobian on random complex fields
    with signed zeros, on a cube with unequal mesh steps."""
    rng = np.random.default_rng(nodes)
    grid = CubeGrid(1, nodes=nodes, bounds=[(0.0, 1.0), (-2.0, 0.5), (0.25, 0.375)])
    a = rng.normal(size=grid.shape + (3,)) + 1j * rng.normal(size=grid.shape + (3,))
    a.real[rng.random(a.shape) < 0.3] = -0.0
    a.imag[rng.random(a.shape) < 0.3] = -0.0
    a[rng.random(grid.shape) < 0.1] = 0.0
    got, want = curl_grid(a, grid), curl_oracle(a, grid)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_finite_diff_jet_exact_on_affine_fields():
    """Central and one-sided stencils are exact on degree-1 data."""
    grid = CubeGrid(1, nodes=9)
    s = grid_section(grid, [lambda x: 2 * x[1], lambda x: x[0], one], {(0, 1): one})
    for node in [(0, 0, 0), (4, 4, 4), (8, 0, 3), (1, 8, 8)]:
        jet = finite_diff_jet(s, node)
        assert jet.p[0][1] == pytest.approx(2.0, abs=1e-12)
        assert jet.p[1][0] == pytest.approx(1.0, abs=1e-12)
        assert jet.p[2][0] == pytest.approx(0.0, abs=1e-12)


def test_grid_jacobian_matches_pointwise_jets():
    """The vectorized jacobian equals per-node stencil jets everywhere probed."""
    rng = random.Random(317)
    grid = CubeGrid(1, nodes=7)
    s = grid_section(grid, [lambda x: x[0] * x[1], lambda x: 1j * x[2] + 3, lambda x: x[0] ** 2],
                     {(0, 2): one})
    jac = grid_jacobian(s.a, s.grid)
    for i in range(3):  # bit for bit the per-component stencil
        for j in range(3):
            assert np.array_equal(
                jac[..., i, j], np.gradient(s.a[..., i], grid.h[j], axis=j, edge_order=2))
    for _ in range(12):
        node = tuple(rng.randrange(7) for _ in range(3))
        jet = finite_diff_jet(s, node)
        for i in range(3):
            for j in range(3):
                assert jac[node][i, j] == pytest.approx(jet.p[i][j], abs=1e-10)


def test_relation_grid_matches_per_node_jets():
    """Vectorized h agrees with scalar relation_value on stencil jets."""
    rng = random.Random(331)
    cases = [
        (CubeGrid(1, nodes=7),
         [lambda x: x[1], lambda x: (2 + 1j) * x[0], one],
         {(0, 1): one}),
        (CubeGrid(2, nodes=5),
         [lambda x: x[1] * x[2], lambda x: (2 + 1j) * x[0], lambda x: x[3] + 1j * x[4],
          lambda x: x[2], lambda x: x[0] ** 2],
         {(0, 1): one, (2, 3): one}),
    ]
    for grid, a_cols, beta in cases:
        s = grid_section(grid, a_cols, beta)
        jac = grid_jacobian(s.a, s.grid)
        hgrid = relation_grid(s.a, skew_of_jacobian(jac), grid.n)
        for _ in range(10):
            node = tuple(rng.randrange(1, grid.nodes - 1) for _ in range(grid.m))
            jet = finite_diff_jet(s, node)
            assert hgrid[node] == pytest.approx(complex(relation_value(jet)), abs=1e-10)


def test_skew_of_jacobian_antisymmetric():
    """Column c is p[s][r] - p[r][s] for the c-th upper pair, bit for bit;
    the lower entries are the negated ones, which are not stored."""
    rng = np.random.default_rng(5)
    for m in (3, 5):
        jac = rng.normal(size=(4, 4, m, m)) + 1j * rng.normal(size=(4, 4, m, m))
        sk = skew_of_jacobian(jac)
        assert sk.shape == (4, 4, m * (m - 1) // 2)
        for c, (r, s) in enumerate(upper_pairs(m)):
            assert np.array_equal(sk[..., c], jac[..., s, r] - jac[..., r, s])


def test_holonomy_defect_zero_iff_curl():
    grid = CubeGrid(1, nodes=9)
    a_cols = [None, lambda x: x[0], one]  # z1 dz2 + dz3, whose curl is dz1^dz2
    holo = grid_section(grid, a_cols, {(0, 1): one})
    assert holonomy_defect(holo) < 1e-12
    # declaring the wrong beta leaves a visible defect
    bad = grid_section(grid, a_cols, {(0, 1): lambda x: 3.0})
    assert holonomy_defect(bad) >= 1.9


def test_stencil_refinement_is_second_order():
    """Quadratic fields are differentiated exactly; cubics shrink ~4x."""
    defects = []
    for nodes in (9, 17):
        grid = CubeGrid(1, nodes=nodes)
        s = grid_section(grid, [None, None, lambda x: x[0] ** 3], {})  # a_2 = x^3
        jac = grid_jacobian(s.a, s.grid)
        x = grid.axis(0).reshape(-1, 1, 1)
        exact = 3 * x ** 2 * np.ones(grid.shape)
        defects.append(float(np.max(np.abs(jac[..., 2, 0] - exact))))
    ratio = defects[0] / defects[1]
    assert 3.0 < ratio < 5.0


def test_margin_floor_guard():
    # std_form(1) = z1 dz2 + dz3 with its curl dz1^dz2
    s = grid_section(CubeGrid(1, nodes=5), [None, lambda x: x[0], one], {(0, 1): one})
    worst = formal_margin_grid(s).min()
    assert worst == pytest.approx(1.0)


def test_jet_validation():
    with pytest.raises(DimensionError):
        Jet1.build(1, (QC(0),) * 4, [[QC(0)] * 3] * 3)
    with pytest.raises(DimensionError):
        Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 2] * 3)
    jet = random_jet(1, random.Random(0))
    with pytest.raises(DimensionError):
        RestrictedJet(jet, 3)


def test_jet_refuses_a_negative_n():
    with pytest.raises(DimensionError, match="need n >= 0, got -1"):
        Jet1(-1, (), ())
    with pytest.raises(DimensionError, match="need n >= 0, got -2"):
        Jet1.build(-2, (), [])


def test_grid_derivative_is_the_only_stencil_in_the_package():
    """Extension jets and the Jacobian both difference through
    grid_derivative; no module calls numpy's stencil itself."""
    counts = {path.name: path.read_text().count("np.gradient(")
              for path in Path(contactkit.__file__).parent.rglob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"jets.py": 1}


def _qc_jet():
    return Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 3] * 3)


REFUSALS = [
    (lambda: Jet1(-1, (), ()), DimensionError, "need n >= 0, got -1"),
    (lambda: Jet1.build(1, (QC(0),) * 4, [[QC(0)] * 3] * 3), DimensionError,
     "a has length 4, expected 3"),
    (lambda: Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 2] * 3), DimensionError,
     "p is not a (2n+1) x (2n+1) matrix"),
    (lambda: RestrictedJet(_qc_jet(), 1.0), DimensionError,
     "row index i must be an int, got 1.0"),
    (lambda: RestrictedJet(_qc_jet(), 3), DimensionError, "row index 3 out of range"),
    (lambda: holonomic_jet(Form.dz(4, 0), Point([QC(1)] * 4)), DimensionError,
     "jet space needs odd dimension"),
    (lambda: holonomic_jet(Form(3, 2, {(0, 1): LaurentPoly.const(3, 1)}), Point([QC(1)] * 3)),
     DimensionError, "holonomic_jet expects a 1-form"),
    (lambda: relation_grid(np.ones((5, 5, 5, 3)), np.ones((5, 5, 5, 3, 3)), 1), DimensionError,
     "n = 1 needs a of shape (..., 3) and beta of shape (..., 3), got (5, 5, 5, 3) and"),
    (lambda: Jet1(True, (QC(0),) * 3, ((QC(0),) * 3,) * 3), DimensionError,
     "n must be an int, got True"),
    (lambda: Jet1.build(1.5, (QC(0),) * 4, [[QC(0)] * 4] * 4), DimensionError,
     "n must be an int, got 1.5"),
    (lambda: relation_grid(np.ones((5, 5, 5, 3)), np.ones((5, 5, 5, 3)), 1.5), DimensionError,
     "n must be an int >= 0, got 1.5"),
    (lambda: slope_grid(np.ones((5, 5, 5, 3)), np.ones((5, 5, 5, 3)), -1, 0, 1), DimensionError,
     "n must be an int >= 0, got -1"),
    (lambda: SliceClass("ample"), PreconditionError, "unknown slice kind 'ample'"),
    (lambda: SliceClass("hyperplane", None, QC(1)), PreconditionError,
     "a hyperplane slice needs its slopes w"),
    (lambda: SliceClass("hyperplane", (QC(1),) * 3, QC(1)).h_of_row((QC(1),) * 2),
     DimensionError, "row has length 2, the slice's w has length 3"),
    (lambda: SliceClass("hyperplane", (1j,) * 3, 1j).contains((0j,) * 4),
     DimensionError, "row has length 4, the slice's w has length 3"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_every_jets_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``jets.py``: the malformed input, its error
    class and a fragment of its message."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_an_empty_slice_answers_in_the_rows_ring():
    """With a = 0 the slice is empty and h is zero: QC(0) on an exact row,
    which is relation_value's answer, and 0j on a complex row."""
    rng = random.Random(337)
    for n in (1, 2):
        m = 2 * n + 1
        jet = random_jet(n, rng)
        jet = Jet1(n, (QC(0),) * m, jet.p)
        i = rng.randrange(m)
        slc = ampleness_slice(RestrictedJet(jet, i))
        assert slc.kind == "empty"
        row = tuple(random_qc(rng) for _ in range(m))
        got, want = slc.h_of_row(row), relation_value(jet.with_row(i, row))
        assert type(got) is QC and got.is_zero and got == want
        cjet = Jet1.build(n, (0j,) * m, [[complex(x) for x in r] for r in jet.p])
        cslc = ampleness_slice(RestrictedJet(cjet, i))
        assert cslc.kind == "empty"
        crow = tuple(complex(x) for x in row)
        got = cslc.h_of_row(crow)
        assert type(got) is complex and got == 0 == relation_value(cjet.with_row(i, crow))


def parent_h_of_row(slc, row):
    """``SliceClass.h_of_row`` before exact rows were summed on (a, b, d)
    triples, kept as the oracle: the operator loop."""
    if slc.kind == "empty":
        return 0
    if slc.kind == "full":
        return slc.c
    total = slc.c
    for wj, rj in zip(slc.w, row):
        total = total + wj * rj
    return total


# mixed denominators, among them one past 2**40; zero and d = 1 entries
_DENS = (1, 2, 3, 7, 12, 2 ** 40 + 15)
_exact = st.one_of(
    st.just(QC(0)),
    st.builds(QC, st.integers(-9, 9), st.integers(-9, 9)),
    st.builds(lambda a, b, d: _reduced(a, b, d), st.integers(-10 ** 14, 10 ** 14),
              st.integers(-10 ** 14, 10 ** 14), st.sampled_from(_DENS)),
)
_integral = st.builds(QC, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from((1, 3, 5, 7)).flatmap(lambda m: st.tuples(
    _exact, st.lists(_exact, min_size=m, max_size=m),
    st.one_of(st.lists(_exact, min_size=m, max_size=m),
              st.lists(_integral, min_size=m, max_size=m)))))
def test_h_of_row_matches_the_operator_loop_oracle(case):
    """Triple for triple, the exact sum is the operator loop's QC: zero and
    nonzero c, zero slopes, d = 1 rows and mixed denominators."""
    c, w, row = case
    slc = SliceClass("hyperplane", tuple(w), c)
    got, want = slc.h_of_row(row), parent_h_of_row(slc, row)
    assert type(got) is QC
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert slc.contains(row) == bool(want)


def test_an_exact_row_takes_no_qc_arithmetic(monkeypatch):
    """An exact row is summed on triples: no QC product or sum.  A complex
    or mixed row keeps the operators, so an exact slice still refuses a
    float row."""
    from contactkit.errors import VariantError
    rng = random.Random(347)
    slices = []
    while len(slices) < 6:
        n = 1 + len(slices) % 3
        jet = random_jet(n, rng)
        slc = ampleness_slice(RestrictedJet(jet, rng.randrange(2 * n + 1)))
        if slc.kind == "hyperplane":
            slices.append((slc, tuple(random_qc(rng) for _ in range(2 * n + 1))))
    counts = {"add": 0, "mul": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name, attrs in (("add", ("__add__", "__radd__")), ("mul", ("__mul__", "__rmul__"))):
        for attr in attrs:
            monkeypatch.setattr(QC, attr, counted(name, getattr(QC, attr)))
    for slc, row in slices:
        slc.h_of_row(row)
    assert counts == {"add": 0, "mul": 0}
    slc, row = slices[0]
    assert slc.h_of_row(row[:-1] + (1,)) == parent_h_of_row(slc, row[:-1] + (1,))
    assert counts["mul"] > 0
    with pytest.raises(VariantError):
        slc.h_of_row(row[:-1] + (0.5,))


def test_h_of_row_squared_is_the_bordered_determinant():
    """The affine decomposition against an outside oracle: h(row)^2 =
    (n!)^2 det of the bordered matrix of the jet with that row, from sympy's
    DomainMatrix over QQ_I, at n = 1, 2, 3."""
    from math import factorial

    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def gauss(q):
        return QQ_I(q.re, q.im)

    rng = random.Random(349)
    kinds = set()
    for k in range(24):
        n = 1 + k % 3
        m = 2 * n + 1
        jet = random_jet(n, rng)
        i = rng.randrange(m)
        slc = ampleness_slice(RestrictedJet(jet, i))
        kinds.add(slc.kind)
        row = tuple(random_qc(rng) for _ in range(m))
        p = jet.with_row(i, row).p
        beta = [[p[s][r] - p[r][s] for s in range(m)] for r in range(m)]
        rows = [[QQ_I(0)] + [gauss(x) for x in jet.a]]
        rows += [[-gauss(jet.a[r])] + [gauss(x) for x in beta[r]] for r in range(m)]
        det = DomainMatrix(rows, (m + 1, m + 1), QQ_I).det()
        assert gauss(slc.h_of_row(row)) ** 2 == QQ_I(factorial(n) ** 2) * det
    assert "hyperplane" in kinds


def test_slice_h_of_row_on_empty_and_full_slices():
    """An empty slice reads h = 0 and a full one its constant on every row."""
    row = (QC(1), QC(2, 1), QC(-3))
    empty, full = SliceClass("empty"), SliceClass("full", None, QC(5, -1))
    assert empty.h_of_row(row) == 0 and not empty.contains(row)
    assert full.h_of_row(row) == QC(5, -1) and full.contains(row)
