"""Contact-condition checks against a brute-force wedge oracle.

The Pfaffian expansion is the one piece of combinatorics with room for a
sign mistake, so its coefficients are pinned here against literal wedge
powers of the 2-form, term by term.
"""

import ast
import random
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit import contact, jets
from contactkit.coefficients import LaurentPoly, Monomial
from contactkit.contact import (
    FormalPair, contact_defect, formal_defect, is_contact_on,
    is_formal_contact_on, pfaffian_coeffs, relation_coefficient,
    relation_h, relation_slope,
)
from contactkit.errors import ContactKitError, DimensionError, PreconditionError, VariantError
from contactkit.forms import Form, Point, ext_d, wedge, wedge_power
from contactkit.gallery import circle_form, gallery_entries, sigma_homotopy, std_form
from contactkit.jets import (
    Jet1, RestrictedJet, ampleness_slice, holonomic_jet, relation_grid, relation_value,
    slope_grid,
)
from contactkit.reports import fmt_num
from contactkit.sampling import exact_points, random_jet, random_qc
from contactkit.scalars import QC, _reduced, exact
from oracles import top_coefficient


def random_skew(m, rng):
    """The upper entries {(i, j): B_ij} (i < j) of a random exact skew matrix."""
    return {(i, j): random_qc(rng) for i in range(m) for j in range(i + 1, m)}


def skew_reader(upper):
    """The kernel's beta(r, s) reader of upper entries; an unset one is QC(0)."""
    return lambda r, s: upper.get((r, s), QC(0))


def skew_to_two_form(B, m):
    """The constant 2-form sum_{i<j} B_ij dz_i ^ dz_j on C^m."""
    terms = {}
    for (i, j), v in B.items():
        if not v.is_zero:
            terms[(i, j)] = LaurentPoly.const(m, v)
    return Form(m, 2, terms)


def formal_pair_margin(pair, pt):
    """Symbolic oracle: |top coefficient of alpha ^ beta^n| at one point."""
    return abs(complex(top_coefficient(formal_defect(pair), pt)))


def random_mixed_form(n, degree, rng):
    """A form on C^(2n+1) with zbar monomials and dzbar legs in every
    bidegree, so that only part of it reaches the volume coefficient."""
    m = 2 * n + 1
    words = [(w,) for w in range(2 * m)] if degree == 1 else \
        [(r, s) for r in range(2 * m) for s in range(r + 1, 2 * m)]
    terms = {}
    for w in rng.sample(words, min(len(words), 2 * m)):
        terms[w] = LaurentPoly(m, {
            Monomial(tuple(rng.randint(0, 2) for _ in range(m)),
                     tuple(rng.randint(0, 1) for _ in range(m))): random_qc(rng)
            for _ in range(2)})
    return Form(m, degree, terms)


def sample_margins(report):
    """The per-sample |h| details of a verbose margin report."""
    return [c.detail for c in report.checks if " sample " in c.name]


def symbolic_margins(defect, pts):
    return [f"|coeff|={fmt_num(abs(complex(top_coefficient(defect, pt))))}"
            for pt in pts]


def wedge_expansion_oracle(B, n):
    """Read the Pfaffian coefficients off a literal wedge power."""
    m = 2 * n + 1
    beta = skew_to_two_form(B, m)
    power = wedge_power(beta, n)
    out = []
    for i in range(m):
        word = tuple(k for k in range(m) if k != i)
        coeff = power.coeff(word)
        out.append(coeff.constant_value())
    return out


def test_pfaffian_matches_wedge_expansion():
    """Coefficients agree exactly with brute-force expansion of beta^n."""
    rng = random.Random(211)
    for n, count in ((1, 40), (2, 20)):
        for _ in range(count):
            B = random_skew(2 * n + 1, rng)
            assert pfaffian_coeffs(skew_reader(B), n) == wedge_expansion_oracle(B, n)


def test_pfaffian_known_values():
    # n=1: beta = dz1^dz2, so beta^1 misses only index 2
    B = skew_reader({(0, 1): QC(1)})
    assert pfaffian_coeffs(B, 1) == [QC(0), QC(0), QC(1)]
    # n=2 picks up the 2! normalization on a product of disjoint pairs
    B = skew_reader({(0, 1): QC(1), (2, 3): QC(1)})
    b = pfaffian_coeffs(B, 2)
    assert b == [QC(0), QC(0), QC(0), QC(0), QC(2)]


def test_pfaffian_coeffs_of_an_exact_matrix_are_all_qc():
    """A reader whose unset entries read as QC(0) gives QC coefficients, so
    a coefficient whose every term meets one is QC(0), not int 0."""
    cases = [(1, {(0, 1): QC(1)}, [QC(0), QC(0), QC(1)]),
             (2, {(0, 1): QC(1)}, [QC(0)] * 5),
             (3, {(4, 6): QC(2, 1)}, [QC(0)] * 7)]
    for n, entries, want in cases:
        b = pfaffian_coeffs(skew_reader(entries), n)
        assert [type(x) for x in b] == [QC] * len(b)
        assert b == want


def test_relation_coefficient_matches_top_coefficient():
    """sum_i (-1)^i a_i b_i equals the volume coefficient of alpha^beta^n."""
    rng = random.Random(223)
    pts = exact_points(3, 2, seed=7)
    for n in (1, 2):
        m = 2 * n + 1
        for _ in range(40):
            a = [random_qc(rng) for _ in range(m)]
            B = random_skew(m, rng)
            alpha = Form(m, 1, {(i,): LaurentPoly.const(m, v)
                                for i, v in enumerate(a) if not v.is_zero})
            pair = FormalPair(alpha, skew_to_two_form(B, m))
            pt = pts[0] if m == 3 else exact_points(5, 1, seed=rng.randint(0, 99))[0]
            want = top_coefficient(formal_defect(pair), pt)
            got = relation_coefficient(a, pfaffian_coeffs(skew_reader(B), n))
            assert got == want


def test_relation_coefficient_varying_pair():
    """The contraction tracks a non-constant pair point by point."""
    rng = random.Random(227)
    m = 3
    alpha = Form(m, 1, {
        (0,): LaurentPoly.z(m, 1),
        (1,): LaurentPoly.const(m, QC(2, 1)),
        (2,): LaurentPoly.z(m, 0) * LaurentPoly.zbar(m, 2),
    })
    beta = Form(m, 2, {
        (0, 1): LaurentPoly.z(m, 2),
        (1, 2): LaurentPoly.const(m, QC(0, 1)),
    })
    pair = FormalPair(alpha, beta)
    for pt in exact_points(m, 10, seed=31):
        B = skew_reader(beta.evaluate(pt))  # every word of beta is holomorphic
        a = [alpha.coefficient_at(pt, (i,)) for i in range(m)]
        assert relation_coefficient(a, pfaffian_coeffs(B, 1)) == \
            top_coefficient(formal_defect(pair), pt)


def test_holonomic_pair_matches_contact_defect():
    rng = random.Random(229)
    for _ in range(20):
        terms = {}
        for i in range(3):
            c = random_qc(rng)
            if not c.is_zero:
                terms[(i,)] = LaurentPoly.z(3, rng.randrange(3)) * c
        if not terms:
            continue
        alpha = Form(3, 1, terms)
        pair = FormalPair.holonomic(alpha)
        assert formal_defect(pair) == contact_defect(alpha)


def test_contact_defect_scaling_law():
    """Multiplying by a scalar function scales the defect by its (n+1)st power."""
    rng = random.Random(233)
    for _ in range(20):
        alpha = Form(3, 1, {
            (0,): LaurentPoly.const(3, random_qc(rng)),
            (1,): LaurentPoly.z(3, 0) * random_qc(rng) + QC(1),
            (2,): LaurentPoly.const(3, QC(1)),
        })
        f = LaurentPoly.z(3, rng.randrange(3)) * random_qc(rng) + random_qc(rng)
        scaled = wedge(Form.scalar(3, f), alpha)
        lhs = contact_defect(scaled)
        rhs = wedge(Form.scalar(3, f * f), contact_defect(alpha))
        assert lhs == rhs


def test_scaling_law_n2():
    alpha = std_form(2)
    f = LaurentPoly.z(5, 3) + QC(2)
    scaled = wedge(Form.scalar(5, f), alpha)
    rhs = wedge(Form.scalar(5, f ** 3), contact_defect(alpha))
    assert contact_defect(scaled) == rhs


def test_std_form_is_contact():
    for n in (1, 2):
        alpha = std_form(n)
        pts = exact_points(2 * n + 1, 8, seed=17)
        report = is_contact_on(alpha, pts, 0.5)
        assert report.passed


def test_noncontact_form_fails():
    alpha = Form.dz(3, 0)
    pts = exact_points(3, 4, seed=19)
    report = is_contact_on(alpha, pts, 1e-9)
    assert not report.passed


def test_formal_check_and_margin():
    alpha = std_form(1)
    pair = FormalPair.holonomic(alpha)
    pts = exact_points(3, 5, seed=23)
    assert is_formal_contact_on(pair, pts, 0.5).passed
    for pt in pts:
        assert formal_pair_margin(pair, pt) == pytest.approx(1.0)


def test_even_dimension_rejected():
    alpha = Form.dz(4, 0)
    with pytest.raises(DimensionError):
        contact_defect(alpha)
    with pytest.raises(DimensionError):
        FormalPair(Form.dz(4, 0), Form(4, 2, {(0, 1): LaurentPoly.const(4, 1)}))


def test_kernel_margins_equal_symbolic_top_coefficient():
    """Margins read from the kernel on point values equal the symbolic top
    coefficient of the defect form, bit for bit, on exact points."""
    for entry in gallery_entries():
        if entry.variant != "laurent":
            continue
        pts = exact_points(entry.form.m, 6, seed=37)
        report = is_contact_on(entry.form, pts, 1e-9, verbose=True)
        assert sample_margins(report) == symbolic_margins(contact_defect(entry.form), pts)
    rng = random.Random(239)
    for n, count in ((1, 8), (2, 3)):
        pts = exact_points(2 * n + 1, 4, seed=rng.randint(0, 99))
        for _ in range(count):
            alpha = random_mixed_form(n, 1, rng)
            report = is_contact_on(alpha, pts, 1e-9, verbose=True)
            assert sample_margins(report) == symbolic_margins(contact_defect(alpha), pts)
            pair = FormalPair(alpha, random_mixed_form(n, 2, rng))
            report = is_formal_contact_on(pair, pts, 1e-9, verbose=True)
            assert sample_margins(report) == symbolic_margins(formal_defect(pair), pts)


def test_expr_margins_match_symbolic_top_coefficient():
    pts = exact_points(3, 8, seed=41)
    for alpha in (circle_form(-1), sigma_homotopy(0.5)):
        report = is_contact_on(alpha, pts, 1e-9, verbose=True)
        got = [float(d.split("=")[1]) for d in sample_margins(report)]
        want = [abs(complex(top_coefficient(contact_defect(alpha), pt))) for pt in pts]
        assert got == pytest.approx(want, rel=1e-12)


def test_verifiers_reject_even_dimension_and_non_one_forms():
    pts = exact_points(4, 2, seed=47)
    with pytest.raises(DimensionError):
        is_contact_on(Form.dz(4, 0), pts, 1e-9)
    two_form = ext_d(Form(3, 1, {(0,): LaurentPoly.z(3, 1), (1,): LaurentPoly.z(3, 0),
                                 (2,): LaurentPoly.const(3, 1)}))
    pts3 = exact_points(3, 2, seed=47)
    with pytest.raises(DimensionError):
        is_contact_on(two_form, pts3, 1e-9)


def test_formal_pair_rejects_mixed_variants():
    alpha = std_form(1)
    with pytest.raises(VariantError):
        is_formal_contact_on(FormalPair(alpha, ext_d(alpha).to_expr()),
                             exact_points(3, 2, seed=53), 1e-9)


def test_n3_mixed_form_matches_holonomic_jets():
    """At n = 3 the symbolic defect is out of reach; the kernel margins
    agree with relation_value on the holonomic jets instead."""
    alpha = random_mixed_form(3, 1, random.Random(251))
    pts = exact_points(7, 5, seed=59)
    report = is_contact_on(alpha, pts, 1e-9, verbose=True)
    want = [f"|coeff|={fmt_num(abs(complex(relation_value(holonomic_jet(alpha, pt)))))}"
            for pt in pts]
    assert sample_margins(report) == want


# -- the kernel against the plain expansion -------------------------------


def pfaffian_oracle(entry, idx):
    """The plain Laplace expansion along the first index, sharing nothing:
    Pf = sum_k (-1)^k entry(idx[0], idx[k+1]) Pf(idx without both)."""
    if not idx:
        return 1
    if len(idx) == 2:
        return entry(*idx)
    first, rest = idx[0], idx[1:]
    total = None
    for k, partner in enumerate(rest):
        term = entry(first, partner) * pfaffian_oracle(entry, rest[:k] + rest[k + 1:])
        if k % 2:
            term = -term
        total = term if total is None else total + term
    return total


def bordered_oracle(a, beta):
    return lambda i, j: a(j - 1) if i == 0 else beta(i - 1, j - 1)


def relation_h_oracle(a, beta, n):
    return factorial(n) * pfaffian_oracle(bordered_oracle(a, beta), tuple(range(2 * n + 2)))


def relation_slope_oracle(a, beta, n, r, s):
    if r > s:
        return -relation_slope_oracle(a, beta, n, s, r)
    rest = tuple(k for k in range(2 * n + 2) if k not in (r + 1, s + 1))
    v = factorial(n) * pfaffian_oracle(bordered_oracle(a, beta), rest)
    return v if (r + s) % 2 else -v


def jet_readers(jet):
    return jet.a.__getitem__, lambda r, s: jet.p[s][r] - jet.p[r][s]


def ampleness_slice_oracle(jet, i):
    """(c, w) of h as an affine function of row i, from the plain expansion."""
    zero = QC(0) if isinstance(jet.a[0], QC) else 0j
    a, beta = jet_readers(jet.with_row(i, [zero] * jet.m))
    w = tuple(zero if j == i else relation_slope_oracle(a, beta, jet.n, j, i)
              for j in range(jet.m))
    return relation_h_oracle(a, beta, jet.n), w


def random_entry(kind, rng):
    if kind == "qc":
        return random_qc(rng)
    if kind == "complex":
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)])


def assert_same(got, want):
    """QC results are equal; complex and ndarray results are bit-equal."""
    if isinstance(want, QC):
        assert isinstance(got, QC) and got == want
    else:
        bits = [np.atleast_1d(np.asarray(x, complex)).view(float) for x in (got, want)]
        assert np.array_equal(*bits)


KINDS = ("qc", "complex", "ndarray")


def matching_pfaffian(entry, size):
    """Pf of the size x size skew matrix read by ``entry(i, j)`` (i < j), by
    its definition as a signed sum over perfect matchings: a matching is a
    permutation (i1, j1, ..., ik, jk) with each i_l < j_l and
    i_1 < ... < i_k, signed by the parity of its inversions."""
    total = 0
    for perm in permutations(range(size)):
        firsts, seconds = perm[0::2], perm[1::2]
        if list(firsts) != sorted(firsts) or any(i > j for i, j in zip(firsts, seconds)):
            continue
        inversions = sum(perm[p] > perm[q] for p in range(size) for q in range(p + 1, size))
        term = 1
        for i, j in zip(firsts, seconds):
            term = term * entry(i, j)
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("kind", KINDS)
def test_pfaffian_coeffs_match_the_perfect_matching_definition(kind):
    """b[i] = n! Pf(beta without i) at n = 0..3 on exact, complex and
    ndarray readers, against the matching sum, which shares no code with
    the kernel's expansion; exact coefficients are QC from n = 1 on."""
    rng = random.Random(271)
    for n in (0, 1, 2, 3):
        m = 2 * n + 1
        for _ in range(3):
            upper = {(i, j): random_entry(kind, rng) for i in range(m) for j in range(i + 1, m)}
            b = pfaffian_coeffs(skew_reader(upper), n)
            assert len(b) == m
            for i, got in enumerate(b):
                keep = [k for k in range(m) if k != i]
                want = factorial(n) * matching_pfaffian(
                    lambda p, q: upper[keep[p], keep[q]], 2 * n)
                if kind == "qc":
                    assert got == want and (n == 0 or type(got) is QC)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def random_kind_jet(kind, n, rng):
    """A jet of QC or complex entries, or (a, beta) arrays over 4 nodes."""
    m = 2 * n + 1
    if kind == "qc":
        return random_jet(n, rng)
    a = [random_entry(kind, rng) for _ in range(m)]
    p = [[random_entry(kind, rng) for _ in range(m)] for _ in range(m)]
    if kind == "complex":
        return Jet1.build(n, a, p)
    p = np.stack([np.stack(row, axis=-1) for row in p], axis=-2)
    return np.stack(a, axis=-1), np.swapaxes(p, -1, -2) - p


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(KINDS), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_relation_kernels_match_plain_expansion(kind, n, seed):
    """relation_h, every relation_slope and ampleness_slice equal the plain
    expansion at n = 1, 2, 3."""
    rng = random.Random(seed)
    m = 2 * n + 1
    jet = random_kind_jet(kind, n, rng)
    if kind == "ndarray":
        arr_a, arr_beta = jet
        a, beta = (lambda i: arr_a[..., i]), (lambda r, s: arr_beta[..., r, s])
    else:
        a, beta = jet_readers(jet)
    assert_same(relation_h(a, beta, n), relation_h_oracle(a, beta, n))
    for r in range(m):
        for s in range(m):
            if r != s:
                assert_same(relation_slope(a, beta, n, r, s),
                            relation_slope_oracle(a, beta, n, r, s))
    if kind == "ndarray":
        return
    i = rng.randrange(m)
    slc = ampleness_slice(RestrictedJet(jet, i))
    c, w = ampleness_slice_oracle(jet, i)
    if slc.kind == "hyperplane":
        for got, want in zip(slc.w, w):
            assert_same(got, want)
    else:
        assert not any(w)
    if slc.kind == "empty":
        assert not c
    else:
        assert_same(slc.c, c)


def past_the_guard(jet):
    """The jet with every entry times 2^40: its scaled entries are past the
    Gaussian-integer bound, so its bordered tables take the QC arithmetic.
    The expansion's structure does not depend on the values."""
    big = QC(2 ** 40)
    jet = Jet1.build(jet.n, [x * big for x in jet.a], [[x * big for x in row] for row in jet.p])
    assert not jets._bordered(jet)._den
    return jet


def test_jet_path_takes_each_product_once(monkeypatch):
    """At n = 3 each sub-Pfaffian of a bordered matrix is expanded once:
    87 products for h instead of 147, and the slice's m - 1 slopes reuse
    h's minors (147 products instead of 267, 117 when i = 0).  Counted on
    the QC arithmetic, on a jet past the Gaussian-integer bound."""
    calls = []
    inner = QC.__mul__

    def counted(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(QC, "__mul__", counted)
    jet = past_the_guard(random_jet(3, random.Random(257)))
    want = relation_value(jet)
    calls.clear()
    assert relation_value(jet) == want
    assert len(calls) == 87
    for i, products in ((0, 117), (1, 147), (6, 147)):
        calls.clear()
        ampleness_slice(RestrictedJet(jet, i))
        assert len(calls) == products


def test_jet_path_sums_each_term_once(monkeypatch):
    """At n = 3, h of a bordered matrix makes 32 additions and 32
    subtractions beside the 21 beta reads (p[s][r] - p[r][s]), and no
    negation: odd terms are subtracted, and a four-index sub-Pfaffian is
    one closed formula.  A slice's slopes add one negation per minor of
    sign -1.  Counted on the QC arithmetic, on a jet past the
    Gaussian-integer bound."""
    calls = {}

    def counting(name):
        inner = getattr(QC, name)

        def counted(self, *other):
            calls[name] = calls.get(name, 0) + 1
            return inner(self, *other)
        return counted

    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(QC, name, counting(name))
    jet = past_the_guard(random_jet(3, random.Random(257)))
    want = relation_value(jet)
    calls.clear()
    assert relation_value(jet) == want
    assert calls == {"__add__": 32, "__sub__": 21 + 32}
    for i, sums in ((0, {"__add__": 44, "__sub__": 21 + 44, "__neg__": 3}),
                    (1, {"__add__": 54, "__sub__": 21 + 54, "__neg__": 3}),
                    (6, {"__add__": 54, "__sub__": 21 + 54, "__neg__": 3})):
        calls.clear()
        ampleness_slice(RestrictedJet(jet, i))
        assert calls == sums


def test_gaussian_jet_path_makes_only_the_beta_reads(monkeypatch):
    """An exact n = 3 jet of denominator 7 runs on Gaussian integers and
    reads beta from its view: h makes no QC sum or product at all, and a
    slice only the negations of its slopes of sign -1.  The same table
    through the readers runs on the QCs: the 21 beta reads (p[s][r] -
    p[r][s]), the expansion's 87 products, 32 sums and 32 differences, and
    the one product by n!."""
    calls = {}

    def counting(name):
        inner = getattr(QC, name)

        def counted(self, *other):
            calls[name] = calls.get(name, 0) + 1
            return inner(self, *other)
        return counted

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__"):
        monkeypatch.setattr(QC, name, counting(name))
    jet = random_jet(3, random.Random(257))
    want = relation_h_oracle(*jet_readers(jet), 3)
    calls.clear()
    assert relation_value(jet) == want
    assert calls == {}
    for i in (0, 1, 6):
        calls.clear()
        ampleness_slice(RestrictedJet(jet, i))
        assert calls == {"__neg__": 3}
    calls.clear()
    assert contact._Bordered(*jet_readers(jet), 3).pf() == want
    assert calls == {"__sub__": 21 + 32, "__add__": 32, "__mul__": 87, "__rmul__": 1}


def guard_limit(n):
    """The largest int E with (2h-1)!! E^h < 2^52, h = n + 1: a jet's table
    at n runs on Gaussian integers from its view when twice the view's
    largest scaled modulus is at most E."""
    odd, h = prod(range(1, 2 * n + 2, 2)), n + 1
    E = int((2 ** 52 / odd) ** (1 / h)) + 2
    while odd * E ** h >= 2 ** 52:
        E -= 1
    return E


def skew_jet(n, a, upper):
    """The exact jet with value vector ``a`` whose beta reads ``upper[r, s]``
    (r < s): p[s][r] holds it and every other entry of p is QC(0)."""
    m = 2 * n + 1
    p = [[upper[j, i] if i > j else QC(0) for j in range(m)] for i in range(m)]
    return Jet1.build(n, a, p)


GUARD_MODES = ("den7", "mixed", "below", "past", "huge", "ints")


def guard_jet(mode, n, rng):
    """A jet for ``mode``: denominator 7; mixed denominators, small or up to
    2^40 + 15; integer entries whose largest modulus, doubled, reaches the
    bound (below) or passes it (past); parts past float range (2^1100, and
    3 * 2^1022, whose modulus overflows); ints and Fractions among QC
    entries."""
    m = 2 * n + 1
    dens = rng.choice(((1, 2, 3, 7), (1, 7, 2 ** 40 + 15)))

    def entry():
        if mode == "den7":
            return random_qc(rng)
        if mode == "mixed":
            d = rng.choice(dens)
            return _reduced(rng.randint(-3 * d, 3 * d), rng.randint(-3 * d, 3 * d), d)
        if mode == "huge":
            return QC(rng.choice((2 ** 1100, 3 * 2 ** 1022, -5)), rng.choice((3 * 2 ** 1022, 1)))
        if mode == "ints":
            return rng.choice((0, 1, -2, Fraction(1, 3), random_qc(rng)))
        half = int(guard_limit(n) // 2 / 2 ** 0.5)
        return QC(rng.randint(-half, half), rng.randint(-half, half))

    if mode not in ("below", "past"):
        a = [random_qc(rng)] + [entry() for _ in range(m - 1)]
        return Jet1.build(n, a, [[entry() for _ in range(m)] for _ in range(m)])
    a = [entry() for _ in range(m)]
    upper = {(r, s): entry() for r in range(m) for s in range(r + 1, m)}
    top = guard_limit(n) // 2 + (mode == "past")
    if m > 1:
        upper[0, m - 1] = rng.choice((QC(top), QC(-top), QC(0, top), QC(0, -top)))
    else:
        a[0] = QC(top)
    return skew_jet(n, a, upper)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(GUARD_MODES), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_exact_kernels_keep_the_qc_result_on_either_ring(mode, n, seed):
    """relation_h, every relation_slope, ampleness_slice, pfaffian_coeffs,
    and relation_value on the jet and on a ``with_row`` child, equal the
    plain expansion, with identical repr, at n = 0..3 on exact jets whose
    views fall on either side of the Gaussian-integer bound, past float
    range, and mixing ints and Fractions with QC.  The kernels read the QCs
    that ``scalars.exact`` lifts, so the oracle is fed the lifted entries
    (the same entries unless the mode mixes in ints and Fractions)."""
    rng = random.Random(seed)
    jet = guard_jet(mode, n, rng)
    a, beta = jet_readers(jet)
    lifted = Jet1.build(n, map(exact, jet.a), [map(exact, row) for row in jet.p])
    la, lbeta = jet_readers(lifted)
    m = jet.m

    def same(got, want):
        assert got == want and repr(got) == repr(want)

    h = relation_h_oracle(la, lbeta, n)
    same(relation_h(a, beta, n), h)
    same(relation_value(jet), h)
    if n >= 2 and mode in ("below", "past"):
        assert jets._bordered(jet)._den == (mode == "below")
    for r in range(m):
        for s in range(m):
            if r != s:
                same(relation_slope(a, beta, n, r, s), relation_slope_oracle(la, lbeta, n, r, s))
    same(pfaffian_coeffs(beta, n),
         [factorial(n) * pfaffian_oracle(lbeta, tuple(k for k in range(m) if k != i))
          for i in range(m)])
    i = rng.randrange(m)
    slc = ampleness_slice(RestrictedJet(jet, i))
    c, w = ampleness_slice_oracle(lifted, i)
    if any(w):
        same((slc.kind, slc.w, slc.c), ("hyperplane", w, c))
    else:
        same((slc.kind, slc.w, slc.c), ("full", None, c) if c else ("empty", None, 0))
    # the child may inherit the view that relation_value built
    row = jet.p[(i + 1) % m]
    child = lifted.with_row(i, map(exact, row))
    same(relation_value(jet.with_row(i, row)), relation_h_oracle(*jet_readers(child), n))


def test_exact_tables_choose_their_ring():
    """A random n = 3 jet's table runs on Gaussian integers from its view,
    and so does a jet's table whose view has twice its largest scaled
    modulus at the bound, or an int entry; one past the bound, a jet at
    n <= 1 and every table read through readers run on the QC arithmetic.
    Each gives the plain expansion's QC."""
    jet = random_jet(3, random.Random(5))
    a, beta = jet_readers(jet)
    want = relation_h_oracle(a, beta, 3)
    table = jets._bordered(jet)
    assert table._den == 7 and table.pf() == want
    assert {type(x) for x in table_entries(table._up, 7, True)} == {complex}
    table = contact._Bordered(a, beta, 3)
    assert table._den == 0 and table.pf() == want
    assert {type(x) for x in table_entries(table._up, 7, True)} == {QC}
    for n in (2, 3):
        m, E = 2 * n + 1, guard_limit(n)
        upper = {(r, s): QC(1) for r in range(m) for s in range(r + 1, m)}
        for top, den in ((E // 2, 1), (E // 2 + 1, 0)):
            jet = skew_jet(n, [QC(0, top)] + [QC(1)] * (m - 1), upper)
            table = jets._bordered(jet)
            assert table._den == den
            assert type(table._up[-1][0]) is (complex if den else QC)
            assert table.pf() == relation_h_oracle(*jet_readers(jet), n)
    jet = random_jet(1, random.Random(5))
    assert not jets._bordered(jet)._den and relation_value(jet) == \
        relation_h_oracle(*jet_readers(jet), 1)
    jet = random_jet(3, random.Random(5))
    jet = Jet1.build(3, jet.a[:4] + (1,) + jet.a[5:], jet.p)
    table = jets._bordered(jet)
    assert table._den == 7 and table.pf() == relation_h_oracle(*jet_readers(jet), 3)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("other", (1, -2, Fraction(1, 3)))
def test_an_int_or_fraction_entry_keeps_the_table_exact(n, other):
    """One int or Fraction entry, in a or in beta, leaves an n = 2 or 3
    table exact: read through readers it runs on the QCs, and from a jet's
    view on Gaussian integers; either gives, for h and every slope, the QC
    of the same table with that entry as a QC."""
    jet = random_jet(n, random.Random(5))
    a, beta = jet_readers(jet)
    m = 2 * n + 1

    def tables(entry):
        return [contact._Bordered(lambda i: entry if i == 1 else a(i), beta, n),
                contact._Bordered(a, lambda r, s: entry if (r, s) == (0, 2) else beta(r, s), n),
                jets._bordered(Jet1.build(n, (jet.a[0], entry, *jet.a[2:]), jet.p))]

    L = lcm(7, Fraction(other).denominator)
    for table, qc_table, den in zip(tables(other), tables(QC(other)), (0, 0, L)):
        assert table._den == qc_table._den == den
        pairs = [(table.pf(), qc_table.pf())] + [(table.slope(r, s), qc_table.slope(r, s))
                                                  for r in range(m) for s in range(m) if r != s]
        for got, want in pairs:
            assert type(got) is QC and repr(got) == repr(want)


def test_exact_readers_give_a_qc():
    """relation_h on int readers answers a QC, at n = 0, 1 and 2 alike."""
    for n, want in ((0, QC(1)), (1, QC(2)), (2, QC(24))):
        got = relation_h(lambda i: i + 1, lambda r, s: r + s, n)
        assert type(got) is QC and got == want


def test_verifier_tables_at_exact_points_run_on_the_qcs(monkeypatch):
    """A missing word reads as the point's QC zero, not int 0, so every
    table that the sampled verifiers build on exact points of Laurent forms
    at n = 2 and 3 is all QC, and it runs on those QCs: no view reaches
    them, so none takes Gaussian integers."""
    tables = []
    init = contact._Bordered.__init__

    def recorded(self, a, beta, n):
        init(self, a, beta, n)
        tables.append(self)

    monkeypatch.setattr(contact._Bordered, "__init__", recorded)
    for n in (2, 3):
        m = 2 * n + 1
        alpha = std_form(n)
        other = alpha + Form(m, 1, {(0,): LaurentPoly.zbar(m, 1) * QC(1, 2),
                                    (m + 2,): LaurentPoly.z(m, 2, -1)})
        beta = ext_d(other) + Form(m, 2, {(0, 2): LaurentPoly.z(m, 1) * Fraction(1, 3)})
        pts = exact_points(m, 6, seed=n)
        assert is_contact_on(alpha, pts, 1e-9).passed
        is_contact_on(other, pts, 1e-9)
        is_formal_contact_on(FormalPair(other, beta), pts, 1e-9)
        assert len(tables) == 6 * 3
        for table in tables:
            assert table._den == 0
            assert {type(x) for x in table_entries(table._up, m, True)} == {QC}
        tables.clear()


def outcome(call):
    """The repr of ``call()``, or the class of the package error it raises."""
    try:
        return repr(call())
    except ContactKitError as exc:
        return type(exc)


def reader_slice(jet, i):
    """Row i's slice with the zero row's table read through
    ``jet_readers``, the zero decided by the entries the kernel reads."""
    read = [*jet.a] + [x for k, row in enumerate(jet.p) if k != i for x in row]
    zero = QC(0) if all(exact(x) is not None for x in read) else 0j
    table = contact._Bordered(*jet_readers(jet.with_row(i, [zero] * jet.m)), jet.n)
    c = table.pf()
    w = tuple(zero if j == i else table.slope(j, i) for j in range(jet.m))
    if any(w):
        return jets.SliceClass("hyperplane", w, c)
    return jets.SliceClass("full", None, c) if c else jets.SliceClass("empty")


VIEW_JETS = ("den7", "ints", "mixed", "past", "huge")
VIEW_ROWS = ("den7", "den11", "ints", "huge", "complex")


def view_entry(mode, rng):
    if mode == "den7":
        return random_qc(rng)
    if mode == "den11":
        return _reduced(rng.randint(-30, 30), rng.randint(-30, 30), 11)
    if mode == "ints":
        return rng.choice((0, 1, -2, Fraction(1, 3), Fraction(-5, 2), random_qc(rng)))
    if mode == "mixed":
        d = rng.choice((1, 2, 3, 7, 2 ** 40 + 15))
        return _reduced(rng.randint(-3 * d, 3 * d), rng.randint(-3 * d, 3 * d), d)
    if mode == "past":
        return random_qc(rng) * QC(2 ** 40)
    if mode == "huge":
        return rng.choice((QC(2 ** 60, 1), random_qc(rng)))
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def view_and_reader_paths(jet, i):
    """relation_value and row i's slice on ``jet``, and the same on the
    reader path, each as ``outcome`` gives it."""
    return ((outcome(lambda: relation_value(jet)),
             outcome(lambda: ampleness_slice(RestrictedJet(jet, i)))),
            (outcome(lambda: contact._Bordered(*jet_readers(jet), jet.n).pf()),
             outcome(lambda: reader_slice(jet, i))))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(VIEW_JETS), st.sampled_from(VIEW_ROWS), st.integers(0, 3),
       st.integers(0, 2 ** 32))
def test_a_jets_view_gives_the_reader_paths_qc(jet_mode, row_mode, n, seed):
    """relation_value and ampleness_slice on a jet, and then on a
    ``with_row`` child of it, equal the reader path
    ``_Bordered(*jet_readers(jet), n)`` with identical repr, at n = 0..3:
    QC, int and Fraction entries, entries scaled past the 2^52 bound or
    with a part past 2^53, child rows whose denominators do not divide the
    parent's L, and complex rows, which from n = 1 on raise VariantError
    on both paths."""
    rng = random.Random(seed)
    m = 2 * n + 1
    jet = Jet1.build(n, [random_qc(rng)] + [view_entry(jet_mode, rng) for _ in range(m - 1)],
                     [[view_entry(jet_mode, rng) for _ in range(m)] for _ in range(m)])
    got, want = view_and_reader_paths(jet, rng.randrange(m))
    assert got == want
    # the child is built once the parent's view is, so it may inherit it
    child = jet.with_row(rng.randrange(m), [view_entry(row_mode, rng) for _ in range(m)])
    got, want = view_and_reader_paths(child, rng.randrange(m))
    assert got == want
    if row_mode == "complex" and n:
        assert got[0] == VariantError


def test_a_view_table_checks_twice_its_top_against_the_bound():
    """beta_rs = p[s][r] - p[r][s] on the view may be twice its entries, so
    a jet's table takes its view only when twice the view's largest scaled
    modulus is within the bound: at n = 2 and 3, a jet whose one beta entry
    is twice half the bound's largest modulus, made of two entries of half
    of it, runs on Gaussian integers from its view, and one whose two
    entries are one past half of it runs on the QC arithmetic though their
    difference is 0.  Two entries past 2^53 whose difference is small leave
    the jet without a view, so beta is their exact difference."""
    for n in (2, 3):
        m, E = 2 * n + 1, guard_limit(n)
        jet = random_jet(n, random.Random(n))
        p = [list(row) for row in jet.p]
        p[m - 1][0], p[0][m - 1] = p[m - 1][0] + 2 ** 60, p[0][m - 1] + 2 ** 60
        jet = Jet1.build(n, jet.a, p)
        assert relation_value(jet) == relation_h_oracle(*jet_readers(jet), n)
        assert jet._view is None
        for half, ring in ((E // 2, 1), (E // 2 + 1, 0)):
            p = [[QC(0)] * m for _ in range(m)]
            p[m - 1][0], p[0][m - 1] = QC(half), QC(-half if ring else half)
            jet = Jet1.build(n, [QC(1)] * m, p)
            table = jets._bordered(jet)
            assert table._den == ring
            assert type(table._up[-1][0]) is (complex if ring else QC)
            assert table.pf() == relation_h_oracle(*jet_readers(jet), n)


def test_a_jet_whose_modulus_overflows_has_no_view():
    """An entry whose parts fit a float but whose modulus does not leaves
    the jet without a view, so its tables read the exact entries."""
    jet = random_jet(2, random.Random(3))
    p = [list(row) for row in jet.p]
    p[1][3] = QC(3 * 2 ** 1022, 3 * 2 ** 1022)
    jet = Jet1.build(2, jet.a, p)
    assert relation_value(jet) == relation_h_oracle(*jet_readers(jet), 2)
    assert jet._view is None


SRC = Path(__file__).resolve().parent.parent / "src" / "contactkit"


def owners(source: str, found) -> list:
    """The qualified name (``Class.method``) of the def or class that holds
    each node of ``source`` for which ``found`` is true, in source order."""
    names = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if found(child):
                names.append(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return names


def sets_den(node) -> bool:
    """An assignment with ``_den`` among its targets."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Attribute) and t.attr == "_den"
        for target in node.targets for t in ast.walk(target))


def test_only_a_jets_view_converts_to_gaussian_integers():
    """Only ``Jet1._view`` and ``Jet1.with_row`` call
    ``scalars._gaussian_complex``, and ``_Bordered`` gives ``_den`` a value
    other than 0 only in its view branch: no other exact table runs on
    Gaussian integers."""
    def calls(node):
        return isinstance(node, ast.Call) and "_gaussian_complex" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    callers = {(path.name, owner) for path in SRC.glob("*.py")
               for owner in owners(path.read_text(), calls)}
    assert callers == {("jets.py", "Jet1._view"), ("jets.py", "Jet1.with_row")}
    (bordered,) = [node for node in ast.parse((SRC / "contact.py").read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == "_Bordered"]
    assigns = [node for node in ast.walk(bordered) if sets_den(node)]
    (branch,) = [node for node in ast.walk(bordered) if isinstance(node, ast.If)
                 and any(isinstance(x, ast.Name) and x.id == "view" for x in ast.walk(node.test))]
    in_branch = [node for node in assigns if node in list(ast.walk(branch))]
    assert len(in_branch) == 1
    for node in assigns:
        if node not in in_branch:
            # the one other assignment sets every slot, _den to 0
            (target,) = node.targets
            assert isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
            values = dict(zip(map(ast.unparse, target.elts), node.value.elts))
            assert ast.literal_eval(values["self._den"]) == 0


def test_only_bordered_builds_a_pfaffian_table():
    """``_Bordered`` is the one way into the kernel: in the package only
    ``_Bordered.pf`` calls ``_pf``, and within ``contact`` only
    ``_Bordered`` asks ``_exact_all`` which ring a table takes."""
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    callers = {(path.name, owner) for path in SRC.glob("*.py")
               for owner in owners(path.read_text(), calls("_pf"))}
    assert callers == {("contact.py", "_Bordered.pf")}
    rings = owners((SRC / "contact.py").read_text(), calls("_exact_all"))
    assert rings and {owner.split(".")[0] for owner in rings} == {"_Bordered"}


def test_a_jet_converts_once_inside_the_operation_that_reads_it(monkeypatch):
    """Building a jet or a ``with_row`` child converts nothing; a
    jet-slices operation (a slice, then h of the jet and of a child with
    a probe row) converts its base jet once, and each child only its new
    row, inheriting the base jet's view."""
    calls = []
    inner = jets._gaussian_complex

    def counted(values, *args):
        calls.append(len(values))
        return inner(values, *args)

    monkeypatch.setattr(jets, "_gaussian_complex", counted)
    rng = random.Random(11)
    for n in (2, 3):
        m = 2 * n + 1
        jet = random_jet(n, rng)
        early = jet.with_row(1, [random_qc(rng) for _ in range(m)])
        assert not calls and "_view" not in jet.__dict__ and "_view" not in early.__dict__
        i, probe = rng.randrange(m), [random_qc(rng) for _ in range(m)]
        slc = ampleness_slice(RestrictedJet(jet, i))
        assert calls == [m + m * m, m]
        child = jet.with_row(i, probe)
        assert "_view" in child.__dict__
        assert slc.h_of_row(probe) == relation_value(child)
        assert slc.h_of_row(jet.p[i]) == relation_value(jet)
        assert calls == [m + m * m, m, m]
        calls.clear()


def table_entries(up, m, border):
    """The entries of an upper table of m indices in list rows, row by row
    (entry (r, s) at ``up[r][s]`` for s > r), then the border row, which is
    the last, when ``border``; the table must hold no other row."""
    assert type(up) is list and all(type(row) is list for row in up)
    assert len(up) == m + border
    upper = [x for r, row in enumerate(up[:m]) for x in row[r + 1:m]]
    if border:
        assert len(up[-1]) >= m
        upper += up[-1][:m]
    return upper


def test_every_pfaffian_table_is_list_rows_with_the_border_last():
    """The view, QC, complex and ndarray tables of ``_Bordered`` are list
    rows: entry (r, s) at ``up[r][s]`` for s > r, and the border as the
    last row, so index -1 reads it.  Each entry is the one read, scaled by
    L on Gaussian integers."""
    rng = random.Random(44)
    n, m = 3, 7
    jet = random_jet(n, rng)
    a, beta = jet_readers(jet)
    want = [beta(r, s) for r in range(m) for s in range(r + 1, m)] + list(jet.a)
    table = jets._bordered(jet)
    assert table._den == 7
    assert table_entries(table._up, m, True) == [complex(x * 7) for x in want]
    table = contact._Bordered(a, beta, n)
    assert table._den == 0
    assert table_entries(table._up, m, True) == want
    qc_jet = random_jet(1, rng)
    qa, qbeta = jet_readers(qc_jet)
    table = contact._Bordered(qa, qbeta, 1)
    assert table._den == 0
    assert table_entries(table._up, 3, True) == [qbeta(0, 1), qbeta(0, 2), qbeta(1, 2),
                                                 *qc_jet.a]
    cjet = Jet1.build(2, [random_entry("complex", rng) for _ in range(5)],
                      [[random_entry("complex", rng) for _ in range(5)] for _ in range(5)])
    ca, cbeta = jet_readers(cjet)
    got = table_entries(contact._Bordered(ca, cbeta, 2)._up, 5, True)
    assert got == [cbeta(r, s) for r in range(5) for s in range(r + 1, 5)] + list(cjet.a)
    grid_a = np.arange(12.0).reshape(4, 3)
    grid_beta = np.arange(12.0, 24.0).reshape(4, 3)
    got = table_entries(contact._Bordered(*jets._grid_readers(grid_a, grid_beta, 1), 1)._up,
                        3, True)
    assert all(np.array_equal(x, y) for x, y in zip(got, [*grid_beta.T, *grid_a.T], strict=True))
    minors = contact._Bordered(None, qbeta, 1)
    assert table_entries(minors._up, 3, False) == [qbeta(0, 1), qbeta(0, 2), qbeta(1, 2)]


def test_an_exact_pfaffian_at_n_up_to_1_takes_no_product_by_n_factorial(monkeypatch):
    """n! is 1 at n <= 1, so an exact h or slope there is the kernel's QC,
    with no product by a lifted int: h at n = 1 makes only the three
    products of its closed form, and at n = 0 none.  An array result stays a
    fresh array, not a view of the field it was read from."""
    calls = {}

    def counting(name):
        inner = getattr(QC, name)

        def counted(self, *other):
            calls[name] = calls.get(name, 0) + 1
            return inner(self, *other)
        return counted

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(QC, name, counting(name))
    for n, want in ((0, {}), (1, {"__mul__": 3})):
        jet = random_jet(n, random.Random(5))
        h = relation_h_oracle(*jet_readers(jet), n)
        calls.clear()
        assert relation_value(jet) == h
        assert calls == want
    a, beta = np.ones((4, 3), complex), np.ones((4, 3), complex)
    assert not np.shares_memory(slope_grid(a, beta, 1, 0, 1), a)
    assert not np.shares_memory(relation_grid(a[:, :1], beta[:, :0], 0), a)


@pytest.mark.parametrize("kind", KINDS)
def test_bordered_tables_in_turn_match_plain_expansion(kind):
    """Two tables in turn at each n = 0 .. 3 walk one cached schedule and
    share no entries: every Pfaffian of each, whole, without a pair of
    indices, and of beta's minors, equals the plain expansion."""
    rng = random.Random(29)
    for n in range(4):
        m = 2 * n + 1
        for _ in range(2):
            vec = [random_entry(kind, rng) for _ in range(m)]
            upper = {(r, s): random_entry(kind, rng) for r in range(m) for s in range(r + 1, m)}
            a, beta = vec.__getitem__, lambda r, s: upper[r, s]
            full = contact._Bordered(a, beta, n)
            assert_same(full.pf(), relation_h_oracle(a, beta, n))
            bordered = bordered_oracle(a, beta)
            for r in range(m):
                for s in range(r + 1, m):
                    rest = tuple(k for k in range(m + 1) if k not in (r + 1, s + 1))
                    assert_same(full.pf(r, s), factorial(n) * pfaffian_oracle(bordered, rest))
            if n:
                minors = contact._Bordered(None, beta, n)
                for i in range(m):
                    rest = tuple(k for k in range(m) if k != i)
                    assert_same(minors.pf(-1, i), factorial(n) * pfaffian_oracle(beta, rest))


def test_relation_squared_is_the_bordered_determinant():
    """h^2 = (n!)^2 det [[0, a^T], [-a, beta]], with the determinant from
    sympy's DomainMatrix over QQ_I, on 150 jets at n = 2 and 3 with mixed
    denominators, whose views fall on both sides of the Gaussian-integer
    bound, and on 50 at n = 1, whose tables run on QC."""
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def gauss(q):
        return QQ_I(q.re, q.im)

    rng = random.Random(269)
    rings = set()
    for k in range(200):
        n = 2 + k % 2 if k < 150 else 1
        m = 2 * n + 1
        dens = (1, 2, 3, 7) if k % 4 < 2 else (1, 3, 7, 2 ** 40 + 15)

        def entry():
            d = rng.choice(dens)
            return _reduced(rng.randint(-2 * d, 2 * d), rng.randint(-2 * d, 2 * d), d)

        jet = Jet1.build(n, [entry() for _ in range(m)], [[entry() for _ in range(m)] for _ in range(m)])
        a, beta = jet_readers(jet)
        den = jets._bordered(jet)._den
        rings.add(den != 0)
        assert n > 1 or not den
        rows = [[QQ_I(0)] + [gauss(a(j)) for j in range(m)]]
        rows += [[-gauss(a(i))] + [gauss(beta(i, j)) if i < j else -gauss(beta(j, i)) if i > j
                                   else QQ_I(0) for j in range(m)] for i in range(m)]
        det = DomainMatrix(rows, (m + 1, m + 1), QQ_I).det()
        assert gauss(relation_value(jet)) ** 2 == QQ_I(factorial(n) ** 2) * det
    assert rings == {True, False}


def _dz_pair(m, variant="laurent"):
    """dz_1 and dz_1^dz_2 on C^m, the 2-form in the given variant."""
    alpha = Form.dz(m, 0)
    beta = Form(m, 2, {(0, 1): LaurentPoly.const(m, 1)})
    return alpha, (beta.to_expr() if variant == "expr" else beta)


REFUSALS = [
    pytest.param(lambda: relation_h(lambda i: QC(1), lambda r, s: QC(1), -1), DimensionError,
                 "n must be >= 0, got -1", id="n must be an int >= 0, got -1"),
    pytest.param(lambda: relation_h(lambda i: QC(1), lambda r, s: QC(1), 1.5), DimensionError,
                 "n must be an int, got 1.5", id="n must be an int >= 0, got 1.5"),
    pytest.param(lambda: relation_slope(lambda i: QC(1), lambda r, s: QC(1), -2, 0, 1),
                 DimensionError, "n must be >= 0, got -2", id="n must be an int >= 0, got -2"),
    pytest.param(lambda: pfaffian_coeffs(lambda r, s: QC(1), 2.0), DimensionError,
                 "n must be an int, got 2.0", id="n must be an int >= 0, got 2.0"),
    (lambda: relation_slope(lambda i: QC(1), lambda r, s: QC(1), 1, 2, 2), DimensionError,
     "slope needs two distinct indices, got (2,2)"),
    (lambda: relation_slope(lambda i: QC(1), lambda r, s: QC(1), 1, 5, 7), DimensionError,
     "slope indices (5,7) are not ints in 0..2"),
    pytest.param(lambda: relation_slope(lambda i: QC(1), lambda r, s: QC(1), 1, -1, 0),
                 DimensionError, "slope index r must be >= 0, got -1",
                 id="slope indices (-1,0) are not ints in 0..2"),
    pytest.param(lambda: relation_slope(lambda i: QC(1), lambda r, s: QC(1), 1, 0.5, 2),
                 DimensionError, "slope index r must be an int, got 0.5",
                 id="slope indices (0.5,2) are not ints in 0..2"),
    (lambda: slope_grid(np.ones((2, 3)), np.ones((2, 3)), 1, 0, 3), DimensionError,
     "slope indices (0,3) are not ints in 0..2"),
    (lambda: FormalPair(Form.dz(3, 0), Form.dz(3, 1)), DimensionError,
     "pair needs a 1-form and a 2-form"),
    (lambda: FormalPair(Form.dz(3, 0), _dz_pair(5)[1]), DimensionError,
     "pair members live on different spaces"),
    (lambda: FormalPair(*_dz_pair(4)), DimensionError, "odd complex dimension 2n+1 required"),
    (lambda: FormalPair(*_dz_pair(3, "expr")), VariantError,
     "pair members mix coefficient variants"),
    (lambda: is_contact_on(std_form(1), [(1, 2, 3)], 1e-3), PreconditionError,
     "sample 0 is not a Point: (1, 2, 3)"),
    (lambda: is_formal_contact_on(FormalPair.holonomic(std_form(1)),
                                  [Point([1, 2, 3]), "z"], 1e-3), PreconditionError,
     "sample 1 is not a Point: 'z'"),
    (lambda: relation_coefficient([QC(1)], [QC(1), QC(2)]), DimensionError,
     "vector length mismatch"),
    (lambda: relation_coefficient([], []), DimensionError, "empty vectors"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_every_contact_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``contact.py``: the malformed input, its
    error class and a fragment of its message.
    A row's id is its fragment, or the case its ``pytest.param`` names."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_formal_defect_at_n_zero_is_alpha():
    """On C^1 the defect alpha ^ beta^0 is alpha itself, whatever beta."""
    alpha = Form(1, 1, {(0,): LaurentPoly.const(1, 1) + LaurentPoly.z(1, 0)})
    pair = FormalPair(alpha, Form(1, 2, {(0, 1): LaurentPoly.z(1, 0)}))
    assert pair.n == 0
    assert formal_defect(pair) == alpha
    assert contact_defect(alpha) == alpha


def test_is_contact_on_no_samples_is_vacuous():
    report = is_contact_on(std_form(1), [], 0.5)
    assert [check.line() for check in report.checks] == [
        "PASS  contact samples: no samples supplied (vacuous)"]
    assert report.passed


def test_formal_pairs_and_gallery_entries_hash_through_their_forms():
    """Frozen dataclasses of forms hash through ``Form.__hash__``: equal
    values hash equal."""
    pairs = {FormalPair.holonomic(std_form(1)), FormalPair.holonomic(std_form(1))}
    assert len(pairs) == 1
    assert len(set(gallery_entries()) | set(gallery_entries())) == len(gallery_entries())
