"""Structural identities of the exterior algebra.

Everything here runs over the exact Laurent ring, so the identities are
checked with ``==`` on forms, not with tolerances.  The acceptance suite
repeats the core ones with larger sample counts.
"""

import cmath
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit.coefficients import Const, LaurentPoly, Monomial, Mul, Z, _zero_at, emul
from contactkit.contact import contact_defect
from contactkit.errors import ContactKitError, DimensionError, VariantError
from contactkit.forms import (
    Form, Point, PolyMap, _form, covector_index, covector_name, dee_bar, ext_d,
    merge_words, pullback, wedge, wedge_power,
)
from contactkit.gallery import (
    cover_target_form, covering_map, gallery_entries, rotation_automorphism, std_form,
)
from contactkit.sampling import exact_points
from contactkit.scalars import QC
from oracles import substitute_from_one_term, unsigned_pullback, unsigned_wedge, \
    unsigned_wirtinger_d


def random_coeff(m, rng, allow_negative=False, max_exp=2):
    low = -max_exp if allow_negative else 0
    mono = Monomial(tuple(rng.randint(low, max_exp) for _ in range(m)),
                    tuple(rng.randint(0, 1) for _ in range(m)))
    c = QC(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
           Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    if c.is_zero:
        c = QC(1)
    return LaurentPoly(m, {mono: c})


def random_form(m, degree, rng, n_terms=3, allow_negative=False, max_exp=2):
    words = list(combinations(range(2 * m), degree))
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        w = words[rng.randrange(len(words))]
        c = random_coeff(m, rng, allow_negative, max_exp)
        terms[w] = terms.get(w, LaurentPoly.zero(m)) + c
    return Form(m, degree, terms)


def random_poly_map(m, rng):
    """Affine or single-monomial components.

    Exact composition of dense polynomial maps multiplies term counts
    geometrically; these two families keep every intermediate object small
    while still exercising the chain rule (monomials) and the constant and
    conjugate bookkeeping (affine parts).
    """
    comps = []
    for _ in range(m):
        scale = QC(rng.randint(1, 3), rng.randint(-2, 2))
        if rng.random() < 0.5:
            j = rng.randrange(2 * m)
            base = LaurentPoly.z(m, j) if j < m else LaurentPoly.zbar(m, j - m)
            c = base * scale + QC(rng.randint(-2, 2), rng.randint(-2, 2))
        else:
            slots = rng.sample(range(2 * m), 2)
            zexp = [0] * m
            zbexp = [0] * m
            for s in slots:
                if s < m:
                    zexp[s] += 1
                else:
                    zbexp[s - m] += 1
            c = LaurentPoly(m, {Monomial(tuple(zexp), tuple(zbexp)): scale})
        comps.append(c)
    return PolyMap(m, comps)


def test_merge_words_signs():
    assert merge_words((0,), (1,)) == ((0, 1), 1)
    assert merge_words((1,), (0,)) == ((0, 1), -1)
    assert merge_words((0, 2), (1,)) == ((0, 1, 2), -1)
    assert merge_words((0,), (0,)) == (None, 0)
    assert merge_words((), (3, 4)) == ((3, 4), 1)


def test_covector_names_round_trip():
    m = 3
    for i in range(2 * m):
        assert covector_index(covector_name(i, m), m) == i
    assert covector_name(0, 3) == "dz1"
    assert covector_name(3, 3) == "dzbar1"


def test_wedge_anticommutativity():
    """a^b == (-1)^(pq) b^a for random forms of degrees one and two."""
    rng = random.Random(101)
    for _ in range(150):
        p = rng.choice([1, 1, 2])
        q = rng.choice([1, 2])
        a = random_form(3, p, rng)
        b = random_form(3, q, rng)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity():
    rng = random.Random(103)
    for _ in range(100):
        a = random_form(3, 1, rng)
        b = random_form(3, 1, rng)
        c = random_form(3, 1, rng)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_one_form_squares_to_zero():
    rng = random.Random(107)
    for _ in range(50):
        a = random_form(3, 1, rng)
        assert wedge(a, a).is_zero


def test_d_squared_is_zero():
    rng = random.Random(109)
    for _ in range(150):
        f = random_form(3, rng.choice([0, 1, 2]), rng, allow_negative=True)
        assert ext_d(ext_d(f)).is_zero


def test_leibniz_rule():
    """d(a^b) == da^b + (-1)^p a^db, exactly."""
    rng = random.Random(113)
    for _ in range(150):
        p = rng.choice([0, 1, 2])
        a = random_form(3, p, rng)
        b = random_form(3, rng.choice([1, 2]), rng)
        lhs = ext_d(wedge(a, b))
        sign_part = wedge(a, ext_d(b))
        if p % 2:
            sign_part = -sign_part
        assert lhs == wedge(ext_d(a), b) + sign_part


def test_dee_bar_is_the_antiholomorphic_half():
    """dee_bar raises q by one on each bidegree component of d."""
    rng = random.Random(127)
    for _ in range(100):
        deg = rng.choice([0, 1, 2])
        f = random_form(3, deg, rng)
        expected = Form.zero(3, deg + 1)
        for p in range(deg + 1):
            part = f.pq_part(p, deg - p)
            expected = expected + ext_d(part).pq_part(p, deg - p + 1)
        assert dee_bar(f) == expected


def test_dee_bar_squares_to_zero():
    rng = random.Random(129)
    for _ in range(60):
        f = random_form(3, rng.choice([0, 1]), rng, allow_negative=True)
        assert dee_bar(dee_bar(f)).is_zero


def test_pq_parts_partition_the_form():
    rng = random.Random(131)
    for _ in range(100):
        deg = rng.choice([1, 2, 3])
        f = random_form(3, deg, rng)
        total = Form.zero(3, deg)
        for p in range(deg + 1):
            total = total + f.pq_part(p, deg - p)
        assert total == f


def test_wedge_power_matches_repeated_wedge():
    rng = random.Random(137)
    for _ in range(30):
        b = random_form(3, 2, rng)
        assert wedge_power(b, 2) == wedge(b, b)
        assert wedge_power(b, 1) == b
    with pytest.raises(DimensionError):
        wedge_power(random_form(3, 2, rng), 0)


def test_reading_a_present_word_makes_no_zero_coefficient(monkeypatch):
    """Form.coeff builds its zero only for a missing word; covector_at reads
    every word of a 1-form through it."""
    made = []
    zero = LaurentPoly.zero

    def counted(m):
        made.append(m)
        return zero(m)

    monkeypatch.setattr(LaurentPoly, "zero", counted)
    alpha = std_form(1)
    for word, c in alpha.terms.items():
        assert alpha.coeff(word) is c
        assert alpha.coeff(list(word)) is c
    assert made == []
    missing = next(w for w in ((i,) for i in range(2 * alpha.m)) if w not in alpha.terms)
    assert alpha.coeff(missing).is_zero
    assert made == [alpha.m]
    pt = exact_points(alpha.m, 1, seed=4)[0]
    made.clear()
    row = alpha.covector_at(pt)
    assert made == []  # a missing word reads as zero without building one
    assert row == tuple(alpha.coeff((i,)).eval(pt.values) for i in range(2 * alpha.m))


def _value_or_error(call):
    try:
        value = call()
    except ContactKitError as err:
        return type(err), str(err)
    return type(value), repr(value)


@pytest.mark.parametrize("variant", ["laurent", "expr"])
@pytest.mark.parametrize("kind", ["exact", "complex", "short"])
def test_a_missing_word_reads_as_its_zero_coefficient(variant, kind):
    """coefficient_at on a missing word gives what ``zero_coeff().eval``
    gives: the same value and type, or the same error."""
    alpha = std_form(1) if variant == "laurent" else std_form(1).to_expr()
    pt = exact_points(alpha.m, 1, seed=4)[0]
    values = {"exact": pt.values, "complex": pt.as_complex(), "short": pt.values[:-1]}[kind]
    missing = [(i,) for i in range(2 * alpha.m) if (i,) not in alpha.terms]
    assert missing
    for word in missing:
        got = _value_or_error(lambda: alpha.coefficient_at(Point(values), word))
        assert got == _value_or_error(lambda: alpha.zero_coeff().eval(values))


@pytest.mark.parametrize("variant", ["laurent", "expr"])
def test_covector_at_decides_the_zero_once(monkeypatch, variant):
    """covector_at finds a missing word's value once per call, not once per
    missing word, and its row keeps coefficient_at's values and types."""
    from contactkit import forms
    calls = []

    def counted(m, zvalues):
        calls.append(m)
        return _zero_at(m, zvalues)

    monkeypatch.setattr(forms, "_zero_at", counted)
    for n in (1, 2):
        alpha = std_form(n) if variant == "laurent" else std_form(n).to_expr()
        pt = exact_points(alpha.m, 1, seed=n)[0]
        for p in (pt, Point(pt.as_complex())):
            row = alpha.covector_at(p)
            assert len(calls) <= 1
            calls.clear()
            want = [alpha.coefficient_at(p, (i,)) for i in range(2 * alpha.m)]
            assert [(type(v), v) for v in row] == [(type(v), v) for v in want]
            calls.clear()


def test_evaluate_is_linear_in_coefficients():
    rng = random.Random(139)
    pts = exact_points(3, 5, seed=2)
    for _ in range(30):
        a = random_form(3, 1, rng, allow_negative=True)
        b = random_form(3, 1, rng, allow_negative=True)
        for pt in pts:
            va = (a + b).evaluate(pt)
            for w in set(va) | set(a.evaluate(pt)) | set(b.evaluate(pt)):
                got = va.get(w, QC(0))
                want = a.evaluate(pt).get(w, QC(0)) + b.evaluate(pt).get(w, QC(0))
                assert got == want


@pytest.mark.parametrize("key", [(0.5,), "a", (None,), (True,)])
def test_form_refuses_a_covector_index_that_is_not_an_int(key):
    """0.5 once named a covector "dz1.5", and "a" or None failed on a raw
    comparison; a bool is no int either."""
    with pytest.raises(DimensionError, match=re.escape(f"covector word {tuple(key)!r} ")):
        Form(3, 1, {key: LaurentPoly.z(3, 0)})


def test_covector_at_layout():
    f = Form(2, 1, {(0,): LaurentPoly.const(2, 5), (3,): LaurentPoly.z(2, 0)})
    pt = Point([QC(2), QC(3)])
    cov = f.covector_at(pt)
    assert len(cov) == 4
    assert cov[0] == QC(5)
    assert cov[3] == QC(2)
    assert cov[1] == QC(0) and cov[2] == QC(0)


def test_pullback_functoriality():
    """(G after F)* == F* after G* for polynomial maps."""
    rng = random.Random(149)
    for _ in range(60):
        F = random_poly_map(3, rng)
        G = random_poly_map(3, rng)
        w = random_form(3, rng.choice([1, 2]), rng, max_exp=1)
        composed = G.compose(F)
        assert pullback(composed, w) == pullback(F, pullback(G, w))


def test_pullback_commutes_with_d():
    rng = random.Random(151)
    for _ in range(60):
        F = random_poly_map(3, rng)
        w = random_form(3, 1, rng, max_exp=1)
        assert pullback(F, ext_d(w)) == ext_d(pullback(F, w))


def test_pullback_of_identity():
    rng = random.Random(157)
    ident = PolyMap.identity(3)
    for _ in range(20):
        w = random_form(3, 2, rng, allow_negative=True)
        assert pullback(ident, w) == w


def test_pullback_respects_wedge():
    rng = random.Random(163)
    for _ in range(40):
        F = random_poly_map(3, rng)
        a = random_form(3, 1, rng, max_exp=1)
        b = random_form(3, 1, rng, max_exp=1)
        assert pullback(F, wedge(a, b)) == wedge(pullback(F, a), pullback(F, b))


def test_pullback_differentiates_only_the_covectors_it_uses(monkeypatch):
    """z3 dz1 needs d(F_1) alone, and F_1 = z1 z2 + zbar3 has three
    variables: 3 derivatives, not 2 * 3 for each of the 6 target covectors.
    Each is counted at the signed entry point, by covector slot."""
    calls = []
    diff = LaurentPoly._signed_diff

    def counted(self, i, bar, sign):
        calls.append((self.m * bar + i, sign))
        return diff(self, i, bar, sign)

    monkeypatch.setattr(LaurentPoly, "_signed_diff", counted)
    z = [LaurentPoly.z(3, i) for i in range(3)]
    F = PolyMap(3, [z[0] * z[1] + LaurentPoly.zbar(3, 2), z[1], z[2] * z[2]])
    w = Form(3, 1, {(0,): LaurentPoly.z(3, 2)})
    pulled = pullback(F, w)
    assert calls == [(0, 1), (1, 1), (5, 1)]
    monkeypatch.undo()
    assert pulled == Form(3, 1, {
        (0,): z[2] * z[2] * z[1], (1,): z[2] * z[2] * z[0], (5,): z[2] * z[2]})


def test_exact_form_operations_call_no_qc_operator(monkeypatch):
    """Pullbacks along composed maps, d, wedges and contact defects of exact
    forms on C^3 with the benchmark's denominator 7: the Laurent kernels do
    every term sum and product on ints, so no QC ``*``, ``+`` or ``-``
    runs.  The last product shows that the count sees QC operators."""
    from contactkit.sampling import random_qc
    rng = random.Random(37)
    m = 3
    inputs = []
    for _ in range(12):
        f = LaurentPoly.z(m, rng.randrange(m)) * random_qc(rng) + random_qc(rng)
        alpha = Form(m, 1, {(0,): LaurentPoly.const(m, random_qc(rng)),
                            (1,): LaurentPoly.z(m, 0) * random_qc(rng) + QC(1),
                            (2,): LaurentPoly.const(m, QC(1))})
        inputs.append((random_poly_map(m, rng), random_poly_map(m, rng),
                       random_form(m, rng.choice([1, 2]), rng, max_exp=1).scale(random_qc(rng)),
                       random_form(m, rng.choice([1, 2]), rng, allow_negative=True)
                       .scale(random_qc(rng)),
                       random_form(m, 1, rng).scale(random_qc(rng)), f, alpha))
    calls = []
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        def counted(self, other, real=getattr(QC, attr), attr=attr):
            calls.append(attr)
            return real(self, other)

        monkeypatch.setattr(QC, attr, counted)
    for F, G, w, a, b, f, alpha in inputs:
        assert pullback(G.compose(F), w) == pullback(F, pullback(G, w))
        assert ext_d(ext_d(a)).is_zero
        assert ext_d(wedge(a, b)) == wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(
            -1 if a.degree % 2 else 1)
        assert (contact_defect(wedge(Form.scalar(m, f), alpha))
                == wedge(Form.scalar(m, f * f), contact_defect(alpha)))
    assert calls == []
    QC(1, 2) * QC(3)
    assert calls == ["__mul__"]


# -- each sign taken inside the ring: the unsigned kernels are the oracles ----

def signed_kernel_form(m, degree, rng):
    """A Laurent form with several terms per word, exponents in -2..2 and
    parts over denominators 1..7, plus ``d`` and dbar of lower-degree forms
    so that ``d``, dbar and wedges meet words that cancel."""
    words = list(combinations(range(2 * m), degree))
    terms = {}
    for w in rng.sample(words, min(len(words), rng.randint(1, 3))):
        terms[w] = LaurentPoly(m, {
            Monomial(tuple(rng.randint(-2, 2) for _ in range(m)),
                     tuple(rng.randint(-2, 2) for _ in range(m))):
            QC(Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
               Fraction(rng.randint(-6, 6), rng.randint(1, 7))) or QC(1, 3)
            for _ in range(rng.randint(1, 3))})
    f = Form(m, degree, terms)
    if degree:
        f = (f + ext_d(signed_kernel_form(m, degree - 1, rng))
             + dee_bar(signed_kernel_form(m, degree - 1, rng)))
    return f


def monomial_map(m_src, m_dst, rng):
    """Components that are monomials with negative exponents, so Laurent
    forms pull back inside the ring, or affine ones, which may leave it."""
    comps = []
    for _ in range(m_dst):
        scale = QC(Fraction(rng.randint(1, 5), rng.randint(1, 7)), rng.randint(-2, 2))
        mono = Monomial(tuple(rng.randint(-1, 2) for _ in range(m_src)),
                        tuple(rng.randint(-1, 1) for _ in range(m_src)))
        c = LaurentPoly(m_src, {mono: scale})
        comps.append(c + QC(Fraction(1, rng.randint(1, 7))) if rng.random() < 0.25 else c)
    return PolyMap(m_src, comps)


def assert_same_kernel_result(got, want):
    """Laurent results: the same words in order, and per word the same
    numerators in term order, denominator and exponent bound.  Expression
    results: the same trees, bit for bit (``repr`` shows a -0.0)."""
    if isinstance(want, PolyMap):
        assert (got.m_src, got.m_dst, got.variant) == (want.m_src, want.m_dst, want.variant)
        pairs = list(zip(got.components, want.components))
    else:
        assert (got.m, got.degree, got.variant) == (want.m, want.degree, want.variant)
        assert list(got.terms) == list(want.terms)
        pairs = [(got.terms[w], c) for w, c in want.terms.items()]
    for g, w in pairs:
        if isinstance(w, LaurentPoly):
            assert (list(g._terms.items()), g._den, g._bound) == \
                (list(w._terms.items()), w._den, w._bound)
        else:
            assert repr(g) == repr(w)


def assert_same_or_same_error(op, oracle, *args):
    try:
        want = oracle(*args)
    except ContactKitError as exc:
        with pytest.raises(type(exc)):
            op(*args)
        return
    assert_same_kernel_result(op(*args), want)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_signed_kernels_match_the_unsigned_oracle(seed, m, deg, deg2):
    """``ext_d``, ``dee_bar``, ``wedge``, ``pullback`` and ``PolyMap.compose``
    against the parent's bodies, which took each derivative and product
    unsigned and negated a copy (``tests/oracles.py``), on Laurent forms
    with negative exponents, mixed denominators and cancelling words, and
    on expression forms."""
    rng = random.Random(seed)
    deg, deg2 = min(deg, 2 * m), min(deg2, 2 * m)
    f = signed_kernel_form(m, deg, rng)
    g = signed_kernel_form(m, deg2, rng)
    F, G = monomial_map(m, m, rng), monomial_map(m, m, rng)
    for a, b in ((f, g), (f.to_expr(), expr_form(m, deg2, rng))):
        assert_same_or_same_error(ext_d, lambda h: unsigned_wirtinger_d(h, True), a)
        assert_same_or_same_error(dee_bar, lambda h: unsigned_wirtinger_d(h, False), a)
        for x, y in ((a, b), (b, a), (a, a), (a, -a)):
            assert_same_or_same_error(wedge, unsigned_wedge, x, y)
    assert_same_or_same_error(pullback, unsigned_pullback, F, f)
    assert_same_or_same_error(pullback, unsigned_pullback, F, f.to_expr())
    assert_same_or_same_error(
        G.compose, lambda inner: PolyMap(inner.m_src, [
            substitute_from_one_term(c, inner.components) for c in G.components]), F)


def test_laurent_d_and_wedge_build_no_negated_copy(monkeypatch):
    """Exact ``ext_d``, ``dee_bar`` and ``wedge`` take each sign inside the
    ring: no ``LaurentPoly.__neg__``, ``diff_z`` or ``diff_zbar`` runs.  The
    last calls show that the count sees each of them."""
    rng = random.Random(41)
    forms = [signed_kernel_form(3, d, rng) for d in (0, 1, 1, 2, 3)]
    calls = []
    for attr in ("__neg__", "diff_z", "diff_zbar"):
        def counted(self, *args, real=getattr(LaurentPoly, attr), attr=attr):
            calls.append(attr)
            return real(self, *args)

        monkeypatch.setattr(LaurentPoly, attr, counted)
    for f in forms:
        for g in forms:
            wedge(f, g)
        ext_d(f)
        dee_bar(f)
        assert ext_d(ext_d(f)).is_zero and dee_bar(dee_bar(f)).is_zero
    assert calls == []
    z = LaurentPoly.z(3, 0)
    -z, z.diff_z(0), z.diff_zbar(0)
    assert calls == ["__neg__", "diff_z", "diff_zbar"]


def test_ring_internal_constants_skip_the_public_constructors(monkeypatch):
    """A power's one and every form a pullback builds are ring results:
    none passes through ``LaurentPoly(...)`` or ``Form(...)``."""
    calls = {"LaurentPoly": 0, "Form": 0}

    def count(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            calls[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    z = [LaurentPoly.z(3, i) for i in range(3)]
    F = PolyMap(3, [z[1] * QC(2, 1) + QC(1), z[0] * LaurentPoly.zbar(3, 1),
                    LaurentPoly.zbar(3, 2)])
    w = Form(3, 2, {(0, 4): z[1] * z[1] * LaurentPoly.zbar(3, 2), (1, 2): z[0] * z[0]})
    p = z[0] + LaurentPoly.zbar(3, 1) * QC(1, 2)
    count(LaurentPoly)
    count(Form)
    fifth = p ** 5
    assert calls == {"LaurentPoly": 0, "Form": 0}
    pulled = pullback(F, w)
    assert calls == {"LaurentPoly": 0, "Form": 0}
    monkeypatch.undo()
    assert fifth == p * p * p * p * p
    assert pulled.degree == 2 and not pulled.is_zero


def test_dimension_mismatch_raises():
    a = random_form(2, 1, random.Random(1))
    b = random_form(3, 1, random.Random(1))
    with pytest.raises(DimensionError):
        wedge(a, b)
    with pytest.raises(DimensionError):
        a + b


def test_variant_mixing_raises():
    a = random_form(2, 1, random.Random(2))
    b = random_form(2, 1, random.Random(3)).to_expr()
    with pytest.raises(VariantError):
        a + b


def test_pullback_refuses_a_degree_beyond_the_source():
    """A 3-form on C^3 has no home on C^1, whose top degree is 2."""
    F = PolyMap(1, [LaurentPoly.z(1, 0), LaurentPoly.zbar(1, 0), LaurentPoly.const(1, 1)])
    top = Form(3, 3, {(0, 1, 2): LaurentPoly.const(3, 1)})
    with pytest.raises(DimensionError):
        pullback(F, top)


def assert_form_rebuilds(f):
    """Form results skip the constructor's checks; rebuilding one through
    it must give the same words, in the same order, and no zero term."""
    assert not any(c.is_zero for c in f.terms.values())
    g = Form(f.m, f.degree, f.terms, f.variant)
    assert g == f and list(g.terms.items()) == list(f.terms.items())
    for c in f.terms.values():
        assert list(LaurentPoly(c.m, c.terms).terms.items()) == list(c.terms.items())


@settings(deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.integers(0, 3))
def test_form_results_pass_the_public_constructor(seed, deg, deg2):
    rng = random.Random(seed)
    f = random_form(3, deg, rng, allow_negative=True)
    g = random_form(3, deg, rng, allow_negative=True)
    h = random_form(3, deg2, rng, allow_negative=True)
    F = random_poly_map(3, rng)
    w = random_form(3, deg, rng, max_exp=1)
    for r in (f + g, f - g, -f, f + f.scale(-1), wedge(f, h), wedge(f, f), ext_d(f),
              dee_bar(f), ext_d(ext_d(f)), pullback(F, w)):
        assert_form_rebuilds(r)


def parent_pullback(F: PolyMap, f: Form) -> Form:
    """The pullback before it took d through ``ext_d`` and summed into one
    dict, kept verbatim as the oracle for terms, term order and trees."""
    if F.m_dst != f.m:
        raise DimensionError(f"map hits C^{F.m_dst} but form lives on C^{f.m}")
    if F.variant == "expr" or f.variant == "expr":
        F = F.to_expr()
        f = f.to_expr()
    m_src = F.m_src
    m_dst = F.m_dst

    comps = F.components

    def differential(idx: int) -> Form:
        """d of the pulled-back covector ``idx``: dz_j or dzbar_j."""
        c = comps[idx] if idx < m_dst else comps[idx - m_dst].conj()
        terms = {}
        for i in range(m_src):
            terms[(i,)] = c.diff_z(i)
            terms[(m_src + i,)] = c.diff_zbar(i)
        return _form(m_src, 1, terms, F.variant)

    # only the covectors the form's words use
    d_cov = {idx: differential(idx) for idx in {i for word in f.terms for i in word}}

    result = Form.zero(m_src, f.degree, F.variant)
    for word, coeff in f.terms.items():
        try:
            pulled = coeff.substitute(comps)
        except VariantError as exc:
            raise VariantError(
                "pullback left the Laurent ring (negative exponent of a "
                "non-monomial component); convert the map or form with "
                "to_expr() first"
            ) from exc
        acc = Form.scalar(m_src, pulled)
        for idx in word:
            acc = wedge(acc, d_cov[idx])
        result = result + acc
    return result


def assert_same_pullback(F, f):
    try:
        want = parent_pullback(F, f)
    except ContactKitError as exc:
        with pytest.raises(type(exc)):
            pullback(F, f)
        return
    got = pullback(F, f)
    assert (got.m, got.degree, got.variant) == (want.m, want.degree, want.variant)
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def test_pullback_keeps_the_order_of_a_word_that_cancels_and_returns():
    """dz1 + dz2 + dz3 along (z1, z2 - z1, z1): the dz1 part cancels after
    the second word and comes back with the third, after dz2."""
    z1, z2 = LaurentPoly.z(2, 0), LaurentPoly.z(2, 1)
    F = PolyMap(2, [z1, z2 - z1, z1])
    one = LaurentPoly.const(3, 1)
    f = Form(3, 1, {(0,): one, (1,): one, (2,): one})
    for G in (F, F.to_expr()):
        assert list(pullback(G, f).terms) == [(1,), (0,)]
        assert_same_pullback(G, f)


def test_pullback_matches_the_parent_on_the_gallery_maps():
    rng = random.Random(167)
    forms = [cover_target_form(), std_form(1), ext_d(std_form(1))]
    forms += [random_form(3, d, rng) for d in (0, 1, 2, 3) for _ in range(3)]
    for F in (covering_map(), rotation_automorphism()):
        for f in forms:
            assert_same_pullback(F, f)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3), st.integers(0, 4),
       st.booleans())
def test_pullback_matches_the_parent(seed, m_src, m_dst, degree, expr):
    """Maps draw their components from a small pool, with repeats and
    integer unit coefficients, so pulled-back words often cancel."""
    rng = random.Random(seed)
    z = [LaurentPoly.z(m_src, i) for i in range(m_src)]
    zb = [LaurentPoly.zbar(m_src, i) for i in range(m_src)]
    pool = [*z, *zb, -z[0], z[0] + z[-1], z[-1] - z[0], z[-1] * z[0] + zb[0],
            LaurentPoly.const(m_src, 2)]
    pool += random_poly_map(m_src, rng).components
    F = PolyMap(m_src, [rng.choice(pool) for _ in range(m_dst)])
    degree = min(degree, 2 * m_dst)
    words = list(combinations(range(2 * m_dst), degree))
    terms = {}
    for w in rng.sample(words, min(len(words), rng.randint(1, 6))):
        terms[w] = (LaurentPoly.const(m_dst, rng.choice([1, -1])) if rng.random() < 0.9
                    else random_coeff(m_dst, rng, allow_negative=True, max_exp=1))
    f = Form(m_dst, degree, terms)
    if expr:
        F = F.to_expr()
    assert_same_pullback(F, f)


# -- commuting squares: each operation commutes with to_expr() ---------------

def sampled_gap(got: Form, want: Form, points) -> float:
    """The largest gap between two expression forms' coefficients over the
    points, relative to max(1, |want|)."""
    assert (got.m, got.degree, got.variant) == (want.m, want.degree, "expr")
    worst = 0.0
    for pt in points:
        for w in set(got.terms) | set(want.terms):
            g, e = got.coefficient_at(pt, w), want.coefficient_at(pt, w)
            worst = max(worst, abs(g - e) / max(1.0, abs(e)))
    return worst


def leaves_the_ring(F: PolyMap, f: Form) -> bool:
    """A negative exponent of z_j or zbar_j meets a component j with more
    than one term, which has no inverse in the Laurent ring."""
    m = f.m
    return any(e < 0 and len(F.components[j % m].terms) != 1
               for c in f.terms.values() for mono in c.terms
               for j, e in enumerate(mono.zexp + mono.zbarexp))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(0, 2))
def test_laurent_operations_commute_with_to_expr(seed, deg, deg2):
    """ext_d, dee_bar, wedge, contact_defect and pullback on C^3, then
    to_expr(), against the same operation on the to_expr()'d inputs."""
    rng = random.Random(seed)
    f = random_form(3, deg, rng, allow_negative=True)
    g = random_form(3, deg2, rng, allow_negative=True)
    alpha = random_form(3, 1, rng, allow_negative=True)
    F = random_poly_map(3, rng)
    points = [Point([cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3, 3)) for _ in range(3)])
              for _ in range(3)]
    squares = [(ext_d, (f,)), (dee_bar, (f,)), (wedge, (f, g)), (contact_defect, (alpha,))]
    if leaves_the_ring(F, f):
        with pytest.raises(VariantError, match="pullback left the Laurent ring"):
            pullback(F, f)
    else:
        squares.append((pullback, (F, f)))
    for op, args in squares:
        want = op(*(a.to_expr() for a in args))
        assert sampled_gap(op(*args).to_expr(), want, points) <= 1e-10


def parent_scale(f: Form, s) -> Form:
    """``Form.scale`` before it went through the rings' reflected ``*``,
    verbatim, as the oracle; ``-f`` was ``f.scale(-1)``."""
    if f.variant == "laurent":
        if isinstance(s, (float, complex)):
            raise VariantError("scaling an exact form by a float; convert with to_expr()")
        return Form(f.m, f.degree, {w: c * s for w, c in f.terms.items()}, f.variant)
    return Form(f.m, f.degree, {w: emul(Const(complex(s)), c) for w, c in f.terms.items()},
                f.variant)


SIGNED = [complex(x, y) for x in (0.0, -0.0, 1.5, -0.25) for y in (0.0, -0.0, -1.0, 3.0)]
form_scalars = st.one_of(
    st.booleans(), st.integers(-4, 4), st.fractions(-4, 4, max_denominator=7),
    st.builds(QC, st.fractions(-4, 4, max_denominator=7), st.fractions(-4, 4, max_denominator=7)),
    st.floats(-4, 4), st.sampled_from(SIGNED), st.complex_numbers(max_magnitude=4))


def expr_form(m, degree, rng):
    """A nonzero expression form: a Laurent form's trees, and trees whose
    constants carry signed zeros, which no QC converts to."""
    f = random_form(m, degree, rng, allow_negative=True).to_expr()
    words = list(combinations(range(2 * m), degree))
    raw = Form(m, degree, {w: Mul((Const(rng.choice(SIGNED[1:])), Z(rng.randrange(m))))
                           for w in rng.sample(words, min(2, len(words)))}, "expr")
    return f + raw


def assert_same_laurent(got: Form, want: Form):
    """Equal coefficients, the parent's word order and each coefficient's
    term order."""
    assert (got.m, got.degree, got.variant) == (want.m, want.degree, want.variant)
    assert got.terms == want.terms and list(got.terms) == list(want.terms)
    for w, c in got.terms.items():
        assert list(c.terms) == list(want.terms[w].terms)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), form_scalars)
def test_scale_and_negation_match_the_parent(seed, deg, s):
    """Expression results are the parent's trees bit for bit (``repr``
    shows a -0.0); Laurent results are ``==`` in the parent's orders, and a
    float or complex scalar is refused on both sides."""
    rng = random.Random(seed)
    e = expr_form(3, deg, rng)
    for got, want in ((e.scale(s), parent_scale(e, s)), (-e, parent_scale(e, -1))):
        assert (got.m, got.degree, got.variant) == (want.m, want.degree, "expr")
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
    f = random_form(3, deg, rng, allow_negative=True)
    assert_same_laurent(-f, parent_scale(f, -1))
    if isinstance(s, (float, complex)):
        with pytest.raises(VariantError):
            parent_scale(f, s)
        with pytest.raises(VariantError):
            f.scale(s)
    else:
        assert_same_laurent(f.scale(s), parent_scale(f, s))


def parent_eq(f: Form, g: Form) -> bool:
    """``Form.__eq__`` before it compared term dicts: one coefficient
    comparison per word of either side, verbatim, as the oracle."""
    if (f.m, f.degree, f.variant) != (g.m, g.degree, g.variant):
        return False
    words = set(f.terms) | set(g.terms)
    return all(f.coeff(w) == g.coeff(w) for w in words)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(0, 2))
def test_form_equality_matches_the_parent(seed, deg, deg2):
    """Small random pairs on C^2, equal ones built along different paths
    among them, in both variants and in both orders."""
    rng = random.Random(seed)
    f = random_form(2, deg, rng, n_terms=2, max_exp=1)
    g = random_form(2, deg2, rng, n_terms=2, max_exp=1)
    h = random_form(2, deg, rng, n_terms=2, max_exp=1)
    first = dict(list(f.terms.items())[:1])
    pairs = [(f, g), (f, h), (f, f), (f, (f + h) - h), (f, -(-f)), (f, f.scale(2)),
             (f, _form(2, deg, first, "laurent")), (f, f.to_expr()),
             (f.to_expr(), h.to_expr()), (f.to_expr(), (-(-f)).to_expr()),
             (f.to_expr(), g.to_expr()), (Form.zero(2, deg), f - f)]
    for a, b in pairs:
        assert (a == b) == parent_eq(a, b)
        assert (b == a) == parent_eq(b, a)
    assert f == (f + h) - h and f.to_expr() == (-(-f)).to_expr()


_z = LaurentPoly.z(3, 0)
_dz = Form.dz(3, 0)

FORMS_REFUSALS = [
    (lambda: covector_index("dw1", 3), DimensionError, "unknown covector name 'dw1'"),
    (lambda: covector_index("dz4", 3), DimensionError, "covector 'dz4' out of range for m=3"),
    (lambda: covector_name(6, 3), DimensionError, "covector index 6 out of range for m=3"),
    (lambda: Point([1, "a"]), VariantError, "bad coordinate type str"),
    pytest.param(lambda: Form(0, 0), DimensionError,
                 "dimension m must be >= 1, got 0", id="need m >= 1"),
    pytest.param(lambda: Form(3.0, 1, {(0,): _z}), DimensionError,
                 "dimension m must be an int, got 3.0", id="dimension m 3.0 is not an int"),
    pytest.param(lambda: Form(True, 1, {}), DimensionError,
                 "dimension m must be an int, got True", id="dimension m True is not an int"),
    pytest.param(lambda: Form("3", 1, {}), DimensionError,
                 "dimension m must be an int, got '3'", id="dimension m '3' is not an int"),
    pytest.param(lambda: Form(3, 1.0, {(0,): _z}), DimensionError,
                 "degree must be an int, got 1.0", id="degree 1.0 is not an int"),
    pytest.param(lambda: Form(3, True, {(0,): _z}), DimensionError,
                 "degree must be an int, got True", id="degree True is not an int"),
    (lambda: Form(3, 1, {0: _z}), DimensionError, "covector word 0 is not a tuple"),
    (lambda: Form.dz(3, 5), DimensionError, "z_6 (index 5) does not exist on C^3"),
    pytest.param(lambda: Form.dz(3, True), DimensionError,
                 "coordinate index i must be an int, got True",
                 id="coordinate index True is not an int"),
    (lambda: Form(2, 5), DimensionError, "degree 5 out of range for m=2"),
    pytest.param(lambda: Form(3, 1, {(0.5,): _z}), DimensionError,
                 "covector word (0.5,) index must be an int, got 0.5",
                 id="(0.5,) has an index that is not an int"),
    (lambda: Form(3, 2, {(0,): _z}), DimensionError, "word (0,) has length != degree 2"),
    (lambda: Form(3, 2, {(1, 0): _z}), DimensionError, "word (1, 0) is not strictly increasing"),
    (lambda: Form(3, 1, {(6,): _z}), DimensionError, "word (6,) out of range for m=3"),
    (lambda: Form(3, 1, {(0,): _z, (1,): _z.to_expr()}), VariantError,
     "mixed coefficient variants in one form"),
    (lambda: Form(3, 1, {(0,): LaurentPoly.z(2, 0)}), DimensionError,
     "coefficient variable count != m"),
    (lambda: _dz + Form.dz(2, 0), DimensionError, "forms live on different spaces"),
    (lambda: _dz + Form.zero(3, 2), DimensionError, "cannot add forms of different degree"),
    (lambda: _dz - _dz.to_expr(), VariantError, "cannot combine laurent and expr forms"),
    (lambda: _dz.pq_part(1, 1), DimensionError, "p+q = 2 != degree 1"),
    (lambda: _dz.evaluate(Point([1, 2])), DimensionError, "point dimension mismatch"),
    (lambda: Form.zero(3, 2).covector_at(Point([1, 2, 3])), DimensionError,
     "covector_at applies to 1-forms"),
    (lambda: wedge(_dz, Form.dz(2, 0)), DimensionError, "forms live on different spaces"),
    (lambda: wedge(_dz, _dz.to_expr()), VariantError,
     "wedge requires a common coefficient variant"),
    pytest.param(lambda: wedge_power(_dz, 0), DimensionError,
                 "wedge power n must be >= 1, got 0", id="wedge_power needs n >= 1"),
    (lambda: PolyMap(1, []), DimensionError, "a map needs at least one component"),
    pytest.param(lambda: PolyMap(3.0, [_z]), DimensionError,
                 "source dimension m_src must be an int, got 3.0",
                 id="source dimension 3.0 is not an int"),
    pytest.param(lambda: PolyMap(0, [Z(0)]), DimensionError,
                 "source dimension m_src must be >= 1, got 0", id="source dimension 0 is not >= 1"),
    (lambda: PolyMap(3, [_z, _z.to_expr()]), VariantError,
     "map components must share one coefficient variant"),
    (lambda: PolyMap(2, [_z]), DimensionError, "component variable count != source dimension"),
    (lambda: PolyMap.identity(3).evaluate(Point([1])), DimensionError,
     "point dimension mismatch"),
    (lambda: PolyMap.identity(2).compose(PolyMap.identity(3)), DimensionError,
     "composition dimensions do not match"),
    (lambda: pullback(PolyMap.identity(2), _dz), DimensionError,
     "map hits C^2 but form lives on C^3"),
    (lambda: pullback(PolyMap(1, [LaurentPoly.z(1, 0)] * 3),
                      Form(3, 3, {(0, 1, 2): LaurentPoly.const(3, 1)})),
     DimensionError, "degree 3 out of range for m=1"),
    (lambda: pullback(PolyMap(1, [LaurentPoly.z(1, 0) + 1]),
                      Form(1, 0, {(): LaurentPoly.z(1, 0, -1)})),
     VariantError, "pullback left the Laurent ring"),
]


@pytest.mark.parametrize("call, error, fragment", FORMS_REFUSALS,
                         ids=[r[2] for r in FORMS_REFUSALS])
def test_every_forms_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``forms.py``: the malformed input, its
    error class and a fragment of its message.
    A row's id is its fragment, or the case its ``pytest.param`` names."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_wedge_past_the_top_degree_is_the_top_zero():
    """Degrees past 2m give the zero form of top degree, in either variant."""
    top = Form(1, 2, {(0, 1): LaurentPoly.z(1, 0)})
    dz = Form.dz(1, 0)
    assert wedge(top, dz) == Form(1, 2, {})
    assert wedge(top.to_expr(), dz.to_expr()) == Form(1, 2, {}, "expr")


def test_d_of_a_top_degree_form_is_the_top_zero():
    top = Form(1, 2, {(0, 1): LaurentPoly.z(1, 0) * LaurentPoly.zbar(1, 0)})
    for op in (ext_d, dee_bar):
        assert op(top) == Form(1, 2, {})
        assert op(top.to_expr()) == Form(1, 2, {}, "expr")


def test_compose_with_an_expression_map_on_either_side():
    """An expression map on one side makes the composite an expression
    map, equal pointwise to the expression map alone."""
    cover, ident = covering_map(), PolyMap.identity(3)
    pt = Point([0.25 + 0.5j, -1.0 + 0j, 2.0 - 1j])
    for composed in (cover.compose(ident), ident.compose(cover)):
        assert composed.variant == "expr"
        assert composed.evaluate(pt).values == cover.evaluate(pt).values


def test_reprs_of_the_zero_form_and_a_map():
    assert repr(Form(3, 2, {})) == "Form<0, m=3, deg=2>"
    assert repr(PolyMap.identity(3)) == "PolyMap(3->3, laurent)"
    assert repr(covering_map()) == "PolyMap(3->3, expr)"


def test_distinct_gallery_forms_hash_apart():
    """The hash reads coefficients, not only words: the distinct forms of
    the gallery hash apart, and a form rebuilt in the other term order
    hashes equal."""
    distinct = []
    for entry in gallery_entries():
        for f in (entry.form, entry.expected):
            if f not in distinct:
                distinct.append(f)
            g = Form(f.m, f.degree, dict(reversed(f.terms.items())), f.variant)
            assert g == f and hash(g) == hash(f)
    assert len(distinct) > 24
    assert len({hash(f) for f in distinct}) == len(distinct)
    z = LaurentPoly.z
    assert hash(Form(3, 1, {(0,): z(3, 1)})) != hash(Form(3, 1, {(0,): z(3, 2)}))


def test_equal_forms_hash_equal():
    z = LaurentPoly.z
    f = Form(3, 1, {(0,): z(3, 1), (2,): LaurentPoly.const(3, 1)})
    g = Form(3, 1, {(2,): LaurentPoly.const(3, 1), (0,): z(3, 1)})
    assert f == g and hash(f) == hash(g)
    assert len({f, g, f.to_expr()}) == 2
