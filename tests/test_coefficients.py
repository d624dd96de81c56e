import ast
import cmath
import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactkit import coefficients
from contactkit.coefficients import (
    _FIELD, _ONE, _WIDTH, EXPONENT_LIMIT, Add, Const, Cos, Exp, Expr, LaurentPoly, Monomial, Mul,
    Pow, Sin, Sqrt, Z, Zbar, _holomorphic, coefficient_variant, eadd, emul, epow,
)
from contactkit.errors import (
    ContactKitError, DimensionError, ExponentRangeError, PoleError, VariantError,
)
from contactkit.forms import Form, Point
from contactkit.sampling import exact_points
from contactkit.scalars import QC, power
from conftest import class_tests
from oracles import (
    ParentPoly, parent, parent_diff, parent_exact_eval, parent_mul, parent_substitute, triples,
)


def random_laurent(m, rng, n_terms=3, max_exp=2, allow_negative=True):
    low = -max_exp if allow_negative else 0
    p = LaurentPoly.zero(m)
    for _ in range(rng.randint(1, n_terms)):
        mono = Monomial(tuple(rng.randint(low, max_exp) for _ in range(m)),
                        tuple(rng.randint(0, max_exp) for _ in range(m)))
        coeff = QC(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        p = p + LaurentPoly(m, {mono: coeff})
    return p


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        f = random_laurent(2, rng)
        g = random_laurent(2, rng)
        h = random_laurent(2, rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f - f == LaurentPoly.zero(2)


def test_product_rule():
    """diff_z and diff_zbar are derivations on the Laurent ring."""
    rng = random.Random(19)
    for _ in range(100):
        f = random_laurent(2, rng)
        g = random_laurent(2, rng)
        for i in range(2):
            assert (f * g).diff_z(i) == f.diff_z(i) * g + f * g.diff_z(i)
            assert (f * g).diff_zbar(i) == f.diff_zbar(i) * g + f * g.diff_zbar(i)


def test_wirtinger_derivatives_on_monomials():
    f = LaurentPoly.z(2, 0, 3)
    assert f.diff_z(0) == LaurentPoly.z(2, 0, 2) * 3
    assert f.diff_z(1).is_zero
    assert f.diff_zbar(0).is_zero
    g = LaurentPoly.zbar(2, 1, -2)
    assert g.diff_zbar(1) == LaurentPoly.zbar(2, 1, -3) * -2


def test_conj_is_involutive_and_antimultiplicative():
    rng = random.Random(23)
    for _ in range(50):
        f = random_laurent(2, rng)
        g = random_laurent(2, rng)
        assert f.conj().conj() == f
        assert (f * g).conj() == f.conj() * g.conj()


def test_eval_exact_matches_float():
    rng = random.Random(31)
    pts = exact_points(2, 10, seed=5)
    for _ in range(20):
        f = random_laurent(2, rng)
        for pt in pts:
            exact = f.eval(pt.values)
            approx = f.eval(pt.as_complex())
            assert isinstance(exact, QC)
            assert abs(complex(exact) - approx) < 1e-12


def test_exact_ints_and_fractions_are_exact_coordinates():
    """eval asks ``scalars`` which points are exact: ints and Fractions are,
    so they give the QC of the same point in QC, not a float; one complex
    coordinate makes the point a float one.  A zero polynomial answers in
    the same ring."""
    f = LaurentPoly.z(2, 0) * Fraction(1, 3) + LaurentPoly.zbar(2, 1)
    for point in ((2, 3), (QC(2), Fraction(3)), (Fraction(2), QC(3))):
        got = f.eval(point)
        assert type(got) is QC and got == f.eval((QC(2), QC(3))) == QC(Fraction(11, 3))
    assert f.eval((2, 3 + 0j)) == complex(f.eval((QC(2), QC(3))))
    zero = LaurentPoly.zero(2)
    assert type(zero.eval((2, Fraction(1, 2)))) is QC
    assert type(zero.eval((QC(2), 0.5))) is complex


def parent_eval(p, zvalues):
    """LaurentPoly.eval before it read a cached plan per key, kept as the
    oracle: every field of every key, z_i then zbar_i for each i."""
    m = p.m
    if len(zvalues) != m:
        raise DimensionError("point arity mismatch")
    is_exact = all(isinstance(v, QC) for v in zvalues)
    if is_exact:
        zs = list(zvalues)
        vals = zs + [v.conj() for v in zs]
        total = QC(0)
    else:
        zs = [complex(v) for v in zvalues]
        vals = zs + [v.conjugate() for v in zs]
        total = 0j
    one = _ONE[m]
    fields = [(_WIDTH * j, vals[j], j % m + 1) for i in range(m) for j in (i, m + i)]
    for key, coeff in parent(p)._terms.items():
        term = coeff if is_exact else complex(coeff)
        if key != one:
            for shift, val, i in fields:
                e = ((key >> shift) & _FIELD) - EXPONENT_LIMIT
                if e == 0:
                    continue
                if e < 0 and not val:
                    raise PoleError(f"coordinate z_{i} = 0 hit exponent {e}")
                term = term * val ** e
        total = total + term
    return total


# zeros of both signs, units and values whose powers round
_EVAL_COORDS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1j, complex(0.5, -2.5),
                complex(-0.0, 1.0), complex(1e-3, 7.0)]


def _bits(value):
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return repr(value)


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2 ** 32))
def test_eval_matches_the_field_by_field_oracle(seed):
    """Exact and complex points, negative and zbar exponents, the zero
    polynomial and poles: the same value bit for bit, or the same PoleError
    text."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    p = LaurentPoly(m, {
        Monomial(tuple(rng.randint(-3, 3) for _ in range(m)),
                 tuple(rng.choice([0, 0, rng.randint(-3, 3)]) for _ in range(m))):
        QC(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), 3))
        for _ in range(rng.randint(0, 4))})
    kind = rng.choice(["exact", "complex", "mixed"])
    if kind == "exact":
        pt = [QC(0) if rng.random() < 0.2
              else QC(Fraction(rng.randint(-9, 9), 7), rng.randint(-2, 2)) for _ in range(m)]
    else:
        pt = [rng.choice(_EVAL_COORDS) if rng.random() < 0.5
              else complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)]
        if kind == "mixed":
            pt[rng.randrange(m)] = QC(Fraction(rng.randint(-9, 9), 7), 1)
    try:
        want = parent_eval(p, pt)
    except PoleError as err:
        with pytest.raises(PoleError) as got:
            p.eval(pt)
        assert str(got.value) == str(err)
        return
    got = p.eval(pt)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)


def plan_eval(p, zvalues):
    """LaurentPoly.eval before an exact sum started at its first term and
    took a first power as it is, kept as the oracle: both sums start at
    zero and every factor goes through ``**``."""
    from contactkit.coefficients import _eval_plan
    m = p.m
    if len(zvalues) != m:
        raise DimensionError("point arity mismatch")
    is_exact = all(isinstance(v, QC) for v in zvalues)
    if is_exact:
        vals = list(zvalues)
        total = QC(0)
    else:
        vals = [complex(v) for v in zvalues]
        total = 0j
    terms = parent(p)._terms
    if not terms:
        return total
    plans = [_eval_plan(m, key) for key in terms]
    if any(j >= m for plan in plans for j, _ in plan):
        vals += [v.conj() if is_exact else v.conjugate() for v in vals]
    for plan, coeff in zip(plans, terms.values()):
        term = coeff if is_exact else complex(coeff)
        for j, e in plan:
            val = vals[j]
            if e < 0 and not val:
                raise PoleError(f"coordinate z_{j % m + 1} = 0 hit exponent {e}")
            term = term * val ** e
        total = total + term
    return total


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32))
def test_eval_matches_the_plan_oracle(seed):
    """First powers and first terms, exact and complex points with signed
    zeros, the zero polynomial, poles and a wrong arity: the same value bit
    for bit, or the same error text."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    p = LaurentPoly(m, {
        Monomial(tuple(rng.choice([0, 1, 1, rng.randint(-2, 3)]) for _ in range(m)),
                 tuple(rng.choice([0, 0, 1, -1]) for _ in range(m))):
        QC(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), 3))
        for _ in range(rng.randint(0, 4))})
    arity = m if rng.random() < 0.9 else m + 1
    if rng.random() < 0.5:
        pt = [QC(0) if rng.random() < 0.2
              else QC(Fraction(rng.randint(-9, 9), 7), rng.randint(-2, 2)) for _ in range(arity)]
    else:
        pt = [rng.choice(_EVAL_COORDS) for _ in range(arity)]
    try:
        want = plan_eval(p, pt)
    except (PoleError, DimensionError) as err:
        with pytest.raises(type(err)) as got:
            p.eval(pt)
        assert str(got.value) == str(err)
        return
    got = p.eval(pt)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)


def test_exact_eval_takes_no_qc_arithmetic_and_one_reduction(monkeypatch):
    """At an exact point the terms, their powers and their sum are taken on
    (a, b, d) triples: no QC addition, product or power, and one reduction
    for the value."""
    from contactkit import scalars
    counts = {"add": 0, "mul": 0, "pow": 0, "reduce": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name, attrs in (("add", ("__add__", "__radd__")), ("mul", ("__mul__", "__rmul__")),
                        ("pow", ("__pow__",))):
        for attr in attrs:
            monkeypatch.setattr(QC, attr, counted(name, getattr(QC, attr)))
    monkeypatch.setattr(scalars, "_reduced", counted("reduce", scalars._reduced))
    z, zbar = LaurentPoly.z, LaurentPoly.zbar
    p = (z(3, 0, 2) * QC(Fraction(2, 3)) + z(3, 1, -1) * zbar(3, 0) + zbar(3, 2, -2) * QC(1, 5)
         + QC(Fraction(1, 2), 1))
    pt = exact_points(3, 1, seed=6)[0]
    want = parent_exact_eval(p, pt.values)
    counts.update(add=0, mul=0, pow=0, reduce=0)
    got = p.eval(pt.values)
    assert counts == {"add": 0, "mul": 0, "pow": 0, "reduce": 1}
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)


_UNIT_COEFFS = [QC(1), QC(-1), QC(0, 1), QC(0, -1), QC(Fraction(1, 2)), QC(Fraction(-1, 2))]


def oracle_scalar(rng):
    """Half the time a unit-sized scalar, so term products often cancel;
    else a Gaussian rational with mixed denominators."""
    if rng.random() < 0.5:
        return rng.choice(_UNIT_COEFFS)
    return QC(Fraction(rng.randint(-6, 6), rng.randint(1, 12)),
              Fraction(rng.randint(-6, 6), rng.randint(1, 12)))


def oracle_poly(rng, m, step=None):
    """A monomial a third of the time, else up to 5 terms on few keys with
    negative z and zbar exponents.  Given a ``step`` monomial, sometimes
    ``c0 + c1 step + c2 step^2`` in a random order instead: two of these
    meet three times on ``step^2``, where the first two products may cancel
    and the third bring the key back."""
    if step is not None and rng.random() < 0.6:
        powers = [0, 1, 2]
        rng.shuffle(powers)
        units = _UNIT_COEFFS[:4]
        return LaurentPoly(m, {Monomial(tuple(k * e for e in step.zexp),
                                        tuple(k * e for e in step.zbarexp)): rng.choice(units)
                               for k in powers})
    n_terms = 1 if rng.random() < 0.3 else rng.randint(0, 5)
    return LaurentPoly(m, {
        Monomial(tuple(rng.randint(-1, 1) for _ in range(m)),
                 tuple(rng.choice([0, 0, 1, -1]) for _ in range(m))): oracle_scalar(rng)
        for _ in range(n_terms)})


def assert_one_stored_form(p):
    """Numerators reduced by their content: a positive denominator, no zero
    pair, gcd(den, every part) == 1, and so zero stored as ``({}, 1)``.
    The public constructor and a detour through a sum give the same
    storage and the same hash."""
    assert p._den > 0 and all(a or b for a, b in p._terms.values())
    assert math.gcd(p._den, *(x for pair in p._terms.values() for x in pair)) == 1
    for same in (LaurentPoly(p.m, p.terms), p + p - p):
        assert (same._den, same._terms) == (p._den, p._terms)
        assert same == p and hash(same) == hash(p)


def _same_value_or_pole(got, want_of, pt):
    try:
        want = parent_exact_eval(want_of, pt)
    except PoleError as err:
        with pytest.raises(PoleError) as raised:
            got.eval(pt)
        assert str(raised.value) == str(err)
        return
    value = got.eval(pt)
    assert (value._a, value._b, value._d) == (want._a, want._b, want._d)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32))
def test_storage_is_one_reduced_form_with_the_parents_terms(seed):
    """Sums, products, powers, inverses, derivatives, conjugates, scalar
    products and substitutions of polynomials whose products cancel: each
    result is stored in its one reduced form, and its terms, their order,
    its bound and its exact values are those of the ring that stored a
    reduced QC per term."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    step = Monomial((rng.choice([-1, 1]),) + tuple(rng.randint(-1, 1) for _ in range(m - 1)),
                    tuple(rng.randint(-1, 1) for _ in range(m)))
    f, g = oracle_poly(rng, m, step), oracle_poly(rng, m, step)
    units = [LaurentPoly(m, {Monomial(tuple(rng.randint(-1, 1) for _ in range(m)),
                                      tuple(rng.randint(-1, 1) for _ in range(m))):
                             rng.choice([oracle_scalar(rng), QC(2), QC(1, 1)])})
             for _ in range(m + 1)]
    units = [u for u in units if not u.is_zero] or [LaurentPoly.z(m, 0)]
    u, s = units[0], oracle_scalar(rng)
    F, G, U = parent(f), parent(g), parent(u)
    i, bar = rng.randrange(m), rng.random() < 0.5
    k, e = rng.randint(0, 3), rng.randint(-3, 3)
    if f.has_negative_exponent or rng.random() < 0.5:
        args = [units[j % len(units)] for j in range(m)]
    else:
        args = [oracle_poly(rng, m, step) for _ in range(m)]
    cases = [
        (f + g, F + G), (f - g, F + -G), (f * g, F * G), (f ** k, F ** k), (u ** e, U ** e),
        (u.inverse(), U.inverse()), (f._diff(i, bar), parent_diff(F, i, bar)),
        (f.conj(), F.conj()), (f.substitute(args), parent_substitute(F, args)),
        (f * s, ParentPoly(m, {key: c * s for key, c in F._terms.items()}
                              if s else {}, F._bound if s else 0)),
    ]
    pt = [QC(0) if rng.random() < 0.2 else oracle_scalar(rng) for _ in range(m)]
    for got, want in cases:
        assert_one_stored_form(got)
        assert triples(got) == triples(want)
        assert got._bound == want._bound
        _same_value_or_pole(got, want, pt)


def _one_variable(coeffs):
    return LaurentPoly(1, {Monomial((e,), (0,)): QC(c) for e, c in coeffs})


def test_a_cancelled_product_term_comes_back_last():
    """(1 + z + z^2)(z^2 - z + 1): z^2 gets +1, then -1, so it cancels and
    leaves, then +1 again, so it comes back after z^4."""
    f = _one_variable([(0, 1), (1, 1), (2, 1)])
    g = _one_variable([(2, 1), (1, -1), (0, 1)])
    got = f * g
    assert [mono.zexp for mono in got.terms] == [(0,), (4,), (2,)]
    assert triples(got) == triples(parent_mul(f, g))


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2 ** 32))
def test_product_matches_the_per_term_oracle(seed):
    """Cancelled keys that come back, monomial operands on either side,
    negative exponents and mixed denominators: the same triples in the same
    term order, and the same exponent bound."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    step = Monomial((rng.choice([-1, 1]),) + tuple(rng.randint(-1, 1) for _ in range(m - 1)),
                    tuple(rng.randint(-1, 1) for _ in range(m)))
    f, g = oracle_poly(rng, m, step), oracle_poly(rng, m, step)
    want = parent_mul(f, g)
    got = f * g
    assert triples(got) == triples(want)
    assert got._bound == want._bound


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2 ** 32))
def test_exact_eval_matches_the_per_term_oracle(seed):
    """Negative and zbar exponents, mixed denominators and zero coordinates:
    the same triple, or the same PoleError text."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    p = oracle_poly(rng, m)
    pt = [QC(0) if rng.random() < 0.2 else oracle_scalar(rng) for _ in range(m)]
    try:
        want = parent_exact_eval(p, pt)
    except PoleError as err:
        with pytest.raises(PoleError) as got:
            p.eval(pt)
        assert str(got.value) == str(err)
        return
    got = p.eval(pt)
    assert type(got) is QC
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)


def test_eval_conjugates_only_for_a_zbar_exponent(monkeypatch):
    """Exact eval of a holomorphic polynomial takes no conjugate; one zbar
    exponent takes them.  Both values keep the bits of the per-term exact
    oracle and of the field-by-field complex oracle."""
    conj = QC.conj
    calls = []

    def counted(self):
        calls.append(self)
        return conj(self)

    monkeypatch.setattr(QC, "conj", counted)
    rng = random.Random(383)
    for k in range(120):
        m = 1 + k % 3
        p = LaurentPoly(m, {
            Monomial(tuple(rng.randint(-2, 2) for _ in range(m)), (0,) * m):
            QC(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), 3))
            for _ in range(rng.randint(1, 4))})
        bar = k % 4 == 3
        if bar:
            p = p + LaurentPoly.zbar(m, rng.randrange(m))
        for pt in exact_points(m, 3, seed=k):
            calls.clear()
            got = p.eval(pt.values)
            assert bool(calls) == bar
            calls.clear()
            want = parent_exact_eval(p, pt.values)
            assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
            assert _bits(p.eval(pt.as_complex())) == _bits(parent_eval(p, pt.as_complex()))


def test_exact_eval_sums_over_the_lcm_of_the_term_denominators(monkeypatch):
    """Three hundred terms of degree 0..24 in z and zbar, with coefficient
    denominators 1, 2, 3, 4 and 6, at a point with denominator 7: the one
    reduction gets a denominator that divides 12 * 7**24, the lcm of the
    term denominators, not their product, and the parent's value."""
    from contactkit import scalars
    rng = random.Random(34)
    dens = [1, 2, 3, 4, 6]
    p = LaurentPoly(1, {Monomial((a,), (b,)): QC(Fraction(rng.randint(1, 9), rng.choice(dens)),
                                               Fraction(rng.randint(-9, 9), rng.choice(dens)))
                        for a in range(25) for b in range(25 - a) if rng.random() < 0.95})
    assert len(p.terms) >= 300
    pt = [QC(Fraction(2, 7), Fraction(-3, 7))]
    denominators = []
    reduced = scalars._reduced

    def recorded(a, b, d):
        denominators.append(d)
        return reduced(a, b, d)

    monkeypatch.setattr(scalars, "_reduced", recorded)
    got = p.eval(pt)
    assert len(denominators) == 1 and (12 * 7 ** 24) % denominators[0] == 0
    monkeypatch.undo()
    want = parent_exact_eval(p, pt)
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)


def test_eval_at_pole_raises():
    f = LaurentPoly.z(1, 0, -1)
    with pytest.raises(PoleError):
        f.eval((QC(0),))


def test_substitution_is_evaluation():
    """Substituting constants agrees with direct evaluation."""
    rng = random.Random(37)
    pts = exact_points(2, 5, seed=9)
    for _ in range(20):
        f = random_laurent(2, rng, allow_negative=False)
        for pt in pts:
            args = [LaurentPoly.const(2, v) for v in pt.values]
            assert f.substitute(args).constant_value() == f.eval(pt.values)


def test_inverse_of_monomial():
    f = LaurentPoly.z(2, 0, 2) * QC(0, 3)
    g = f.inverse()
    assert f * g == LaurentPoly.const(2, 1)
    with pytest.raises(VariantError):
        (LaurentPoly.z(2, 0) + 1).inverse()


def test_float_coefficient_rejected():
    with pytest.raises(VariantError):
        LaurentPoly.const(1, 0.5)
    f = LaurentPoly.z(1, 0)
    with pytest.raises(VariantError):
        f * 0.5


# expression coefficients


def test_expr_eval_chain():
    e = emul(Const(2 + 0j), Sin(Z(0)))
    z = (0.3 + 0.1j,)
    assert abs(e.eval(z) - 2 * cmath.sin(0.3 + 0.1j)) < 1e-15


def test_expr_derivatives():
    e = Exp(emul(Const(3 + 0j), Z(0)))
    d = e.diff_z(0)
    z = (0.2 - 0.4j,)
    assert abs(d.eval(z) - 3 * e.eval(z)) < 1e-12
    assert Const(0j) == e.diff_zbar(0) or abs(e.diff_zbar(0).eval(z)) == 0


def test_expr_wirtinger_split():
    # z zbar has dz derivative zbar and dzbar derivative z
    e = emul(Z(0), Zbar(0))
    z = (0.5 + 0.25j,)
    assert abs(e.diff_z(0).eval(z) - (0.5 - 0.25j)) < 1e-15
    assert abs(e.diff_zbar(0).eval(z) - (0.5 + 0.25j)) < 1e-15


def test_folding_constructors():
    assert eadd(Const(1 + 0j), Const(2 + 0j)) == Const(3 + 0j)
    assert emul(Const(0j), Sin(Z(0))) == Const(0j)
    assert emul(Const(1 + 0j), Z(2)) == Z(2)
    assert epow(Const(2 + 0j), 3) == Const(8 + 0j)
    assert epow(Z(0), 1) == Z(0)


def test_sqrt_and_cos():
    e = emul(Cos(Z(0)), Sqrt(Const(4 + 0j)))
    assert abs(e.eval((0.0 + 0j,)) - 2.0) < 1e-15


def test_laurent_to_expr_matches():
    rng = random.Random(41)
    for _ in range(20):
        f = random_laurent(2, rng)
        e = f.to_expr()
        z = (0.4 + 0.2j, -0.3 + 0.7j)
        assert abs(e.eval(z) - f.eval(z)) < 1e-10


def test_expr_coordinate_out_of_range_is_a_dimension_error():
    for make in (Z, Zbar):
        with pytest.raises(DimensionError):
            make(-1)
    form = Form(3, 1, {(0,): eadd(Z(0), Zbar(5))})
    with pytest.raises(DimensionError, match=r"z_6 .*C\^3"):
        form.evaluate(Point([1, 2, 3]))
    with pytest.raises(DimensionError, match=r"z_3 .*C\^2"):
        Z(2).substitute([Z(0), Z(1)])
    with pytest.raises(DimensionError, match=r"z_2 .*C\^1"):
        Zbar(1).substitute([Z(0)])


def test_laurent_derivative_index_out_of_range_is_a_dimension_error():
    p = LaurentPoly.z(2, 1) * LaurentPoly.zbar(2, 0)
    for i in (2, -1):
        with pytest.raises(DimensionError):
            p.diff_z(i)
        with pytest.raises(DimensionError):
            p.diff_zbar(i)


def test_laurent_coordinate_index_out_of_range_is_a_dimension_error():
    for make in (LaurentPoly.z, LaurentPoly.zbar):
        with pytest.raises(DimensionError, match="coordinate index i must be >= 0, got -1"):
            make(2, -1)
        for i in (2, 5):
            with pytest.raises(DimensionError, match=rf"\(index {i}\) does not exist on C\^2"):
                make(2, i)
        assert make(2, 1).m == 2
    assert LaurentPoly.z(2, 1).terms == {Monomial((0, 1), (0, 0)): QC(1)}


def test_expr_pole_is_a_pole_error():
    with pytest.raises(PoleError):
        epow(Z(0), -1).eval((0j,))
    with pytest.raises(PoleError):
        epow(Const(0j), -2)
    assert epow(Z(0), -1).eval((QC(2),)) == 0.5


def test_expr_is_zero_only_on_zero_constants():
    assert Const(0j).is_zero and not Const(1 + 0j).is_zero
    assert not Z(0).is_zero and not eadd(Z(0), emul(Const(-1 + 0j), Z(0))).is_zero


def test_coefficient_variant():
    assert coefficient_variant(LaurentPoly.z(1, 0)) == "laurent"
    assert coefficient_variant(Sin(Z(0))) == "expr"
    with pytest.raises(VariantError):
        coefficient_variant(0.5)


# -- property tests --------------------------------------------------------

_parts = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_monomials = st.builds(
    Monomial,
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)))
laurents = st.dictionaries(_monomials, st.builds(QC, _parts, _parts), max_size=3).map(
    lambda terms: LaurentPoly(2, terms))


@settings(deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms_property(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert f - f == LaurentPoly.zero(2)


def assert_rebuilds(p):
    """Ring results skip the constructor's checks.  The constructor must
    still accept them and give back the same terms, in the same order,
    with no zero coefficient."""
    assert not any(c.is_zero for c in p.terms.values())
    q = LaurentPoly(p.m, p.terms)
    assert q == p and list(q.terms.items()) == list(p.terms.items())


_nonzero = st.builds(QC, _parts, _parts).filter(lambda q: not q.is_zero)
_units = st.builds(lambda mono, c: LaurentPoly(2, {mono: c}), _monomials, _nonzero)
_holo_monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)))
polynomials = st.dictionaries(_holo_monomials, st.builds(QC, _parts, _parts), max_size=3).map(
    lambda terms: LaurentPoly(2, terms))
_affine = st.builds(
    lambda j, a, b: (LaurentPoly.z(2, j) if j < 2 else LaurentPoly.zbar(2, j - 2)) * a + b,
    st.integers(0, 3), _nonzero, st.builds(QC, _parts, _parts))


@settings(deadline=None)
@given(laurents, laurents, _units, st.builds(QC, _parts, _parts), st.integers(-3, 3),
       st.lists(_units, min_size=2, max_size=2), polynomials,
       st.lists(_affine, min_size=2, max_size=2))
def test_ring_results_pass_the_public_constructor(f, g, u, s, e, units, p, affine):
    results = [f + g, f - g, 1 - f, f + s, -f, f * g, f * s, s * f, f ** abs(e),
               u ** e, u.inverse(), f.conj(), f.substitute(units), p.substitute(affine)]
    for i in range(2):
        results += [f.diff_z(i), f.diff_zbar(i)]
    for r in results:
        assert_rebuilds(r)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          st.builds(QC, _parts, _parts)), unique_by=lambda t: t[0], max_size=5))
def test_holomorphic_polys_are_the_public_constructors(terms):
    """The fit's builder from z-exponent tuples: the constructor's terms,
    zero coefficients dropped, and a bound that covers every exponent."""
    zexps, coeffs = [I for I, _ in terms], [c for _, c in terms]
    p = _holomorphic(2, zexps, coeffs)
    assert p == LaurentPoly(2, {Monomial(I, (0, 0)): c for I, c in terms})
    assert_rebuilds(p)
    assert p._bound == max(map(max, zexps), default=0)


PACKED = {"_ONE", "_WIDTH", "_FIELD", "_fields", "_pack", "_poly"}


def packed_imports(source: str) -> list[int]:
    """The lines of ``source`` that import a name of the packed key layout."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name in PACKED for alias in node.names))


def test_packed_imports_are_found():
    assert packed_imports("from .coefficients import _ONE\nimport os\n"
                          "from x import (a,\n _poly)\nfrom y import _fields as f") == [1, 3, 5]


def test_only_coefficients_packs_laurent_keys():
    """The packed monomial key is the layout of one module: every other
    module in the package builds polynomials through ``coefficients``."""
    src = Path(__file__).resolve().parent.parent / "src" / "contactkit"
    assert {path.name for path in src.rglob("*.py") if packed_imports(path.read_text())} == set()


def test_only_coefficients_tests_a_coefficients_class():
    """``coefficients`` alone knows which kind a coefficient is: no other
    module in the package tests a value against ``LaurentPoly``, ``Expr``
    or an expression node class; they ask ``coefficient_variant``."""
    kinds = {name for name, obj in vars(coefficients).items()
             if isinstance(obj, type) and issubclass(obj, (LaurentPoly, Expr))}
    assert {"LaurentPoly", "Expr", "Const", "Z", "Mul", "Exp"} <= kinds
    kinds.add("Coefficient")
    src = Path(__file__).resolve().parent.parent / "src" / "contactkit"
    testers = {path.name for path in src.rglob("*.py") if class_tests(path.read_text(), kinds)}
    assert testers == {"coefficients.py"}


# -- packed monomial keys against the tuple oracle --------------------------

LIMIT = EXPONENT_LIMIT


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The tuple-add monomial product that the packed keys replace."""
    return Monomial(tuple(x + y for x, y in zip(a.zexp, b.zexp)),
                    tuple(x + y for x, y in zip(a.zbarexp, b.zbarexp)))


class OracleRange(Exception):
    """An oracle exponent left the range of a packed field."""


def in_range(mono: Monomial) -> Monomial:
    if not all(-LIMIT < e < LIMIT for e in mono.zexp + mono.zbarexp):
        raise OracleRange(mono)
    return mono


class TuplePoly:
    """The ``{Monomial: QC}`` ring with tuple-add products: the oracle of
    ``LaurentPoly``.  It builds and sums terms in the same order and raises
    OracleRange wherever an exponent it makes leaves the packed range."""

    def __init__(self, m, terms):
        self.m, self.terms = m, terms

    @classmethod
    def of(cls, p: LaurentPoly) -> "TuplePoly":
        return cls(p.m, p.terms)

    def _collect(self, pairs) -> "TuplePoly":
        terms = {}
        for mono, c in pairs:
            acc = terms.get(in_range(mono))
            if acc is not None:
                c = acc + c
            if c.is_zero:
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return TuplePoly(self.m, terms)

    def __mul__(self, other):
        return self._collect((mono_mul(a, b), c * d) for a, c in self.terms.items()
                             for b, d in other.terms.items())

    def __pow__(self, e):
        if e < 0:
            (mono, c), = self.terms.items()
            inv = Monomial(tuple(-x for x in mono.zexp), tuple(-x for x in mono.zbarexp))
            return TuplePoly(self.m, {inv: c.inverse()}) ** -e
        return power(self, e, TuplePoly(self.m, {Monomial.one(self.m): QC(1)}))

    def conj(self):
        return TuplePoly(self.m, {Monomial(mo.zbarexp, mo.zexp): c.conj()
                                  for mo, c in self.terms.items()})

    def diff(self, j):
        """The derivative along field j: z_j for j < m, else zbar_(j-m)."""
        m, terms = self.m, {}
        for mo, c in self.terms.items():
            exps = list(mo.zexp + mo.zbarexp)
            e = exps[j]
            if e:
                exps[j] = e - 1
                terms[in_range(Monomial(tuple(exps[:m]), tuple(exps[m:])))] = c * e
        return TuplePoly(m, terms)

    def substitute(self, args):
        m_src = args[0].m
        pairs = []
        for mo, c in self.terms.items():
            term = TuplePoly(m_src, {Monomial.one(m_src): c})
            for i in range(self.m):
                if mo.zexp[i]:
                    term = term * args[i] ** mo.zexp[i]
                if mo.zbarexp[i]:
                    term = term * args[i].conj() ** mo.zbarexp[i]
            pairs += term.terms.items()
        return TuplePoly(m_src, {})._collect(pairs)


def agrees(packed, oracle):
    """The packed result has the oracle's terms in the oracle's order, and a
    sound exponent bound; or both leave the range, the packed ring by
    raising ExponentRangeError."""
    try:
        want = oracle()
    except OracleRange:
        with pytest.raises(ExponentRangeError):
            packed()
        return
    got = packed()
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(abs(e) <= got._bound for mono in got.terms for e in mono.zexp + mono.zbarexp)
    assert got._bound < LIMIT


# exponents anywhere in the field, with the edges and the halves (whose
# doubles reach the limit) drawn often
_wide = st.one_of(
    st.integers(1 - LIMIT, LIMIT - 1),
    st.sampled_from([0, 1, -1, 2, LIMIT - 1, 1 - LIMIT, LIMIT - 2, 2 - LIMIT,
                     LIMIT // 2, -(LIMIT // 2), LIMIT // 2 - 1, 1 - LIMIT // 2,
                     LIMIT // 3 + 1, -(LIMIT // 3) - 1]))
_wide_monomials = st.builds(Monomial, st.tuples(_wide, _wide), st.tuples(_wide, _wide))
wide_laurents = st.dictionaries(_wide_monomials, _nonzero, min_size=1, max_size=3).map(
    lambda terms: LaurentPoly(2, terms))
_wide_units = st.builds(lambda mono, c: LaurentPoly(2, {mono: c}), _wide_monomials, _nonzero)


@settings(deadline=None)
@given(wide_laurents, wide_laurents, _wide_units, st.integers(-3, 3),
       st.lists(_wide_units, min_size=2, max_size=2), laurents)
def test_packed_keys_match_the_tuple_oracle_up_to_the_field_limit(f, g, u, e, units, s):
    F, G, U = TuplePoly.of(f), TuplePoly.of(g), TuplePoly.of(u)
    agrees(lambda: f * g, lambda: F * G)
    agrees(lambda: f ** abs(e), lambda: F ** abs(e))
    agrees(lambda: u ** e, lambda: U ** e)
    agrees(u.inverse, lambda: U ** -1)
    agrees(f.conj, F.conj)
    for i in range(2):
        agrees(lambda: f.diff_z(i), lambda: F.diff(i))
        agrees(lambda: f.diff_zbar(i), lambda: F.diff(2 + i))
    args = [TuplePoly.of(a) for a in units]
    agrees(lambda: s.substitute(units), lambda: TuplePoly.of(s).substitute(args))


def test_exponents_past_the_field_limit_raise_and_name_the_exponent():
    with pytest.raises(ExponentRangeError, match=f"exponent {LIMIT} of z1 "):
        LaurentPoly.z(1, 0, LIMIT)
    with pytest.raises(ExponentRangeError, match=f"exponent {-LIMIT} of zbar2 "):
        LaurentPoly.zbar(2, 1, -LIMIT)
    top = LaurentPoly.z(1, 0, LIMIT - 1)
    with pytest.raises(ExponentRangeError, match=f"exponent {LIMIT} of z1 "):
        top * LaurentPoly.z(1, 0)
    with pytest.raises(ExponentRangeError, match=f"exponent {-LIMIT} of zbar1 "):
        LaurentPoly.zbar(1, 0, 1 - LIMIT).diff_zbar(0)
    # operand bounds that reach the limit together are checked term by term
    assert top * LaurentPoly.z(1, 0, -1) == LaurentPoly.z(1, 0, LIMIT - 2)
    assert top.inverse().terms == {Monomial((1 - LIMIT,), (0,)): QC(1)}


# -- expression trees: commuting squares and the per-node rules --------------

_TREE_M = 2
_powers = st.sampled_from([-3, -2, -1, 2, 3])
_expr_leaves = st.one_of(
    st.builds(lambda a, b: Const(complex(a, b) / 4), st.integers(-4, 4), st.integers(-4, 4)),
    st.builds(Z, st.integers(0, _TREE_M - 1)),
    st.builds(Zbar, st.integers(0, _TREE_M - 1)))


@functools.cache
def expr_trees(depth):
    """Trees of depth <= ``depth`` on C^2 over every node kind, built with
    the raw constructors so no folding hides a node."""
    if depth == 0:
        return _expr_leaves
    sub = expr_trees(depth - 1)
    parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
    unary = st.builds(lambda node, u: node(u), st.sampled_from([Exp, Sin, Cos, Sqrt]), sub)
    return st.one_of(_expr_leaves, parts.map(Add), parts.map(Mul), st.builds(Pow, sub, _powers),
                     unary)


# one tree with every node kind, a three-factor product and a negative power
EVERY_NODE = Add((Mul((Cos(Z(0)), Pow(Add((Zbar(1), Const(2 + 0j))), -2), Sin(Z(1)))),
                  Sqrt(Add((Exp(Zbar(0)), Const(4 + 0j))))))
EVERY_NODE_ARGS = [Mul((Z(1), Zbar(0))), Add((Z(0), Const(0.5j)))]


def children(e):
    if isinstance(e, (Add, Mul)):
        return e.parts
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, Sin, Cos, Sqrt)):
        return (e.u,)
    return ()


def tame(e, z, bound=100.0) -> bool:
    """Every node of ``e`` at ``z`` is below ``bound``, every negative power
    is clear of its pole and every Sqrt of its branch cut (the negative real
    axis), so differences, conjugates and substitutions apply."""
    try:
        v = e.eval(z)
    except (ArithmeticError, ValueError):
        return False
    if not abs(v) <= bound:
        return False
    if isinstance(e, Pow) and e.k < 0 and abs(e.base.eval(z)) < 0.2:
        return False
    if isinstance(e, Sqrt):
        u = e.u.eval(z)
        if abs(u) < 0.1 or (u.real < 0 and abs(u.imag) < 0.05):
            return False
    return all(tame(p, z, bound) for p in children(e))


def tame_point(trees, seed):
    """The first of 20 seeded points in the box |x|, |y| <= 1.2 of C^2 at
    which every tree is tame, or None."""
    rng = random.Random(seed)
    for _ in range(20):
        z = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(_TREE_M)]
        if all(tame(e, z) for e in trees):
            return z
    return None


def relative_gap(got, want):
    return abs(got - want) / max(1.0, abs(want))


def wirtinger_differences(e, z, i, h=1e-6):
    """Central differences (d/dx -+ i d/dy) / 2 along z_i: d/dz_i, d/dzbar_i."""
    def at(step):
        w = list(z)
        w[i] += step
        return e.eval(w)

    dx = (at(h) - at(-h)) / (2 * h)
    dy = (at(1j * h) - at(-1j * h)) / (2 * h)
    return (dx - 1j * dy) / 2, (dx + 1j * dy) / 2


@settings(deadline=None, max_examples=60)
@given(expr_trees(4), st.integers(0, 2 ** 32))
@example(EVERY_NODE, 0)
def test_expr_derivatives_match_central_differences(e, seed):
    """Steps of 1e-6 agree to about 1e-8 of the larger derivative on tame
    points; a wrong chain rule misses by order one."""
    z = tame_point([e], seed)
    assume(z is not None)
    for i in range(_TREE_M):
        want = wirtinger_differences(e, z, i)
        got = e.diff_z(i).eval(z), e.diff_zbar(i).eval(z)
        scale = max(1.0, *map(abs, want))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6 * scale


@settings(deadline=None, max_examples=60)
@given(expr_trees(4), st.lists(expr_trees(2), min_size=_TREE_M, max_size=_TREE_M),
       st.integers(0, 2 ** 32))
@example(EVERY_NODE, EVERY_NODE_ARGS, 0)
def test_expr_conj_and_substitute_commute_with_evaluation(e, args, seed):
    z = tame_point([e, *args], seed)
    assume(z is not None)
    assert relative_gap(e.conj().eval(z), e.eval(z).conjugate()) <= 1e-13
    image = [a.eval(z) for a in args]
    assume(tame(e, image))
    assert relative_gap(e.substitute(args).eval(z), e.eval(image)) <= 1e-13


def reference_diff(e, i, bar):
    """The derivative in z_i (zbar_i when ``bar``) by the rules each node
    class used to write out for itself, one method per rule."""
    def d(p):
        return reference_diff(p, i, bar)

    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Z):
        return Const(1 + 0j) if not bar and i == e.i else Const(0j)
    if isinstance(e, Zbar):
        return Const(1 + 0j) if bar and i == e.i else Const(0j)
    if isinstance(e, Add):
        return eadd(*(d(p) for p in e.parts))
    if isinstance(e, Mul):
        terms = []
        for k in range(len(e.parts)):
            factors = list(e.parts)
            factors[k] = d(factors[k])
            terms.append(emul(*factors))
        return eadd(*terms)
    if isinstance(e, Pow):
        return emul(Const(complex(e.k)), epow(e.base, e.k - 1), d(e.base))
    u, du = e.u, d(e.u)
    if isinstance(e, Exp):
        return emul(Exp(u), du)
    if isinstance(e, Sin):
        return emul(Cos(u), du)
    if isinstance(e, Cos):
        return emul(Const(-1 + 0j), Sin(u), du)
    if isinstance(e, Sqrt):
        return emul(Const(0.5 + 0j), epow(Sqrt(u), -1), du)
    raise TypeError(type(e).__name__)


def reference_conj(e):
    if isinstance(e, Const):
        return Const(e.value.conjugate())
    if isinstance(e, Z):
        return Zbar(e.i)
    if isinstance(e, Zbar):
        return Z(e.i)
    if isinstance(e, Add):
        return eadd(*(reference_conj(p) for p in e.parts))
    if isinstance(e, Mul):
        return emul(*(reference_conj(p) for p in e.parts))
    if isinstance(e, Pow):
        return epow(reference_conj(e.base), e.k)
    return type(e)(reference_conj(e.u))


def reference_substitute(e, args):
    if isinstance(e, Const):
        return e
    if isinstance(e, Z):
        return args[e.i]
    if isinstance(e, Zbar):
        return reference_conj(args[e.i])
    if isinstance(e, Add):
        return eadd(*(reference_substitute(p, args) for p in e.parts))
    if isinstance(e, Mul):
        return emul(*(reference_substitute(p, args) for p in e.parts))
    if isinstance(e, Pow):
        return epow(reference_substitute(e.base, args), e.k)
    return type(e)(reference_substitute(e.u, args))


def assert_same_tree(got, want):
    """``got()`` and ``want()`` give equal trees holding the same bits (repr
    tells -0.0 from 0.0), or raise the same error (a pole of a constant)."""
    try:
        w = want()
    except PoleError:
        with pytest.raises(PoleError):
            got()
        return
    g = got()
    assert g == w and repr(g) == repr(w)


def assert_rules_match_the_reference(e, args, m):
    for i in range(m):
        assert_same_tree(lambda: e.diff_z(i), lambda: reference_diff(e, i, False))
        assert_same_tree(lambda: e.diff_zbar(i), lambda: reference_diff(e, i, True))
    assert_same_tree(e.conj, lambda: reference_conj(e))
    assert_same_tree(lambda: e.substitute(args), lambda: reference_substitute(e, args))


@settings(deadline=None, max_examples=60)
@given(expr_trees(4), st.lists(expr_trees(2), min_size=_TREE_M, max_size=_TREE_M))
@example(EVERY_NODE, EVERY_NODE_ARGS)
def test_expr_rules_match_the_per_node_reference(e, args):
    assert_rules_match_the_reference(e, args, _TREE_M)


def test_expr_rules_match_the_per_node_reference_on_the_gallery():
    from contactkit.gallery import (alpha_prime, cover_target_form, covering_map,
                                    gallery_entries, rotation_automorphism)

    forms = [cover_target_form(), alpha_prime()]
    for entry in gallery_entries():
        forms += [entry.form, entry.expected]
    maps = [covering_map().components, rotation_automorphism().components]
    for f in forms:
        for c in f.to_expr().terms.values():
            for args in maps:
                assert_rules_match_the_reference(c, args, 3)
    for comps in maps:
        for c in comps:
            assert_rules_match_the_reference(c, [Zbar(1), Z(0), Const(2j)], 3)


_BIG = 1 << 30  # two of these overflow a packed exponent field

COEFFICIENTS_REFUSALS = [
    (lambda: LaurentPoly.z(1, 0) * 0.5, VariantError,
     "cannot mix an exact Laurent polynomial with binary floats"),
    (lambda: LaurentPoly.const(1, 0.5), VariantError, "expected an exact scalar, got float"),
    (lambda: LaurentPoly.z(2, 5), DimensionError, "z_6 (index 5) does not exist on C^2"),
    pytest.param(lambda: LaurentPoly(1, {Monomial((0.5,), (0,)): 1}), VariantError,
                 "exponent of z1 must be an int, got 0.5",
                 id="exponent 0.5 of z1 is not an integer"),
    pytest.param(lambda: LaurentPoly(1, {Monomial((True,), (0,)): 1}), VariantError,
                 "exponent of z1 must be an int, got True",
                 id="exponent True of z1 is not an integer"),
    pytest.param(lambda: LaurentPoly.z(3, 2, True), VariantError,
                 "power must be an int, got True", id="exponent True of z3 is not an integer"),
    (lambda: LaurentPoly(1, {Monomial((0,), (EXPONENT_LIMIT,)): 1}), ExponentRangeError,
     f"exponent {EXPONENT_LIMIT} of zbar1 is outside the packed range"),
    (lambda: LaurentPoly.z(1, 0, _BIG) ** 2, ExponentRangeError,
     f"exponent {2 * _BIG} of z1 is outside the packed range"),
    pytest.param(lambda: LaurentPoly(0), DimensionError,
                 "variable count m must be >= 1, got 0", id="need at least one variable"),
    pytest.param(lambda: LaurentPoly(3.0), DimensionError,
                 "variable count m must be an int, got 3.0", id="variable count 3.0 is not an int"),
    pytest.param(lambda: LaurentPoly.const(True, 1), DimensionError,
                 "variable count m must be an int, got True",
                 id="variable count True is not an int"),
    pytest.param(lambda: LaurentPoly.z(2, 0).diff_z(True), DimensionError,
                 "coordinate index i must be an int, got True",
                 id="coordinate index True is not an int"),
    pytest.param(lambda: LaurentPoly.z(2, 0).diff_zbar(0.5), DimensionError,
                 "coordinate index i must be an int, got 0.5",
                 id="coordinate index 0.5 is not an int"),
    (lambda: LaurentPoly(2, {Monomial((0,), (0,)): 1}), DimensionError,
     "monomial arity 1 != m=2"),
    (lambda: LaurentPoly.z(1, 0) + LaurentPoly.z(2, 0), DimensionError,
     "variable count mismatch: 1 vs 2"),
    (lambda: (LaurentPoly.z(1, 0) + 1).inverse(), VariantError,
     "only monomials are invertible in the Laurent ring; got 2 terms"),
    (lambda: LaurentPoly.z(1, 0, 1 - EXPONENT_LIMIT).diff_z(0), ExponentRangeError,
     f"exponent {-EXPONENT_LIMIT} of z1 is outside the packed range"),
    (lambda: LaurentPoly.z(2, 0).eval([QC(1)]), DimensionError, "point arity mismatch"),
    (lambda: LaurentPoly.zbar(1, 0, -1).eval([QC(0)]), PoleError,
     "coordinate z_1 = 0 hit exponent -1"),
    (lambda: LaurentPoly.z(2, 0).substitute([LaurentPoly.z(1, 0)]), DimensionError,
     "substitution arity mismatch"),
    (lambda: LaurentPoly.z(2, 0).substitute([LaurentPoly.z(1, 0), LaurentPoly.z(2, 0)]),
     DimensionError, "substitution arguments live in different rings"),
    (lambda: Z(0) + "a", VariantError, "cannot lift str into an expression"),
    pytest.param(lambda: Zbar(-1), DimensionError,
                 "coordinate index i must be >= 0, got -1", id="coordinate index -1 is negative"),
    pytest.param(lambda: Z(1.5), DimensionError,
                 "coordinate index i must be an int, got 1.5",
                 id="coordinate index 1.5 is not an int"),
    pytest.param(lambda: Z(True), DimensionError,
                 "coordinate index i must be an int, got True",
                 id="coordinate index True is not an int"),
    pytest.param(lambda: Zbar(1j), DimensionError,
                 "coordinate index i must be an int, got 1j",
                 id="coordinate index 1j is not an int"),
    (lambda: Z(2).eval([1j]), DimensionError, "z_3 does not exist on C^1"),
    (lambda: epow(Const(0j), -1), PoleError, "zero raised to the negative power -1"),
    pytest.param(lambda: epow(Z(0), 0.5), VariantError,
                 "exponent k must be an int, got 0.5",
                 id="expression powers take integer exponents only"),
    (lambda: coefficient_variant(0.5), VariantError, "not a coefficient: float"),
]


@pytest.mark.parametrize("call, error, fragment", COEFFICIENTS_REFUSALS,
                         ids=[r[2] for r in COEFFICIENTS_REFUSALS])
def test_every_coefficients_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``coefficients.py`` but the three abstract
    ``Expr`` methods: the malformed input, its error class and a fragment
    of its message.
    A row's id is its fragment, or the case its ``pytest.param`` names."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_laurent_zero_repr():
    assert repr(LaurentPoly.zero(2)) == "0"
    assert repr(LaurentPoly.z(2, 0) - LaurentPoly.z(2, 0)) == "0"


def test_equal_laurent_polynomials_hash_equal():
    """Insertion order is not part of equality, nor of the hash."""
    p = LaurentPoly.z(2, 0) + LaurentPoly.const(2, QC(1, 2))
    q = LaurentPoly.const(2, QC(1, 2)) + LaurentPoly.z(2, 0)
    assert list(p.terms) != list(q.terms)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, LaurentPoly.z(2, 1)}) == 2


def test_expression_subtraction_from_either_side():
    z = [2.5 + 1j]
    assert (Z(0) - 1).eval(z) == 1.5 + 1j
    assert (1 - Z(0)).eval(z) == -1.5 - 1j
    assert (Z(0) - Z(0)).eval(z) == 0


# -- sympy as an oracle from outside the package ---------------------------


def sympy_ring(m):
    """Independent sympy symbols for z_1..z_m and zbar_1..zbar_m, with the
    three maps of the ring: a LaurentPoly to its expression, a QC to its
    number, and the formal conjugate (sympy's ``conjugate`` with each
    ``conjugate(z_i)`` read as ``zbar_i`` and back)."""
    import sympy
    zs = sympy.symbols(f"z1:{m + 1}")
    zbs = sympy.symbols(f"zb1:{m + 1}")

    def number(q):
        return sympy.Rational(q._a, q._d) + sympy.I * sympy.Rational(q._b, q._d)

    def expr(p):
        out = sympy.Integer(0)
        for mono, c in p.terms.items():
            term = number(c)
            for sym, e in zip(zs + zbs, mono.zexp + mono.zbarexp):
                term *= sym ** e
            out += term
        return out

    swap = {sympy.conjugate(z): zb for z, zb in zip(zs, zbs)}
    swap.update({sympy.conjugate(zb): z for z, zb in zip(zs, zbs)})

    def conj(e):
        return sympy.conjugate(e).xreplace(swap)

    return zs, zbs, number, expr, conj


def same_in_sympy(got, want) -> bool:
    import sympy
    return sympy.expand(got - want) == 0


def random_unit(m, rng):
    """A monomial with a nonzero Gaussian-rational coefficient and exponents
    of either sign in z and zbar."""
    return LaurentPoly(m, {Monomial(tuple(rng.randint(-2, 2) for _ in range(m)),
                                    tuple(rng.randint(-2, 2) for _ in range(m))):
                           QC(Fraction(rng.randint(1, 6), rng.randint(1, 4)), rng.randint(-3, 3))})


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32))
def test_laurent_ring_matches_sympy(seed):
    """``+``, ``*``, ``**``, ``substitute``, ``conj``, ``diff_z``,
    ``diff_zbar`` and exact ``eval`` against sympy's own expansion,
    derivative and substitution, in independent symbols z_i and zbar_i."""
    import sympy
    rng = random.Random(seed)
    m = rng.randint(1, 2)
    zs, zbs, number, expr, conj = sympy_ring(m)
    f, g, unit = random_laurent(m, rng), random_laurent(m, rng), random_unit(m, rng)
    F, G = expr(f), expr(g)
    assert same_in_sympy(expr(f + g), F + G)
    assert same_in_sympy(expr(f * g), F * G)
    k, e = rng.randint(0, 3), rng.randint(-3, 3)
    assert same_in_sympy(expr(f ** k), F ** k)
    assert same_in_sympy(expr(unit ** e), expr(unit) ** e)
    assert same_in_sympy(expr(f.conj()), conj(F))
    i = rng.randrange(m)
    assert same_in_sympy(expr(f.diff_z(i)), sympy.diff(F, zs[i]))
    assert same_in_sympy(expr(f.diff_zbar(i)), sympy.diff(F, zbs[i]))
    if rng.random() < 0.5:
        # any exponent composes with monomial arguments
        source, args = f, [random_unit(m, rng) for _ in range(m)]
    else:
        source = random_laurent(m, rng, allow_negative=False)
        args = [random_laurent(m, rng, max_exp=1, allow_negative=False) for _ in range(m)]
    A = [expr(a) for a in args]
    subs = dict(zip(zs, A)) | dict(zip(zbs, map(conj, A)))
    assert same_in_sympy(expr(source.substitute(args)), expr(source).xreplace(subs))
    pt = [QC(Fraction(rng.randint(1, 9), rng.randint(1, 7)), Fraction(rng.randint(-9, 9), 5))
          for _ in range(m)]
    values = {z: number(q) for z, q in zip(zs, pt)}
    values |= {zb: sympy.conjugate(number(q)) for zb, q in zip(zbs, pt)}
    assert same_in_sympy(number(f.eval(pt)), F.xreplace(values))
