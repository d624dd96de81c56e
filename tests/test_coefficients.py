import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit.coefficients import (
    Const, Cos, Exp, LaurentPoly, Monomial, Sin, Sqrt, Z, Zbar,
    coefficient_variant, eadd, emul, epow,
)
from contactkit.errors import DimensionError, PoleError, VariantError
from contactkit.forms import Form, Point
from contactkit.sampling import exact_points
from contactkit.scalars import QC


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
