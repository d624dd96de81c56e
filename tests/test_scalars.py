import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactkit.errors import VariantError
from contactkit.scalars import QC, _affine, _gaussian_complex, _power_triple, exact
from conftest import class_tests


def test_construction_and_parts():
    q = QC(Fraction(1, 2), -3)
    assert q.re == Fraction(1, 2)
    assert q.im == Fraction(-3)
    assert QC("2/7").re == Fraction(2, 7)


def test_float_parts_rejected():
    with pytest.raises(VariantError):
        QC(0.5)
    with pytest.raises(VariantError):
        QC(0, 1.25)


def test_mixed_arithmetic_rejected():
    q = QC(1, 1)
    with pytest.raises(VariantError):
        q + 0.5
    with pytest.raises(VariantError):
        q * (1 + 2j)


def test_field_axioms_random():
    rng = random.Random(11)

    def rand():
        return QC(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                  Fraction(rng.randint(-20, 20), rng.randint(1, 9)))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == QC(1)
            assert (b / a) * a == b


def test_conjugation_and_abs2():
    q = QC(3, -4)
    assert q.conj() == QC(3, 4)
    assert q.abs2() == Fraction(25)
    assert q * q.conj() == QC(q.abs2())


def test_integer_powers():
    q = QC(1, 1)
    assert q ** 2 == QC(0, 2)
    assert q ** 0 == QC(1)
    assert q ** -2 == QC(0, 2).inverse()
    with pytest.raises(ZeroDivisionError):
        QC(0).inverse()


def _count_calls(monkeypatch, cls, name="__mul__"):
    calls = []
    inner = getattr(cls, name)

    def counted(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_power_takes_the_fewest_products(monkeypatch):
    from contactkit.coefficients import LaurentPoly

    calls = _count_calls(monkeypatch, QC)
    x = QC(Fraction(2, 3), -1)
    for e, products in ((1, 0), (2, 1), (5, 3), (8, 3)):
        calls.clear()
        got = x ** e
        assert len(calls) == products
        want = x
        for _ in range(e - 1):
            want = want * x
        assert got == want
    p = LaurentPoly.z(2, 0) + LaurentPoly.zbar(2, 1) * QC(1, 2)
    poly_calls = _count_calls(monkeypatch, LaurentPoly)
    assert p ** 1 == p
    assert not poly_calls


def test_complex_conversion():
    assert complex(QC(Fraction(1, 4), -2)) == 0.25 - 2j


def test_part_strings_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        q = QC(Fraction(rng.randint(-999, 999), rng.randint(1, 64)),
               Fraction(rng.randint(-999, 999), rng.randint(1, 64)))
        re, im = q.part_strings()
        assert QC(re, im) == q


def test_hash_matches_equality():
    assert hash(QC(2, 0)) == hash(QC(Fraction(4, 2), Fraction(0)))
    assert QC(1, 2) != QC(1, 3)
    assert bool(QC(0, 0)) is False


def test_hash_agrees_with_int_and_fraction_equality():
    for n in (0, 1, -1, 7, 2 ** 70):
        assert QC(n) == n
        assert hash(QC(n)) == hash(n)
        assert {n: "x"}.get(QC(n)) == "x"
        assert {QC(n): "y"}[n] == "y"
    for f in (Fraction(1, 2), Fraction(-22, 7), Fraction(3, 2 ** 65)):
        assert QC(f) == f
        assert hash(QC(f)) == hash(f)
        assert {f: "x"}.get(QC(f)) == "x"
        assert {QC(f): "y"}[f] == "y"


# -- property tests --------------------------------------------------------

parts = st.fractions(min_value=-50, max_value=50, max_denominator=40)
scalars = st.builds(QC, parts, parts)
nonzero = scalars.filter(lambda q: not q.is_zero)
wide_parts = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
props = settings(deadline=None)


@props
@given(scalars, scalars, scalars, st.integers(-30, 30))
def test_ring_axioms_property(a, b, c, n):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert a + (-a) == 0 and a - b == a + (-b)
    assert n - a == QC(n) - a and n + a == a + QC(n) and n * a == a * QC(n)


@props
@given(scalars, nonzero, st.integers(-30, 30))
def test_field_axioms_property(b, a, n):
    assert a * a.inverse() == 1
    assert a.inverse().inverse() == a
    assert (b / a) * a == b
    assert n / a == QC(n) * a.inverse()
    assert a ** -2 == (a * a).inverse()


@props
@given(scalars, scalars)
def test_conj_property(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a * a.conj() == QC(a.abs2())
    assert isinstance(a.abs2(), Fraction)
    if not a.is_zero:
        assert a.inverse() == a.conj() * QC(1 / a.abs2())


def _triple(q):
    return q._a, q._b, q._d


@props
@given(scalars, scalars, nonzero)
def test_stored_form_is_canonical(a, b, c):
    for q in (a, a + b, a - b, a * b, (a * c) / c, c.inverse(), -a, a.conj()):
        re, im = q.re, q.im
        d = math.lcm(re.denominator, im.denominator)
        # the one triple a Fraction pair determines
        assert _triple(q) == (re.numerator * (d // re.denominator),
                              im.numerator * (d // im.denominator), d)
        assert q._d > 0 and math.gcd(*_triple(q)) == 1
    assert _triple((a * c) / c) == _triple(a)
    assert _triple(a - a) == (0, 0, 1)
    with pytest.raises(AttributeError):
        a.re = Fraction(1)


@props
@given(scalars)
def test_text_forms_round_trip(q):
    assert QC(*q.part_strings()) == q
    text = repr(q)
    assert text == f"QC({q.re}, {q.im})"
    assert QC(*text[3:-1].split(", ")) == q


@props
@given(wide_parts, wide_parts)
def test_complex_matches_fraction_parts_bitwise(re, im):
    q = QC(re, im)
    got, want = complex(q), complex(q.re) + 1j * complex(q.im)
    assert (got.real, got.imag) == (want.real, want.imag)
    assert math.copysign(1, got.real) == math.copysign(1, want.real)
    assert math.copysign(1, got.imag) == math.copysign(1, want.imag)



@props
@given(st.one_of(st.integers(-10 ** 20, 10 ** 20), parts, scalars), scalars)
def test_reflected_subtraction_matches_the_lifted_operand(x, q):
    """int - q and Fraction - q reach QC.__rsub__; a QC operand is passed
    to it directly."""
    want = x - q if isinstance(x, QC) else QC(x) - q
    assert q.__rsub__(x) == want
    assert x - q == want
    assert q.__rsub__(object()) is NotImplemented


@props
@given(scalars, st.integers(-6, 6))
def test_power_triple_is_the_power(q, e):
    assume(e and not (e < 0 and q.is_zero))
    a, b, d = _power_triple(q._a, q._b, q._d, e)
    assert QC(Fraction(a, d), Fraction(b, d)) == q ** e


def parent_exact_value(v):
    """The exact-value test ``fit_holomorphic`` kept for itself before
    ``scalars.exact``, verbatim, as the oracle."""
    if isinstance(v, QC):
        return v
    if isinstance(v, (int, Fraction)):
        return QC(v)
    return None


@props
@given(st.one_of(
    st.booleans(), st.integers(-10 ** 30, 10 ** 30), parts, scalars, st.floats(),
    st.complex_numbers(), st.text(max_size=3), st.none(),
    st.sampled_from([np.float64(0.5), np.int64(3), np.complex128(1j), np.bool_(True),
                     [1], (QC(1),), object()])))
def test_exact_lifts_what_the_parent_fit_lifted(v):
    got, want = exact(v), parent_exact_value(v)
    if want is None:
        assert got is None
    else:
        assert type(got) is QC and got == want
        assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
        if isinstance(v, QC):
            assert got is v



TRIPLE = {"_a", "_b", "_d"}


def triple_reads(source: str) -> list[int]:
    """The lines of ``source`` that read or write a ``_a``, ``_b`` or
    ``_d`` attribute, by any name and in any expression."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in TRIPLE)


def test_triple_reads_are_found():
    assert triple_reads("x = q._a\ny = f(z)._d + 1\nq._b = 2\ngetattr(q, '_a')") == [1, 2, 3]


def test_only_scalars_reads_the_triple_layout():
    """``(a, b, d)`` is the layout of one module: every other module in the
    package works through QC's operators and the kernels in ``scalars``."""
    src = Path(__file__).resolve().parent.parent / "src" / "contactkit"
    readers = {path.name for path in src.rglob("*.py") if triple_reads(path.read_text())}
    assert readers == {"scalars.py"}


def test_class_tests_are_found():
    source = ("isinstance(v, QC)\nisinstance(v, (int, QC))\ntype(v) is QC\n"
              "QC is not type(v)\nx = [v for v in w if type(v) in (QC, int)]\n"
              "isinstance(v, Fraction)\ntype(v) is int\nQC(v)\nissubclass(t, QC)\n")
    assert class_tests(source, {"QC"}) == [1, 2, 3, 4, 5, 9]


def test_only_scalars_tests_a_value_against_qc():
    """``scalars.exact`` and ``scalars._exact_all`` decide what is exact: no
    other module in the package tests a value's class against ``QC``."""
    src = Path(__file__).resolve().parent.parent / "src" / "contactkit"
    testers = {path.name for path in src.rglob("*.py") if class_tests(path.read_text(), {"QC"})}
    assert testers == {"scalars.py"}


def test_only_exact_and_qc_test_a_value_against_qc_in_scalars():
    """Inside scalars too, only ``exact``, ``_exact_all`` and QC's own
    methods test a value's class against QC: the kernels that read triples
    (``_gaussian_complex``, ``_affine``) take what ``_exact_all`` lifted and
    have no path of their own for other values."""
    assert class_tests("set(map(type, values)) != {QC}", {"QC"}) == [1]
    src = Path(__file__).resolve().parent.parent / "src" / "contactkit"
    source = (src / "scalars.py").read_text()
    tops = [node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    owners = {next((node.name for node in tops if node.lineno <= line <= node.end_lineno), None)
              for line in class_tests(source, {"QC"})}
    assert owners == {"exact", "_exact_all", "QC"}


DENOMINATORS = (1, 2, 3, 7, 12, 2 ** 40 + 15)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99),
                          st.sampled_from(DENOMINATORS), st.booleans()), max_size=9),
       st.integers(2, 5))
def test_the_gaussian_conversion_takes_the_lcm_or_a_multiple_of_it(parts, k):
    """``_gaussian_complex`` on QC, int and Fraction values: given L equal to
    the lcm of their denominators, it answers what it answers without L,
    each value times L as a Gaussian integer held in complex, and given a
    multiple k L each value times k L; given an L that some denominator
    does not divide, None.  A value it cannot lift gives None, and so does
    one whose modulus passes float range though both its parts fit."""
    values = [Fraction(a, d) if real else QC(Fraction(a, d), Fraction(b, d))
              for a, b, d, real in parts]
    if values and type(values[0]) is Fraction and values[0].denominator == 1:
        values[0] = int(values[0])
    L = math.lcm(*(exact(v)._d for v in values))
    got = _gaussian_complex(values)
    assert _gaussian_complex(values, L) == got
    if got is not None:
        assert got[0] == L and got[1] == [complex(exact(v) * L) for v in values]
        assert got[2] == max((abs(complex(exact(v) * L)) for v in values), default=0.0)
        wider = _gaussian_complex(values, k * L)
        assert wider is None or wider[:2] == (k * L, [complex(exact(v) * k * L) for v in values])
    if L > 1:
        assert _gaussian_complex(values, L - 1) is None
        assert _gaussian_complex(values, k * L + 1) is None
    assert _gaussian_complex([*values, 1j]) is None
    assert _gaussian_complex([*values, QC(3 * 2 ** 1022, 3 * 2 ** 1022)]) is None


def test_affine_refuses_other_lengths():
    """``_affine`` sums QC triples to the QC the operators give; it never
    truncates a longer sequence."""
    w = (QC(1), QC(0), QC(2, 1))
    assert _affine(QC(1), w, (QC(1), QC(2), QC(1, 1))) == QC(1) + QC(1) + QC(2, 1) * QC(1, 1)
    for short in ((QC(1),) * 2, (QC(1),) * 4):
        with pytest.raises(ValueError):
            _affine(QC(1), w, short)
