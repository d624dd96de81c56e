"""Exact complex scalars with rational real and imaginary parts, and the
int kernels of the exact Laurent ring.

A value ``(a + b*i) / d`` is stored as three Python ints ``(a, b, d)`` with
``d > 0`` and ``gcd(a, b, d) == 1``, so every value has exactly one stored
form: equality is a comparison of triples and zero is ``(0, 0, 1)``.
Sums, products and quotients work on the ints directly and reduce each
result by one ``math.gcd``; they are exact.  Integer powers go through
:func:`power`, the one square-and-multiply of the exact rings.

A Laurent polynomial of :mod:`~contactkit.coefficients` stores its terms
the same way, over one denominator: ``{key: (re, im)}`` with int numerator
pairs and one ``den > 0``, divided by their content so that ``gcd(den,
every part) == 1`` and zero is ``({}, 1)``.  Its arithmetic runs here, on
ints, and calls no ``QC`` operator: :func:`_numerators` puts reduced QC
over their lcm, :func:`_term_products` multiplies and :func:`_add` and
:func:`_sum` add numerator dicts, :func:`_times` scales by a QC, and
:func:`_content` divides a result by its content, stopping at the first
term that brings the gcd to one.  :func:`_eval_terms` sums an exact
evaluation on the numerators and unreduced powers (from
:func:`_power_triple`) and reduces once over the denominator.  The slices
of :mod:`~contactkit.jets` evaluate their affine functional ``c + <w,
row>`` the same way, through :func:`_affine`.  Because a value has one
reduced triple, ``_reduced(re, im, den)`` of each term is the QC that the
``QC`` arithmetic gives.

The real and imaginary parts are read as ``fractions.Fraction`` through
:attr:`QC.re` and :attr:`QC.im`.  Ints and Fractions are exact too:
:func:`exact`, the one test of what is exact, lifts them, and
:func:`_exact_all` asks it of each value of a point or a row: no other
module tests a value against ``QC``.  Mixing an exact scalar with a float
or a Python complex raises :class:`~contactkit.errors.VariantError`;
conversion to binary floats is always an explicit ``complex(q)`` call at
the edge of a computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import VariantError


def _coerce_part(value):
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise VariantError(
        f"exact scalar parts must be int, Fraction or rational string, got {type(value).__name__}"
    )


_new = object.__new__


def _raw(a: int, b: int, d: int) -> "QC":
    """The QC ``(a + b*i) / d`` from a triple that is already reduced."""
    q = _new(QC)
    q._a = a
    q._b = b
    q._d = d
    return q


def _reduced(a: int, b: int, d: int) -> "QC":
    """The QC ``(a + b*i) / d`` for ``d > 0``, reduced by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _raw inlined: every sum and product ends here
    q = _new(QC)
    q._a = a
    q._b = b
    q._d = d
    return q


def _gaussian(columns) -> tuple[int, list[list[int]], list[list[int]]]:
    """``columns`` (lists of QC) over one common denominator: ``(L, re,
    im)``, with L the lcm of every denominator and
    ``re[c][r] + i*im[c][r] == L * columns[c][r]`` in ints."""
    L = lcm(*{q._d for col in columns for q in col})
    re, im = [], []
    for col in columns:
        scale = [L // q._d for q in col]
        re.append([q._a * s for q, s in zip(col, scale)])
        im.append([q._b * s for q, s in zip(col, scale)])
    return L, re, im


def _gaussian_complex(values: list, limit: float) -> tuple[int, list[complex]] | None:
    """``values`` over one common denominator L as Gaussian integers held in
    Python complex, ``(L, [complex(L * v)])``; None when a value is not a QC
    or a scaled modulus reaches ``limit``, 2**53 or float range."""
    if set(map(type, values)) != {QC}:
        return None
    L = lcm(*{q._d for q in values})
    try:
        scaled = [complex(q._a * s, q._b * s) for q in values for s in (L // q._d,)]
        if max(map(abs, scaled)) < min(limit, 2.0 ** 53):
            return L, scaled
    except OverflowError:
        pass
    return None


def power(base, e: int, one):
    """``base ** e`` for ``e >= 0`` in any ring, ``one`` for ``e == 0``.  No
    squaring follows the top bit: ``x ** 2`` is one product, ``x ** 5`` three."""
    if not e:
        return one
    while not e & 1:
        base = base * base
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = base * base
        if e & 1:
            result = result * base
        e >>= 1
    return result


def _power_triple(a: int, b: int, d: int, e: int) -> tuple[int, int, int]:
    """``((a + b*i) / d) ** e`` as an unreduced triple, for ``e != 0`` and a
    nonzero value when ``e < 0``: square-and-multiply on Gaussian integers."""
    if e < 0:
        # d / (a + b*i) = d * (a - b*i) / (a**2 + b**2)
        a, b, d, e = d * a, -d * b, a * a + b * b, -e
    d **= e
    ra, rb = 1, 0
    while True:
        if e & 1:
            ra, rb = ra * a - rb * b, ra * b + rb * a
        e >>= 1
        if not e:
            return ra, rb, d
        a, b = a * a - b * b, 2 * a * b


def _numerators(pairs) -> tuple[dict, int]:
    """``(key, QC)`` pairs with nonzero QC over the lcm L of their
    denominators: ``({key: (re, im)}, L)`` with ``re + i*im == L * q`` in
    ints, in one pass that rescales the pairs so far when L grows.  Each QC
    is a reduced triple, so a prime power that divides L exactly divides
    some q's denominator, and that q's parts are not both multiples of the
    prime: the content is already one."""
    terms: dict = {}
    L = 1
    for k, q in pairs:
        a, b, d = q._a, q._b, q._d
        if L % d:
            s = d // gcd(L, d)
            if terms:
                terms = {key: (x * s, y * s) for key, (x, y) in terms.items()}
            L *= s
        if L != d:
            t = L // d
            a *= t
            b *= t
        terms[k] = a, b
    return terms, L


def _content(terms: dict, den: int) -> tuple[dict, int]:
    """``{key: (re, im)}`` over ``den > 0`` divided by the gcd of ``den``
    and every part: the one stored form of its value, with zero as
    ``({}, 1)``.  The gcd stops at the first term that brings it to one;
    ``terms`` comes back as it is when nothing divides."""
    if den == 1:
        return terms, 1
    g = den
    for a, b in terms.values():
        g = gcd(g, a, b)
        if g == 1:
            return terms, den
    return {k: (a // g, b // g) for k, (a, b) in terms.items()}, den // g


def _term_products(left: dict, right: dict, one: int) -> dict:
    """The product of two ``{key: (re, im)}`` numerator dicts whose int keys
    add, with ``one`` the key of the unit: the term products
    ``(k1 + k2 - one, n1 * n2)`` left-major, summed by key, a key whose sum
    cancels leaving at once (a later product brings it back last).  When
    either side has one term no two keys meet, so there is no sum."""
    if len(left) == 1:
        (k, (a, b)), = left.items()
        k -= one
        return {k + k2: (a * c - b * e, a * e + b * c) for k2, (c, e) in right.items()}
    if len(right) == 1:
        (k, (c, e)), = right.items()
        k -= one
        return {k1 + k: (a * c - b * e, a * e + b * c) for k1, (a, b) in left.items()}
    terms: dict = {}
    get = terms.get
    right = list(right.items())
    for k1, (a, b) in left.items():
        k1 -= one
        for k2, (c, e) in right:
            k = k1 + k2
            re, im = a * c - b * e, a * e + b * c
            acc = get(k)
            if acc is None:
                terms[k] = re, im
            else:
                re += acc[0]
                im += acc[1]
                if re or im:
                    terms[k] = re, im
                else:
                    del terms[k]
    return terms


def _accumulate(terms: dict, part: dict, s: int) -> bool:
    """Add ``s`` times the numerators of ``part`` into ``terms`` in order: a
    key whose sum cancels leaves at once, and a later sum brings it back
    last.  True when some key of ``part`` was already in ``terms``."""
    get = terms.get
    met = False
    for k, (a, b) in part.items():
        if s != 1:
            a *= s
            b *= s
        acc = get(k)
        if acc is None:
            terms[k] = a, b
        else:
            met = True
            a += acc[0]
            b += acc[1]
            if a or b:
                terms[k] = a, b
            else:
                del terms[k]
    return met


def _add(left: dict, ld: int, right: dict, rd: int) -> tuple[dict, int]:
    """``left / ld + right / rd`` over ``lcm(ld, rd)``, with the left's keys
    in order and then the right's new ones.  Both operands are reduced, so
    when no key meets, the content is already one (a prime power that
    exactly divides the lcm exactly divides ``ld`` or ``rd``, whose
    numerators it then does not divide); else :func:`_content` reduces."""
    g = gcd(ld, rd)
    s = rd // g
    terms = dict(left) if s == 1 else {k: (a * s, b * s) for k, (a, b) in left.items()}
    met = _accumulate(terms, right, ld // g)
    return _content(terms, ld * s) if met else (terms, ld * s)


def _sum(parts: list) -> tuple[dict, int]:
    """The sum of ``(terms, den)`` parts in order, as one :func:`_add` after
    another would give it, summed in one dict over the lcm of every
    denominator."""
    den = 1
    for _, d in parts:
        den = lcm(den, d)
    terms: dict = {}
    for part, d in parts:
        _accumulate(terms, part, den // d)
    return _content(terms, den)


def _times(terms: dict, den: int, q: "QC") -> tuple[dict, int]:
    """``(terms, den)`` times a nonzero QC, content-reduced."""
    c, e, f = q._a, q._b, q._d
    return _content({k: (a * c - b * e, a * e + b * c) for k, (a, b) in terms.items()},
                    den * f)


def _eval_terms(plans: list, nums, den: int, values: list, pole) -> "QC":
    """The sum over terms of ``(re + i*im) / den * prod(values[j] ** e for
    (j, e) in plan)``, for numerator pairs ``nums``, QC ``values`` and
    nonzero exponents.  Each power ``(j, e)`` is taken once, when a term
    first uses it, and ``pole(j, e)`` is raised when a negative exponent
    first meets a zero value.  Terms stay unreduced triples over the powers'
    denominators; the sum puts each one over the lcm of the denominators so
    far, and the one :func:`_reduced` over that lcm times ``den`` gives the
    value's one reduced triple."""
    vals = [(v._a, v._b, v._d) for v in values]
    powers: dict[tuple[int, int], tuple[int, int, int]] = {}
    ta, tb, td = 0, 0, 1
    for plan, (a, b) in zip(plans, nums):
        d = 1
        for je in plan:
            p = powers.get(je)
            if p is None:
                j, e = je
                va, vb, vd = p = vals[j]
                if e < 0 and not (va or vb):
                    raise pole(j, e)
                if e != 1:
                    p = _power_triple(va, vb, vd, e)
                powers[je] = p
            pa, pb, pd = p
            a, b, d = a * pa - b * pb, a * pb + b * pa, d * pd
        if d != td:
            g = gcd(td, d)
            s, t = d // g, td // g
            ta, tb, a, b, td = ta * s, tb * s, a * t, b * t, td * s
        ta += a
        tb += b
    return _reduced(ta, tb, td * den)


def _affine(c, w, row) -> "QC | None":
    """``c + sum(w[j] * row[j])`` for sequences ``w`` and ``row`` of one
    length, or None when ``c`` or an entry is not a QC.  Each product stays
    an unreduced triple (a zero ``w[j]`` adds nothing), the sum puts each
    one over the lcm of the denominators so far, and the one
    :func:`_reduced` at the end gives the value's one reduced triple."""
    if type(c) is not QC:
        return None
    ta, tb, td = c._a, c._b, c._d
    for p, q in zip(w, row, strict=True):
        if type(p) is not QC or type(q) is not QC:
            return None
        a, b = p._a, p._b
        if not (a or b):
            continue
        e, f = q._a, q._b
        a, b, d = a * e - b * f, a * f + b * e, p._d * q._d
        if d != td:
            g = gcd(td, d)
            s, t = d // g, td // g
            ta, tb, a, b, td = ta * s, tb * s, a * t, b * t, td * s
        ta += a
        tb += b
    return _reduced(ta, tb, td)


class QC:
    """A complex number with exact rational real and imaginary parts.

    Values are immutable: ``re`` and ``im`` are read-only, and the stored
    triple is never changed after construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = _coerce_part(re)
        im = _coerce_part(im)
        rd, id_ = re.denominator, im.denominator
        d = lcm(rd, id_)
        # both parts are in lowest terms, so the triple is already reduced
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- conversions ---------------------------------------------------

    def __complex__(self) -> complex:
        # int true division is correctly rounded, like float(Fraction)
        return complex(self._a / self._d, self._b / self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conj(self) -> "QC":
        return _raw(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, (float, complex)):
            raise VariantError(
                "cannot mix exact scalars with binary floats; "
                "convert with complex(q) at the edge instead"
            )
        return exact(other)

    def __add__(self, other):
        if type(other) is not QC:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QC:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not QC:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "QC":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of exact zero")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, QC_ONE)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is not QC:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(Fraction(self._a, self._d))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"QC({self.re}, {self.im})"

    # -- text form used by the file format -------------------------------

    def part_strings(self) -> tuple[str, str]:
        """Render as two exact ``p/q`` strings (``q`` omitted when 1)."""
        return str(self.re), str(self.im)


QC_ONE = QC(1)


def exact(value) -> QC | None:
    """``value`` as a QC when it is exact (a QC, an int or a Fraction), else
    None.  This is the package's one test of what counts as exact."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    return None


def _exact_all(values):
    """``values`` as QCs when every one is exact, by :func:`exact`, else
    None.  All-QC values come back as they are."""
    if all(type(v) is QC for v in values):
        return values
    lifted = []
    for v in values:
        q = exact(v)
        if q is None:
            return None
        lifted.append(q)
    return lifted
