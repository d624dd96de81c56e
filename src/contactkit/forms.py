"""Differential forms on C^m with mixed holomorphic/antiholomorphic legs.

A form of degree k is a finite sum of terms ``c * d?_{i1} ^ ... ^ d?_{ik}``
over strictly increasing covector words.  Covectors are indexed 0..2m-1:
index ``i < m`` is ``dz_{i+1}`` and index ``m + i`` is ``dzbar_{i+1}``.
Coefficients are either exact Laurent polynomials or expression trees;
the two variants never mix silently.  Only ``coefficients`` knows which
kind it holds: this module asks every coefficient the same questions
(evaluate, differentiate or multiply times a wedge sign, negate,
``is_zero``, which ``variables`` it has) and never checks its type.
``Form(m, degree, terms)`` checks outside data.  Every result of an
operation on forms is built by ``_form``, which skips the re-checks; sums,
wedges and ``d`` add their terms through one ``_sum_into``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .coefficients import (Coefficient, Const, LaurentPoly, _coordinate, _zero_at,
                           coefficient_variant)
from .errors import DimensionError, VariantError, _count
from .scalars import exact

Word = tuple[int, ...]


@lru_cache(maxsize=4096)
def merge_words(u: Word, w: Word) -> tuple[Word | None, int]:
    """Merge two increasing covector words, tracking the wedge sign.

    Returns ``(None, 0)`` when the words share a covector.  The result
    depends only on the two words, so each pair is merged once per process;
    the cache holds at most 4096 pairs.
    """
    i, j = 0, 0
    sign = 1
    out: list[int] = []
    while i < len(u) and j < len(w):
        if u[i] == w[j]:
            return None, 0
        if u[i] < w[j]:
            out.append(u[i])
            i += 1
        else:
            out.append(w[j])
            j += 1
            if (len(u) - i) % 2:
                sign = -sign
    out.extend(u[i:])
    out.extend(w[j:])
    return tuple(out), sign


def covector_name(idx: int, m: int) -> str:
    if _count(idx, "covector index idx", 0) >= 2 * _count(m, "dimension m", 1):
        raise DimensionError(f"covector index {idx} out of range for m={m}")
    return f"dz{idx + 1}" if idx < m else f"dzbar{idx - m + 1}"


def covector_index(name: str, m: int) -> int:
    _count(m, "dimension m", 1)
    if name.startswith("dzbar"):
        i = int(name[5:]) - 1
        base = m
    elif name.startswith("dz"):
        i = int(name[2:]) - 1
        base = 0
    else:
        raise DimensionError(f"unknown covector name {name!r}")
    if not 0 <= i < m:
        raise DimensionError(f"covector {name!r} out of range for m={m}")
    return base + i


class Point:
    """An evaluation point in C^m.  Exact when every coordinate is exact."""

    __slots__ = ("values", "is_exact")

    def __init__(self, values: Iterable):
        vals = []
        is_exact = True
        for v in values:
            q = exact(v)
            if q is not None:
                vals.append(q)
            elif isinstance(v, (float, complex)):
                vals.append(complex(v))
                is_exact = False
            else:
                raise VariantError(f"bad coordinate type {type(v).__name__}")
        self.values = tuple(vals)
        self.is_exact = is_exact

    @property
    def m(self) -> int:
        return len(self.values)

    def as_complex(self) -> tuple[complex, ...]:
        return tuple(complex(v) for v in self.values)

    def __repr__(self):
        return f"Point({list(self.values)!r})"


def _sum_into(terms: dict[Word, Coefficient], word: Word, coeff: Coefficient):
    """Add ``coeff`` to the term keyed ``word``; ``_form`` drops it if it cancels."""
    acc = terms.get(word)
    terms[word] = coeff if acc is None else acc + coeff


def _form(m: int, degree: int, terms: dict[Word, Coefficient], variant: str) -> "Form":
    """A ring result, built without the constructor's checks."""
    f = object.__new__(Form)
    f.m = m
    f.degree = degree
    f.terms = {w: c for w, c in terms.items() if not c.is_zero}
    f.variant = variant
    return f


class Form:
    """A degree-k differential form with a fixed coefficient variant."""

    __slots__ = ("m", "degree", "terms", "variant")

    def __init__(self, m: int, degree: int, terms: dict[Word, Coefficient] | None = None,
                 variant: str | None = None):
        _count(m, "dimension m", 1)
        if _count(degree, "degree", 0) > 2 * m:
            raise DimensionError(f"degree {degree} out of range for m={m}")
        clean: dict[Word, Coefficient] = {}
        for word, coeff in (terms or {}).items():
            try:
                word = tuple(word)
            except TypeError:
                raise DimensionError(f"covector word {word!r} is not a tuple") from None
            what = f"covector word {word!r} index"
            for w in word:
                _count(w, what)
            if len(word) != degree:
                raise DimensionError(f"word {word} has length != degree {degree}")
            if any(word[i] >= word[i + 1] for i in range(len(word) - 1)):
                raise DimensionError(f"covector word {word} is not strictly increasing")
            if word and (word[0] < 0 or word[-1] >= 2 * m):
                raise DimensionError(f"covector word {word} out of range for m={m}")
            cv = coefficient_variant(coeff)
            if variant is None:
                variant = cv
            elif variant != cv:
                raise VariantError("mixed coefficient variants in one form")
            if cv == "laurent" and coeff.m != m:
                raise DimensionError("coefficient variable count != m")
            if not coeff.is_zero:
                clean[word] = coeff
        self.m = m
        self.degree = degree
        self.terms = clean
        self.variant = variant or "laurent"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, degree: int = 0, variant: str = "laurent") -> "Form":
        return cls(m, degree, {}, variant)

    @classmethod
    def scalar(cls, m: int, coeff: Coefficient) -> "Form":
        return cls(m, 0, {(): coeff})

    @classmethod
    def dz(cls, m: int, i: int) -> "Form":
        """Basis covector ``dz_{i+1}`` (0-based ``i``)."""
        one = LaurentPoly.const(m, 1)  # refuses a bad m before i is compared with it
        return cls(m, 1, {(_coordinate(m, i),): one})

    def zero_coeff(self) -> Coefficient:
        return LaurentPoly.zero(self.m) if self.variant == "laurent" else Const(0j)

    def coeff(self, word: Word) -> Coefficient:
        """The coefficient of ``word``; a zero is built only for a missing word."""
        c = self.terms.get(tuple(word))
        return self.zero_coeff() if c is None else c

    # -- linear structure -----------------------------------------------------

    def _check_compatible(self, other: "Form"):
        if self.m != other.m:
            raise DimensionError("forms live on different spaces")
        if self.degree != other.degree:
            raise DimensionError("cannot add forms of different degree")
        if self.variant != other.variant:
            raise VariantError(
                "cannot combine laurent and expr forms; convert explicitly with to_expr()"
            )

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            _sum_into(terms, word, coeff)
        return _form(self.m, self.degree, terms, self.variant)

    def __neg__(self) -> "Form":
        return _form(self.m, self.degree, {w: -c for w, c in self.terms.items()}, self.variant)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "Form":
        """Multiply by a scalar through the ring's reflected ``*``: exact
        for laurent forms, which refuse a float, and numeric for expr."""
        return _form(self.m, self.degree, {w: s * c for w, c in self.terms.items()},
                     self.variant)

    # -- conversions --------------------------------------------------------

    def to_expr(self) -> "Form":
        if self.variant == "expr":
            return self
        return _form(self.m, self.degree, {w: c.to_expr() for w, c in self.terms.items()},
                     "expr")

    # -- structure queries -----------------------------------------------------

    def pq_part(self, p: int, q: int) -> "Form":
        """The part whose words use exactly p holomorphic and q
        antiholomorphic covectors."""
        if _count(p, "p", 0) + _count(q, "q", 0) != self.degree:
            raise DimensionError(f"p+q = {p + q} != degree {self.degree}")
        terms = {}
        for word, coeff in self.terms.items():
            holo = sum(1 for idx in word if idx < self.m)
            if holo == p:
                terms[word] = coeff
        return _form(self.m, self.degree, terms, self.variant)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        # neither build path stores a zero coefficient
        return ((self.m, self.degree, self.variant) == (other.m, other.degree, other.variant)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, self.degree, self.variant, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return f"Form<0, m={self.m}, deg={self.degree}>"
        parts = []
        for word, coeff in self.sorted_terms():
            basis = "^".join(covector_name(i, self.m) for i in word) or "1"
            parts.append(f"({coeff!r}) {basis}")
        return " + ".join(parts)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, pt: Point) -> dict[Word, object]:
        """Every word's value at ``pt``; a missing word reads as ``_zero_value``.
        Exact Laurent coefficients at exact points give exact values."""
        if pt.m != self.m:
            raise DimensionError("point dimension mismatch")
        return {word: coeff.eval(pt.values) for word, coeff in self.terms.items()}

    def _zero_value(self, pt: Point):
        """A missing word's value at ``pt``: ``zero_coeff().eval(pt.values)``, unbuilt."""
        return _zero_at(self.m, pt.values) if self.variant == "laurent" else 0j

    def coefficient_at(self, pt: Point, word: Word):
        c = self.terms.get(tuple(word))
        return self._zero_value(pt) if c is None else c.eval(pt.values)

    def covector_at(self, pt: Point) -> tuple:
        """Degree-1 helper: the 2m covector components at ``pt``."""
        if self.degree != 1:
            raise DimensionError("covector_at applies to 1-forms")
        zero = self._zero_value(pt)
        get = self.terms.get
        return tuple(zero if (c := get((i,))) is None else c.eval(pt.values)
                     for i in range(2 * self.m))


def wedge(f: Form, g: Form) -> Form:
    """Exterior product.  Bilinear, associative, graded-anticommutative."""
    if f.m != g.m:
        raise DimensionError("forms live on different spaces")
    if f.variant != g.variant:
        raise VariantError("wedge requires a common coefficient variant")
    degree = f.degree + g.degree
    if degree > 2 * f.m:
        return _form(f.m, 2 * f.m, {}, f.variant)
    terms: dict[Word, Coefficient] = {}
    for wu, cu in f.terms.items():
        for wv, cv in g.terms.items():
            word, sign = merge_words(wu, wv)
            if word is None:
                continue
            _sum_into(terms, word, cu._signed_mul(cv, sign))
    return _form(f.m, degree, terms, f.variant)


def wedge_power(f: Form, n: int) -> Form:
    """n-fold wedge of a form with itself (n >= 1)."""
    acc = f
    for _ in range(_count(n, "wedge power n", 1) - 1):
        acc = wedge(acc, f)
    return acc


def _covector_derivative(c: Coefficient, idx: int, m: int, sign: int) -> Coefficient:
    """``sign`` (1 or -1) times the derivative of ``c`` along covector
    ``idx``: d/dz_(idx+1) for ``idx < m``, else d/dzbar_(idx-m+1).  The
    ring applies the sign as it takes the derivative."""
    return c._signed_diff(idx, False, sign) if idx < m else c._signed_diff(idx - m, True, sign)


@lru_cache(maxsize=256)
def _slots(mask: int, m: int, holomorphic: bool) -> tuple[int, ...]:
    """The covectors of a ``variables()`` mask that ``d`` (``holomorphic``)
    or dbar differentiates along, dz_i then dzbar_i for each i in turn.
    They depend only on the key, so each tuple is built once per process;
    the cache holds at most 256 keys."""
    pairs = ((i, m + i) if holomorphic else (m + i,) for i in range(m))
    return tuple(idx for pair in pairs for idx in pair if mask >> idx & 1)


def _wirtinger_d(f: Form, holomorphic: bool) -> Form:
    """Sum over terms c dw and i of (dc/dzbar_i) dzbar_i ^ dw, plus
    (dc/dz_i) dz_i ^ dw when ``holomorphic`` is set.  Each coefficient is
    asked once which variables it has (``variables()``, a bitmask in
    covector numbering), only those derivatives are taken, and each is
    taken with its wedge sign."""
    m = f.m
    degree = f.degree + 1
    if degree > 2 * m:
        return _form(m, 2 * m, {}, f.variant)
    terms: dict[Word, Coefficient] = {}
    for word, coeff in f.terms.items():
        for idx in _slots(coeff.variables(), m, holomorphic):
            merged, sign = merge_words((idx,), word)
            if merged is None:
                continue
            dc = _covector_derivative(coeff, idx, m, sign)
            if dc.is_zero:
                continue
            _sum_into(terms, merged, dc)
    return _form(m, degree, terms, f.variant)


def ext_d(f: Form) -> Form:
    """Exterior derivative, split over both Wirtinger directions.

    d(c dw) = sum_i (dc/dz_i) dz_i ^ dw + (dc/dzbar_i) dzbar_i ^ dw.
    """
    return _wirtinger_d(f, True)


def dee_bar(f: Form) -> Form:
    """The antiholomorphic half of the exterior derivative.

    Takes only the dzbar_i legs of d, so a (p, q) term contributes its
    (p, q+1) derivative part; forms mixing bidegrees need no splitting.
    """
    return _wirtinger_d(f, False)


class PolyMap:
    """A map C^m_src -> C^m_dst with coefficient components."""

    __slots__ = ("m_src", "m_dst", "components", "variant")

    def __init__(self, m_src: int, components: list[Coefficient]):
        _count(m_src, "source dimension m_src", 1)
        if not components:
            raise DimensionError("a map needs at least one component")
        variants = {coefficient_variant(c) for c in components}
        if len(variants) != 1:
            raise VariantError("map components must share one coefficient variant")
        self.variant = variants.pop()
        if self.variant == "laurent":
            for c in components:
                if c.m != m_src:
                    raise DimensionError("component variable count != source dimension")
        self.m_src = m_src
        self.m_dst = len(components)
        self.components = list(components)

    @classmethod
    def identity(cls, m: int) -> "PolyMap":
        return cls(m, [LaurentPoly.z(m, i) for i in range(_count(m, "dimension m", 1))])

    def to_expr(self) -> "PolyMap":
        if self.variant == "expr":
            return self
        return PolyMap(self.m_src, [c.to_expr() for c in self.components])

    def evaluate(self, pt: Point) -> Point:
        if pt.m != self.m_src:
            raise DimensionError("point dimension mismatch")
        return Point([c.eval(pt.values) for c in self.components])

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner: ``(self . inner)(z) = self(inner(z))``."""
        if inner.m_dst != self.m_src:
            raise DimensionError("composition dimensions do not match")
        outer = self
        if self.variant == "expr" or inner.variant == "expr":
            outer, inner = self.to_expr(), inner.to_expr()
        return PolyMap(inner.m_src, [c.substitute(inner.components) for c in outer.components])

    def __repr__(self):
        return f"PolyMap({self.m_src}->{self.m_dst}, {self.variant})"


def pullback(F: PolyMap, f: Form) -> Form:
    """Pull a form on the target space back along ``F``.

    Exact when both the map and the form are Laurent and every negative
    target exponent composes with an invertible (monomial) component;
    expression maps always produce expression forms.
    """
    if F.m_dst != f.m:
        raise DimensionError(f"map hits C^{F.m_dst} but form lives on C^{f.m}")
    if F.variant == "expr" or f.variant == "expr":
        F = F.to_expr()
        f = f.to_expr()
    m_src = F.m_src
    m_dst = F.m_dst
    if f.degree > 2 * m_src:
        raise DimensionError(f"degree {f.degree} out of range for m={m_src}")
    comps = F.components

    # d of each pulled-back covector the words use: dz_j, or dzbar_j
    d_cov = {idx: ext_d(_form(m_src, 0, {(): comps[idx] if idx < m_dst
                                          else comps[idx - m_dst].conj()}, F.variant))
             for idx in {i for word in f.terms for i in word}}

    terms: dict[Word, Coefficient] = {}
    for word, coeff in f.terms.items():
        try:
            pulled = coeff.substitute(comps)
        except VariantError as exc:
            raise VariantError(
                "pullback left the Laurent ring (negative exponent of a "
                "non-monomial component); convert the map or form with "
                "to_expr() first"
            ) from exc
        acc = _form(m_src, 0, {(): pulled}, F.variant)
        for idx in word:
            acc = wedge(acc, d_cov[idx])
        for w, c in acc.terms.items():
            _sum_into(terms, w, c)
            if terms[w].is_zero:
                # a word that cancels here re-enters last if a later word
                # brings it back, as in a sum of the per-word forms
                del terms[w]
    return _form(m_src, f.degree, terms, F.variant)
