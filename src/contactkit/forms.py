"""Differential forms on C^m with mixed holomorphic/antiholomorphic legs.

A form of degree k is a finite sum of terms ``c * d?_{i1} ^ ... ^ d?_{ik}``
over strictly increasing covector words.  Covectors are indexed 0..2m-1:
index ``i < m`` is ``dz_{i+1}`` and index ``m + i`` is ``dzbar_{i+1}``.
Coefficients are either exact Laurent polynomials or expression trees;
the two variants never mix silently.  Only ``coefficients`` knows which
kind it holds: this module asks every coefficient the same questions
(evaluate, differentiate, negate, ``is_zero``) and never checks its type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .coefficients import (
    Coefficient,
    Const,
    LaurentPoly,
    coefficient_variant,
    emul,
)
from .errors import DimensionError, VariantError
from .scalars import QC

Word = tuple[int, ...]


def merge_words(u: Word, w: Word) -> tuple[Word | None, int]:
    """Merge two increasing covector words, tracking the wedge sign.

    Returns ``(None, 0)`` when the words share a covector.
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
    return f"dz{idx + 1}" if idx < m else f"dzbar{idx - m + 1}"


def covector_index(name: str, m: int) -> int:
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
        exact = True
        for v in values:
            if isinstance(v, QC):
                vals.append(v)
            elif isinstance(v, (int, Fraction)):
                vals.append(QC(v))
            elif isinstance(v, (float, complex)):
                vals.append(complex(v))
                exact = False
            else:
                raise VariantError(f"bad coordinate type {type(v).__name__}")
        self.values = tuple(vals)
        self.is_exact = exact

    @property
    def m(self) -> int:
        return len(self.values)

    def as_complex(self) -> tuple[complex, ...]:
        return tuple(complex(v) for v in self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"Point({list(self.values)!r})"


class Form:
    """A degree-k differential form with a fixed coefficient variant."""

    __slots__ = ("m", "degree", "terms", "variant")

    def __init__(self, m: int, degree: int, terms: dict[Word, Coefficient] | None = None,
                 variant: str | None = None):
        if m < 1:
            raise DimensionError("need m >= 1")
        if not 0 <= degree <= 2 * m:
            raise DimensionError(f"degree {degree} out of range for m={m}")
        clean: dict[Word, Coefficient] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
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
        return cls(m, 1, {(i,): LaurentPoly.const(m, 1)})

    @classmethod
    def one_form(cls, coeffs: list[Coefficient], m: int | None = None) -> "Form":
        """Build ``sum_i coeffs[i] dz_{i+1}`` from holomorphic-leg coefficients."""
        m = m if m is not None else len(coeffs)
        return cls(m, 1, {(i,): c for i, c in enumerate(coeffs)})

    def zero_coeff(self) -> Coefficient:
        return LaurentPoly.zero(self.m) if self.variant == "laurent" else Const(0j)

    def coeff(self, word: Word) -> Coefficient:
        return self.terms.get(tuple(word), self.zero_coeff())

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
            if word in terms:
                terms[word] = terms[word] + coeff
            else:
                terms[word] = coeff
        return Form(self.m, self.degree, terms, self.variant)

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "Form":
        """Multiply by a scalar (exact for laurent forms, numeric for expr)."""
        if self.variant == "laurent":
            if isinstance(s, (float, complex)):
                raise VariantError("scaling an exact form by a float; convert with to_expr()")
            return Form(self.m, self.degree,
                        {w: c * s for w, c in self.terms.items()}, self.variant)
        return Form(self.m, self.degree,
                    {w: emul(Const(complex(s)), c) for w, c in self.terms.items()},
                    self.variant)

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    # -- conversions --------------------------------------------------------

    def to_expr(self) -> "Form":
        if self.variant == "expr":
            return self
        return Form(self.m, self.degree,
                    {w: c.to_expr() for w, c in self.terms.items()}, "expr")

    # -- structure queries -----------------------------------------------------

    def pq_part(self, p: int, q: int) -> "Form":
        """The part whose words use exactly p holomorphic and q
        antiholomorphic covectors."""
        if p + q != self.degree:
            raise DimensionError(f"p+q = {p + q} != degree {self.degree}")
        terms = {}
        for word, coeff in self.terms.items():
            holo = sum(1 for idx in word if idx < self.m)
            if holo == p:
                terms[word] = coeff
        return Form(self.m, self.degree, terms, self.variant)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if (self.m, self.degree, self.variant) != (other.m, other.degree, other.variant):
            return False
        words = set(self.terms) | set(other.terms)
        return all(self.coeff(w) == other.coeff(w) for w in words)

    def __hash__(self):  # pragma: no cover - forms rarely used as keys
        return hash((self.m, self.degree, self.variant, frozenset(self.terms)))

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
        """Evaluate every coefficient at ``pt``.

        Keys are covector words; missing words are zero.  Exact Laurent
        coefficients at exact points give exact values.
        """
        if pt.m != self.m:
            raise DimensionError("point dimension mismatch")
        out = {}
        for word, coeff in self.terms.items():
            val = coeff.eval(pt.values)
            if not (isinstance(val, QC) and val.is_zero):
                out[word] = val
        return out

    def coefficient_at(self, pt: Point, word: Word):
        return self.coeff(word).eval(pt.values)

    def top_word(self) -> Word:
        """The holomorphic volume word ``dz1^...^dzm``."""
        return tuple(range(self.m))

    def covector_at(self, pt: Point) -> tuple:
        """Degree-1 helper: the 2m covector components at ``pt``."""
        if self.degree != 1:
            raise DimensionError("covector_at applies to 1-forms")
        return tuple(self.coefficient_at(pt, (i,)) for i in range(2 * self.m))


def wedge(f: Form, g: Form) -> Form:
    """Exterior product.  Bilinear, associative, graded-anticommutative."""
    if f.m != g.m:
        raise DimensionError("forms live on different spaces")
    if f.variant != g.variant:
        raise VariantError("wedge requires a common coefficient variant")
    degree = f.degree + g.degree
    if degree > 2 * f.m:
        return Form.zero(f.m, 2 * f.m, f.variant)
    terms: dict[Word, Coefficient] = {}
    for wu, cu in f.terms.items():
        for wv, cv in g.terms.items():
            word, sign = merge_words(wu, wv)
            if word is None:
                continue
            coeff = cu * cv if sign > 0 else -(cu * cv)
            if word in terms:
                terms[word] = terms[word] + coeff
            else:
                terms[word] = coeff
    return Form(f.m, degree, terms, f.variant)


def wedge_power(f: Form, n: int) -> Form:
    """n-fold wedge of a form with itself (n >= 1)."""
    if n < 1:
        raise DimensionError("wedge_power needs n >= 1")
    acc = f
    for _ in range(n - 1):
        acc = wedge(acc, f)
    return acc


def _wirtinger_d(f: Form, holomorphic: bool) -> Form:
    """Sum over terms c dw and i of (dc/dzbar_i) dzbar_i ^ dw, plus
    (dc/dz_i) dz_i ^ dw when ``holomorphic`` is set."""
    m = f.m
    degree = f.degree + 1
    if degree > 2 * m:
        return Form.zero(m, 2 * m, f.variant)
    terms: dict[Word, Coefficient] = {}
    for word, coeff in f.terms.items():
        for i in range(m):
            for idx in (i, m + i) if holomorphic else (m + i,):
                merged, sign = merge_words((idx,), word)
                if merged is None:
                    continue
                dc = coeff.diff_z(i) if idx < m else coeff.diff_zbar(i)
                if dc.is_zero:
                    continue
                if sign < 0:
                    dc = -dc
                terms[merged] = terms[merged] + dc if merged in terms else dc
    return Form(m, degree, terms, f.variant)


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
    """A map C^m_src -> C^m_dst with coefficient components.

    The holomorphy flag is recomputed from the components, never stored.
    """

    __slots__ = ("m_src", "m_dst", "components", "variant")

    def __init__(self, m_src: int, components: list[Coefficient]):
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
        return cls(m, [LaurentPoly.z(m, i) for i in range(m)])

    @property
    def holomorphic(self) -> bool:
        return not any(c.has_zbar for c in self.components)

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

    comps = F.components
    conj_comps = [c.conj() for c in comps]

    def differential(c: Coefficient) -> Form:
        terms = {}
        for i in range(m_src):
            terms[(i,)] = c.diff_z(i)
            terms[(m_src + i,)] = c.diff_zbar(i)
        return Form(m_src, 1, terms, F.variant)

    d_cov = {}
    for j in range(m_dst):
        d_cov[j] = differential(comps[j])
        d_cov[m_dst + j] = differential(conj_comps[j])

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
        if acc.degree != f.degree:
            raise DimensionError("internal: pullback degree drift")
        result = result + acc
    return result
