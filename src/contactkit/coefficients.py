"""Coefficient rings for differential forms on C^m.

Two coefficient representations share one informal interface (add,
multiply, differentiate, conjugate, evaluate, substitute):

* :class:`LaurentPoly` — finite sums of monomials ``z^a * zbar^b`` with
  exact :class:`~contactkit.scalars.QC` coefficients and integer (possibly
  negative) exponents.  The variables ``z_i`` and ``zbar_i`` are formally
  independent, so both Wirtinger derivatives are exact term operations;
  conjugation at evaluation time is what ties ``zbar_i`` to ``conj(z_i)``.

* :class:`Expr` — a small expression tree (constants, variables, a real
  parameter ``t``, sums, products, integer powers, exp, sin, cos, sqrt)
  with formally differentiated derivative trees and numeric evaluation.
  No simplification is performed beyond constant folding.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionError, PoleError, VariantError
from .scalars import QC, QC_ONE

_EXACT_SCALARS = (int, Fraction, QC)


def _reject_float(other):
    if isinstance(other, (float, complex)):
        raise VariantError(
            "cannot mix an exact Laurent polynomial with binary floats"
        )


def _as_qc(value) -> QC:
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    raise VariantError(f"expected an exact scalar, got {type(value).__name__}")


class Monomial(NamedTuple):
    """Exponent vectors of one mixed monomial ``z^zexp * zbar^zbarexp``."""

    zexp: tuple[int, ...]
    zbarexp: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.zexp)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.zexp, other.zexp)),
            tuple(a + b for a, b in zip(self.zbarexp, other.zbarexp)),
        )

    def conj(self) -> "Monomial":
        return Monomial(self.zbarexp, self.zexp)

    @classmethod
    def one(cls, m: int) -> "Monomial":
        return cls((0,) * m, (0,) * m)


class LaurentPoly:
    """Exact Laurent polynomial in ``z_1..z_m`` and ``zbar_1..zbar_m``."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[Monomial, QC] | None = None):
        if m < 1:
            raise DimensionError("need at least one variable")
        clean: dict[Monomial, QC] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono.zexp) != m or len(mono.zbarexp) != m:
                raise DimensionError(f"monomial arity {len(mono.zexp)} != m={m}")
            coeff = _as_qc(coeff)
            if not coeff.is_zero:
                clean[mono] = coeff
        self.m = m
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "LaurentPoly":
        return cls(m)

    @classmethod
    def const(cls, m: int, value) -> "LaurentPoly":
        return cls(m, {Monomial.one(m): _as_qc(value)})

    @classmethod
    def z(cls, m: int, i: int, power: int = 1) -> "LaurentPoly":
        """The coordinate ``z_i`` (0-based ``i``), optionally to a power."""
        ze = [0] * m
        ze[i] = power
        return cls(m, {Monomial(tuple(ze), (0,) * m): QC_ONE})

    @classmethod
    def zbar(cls, m: int, i: int, power: int = 1) -> "LaurentPoly":
        zb = [0] * m
        zb[i] = power
        return cls(m, {Monomial((0,) * m, tuple(zb)): QC_ONE})

    # -- ring structure ---------------------------------------------------

    def _check_same(self, other: "LaurentPoly"):
        if self.m != other.m:
            raise DimensionError(f"variable count mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if isinstance(other, _EXACT_SCALARS):
            other = LaurentPoly.const(self.m, other)
        if not isinstance(other, LaurentPoly):
            _reject_float(other)
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            total = coeff if acc is None else acc + coeff
            if total.is_zero:
                terms.pop(mono, None)
            else:
                terms[mono] = total
        return LaurentPoly(self.m, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.m, {mo: -c for mo, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _EXACT_SCALARS):
            other = LaurentPoly.const(self.m, other)
        if not isinstance(other, LaurentPoly):
            _reject_float(other)
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _EXACT_SCALARS):
            s = _as_qc(other)
            if s.is_zero:
                return LaurentPoly.zero(self.m)
            return LaurentPoly(self.m, {mo: c * s for mo, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            _reject_float(other)
            return NotImplemented
        self._check_same(other)
        terms: dict[Monomial, QC] = {}
        for mo1, c1 in self.terms.items():
            for mo2, c2 in other.terms.items():
                mo = mo1.mul(mo2)
                c = c1 * c2
                acc = terms.get(mo)
                total = c if acc is None else acc + c
                if total.is_zero:
                    terms.pop(mo, None)
                else:
                    terms[mo] = total
        return LaurentPoly(self.m, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = LaurentPoly.const(self.m, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Invert a single-term Laurent polynomial (the ring units)."""
        if len(self.terms) != 1:
            raise VariantError(
                "only monomials are invertible in the Laurent ring; "
                f"got {len(self.terms)} terms"
            )
        (mono, coeff), = self.terms.items()
        inv = Monomial(tuple(-e for e in mono.zexp), tuple(-e for e in mono.zbarexp))
        return LaurentPoly(self.m, {inv: coeff.inverse()})

    # -- calculus ----------------------------------------------------------

    def _diff(self, i: int, bar: bool) -> "LaurentPoly":
        """Formal derivative in ``zbar_i`` if ``bar`` else ``z_i`` (0-based)."""
        terms: dict[Monomial, QC] = {}
        for mono, coeff in self.terms.items():
            exps = mono.zbarexp if bar else mono.zexp
            e = exps[i]
            if e == 0:
                continue
            exps = list(exps)
            exps[i] = e - 1
            new = Monomial(mono.zexp, tuple(exps)) if bar else Monomial(tuple(exps), mono.zbarexp)
            c = coeff * e
            acc = terms.get(new)
            terms[new] = c if acc is None else acc + c
        return LaurentPoly(self.m, terms)

    def diff_z(self, i: int) -> "LaurentPoly":
        """Formal derivative with respect to ``z_i`` (0-based)."""
        return self._diff(i, False)

    def diff_zbar(self, i: int) -> "LaurentPoly":
        """Formal derivative with respect to ``zbar_i`` (0-based)."""
        return self._diff(i, True)

    def conj(self) -> "LaurentPoly":
        """Formal conjugate: swaps ``z``/``zbar`` exponents, conjugates
        coefficients.  Compatible with evaluation-time conjugation."""
        return LaurentPoly(self.m, {mo.conj(): c.conj() for mo, c in self.terms.items()})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_zbar(self) -> bool:
        return any(any(mo.zbarexp) for mo in self.terms)

    @property
    def has_negative_exponent(self) -> bool:
        return any(
            any(e < 0 for e in mo.zexp) or any(e < 0 for e in mo.zbarexp)
            for mo in self.terms
        )

    def constant_value(self) -> QC:
        """The coefficient of the constant monomial."""
        return self.terms.get(Monomial.one(self.m), QC(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].zexp, kv[0].zbarexp))

    # -- evaluation / substitution --------------------------------------------

    def eval(self, zvalues):
        """Evaluate at a point, with ``zbar_i`` read as ``conj(z_i)``.

        With exact (QC) coordinates the result is an exact QC; with complex
        coordinates it is a Python complex.  Raises PoleError when a negative
        exponent meets a zero coordinate.
        """
        if len(zvalues) != self.m:
            raise DimensionError("point arity mismatch")
        exact = all(isinstance(v, QC) for v in zvalues)
        if exact:
            zs = list(zvalues)
            total = QC(0)
        else:
            zs = [complex(v) for v in zvalues]
            total = 0j
        for mono, coeff in self.terms.items():
            term = coeff if exact else complex(coeff)
            for i in range(self.m):
                for e, val in ((mono.zexp[i], zs[i]), (mono.zbarexp[i], zs[i].conj() if exact else zs[i].conjugate())):
                    if e == 0:
                        continue
                    if e < 0 and not val:
                        raise PoleError(f"coordinate z_{i + 1} = 0 hit exponent {e}")
                    term = term * val ** e
            total = total + term
        return total

    def substitute(self, args: list["LaurentPoly"]) -> "LaurentPoly":
        """Compose: plug ``args[i]`` in for ``z_i`` and ``conj(args[i])``
        for ``zbar_i``.  Negative exponents require monomial arguments."""
        if len(args) != self.m:
            raise DimensionError("substitution arity mismatch")
        m_src = args[0].m
        if any(g.m != m_src for g in args):
            raise DimensionError("substitution arguments live in different rings")
        cache: dict[tuple[int, bool, int], LaurentPoly] = {}

        def power(i: int, conjugated: bool, e: int) -> LaurentPoly:
            key = (i, conjugated, e)
            got = cache.get(key)
            if got is None:
                base = args[i].conj() if conjugated else args[i]
                got = cache[key] = base ** e
            return got

        total = LaurentPoly.zero(m_src)
        for mono, coeff in self.terms.items():
            term = LaurentPoly.const(m_src, coeff)
            for i in range(self.m):
                if mono.zexp[i]:
                    term = term * power(i, False, mono.zexp[i])
                if mono.zbarexp[i]:
                    term = term * power(i, True, mono.zbarexp[i])
            total = total + term
        return total

    def to_expr(self) -> "Expr":
        """Promote to an expression tree (explicit, never implicit)."""
        parts = []
        for mono, coeff in self.sorted_terms():
            factors: list[Expr] = [Const(complex(coeff))]
            for i, e in enumerate(mono.zexp):
                if e:
                    factors.append(epow(Z(i), e))
            for i, e in enumerate(mono.zbarexp):
                if e:
                    factors.append(epow(Zbar(i), e))
            parts.append(emul(*factors))
        return eadd(*parts) if parts else Const(0j)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _EXACT_SCALARS):
            other = LaurentPoly.const(self.m, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            bits = []
            re_s, im_s = coeff.part_strings()
            bits.append(f"({re_s}{'+' if not im_s.startswith('-') else ''}{im_s}i)")
            for i, e in enumerate(mono.zexp):
                if e:
                    bits.append(f"z{i + 1}" + (f"^{e}" if e != 1 else ""))
            for i, e in enumerate(mono.zbarexp):
                if e:
                    bits.append(f"zbar{i + 1}" + (f"^{e}" if e != 1 else ""))
            chunks.append("*".join(bits))
        return " + ".join(chunks)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression-tree coefficients (numeric evaluation)."""

    __slots__ = ()

    def eval(self, zvalues, t: float | None = None) -> complex:
        raise NotImplementedError

    def diff_z(self, i: int) -> "Expr":
        raise NotImplementedError

    def diff_zbar(self, i: int) -> "Expr":
        raise NotImplementedError

    def conj(self) -> "Expr":
        """Formal conjugate tree.  For sqrt this assumes the principal
        branch away from the negative real axis."""
        raise NotImplementedError

    def substitute(self, args: list["Expr"]) -> "Expr":
        raise NotImplementedError

    @property
    def has_zbar(self) -> bool:
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        """True only for a folded zero constant; no tree is simplified."""
        return False

    # convenience operators, numeric scalars fold into constants
    def __add__(self, other):
        return eadd(self, _as_expr(other))

    __radd__ = __add__

    def __neg__(self):
        return emul(Const(-1 + 0j), self)

    def __sub__(self, other):
        return eadd(self, -(_as_expr(other)))

    def __rsub__(self, other):
        return eadd(_as_expr(other), -self)

    def __mul__(self, other):
        return emul(self, _as_expr(other))

    __rmul__ = __mul__


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Const(complex(value))
    if isinstance(value, (Fraction, QC)):
        return Const(complex(QC(value) if not isinstance(value, QC) else value))
    raise VariantError(f"cannot lift {type(value).__name__} into an expression")


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: complex

    def eval(self, zvalues, t=None):
        return self.value

    def diff_z(self, i):
        return Const(0j)

    diff_zbar = diff_z

    def conj(self):
        return Const(self.value.conjugate())

    def substitute(self, args):
        return self

    @property
    def has_zbar(self):
        return False

    @property
    def is_zero(self):
        return self.value == 0


@dataclass(frozen=True, slots=True)
class _Coordinate(Expr):
    """The index checks shared by Z and Zbar; ``i`` is 0-based."""

    i: int

    def __post_init__(self):
        if self.i < 0:
            raise DimensionError(f"coordinate index {self.i} is negative")

    def _pick(self, values):
        if self.i >= len(values):
            raise DimensionError(f"z_{self.i + 1} does not exist on C^{len(values)}")
        return values[self.i]


@dataclass(frozen=True, slots=True)
class Z(_Coordinate):
    def eval(self, zvalues, t=None):
        return complex(self._pick(zvalues))

    def diff_z(self, i):
        return Const(1 + 0j) if i == self.i else Const(0j)

    def diff_zbar(self, i):
        return Const(0j)

    def conj(self):
        return Zbar(self.i)

    def substitute(self, args):
        return self._pick(args)

    @property
    def has_zbar(self):
        return False


@dataclass(frozen=True, slots=True)
class Zbar(_Coordinate):
    def eval(self, zvalues, t=None):
        return complex(self._pick(zvalues)).conjugate()

    def diff_z(self, i):
        return Const(0j)

    def diff_zbar(self, i):
        return Const(1 + 0j) if i == self.i else Const(0j)

    def conj(self):
        return Z(self.i)

    def substitute(self, args):
        return self._pick(args).conj()

    @property
    def has_zbar(self):
        return True


@dataclass(frozen=True, slots=True)
class TParam(Expr):
    """The real deformation parameter ``t`` (a constant under d)."""

    def eval(self, zvalues, t=None):
        if t is None:
            raise VariantError("expression uses the parameter t but no value was given")
        return complex(t)

    def diff_z(self, i):
        return Const(0j)

    diff_zbar = diff_z

    def conj(self):
        return self

    def substitute(self, args):
        return self

    @property
    def has_zbar(self):
        return False


@dataclass(frozen=True, slots=True)
class Add(Expr):
    parts: tuple[Expr, ...]

    def eval(self, zvalues, t=None):
        return sum(p.eval(zvalues, t) for p in self.parts)

    def diff_z(self, i):
        return eadd(*(p.diff_z(i) for p in self.parts))

    def diff_zbar(self, i):
        return eadd(*(p.diff_zbar(i) for p in self.parts))

    def conj(self):
        return eadd(*(p.conj() for p in self.parts))

    def substitute(self, args):
        return eadd(*(p.substitute(args) for p in self.parts))

    @property
    def has_zbar(self):
        return any(p.has_zbar for p in self.parts)


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    parts: tuple[Expr, ...]

    def eval(self, zvalues, t=None):
        out = 1 + 0j
        for p in self.parts:
            out *= p.eval(zvalues, t)
        return out

    def _product_rule(self, derive):
        terms = []
        for k in range(len(self.parts)):
            factors = list(self.parts)
            factors[k] = derive(factors[k])
            terms.append(emul(*factors))
        return eadd(*terms)

    def diff_z(self, i):
        return self._product_rule(lambda p: p.diff_z(i))

    def diff_zbar(self, i):
        return self._product_rule(lambda p: p.diff_zbar(i))

    def conj(self):
        return emul(*(p.conj() for p in self.parts))

    def substitute(self, args):
        return emul(*(p.substitute(args) for p in self.parts))

    @property
    def has_zbar(self):
        return any(p.has_zbar for p in self.parts)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    k: int

    def eval(self, zvalues, t=None):
        return _power(self.base.eval(zvalues, t), self.k)

    def _chain(self, db):
        return emul(Const(complex(self.k)), epow(self.base, self.k - 1), db)

    def diff_z(self, i):
        return self._chain(self.base.diff_z(i))

    def diff_zbar(self, i):
        return self._chain(self.base.diff_zbar(i))

    def conj(self):
        return epow(self.base.conj(), self.k)

    def substitute(self, args):
        return epow(self.base.substitute(args), self.k)

    @property
    def has_zbar(self):
        return self.base.has_zbar


def _unary(name, fn, dfn):
    """Build an analytic unary node class: fn evaluates, dfn(u, du) derives."""

    @dataclass(frozen=True, slots=True)
    class Node(Expr):
        u: Expr

        def eval(self, zvalues, t=None):
            return fn(self.u.eval(zvalues, t))

        def diff_z(self, i):
            return dfn(self.u, self.u.diff_z(i))

        def diff_zbar(self, i):
            return dfn(self.u, self.u.diff_zbar(i))

        def conj(self):
            return Node(self.u.conj())

        def substitute(self, args):
            return Node(self.u.substitute(args))

        @property
        def has_zbar(self):
            return self.u.has_zbar

    Node.__name__ = Node.__qualname__ = name
    return Node


Exp = _unary("Exp", cmath.exp, lambda u, du: emul(Exp(u), du))
Sin = _unary("Sin", cmath.sin, lambda u, du: emul(Cos(u), du))
Cos = _unary("Cos", cmath.cos, lambda u, du: emul(Const(-1 + 0j), Sin(u), du))
Sqrt = _unary(
    "Sqrt", cmath.sqrt, lambda u, du: emul(Const(0.5 + 0j), epow(Sqrt(u), -1), du)
)


def eadd(*parts: Expr) -> Expr:
    """Sum with flattening, constant folding and zero removal."""
    flat: list[Expr] = []
    const = 0j
    for p in parts:
        if isinstance(p, Add):
            flat.extend(p.parts)
        elif isinstance(p, Const):
            const += p.value
        else:
            flat.append(p)
    folded: list[Expr] = []
    for p in flat:
        if isinstance(p, Const):
            const += p.value
        else:
            folded.append(p)
    if const != 0:
        folded.append(Const(const))
    if not folded:
        return Const(0j)
    if len(folded) == 1:
        return folded[0]
    return Add(tuple(folded))


def emul(*parts: Expr) -> Expr:
    """Product with flattening, constant folding, and 0/1 absorption."""
    flat: list[Expr] = []
    const = 1 + 0j
    for p in parts:
        if isinstance(p, Mul):
            flat.extend(p.parts)
        else:
            flat.append(p)
    kept: list[Expr] = []
    for p in flat:
        if isinstance(p, Const):
            const *= p.value
        else:
            kept.append(p)
    if const == 0:
        return Const(0j)
    if const != 1:
        kept.insert(0, Const(const))
    if not kept:
        return Const(1 + 0j)
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def _power(value: complex, k: int) -> complex:
    if k < 0 and value == 0:
        raise PoleError(f"zero raised to the negative power {k}")
    return value ** k


def epow(base: Expr, k: int) -> Expr:
    if not isinstance(k, int):
        raise VariantError("expression powers take integer exponents only")
    if k == 0:
        return Const(1 + 0j)
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(_power(base.value, k))
    if isinstance(base, Pow):
        return epow(base.base, base.k * k)
    return Pow(base, k)


def subst_t(e: Expr, value) -> Expr:
    """Replace the parameter t by a constant, folding where possible."""
    if isinstance(e, TParam):
        return Const(complex(value))
    if isinstance(e, (Const, Z, Zbar)):
        return e
    if isinstance(e, Add):
        return eadd(*(subst_t(p, value) for p in e.parts))
    if isinstance(e, Mul):
        return emul(*(subst_t(p, value) for p in e.parts))
    if isinstance(e, Pow):
        return epow(subst_t(e.base, value), e.k)
    return type(e)(subst_t(e.u, value))


Coefficient = LaurentPoly | Expr


def coefficient_variant(c: Coefficient) -> str:
    if isinstance(c, LaurentPoly):
        return "laurent"
    if isinstance(c, Expr):
        return "expr"
    raise VariantError(f"not a coefficient: {type(c).__name__}")
