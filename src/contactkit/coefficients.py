"""Coefficient rings for differential forms on C^m.

Two coefficient representations share one informal interface (add,
multiply, differentiate, conjugate, evaluate, substitute):

* :class:`LaurentPoly` — finite sums of monomials ``z^a * zbar^b`` with
  exact :class:`~contactkit.scalars.QC` coefficients and integer (possibly
  negative) exponents.  The variables ``z_i`` and ``zbar_i`` are formally
  independent, so both Wirtinger derivatives are exact term operations;
  conjugation at evaluation time is what ties ``zbar_i`` to ``conj(z_i)``.
  A polynomial stores Gaussian-integer numerators over one denominator:
  ``_terms`` maps each key to an int pair ``(re, im)`` and ``_den > 0`` is
  shared, reduced by their content so that ``gcd(_den, every part) == 1``
  and zero is ``({}, 1)``.  A value then has one stored form, so ``==`` and
  the hash compare ``(m, _den, _terms)``.  The constructor checks and
  coerces outside data and puts the reduced QC over their lcm; ring
  operations skip the re-checks and call no ``QC`` operator: the int
  kernels of :mod:`~contactkit.scalars` multiply (with no sum when an
  operand has one term), bring sums to the lcm of their denominators and
  reduce each result once by its content.  ``d/dz_i`` scales numerators by
  their exponents; ``forms`` asks for a derivative or a product times its
  wedge sign, which rides on the numerators, so no negated copy is built.
  ``conj`` and ``-`` keep the denominator, and an exact
  value is summed on the numerators and reduced once.  Only the public
  views build a QC, each term as ``_reduced(re, im, _den)``:
  :attr:`~LaurentPoly.terms`, ``constant_value``, ``repr`` and ``to_expr``.
  That is the QC the ``QC`` arithmetic gives, since a value has one
  reduced triple.  :meth:`~LaurentPoly.variables` tells ``forms`` which
  Wirtinger derivatives can be nonzero.

  Each term is keyed by one packed int, not by its :class:`Monomial`.  The
  2m exponents sit in 32-bit fields, ``z_1..z_m`` from the low end and then
  ``zbar_1..zbar_m``, each stored as ``e + 2**31``; every exponent
  satisfies ``|e| < EXPONENT_LIMIT = 2**31``.  With ``ONE[m]`` the key of
  the constant monomial, a monomial product is ``k1 + k2 - ONE[m]``, the
  inverse ``2 * ONE[m] - k``, the conjugate swaps the two halves of the
  key and ``d/dz_i`` subtracts one from field i.  A field must never carry
  into its neighbour, so every polynomial keeps an upper bound on its
  largest |exponent| and an exponent that would leave the range raises
  :class:`~contactkit.errors.ExponentRangeError`, naming it, before it is
  packed.  :class:`Monomial` stays the public view: the constructor takes
  ``{Monomial: scalar}`` and :attr:`LaurentPoly.terms` gives it back.

* :class:`Expr` — a small expression tree (constants, variables, sums,
  products, integer powers, exp, sin, cos, sqrt) with numeric evaluation.
  A leaf states its derivative, conjugate and substitution; a composite
  node states how it is rebuilt from its children and its chain rule, and
  :class:`Expr` derives, conjugates and substitutes through those two.
  No simplification is performed beyond constant folding.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import DimensionError, ExponentRangeError, PoleError, VariantError, _count
from .scalars import (QC, QC_ONE, _add, _content, _eval_terms, _exact_all, _numerators,
                      _reduced, _scale, _sum, _term_products, _times, exact, power)

_WIDTH = 32
# exponents satisfy |e| < EXPONENT_LIMIT; a field stores e + EXPONENT_LIMIT
EXPONENT_LIMIT = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1


def _reject_float(other):
    if isinstance(other, (float, complex)):
        raise VariantError(
            "cannot mix an exact Laurent polynomial with binary floats"
        )


def _as_qc(value) -> QC:
    q = exact(value)
    if q is None:
        raise VariantError(f"expected an exact scalar, got {type(value).__name__}")
    return q


class Monomial(NamedTuple):
    """Exponent vectors of one mixed monomial ``z^zexp * zbar^zbarexp``."""

    zexp: tuple[int, ...]
    zbarexp: tuple[int, ...]

    @classmethod
    def one(cls, m: int) -> "Monomial":
        _count(m, "variable count m", 1)
        return cls((0,) * m, (0,) * m)


class _Ones(dict):
    """``_ONE[m]``: the key of the constant monomial on C^m."""

    def __missing__(self, m: int) -> int:
        one = self[m] = sum(EXPONENT_LIMIT << (_WIDTH * j) for j in range(2 * m))
        return one


_ONE = _Ones()


def _variable(m: int, j: int) -> str:
    """The name of field ``j``: ``z1..zm``, then ``zbar1..zbarm``."""
    return f"z{j + 1}" if j < m else f"zbar{j - m + 1}"


def _coordinate(m: int, i: int) -> int:
    """``i`` as a 0-based coordinate index of C^m, or a DimensionError."""
    if _count(i, "coordinate index i", 0) >= m:
        raise DimensionError(f"z_{i + 1} (index {i}) does not exist on C^{m}")
    return i


def _out_of_range(m: int, j: int, e: int) -> ExponentRangeError:
    return ExponentRangeError(
        f"exponent {e} of {_variable(m, j)} is outside the packed range "
        f"|e| < {EXPONENT_LIMIT}"
    )


def _pole(m: int, j: int, e: int) -> PoleError:
    return PoleError(f"coordinate z_{j % m + 1} = 0 hit exponent {e}")


def _fields(m: int, key: int) -> list[int]:
    """The 2m exponents of ``key``: z first, then zbar."""
    return [((key >> (_WIDTH * j)) & _FIELD) - EXPONENT_LIMIT for j in range(2 * m)]


def _monomial(m: int, key: int) -> Monomial:
    exps = _fields(m, key)
    return Monomial(tuple(exps[:m]), tuple(exps[m:]))


@lru_cache(maxsize=64)
def _exponent_names(m: int) -> tuple[str, ...]:
    """``"exponent of z1"`` .. ``"exponent of zbarm"``, each field's name in
    a refusal, built once per m."""
    return tuple(f"exponent of {_variable(m, j)}" for j in range(2 * m))


def _pack(m: int, mono: Monomial) -> tuple[int, int]:
    """The key of an outside monomial and its largest |exponent|."""
    key = bound = 0
    for j, (e, what) in enumerate(zip(mono.zexp + mono.zbarexp, _exponent_names(m))):
        _count(e, what, error=VariantError)
        if not -EXPONENT_LIMIT < e < EXPONENT_LIMIT:
            raise _out_of_range(m, j, e)
        key |= (e + EXPONENT_LIMIT) << (_WIDTH * j)
        bound = max(bound, abs(e))
    return key, bound


def _zero_at(m: int, zvalues):
    """A zero polynomial's value: ``QC(0)`` at an exact point, else 0j."""
    if len(zvalues) != m:
        raise DimensionError("point arity mismatch")
    return QC(0) if _exact_all(zvalues) is not None else 0j


@lru_cache(maxsize=4096)
def _eval_plan(m: int, key: int) -> tuple:
    """The nonzero exponents of ``key`` as ``(field, e)`` pairs, z_i then
    zbar_i for each i in turn.  A plan depends only on (m, key), so each is
    built once per process; the cache holds at most 4096 plans."""
    exps = _fields(m, key)
    return tuple((j, exps[j]) for i in range(m) for j in (i, m + i) if exps[j])


@lru_cache(maxsize=4096)
def _variable_bits(m: int, mask: int) -> int:
    """Bit j set for each nonzero field j of ``mask``, the OR of some keys'
    ``key ^ ONE[m]``.  The bits depend only on (m, mask), so each is found
    once per process; the cache holds at most 4096 masks."""
    return sum(1 << j for j in range(2 * m) if mask >> (_WIDTH * j) & _FIELD)


def _product_bound(f: "LaurentPoly", g: "LaurentPoly") -> int:
    """A bound on the exponents of ``f * g``.  When the operands' bounds
    leave the range, every term product is checked field by field and the
    first exponent out of range raises, so no field ever carries."""
    bound = f._bound + g._bound
    if bound < EXPONENT_LIMIT:
        return bound
    m = f.m
    right = [_fields(m, k) for k in g._terms]
    for k in f._terms:
        left = _fields(m, k)
        for exps in right:
            for j, (a, b) in enumerate(zip(left, exps)):
                if not -EXPONENT_LIMIT < a + b < EXPONENT_LIMIT:
                    raise _out_of_range(m, j, a + b)
    return EXPONENT_LIMIT - 1


def _poly(m: int, terms: dict[int, tuple[int, int]], den: int, bound: int) -> "LaurentPoly":
    """A ring result, built without the constructor's checks: nonzero
    numerator pairs already reduced by their content over ``den``.
    ``bound`` is at least the largest |exponent| in ``terms``."""
    p = object.__new__(LaurentPoly)
    p.m = m
    p._terms = terms
    p._den = den
    p._bound = bound
    return p


def _holomorphic(m: int, zexps: list[tuple[int, ...]], coeffs: list[QC]) -> "LaurentPoly":
    """sum_k coeffs[k] z^zexps[k], from trusted nonnegative exponent tuples
    below EXPONENT_LIMIT and exact coefficients; zeros are dropped."""
    one = _ONE[m]
    terms, den = _numerators((one + sum(e << (_WIDTH * j) for j, e in enumerate(I)), c)
                             for I, c in zip(zexps, coeffs) if not c.is_zero)
    return _poly(m, terms, den, max(map(max, zexps), default=0))


def _const(m: int, value: QC) -> "LaurentPoly":
    if value.is_zero:
        return _poly(m, {}, 1, 0)
    return _poly(m, *_numerators([(_ONE[m], value)]), 0)


class LaurentPoly:
    """Exact Laurent polynomial in ``z_1..z_m`` and ``zbar_1..zbar_m``."""

    __slots__ = ("m", "_terms", "_den", "_bound")

    def __init__(self, m: int, terms: dict[Monomial, QC] | None = None):
        _count(m, "variable count m", 1)
        clean: dict[int, QC] = {}
        bound = 0
        for mono, coeff in (terms or {}).items():
            if len(mono.zexp) != m or len(mono.zbarexp) != m:
                raise DimensionError(f"monomial arity {len(mono.zexp)} != m={m}")
            coeff = _as_qc(coeff)
            key, top = _pack(m, mono)
            if not coeff.is_zero:
                clean[key] = coeff
                bound = max(bound, top)
        self.m = m
        self._terms, self._den = _numerators(clean.items()) if clean else ({}, 1)
        self._bound = bound

    @property
    def terms(self) -> dict[Monomial, QC]:
        """The terms as ``{Monomial: QC}``, in the ring's term order."""
        m, den = self.m, self._den
        return {_monomial(m, k): _reduced(a, b, den) for k, (a, b) in self._terms.items()}

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
        return cls._power_of(m, i, power, False)

    @classmethod
    def zbar(cls, m: int, i: int, power: int = 1) -> "LaurentPoly":
        return cls._power_of(m, i, power, True)

    @classmethod
    def _power_of(cls, m: int, i: int, power: int, bar: bool) -> "LaurentPoly":
        """``z_i``, or ``zbar_i`` when ``bar``, to the given power."""
        zero = Monomial.one(m).zexp
        exps = list(zero)
        exps[_coordinate(m, i)] = _count(power, "power", error=VariantError)
        exps = tuple(exps)
        return cls(m, {Monomial(zero, exps) if bar else Monomial(exps, zero): QC_ONE})

    # -- ring structure ---------------------------------------------------

    def _check_same(self, other: "LaurentPoly"):
        if self.m != other.m:
            raise DimensionError(f"variable count mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            s = exact(other)
            if s is None:
                _reject_float(other)
                return NotImplemented
            other = _const(self.m, s)
        self._check_same(other)
        terms, den = _add(self._terms, self._den, other._terms, other._den)
        return _poly(self.m, terms, den, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.m, {k: (-a, -b) for k, (a, b) in self._terms.items()}, self._den,
                     self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            s = exact(other)
            if s is None:
                _reject_float(other)
                return NotImplemented
            if s.is_zero:
                return _poly(self.m, {}, 1, 0)
            return _poly(self.m, *_times(self._terms, self._den, s), self._bound)
        self._check_same(other)
        return self._signed_mul(other, 1)

    __rmul__ = __mul__

    def _signed_mul(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """``sign * self * other`` for a sign of 1 or -1 and ``other`` on the
        same C^m: the sign rides on the numerators inside the product, so a
        sign of -1 builds no negated copy."""
        bound = _product_bound(self, other)
        # k1 + k2 - ONE[m] is the product monomial
        terms, den = _content(_term_products(self._terms, other._terms, _ONE[self.m], sign),
                              self._den * other._den)
        return _poly(self.m, terms, den, bound)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, int(exponent), _poly(self.m, {_ONE[self.m]: (1, 0)}, 1, 0))

    def inverse(self) -> "LaurentPoly":
        """Invert a single-term Laurent polynomial (the ring units)."""
        if len(self._terms) != 1:
            raise VariantError(
                "only monomials are invertible in the Laurent ring; "
                f"got {len(self._terms)} terms"
            )
        # den / (a + b*i) = den * (a - b*i) / (a**2 + b**2)
        (key, (a, b)), = self._terms.items()
        den = self._den
        terms, den = _content({2 * _ONE[self.m] - key: (den * a, -den * b)}, a * a + b * b)
        return _poly(self.m, terms, den, self._bound)

    # -- calculus ----------------------------------------------------------

    def _signed_diff(self, i: int, bar: bool, sign: int) -> "LaurentPoly":
        """``sign`` (1 or -1) times the formal derivative in ``zbar_i`` if
        ``bar`` else ``z_i``, for a coordinate index ``i`` already checked.
        e -> e - 1 is injective, so no two terms meet; one pass scales each
        numerator by its signed exponent over the same denominator."""
        m = self.m
        j = m + i if bar else i
        shift = _WIDTH * j
        step = 1 << shift
        terms: dict[int, tuple[int, int]] = {}
        for key, (a, b) in self._terms.items():
            e = ((key >> shift) & _FIELD) - EXPONENT_LIMIT
            if e == 0:
                continue
            if e == 1 - EXPONENT_LIMIT:
                raise _out_of_range(m, j, e - 1)
            e *= sign
            terms[key - step] = a * e, b * e
        terms, den = _content(terms, self._den)
        return _poly(m, terms, den, min(self._bound + 1, EXPONENT_LIMIT - 1))

    def _diff(self, i: int, bar: bool) -> "LaurentPoly":
        """Formal derivative in ``zbar_i`` if ``bar`` else ``z_i`` (0-based)."""
        return self._signed_diff(_coordinate(self.m, i), bar, 1)

    def diff_z(self, i: int) -> "LaurentPoly":
        """Formal derivative with respect to ``z_i`` (0-based)."""
        return self._diff(i, False)

    def diff_zbar(self, i: int) -> "LaurentPoly":
        """Formal derivative with respect to ``zbar_i`` (0-based)."""
        return self._diff(i, True)

    def conj(self) -> "LaurentPoly":
        """Formal conjugate: swaps ``z``/``zbar`` exponents, conjugates
        coefficients.  Compatible with evaluation-time conjugation."""
        half = _WIDTH * self.m
        low = (1 << half) - 1
        return _poly(self.m, {(k & low) << half | k >> half: (a, -b)
                              for k, (a, b) in self._terms.items()}, self._den, self._bound)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> int:
        """The variables some term has a nonzero exponent of, as a bitmask:
        bit j is ``z_{j+1}`` for j < m and ``zbar_{j-m+1}`` after, the
        numbering of covectors.  Every other Wirtinger derivative is zero."""
        one = _ONE[self.m]
        mask = 0
        for k in self._terms:
            mask |= k ^ one
        return _variable_bits(self.m, mask)

    @property
    def has_zbar(self) -> bool:
        half = _WIDTH * self.m
        free = _ONE[self.m] >> half
        return any(k >> half != free for k in self._terms)

    @property
    def has_negative_exponent(self) -> bool:
        m = self.m
        return any(e < 0 for k in self._terms for e in _fields(m, k))

    def constant_value(self) -> QC:
        """The coefficient of the constant monomial."""
        return _reduced(*self._terms.get(_ONE[self.m], (0, 0)), self._den)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].zexp, kv[0].zbarexp))

    # -- evaluation / substitution --------------------------------------------

    def eval(self, zvalues):
        """Evaluate at a point, with ``zbar_i`` read as ``conj(z_i)``.

        With exact coordinates (QC, int, Fraction) the result is an exact QC,
        else a Python complex.  Raises PoleError when a negative
        exponent meets a zero coordinate.  Each term multiplies in its
        powers in the order of its ``_eval_plan``.  An exact value is summed
        on the numerators and unreduced Gaussian-rational powers and reduced
        once over the denominator, by ``scalars._eval_terms``.  Both paths
        take conjugates only when some term has a zbar exponent.
        """
        m = self.m
        terms = self._terms
        if not terms:
            return _zero_at(m, zvalues)
        if len(zvalues) != m:
            raise DimensionError("point arity mismatch")
        plans = [_eval_plan(m, key) for key in terms]
        bar = any(j >= m for plan in plans for j, _ in plan)
        if (qs := _exact_all(zvalues)) is not None:
            return _eval_terms(plans, terms.values(), self._den,
                               [*qs, *(v.conj() for v in qs)] if bar else qs,
                               lambda j, e: _pole(m, j, e))
        vals = [complex(v) for v in zvalues]
        vals += [v.conjugate() for v in vals] if bar else []
        # the sum starts at 0j and takes x ** 1, as both can turn a -0.0
        # part into 0.0
        den = self._den
        total = 0j
        for plan, (a, b) in zip(plans, terms.values()):
            # int true division rounds once, as complex() of the term's QC
            term = complex(a / den, b / den)
            for j, e in plan:
                val = vals[j]
                if e < 0 and not val:
                    raise _pole(m, j, e)
                term = term * val ** e
            total = total + term
        return total

    def substitute(self, args: list["LaurentPoly"]) -> "LaurentPoly":
        """Compose: plug ``args[i]`` in for ``z_i`` and ``conj(args[i])``
        for ``zbar_i``.  Negative exponents require monomial arguments."""
        m = self.m
        if len(args) != m:
            raise DimensionError("substitution arity mismatch")
        m_src = args[0].m
        if any(g.m != m_src for g in args):
            raise DimensionError("substitution arguments live in different rings")
        cache: dict[tuple[int, int], LaurentPoly] = {}

        def arg_power(j: int, e: int) -> LaurentPoly:
            key = (j, e)
            got = cache.get(key)
            if got is None:
                base = args[j - m].conj() if j >= m else args[j]
                got = cache[key] = base ** e
            return got

        one = _ONE[m_src]
        order = [j for i in range(m) for j in (i, m + i)]
        den = self._den
        parts = []
        bound = 0
        for key, num in self._terms.items():
            # the numerator scales the first power, or stands alone over 1;
            # den divides the sum
            term = None
            exps = _fields(m, key)
            for j in order:
                if exps[j]:
                    p = arg_power(j, exps[j])
                    term = (term * p if term is not None
                            else _poly(m_src, *_scale(p._terms, p._den, *num), p._bound))
            if term is None:
                parts.append(({one: num}, den))
                continue
            parts.append((term._terms, term._den * den))
            bound = max(bound, term._bound)
        # the same sum as adding the terms one by one, in one dict
        return _poly(m_src, *_sum(parts), bound)

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
        if not isinstance(other, LaurentPoly):
            other = exact(other)
            if other is None:
                return NotImplemented
            other = _const(self.m, other)
        return (self.m == other.m and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.m, self._den, frozenset(self._terms.items())))

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
    """Base class for expression-tree coefficients (numeric evaluation).

    A leaf states ``_diff``, ``conj`` and ``substitute``; a composite node
    states ``_map(f)``, itself rebuilt over f of each child, and
    ``_derive(d)``, its chain rule given d, the derivative of a child.
    """

    __slots__ = ()

    def eval(self, zvalues) -> complex:
        raise NotImplementedError

    def _map(self, f) -> "Expr":
        raise NotImplementedError

    def _derive(self, d) -> "Expr":
        raise NotImplementedError

    def _diff(self, i: int, bar: bool) -> "Expr":
        """Formal derivative in ``zbar_i`` if ``bar`` else ``z_i`` (0-based)."""
        return self._derive(lambda p: p._diff(i, bar))

    def _signed_diff(self, i: int, bar: bool, sign: int) -> "Expr":
        """``sign`` (1 or -1) times ``_diff(i, bar)``, negated as a tree."""
        d = self._diff(i, bar)
        return d if sign > 0 else -d

    def diff_z(self, i: int) -> "Expr":
        return self._diff(_count(i, "coordinate index i", 0), False)

    def diff_zbar(self, i: int) -> "Expr":
        return self._diff(_count(i, "coordinate index i", 0), True)

    def conj(self) -> "Expr":
        """Formal conjugate tree.  For sqrt this assumes the principal
        branch away from the negative real axis."""
        return self._map(lambda p: p.conj())

    def substitute(self, args: list["Expr"]) -> "Expr":
        return self._map(lambda p: p.substitute(args))

    def variables(self) -> int:
        """Every variable, ``-1`` as a bitmask: no tree is searched."""
        return -1

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

    def __rmul__(self, other):
        # the scalar comes first: emul folds its constants left to right
        return emul(_as_expr(other), self)

    def _signed_mul(self, other: "Expr", sign: int) -> "Expr":
        """``sign`` (1 or -1) times ``self * other``, negated as a tree."""
        p = self * other
        return p if sign > 0 else -p


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (float, complex)) or exact(value) is not None:
        # complex(Fraction) and complex(QC) round each part once, alike
        return Const(complex(value))
    raise VariantError(f"cannot lift {type(value).__name__} into an expression")


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: complex

    def eval(self, zvalues):
        return self.value

    def _diff(self, i, bar):
        return Const(0j)

    def conj(self):
        return Const(self.value.conjugate())

    def substitute(self, args):
        return self

    @property
    def is_zero(self):
        return self.value == 0


@dataclass(frozen=True, slots=True)
class _Coordinate(Expr):
    """Z and Zbar: the index checks and one derivative; ``i`` is 0-based."""

    i: int

    def __post_init__(self):
        _count(self.i, "coordinate index i", 0)

    def _pick(self, values):
        if self.i >= len(values):
            raise DimensionError(f"z_{self.i + 1} does not exist on C^{len(values)}")
        return values[self.i]

    def _diff(self, i, bar):
        return Const(1 + 0j) if bar == self._bar and i == self.i else Const(0j)


@dataclass(frozen=True, slots=True)
class Z(_Coordinate):
    _bar = False

    def eval(self, zvalues):
        return complex(self._pick(zvalues))

    def conj(self):
        return Zbar(self.i)

    def substitute(self, args):
        return self._pick(args)


@dataclass(frozen=True, slots=True)
class Zbar(_Coordinate):
    _bar = True

    def eval(self, zvalues):
        return complex(self._pick(zvalues)).conjugate()

    def conj(self):
        return Z(self.i)

    def substitute(self, args):
        return self._pick(args).conj()


@dataclass(frozen=True, slots=True)
class Add(Expr):
    parts: tuple[Expr, ...]

    def eval(self, zvalues):
        return sum(p.eval(zvalues) for p in self.parts)

    def _map(self, f):
        return eadd(*map(f, self.parts))

    _derive = _map  # d is linear


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    parts: tuple[Expr, ...]

    def eval(self, zvalues):
        out = 1 + 0j
        for p in self.parts:
            out *= p.eval(zvalues)
        return out

    def _map(self, f):
        return emul(*map(f, self.parts))

    def _derive(self, d):
        terms = []
        for k in range(len(self.parts)):
            factors = list(self.parts)
            factors[k] = d(factors[k])
            terms.append(emul(*factors))
        return eadd(*terms)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    k: int

    def __post_init__(self):
        _count(self.k, "exponent k", error=VariantError)

    def eval(self, zvalues):
        return _power(self.base.eval(zvalues), self.k)

    def _map(self, f):
        return epow(f(self.base), self.k)

    def _derive(self, d):
        return emul(Const(complex(self.k)), epow(self.base, self.k - 1), d(self.base))


def _unary(name, fn, dfn):
    """Build an analytic unary node class: fn evaluates, dfn(u, du) derives."""

    @dataclass(frozen=True, slots=True)
    class Node(Expr):
        u: Expr

        def eval(self, zvalues):
            return fn(self.u.eval(zvalues))

        def _map(self, f):
            return Node(f(self.u))

        def _derive(self, d):
            return dfn(self.u, d(self.u))

    Node.__name__ = Node.__qualname__ = name
    return Node


Exp = _unary("Exp", cmath.exp, lambda u, du: emul(Exp(u), du))
Sin = _unary("Sin", cmath.sin, lambda u, du: emul(Cos(u), du))
Cos = _unary("Cos", cmath.cos, lambda u, du: emul(Const(-1 + 0j), Sin(u), du))
Sqrt = _unary("Sqrt", cmath.sqrt,
              lambda u, du: emul(Const(0.5 + 0j), epow(Sqrt(u), -1), du))


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
    if _count(k, "exponent k", error=VariantError) == 0:
        return Const(1 + 0j)
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(_power(base.value, k))
    if isinstance(base, Pow):
        return epow(base.base, base.k * k)
    return Pow(base, k)


Coefficient = LaurentPoly | Expr


def coefficient_variant(c: Coefficient) -> str:
    if isinstance(c, LaurentPoly):
        return "laurent"
    if isinstance(c, Expr):
        return "expr"
    raise VariantError(f"not a coefficient: {type(c).__name__}")
