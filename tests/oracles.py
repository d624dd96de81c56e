"""Small oracles several test modules share; the library never calls them."""

import math

import numpy as np

from contactkit.grids import upper_pairs


def skew_of_jacobian(jac: np.ndarray) -> np.ndarray:
    """The upper columns of skew(p): column c is beta_rs = p[..., s, r] -
    p[..., r, s] for (r, s) = upper_pairs(m)[c]."""
    r, s = np.array(upper_pairs(jac.shape[-1])).T
    return jac[..., s, r] - jac[..., r, s]


def top_coefficient(defect, pt):
    """The coefficient of dz_1^...^dz_m of a top-degree defect form."""
    return defect.coefficient_at(pt, tuple(range(defect.m)))


def loop_point(loop, theta: float) -> tuple:
    """The point of a ``ci.Loop`` at phase theta: center + radius *
    e^{i theta} * direction."""
    ph = loop.radius * complex(math.cos(theta), math.sin(theta))
    return tuple(c + ph * v for c, v in zip(loop.center, loop.direction))


# -- the Laurent ring as it was stored before one denominator ---------------
#
# Each term was a reduced ``QC``; sums went through ``_collect`` and each term
# product was one ``QC`` product.  ``ParentPoly`` is that storage, with the
# parent's bodies of ``_collect``, ``__mul__``, ``_diff`` and exact ``eval``
# as the bit and term-order oracles of ``LaurentPoly``.


class ParentPoly:
    """A Laurent polynomial as ``{key: QC}`` and an exponent bound; the
    ring's ``_product_bound`` reads it as it reads a ``LaurentPoly``."""

    __slots__ = ("m", "_terms", "_bound")

    def __init__(self, m, terms, bound):
        self.m, self._terms, self._bound = m, terms, bound

    def __add__(self, other):
        return collect(self.m, other._terms.items(), max(self._bound, other._bound),
                       self._terms)

    def __neg__(self):
        return ParentPoly(self.m, {k: -c for k, c in self._terms.items()}, self._bound)

    def __mul__(self, other):
        return parent_mul(self, other)

    def __pow__(self, e):
        from contactkit.coefficients import _ONE
        from contactkit.scalars import QC, power
        if e < 0:
            return self.inverse() ** -e
        return power(self, e, ParentPoly(self.m, {_ONE[self.m]: QC(1)}, 0))

    def inverse(self):
        from contactkit.coefficients import _ONE
        (key, coeff), = self._terms.items()
        return ParentPoly(self.m, {2 * _ONE[self.m] - key: coeff.inverse()}, self._bound)

    def conj(self):
        from contactkit.coefficients import _WIDTH
        half = _WIDTH * self.m
        low = (1 << half) - 1
        return ParentPoly(self.m, {(k & low) << half | k >> half: c.conj()
                                   for k, c in self._terms.items()}, self._bound)


def parent(p) -> ParentPoly:
    """``p`` in the parent's storage: each term its one reduced ``QC``."""
    from contactkit.scalars import _reduced
    den = p._den
    return ParentPoly(p.m, {k: _reduced(a, b, den) for k, (a, b) in p._terms.items()}, p._bound)


def triples(p):
    """The terms of ``p`` (a LaurentPoly or a ParentPoly) in order, each
    coefficient as its reduced ``(a, b, d)`` triple."""
    if not isinstance(p, ParentPoly):
        p = parent(p)
    return [(k, (c._a, c._b, c._d)) for k, c in p._terms.items()]


def collect(m, pairs, bound, start=None) -> ParentPoly:
    """The parent's ``coefficients._collect``: sum ``(key, QC)`` pairs in
    order onto a copy of ``start``; a monomial whose sum cancels leaves at
    once.  No pair carries a zero coefficient."""
    terms = {} if start is None else dict(start)
    get = terms.get
    for key, coeff in pairs:
        acc = get(key)
        if acc is None:
            terms[key] = coeff
        else:
            coeff = acc + coeff
            if coeff.is_zero:
                del terms[key]
            else:
                terms[key] = coeff
    return ParentPoly(m, terms, bound)


def parent_mul(f, g) -> ParentPoly:
    """``LaurentPoly.__mul__`` of two polynomials before it took each
    product on ints: a generator of ``c1 * c2`` into ``collect``."""
    from contactkit.coefficients import _ONE, _product_bound
    f, g = (p if isinstance(p, ParentPoly) else parent(p) for p in (f, g))
    bound = _product_bound(f, g)
    one = _ONE[f.m]
    left = [(k - one, c) for k, c in f._terms.items()]
    right = g._terms.items()
    return collect(f.m, ((k1 + k2, c1 * c2) for k1, c1 in left for k2, c2 in right), bound)


def parent_diff(f, i, bar) -> ParentPoly:
    """``LaurentPoly._diff`` before it scaled numerators: each coefficient
    times its exponent as one ``QC`` product."""
    from contactkit.coefficients import _FIELD, _WIDTH, EXPONENT_LIMIT
    if not isinstance(f, ParentPoly):
        f = parent(f)
    m = f.m
    shift = _WIDTH * (m + i if bar else i)
    terms = {}
    for key, coeff in f._terms.items():
        e = ((key >> shift) & _FIELD) - EXPONENT_LIMIT
        if e:
            terms[key - (1 << shift)] = coeff * e
    return ParentPoly(m, terms, min(f._bound + 1, EXPONENT_LIMIT - 1))


def parent_substitute(f, args) -> ParentPoly:
    """``LaurentPoly.substitute`` on the parent's ring: each term a
    one-term polynomial times its argument powers, the parts collected."""
    from contactkit.coefficients import _ONE, _fields
    if not isinstance(f, ParentPoly):
        f = parent(f)
    args = [a if isinstance(a, ParentPoly) else parent(a) for a in args]
    m, m_src = f.m, args[0].m
    one = _ONE[m_src]
    order = [j for i in range(m) for j in (i, m + i)]
    parts = []
    for key, coeff in f._terms.items():
        term = ParentPoly(m_src, {one: coeff}, 0)
        exps = _fields(m, key)
        for j in order:
            if exps[j]:
                base = args[j - m].conj() if j >= m else args[j]
                term = term * base ** exps[j]
        parts.append(term)
    return collect(m_src, (kv for t in parts for kv in t._terms.items()),
                   max((t._bound for t in parts), default=0))


def parent_exact_eval(p, zvalues):
    """LaurentPoly.eval at an exact point before it summed on (a, b, d)
    triples: each term is a QC product over its plan, taking a first power
    as it is, and the sum QC additions from the first term."""
    from contactkit.coefficients import _eval_plan, _zero_at
    from contactkit.errors import DimensionError, PoleError
    if not isinstance(p, ParentPoly):
        p = parent(p)
    m = p.m
    terms = p._terms
    if not terms:
        return _zero_at(m, zvalues)
    if len(zvalues) != m:
        raise DimensionError("point arity mismatch")
    vals = list(zvalues)
    plans = [_eval_plan(m, key) for key in terms]
    if any(j >= m for plan in plans for j, _ in plan):
        vals += [v.conj() for v in vals]
    total = None
    for plan, coeff in zip(plans, terms.values()):
        term = coeff
        for j, e in plan:
            val = vals[j]
            if e < 0 and not val:
                raise PoleError(f"coordinate z_{j % m + 1} = 0 hit exponent {e}")
            term = term * (val if e == 1 else val ** e)
        total = term if total is None else total + term
    return total


# -- the exterior kernels before each sign went inside the ring ---------------
#
# ``d`` took each slot's derivative by ``diff_z`` or ``diff_zbar`` and negated
# it for an odd wedge sign, ``wedge`` negated the product ``cu * cv``, and
# ``substitute`` started each term from its numerator as a one-term
# polynomial over 1.  These are the parent's bodies, as the oracles of
# ``forms`` and ``LaurentPoly.substitute``.


def unsigned_wirtinger_d(f, holomorphic):
    """``forms._wirtinger_d`` with a bit test per slot, an unsigned
    derivative and a negated copy for an odd sign."""
    from contactkit.forms import _form, _sum_into, merge_words
    m = f.m
    degree = f.degree + 1
    if degree > 2 * m:
        return _form(m, 2 * m, {}, f.variant)
    terms = {}
    for word, coeff in f.terms.items():
        has = coeff.variables()
        for i in range(m):
            for idx in (i, m + i) if holomorphic else (m + i,):
                if not has >> idx & 1:
                    continue
                merged, sign = merge_words((idx,), word)
                if merged is None:
                    continue
                dc = coeff.diff_z(idx) if idx < m else coeff.diff_zbar(idx - m)
                if dc.is_zero:
                    continue
                _sum_into(terms, merged, dc if sign > 0 else -dc)
    return _form(m, degree, terms, f.variant)


def unsigned_wedge(f, g):
    """``forms.wedge`` with a negated copy of ``cu * cv`` for an odd sign."""
    from contactkit.forms import _form, _sum_into, merge_words
    degree = f.degree + g.degree
    if degree > 2 * f.m:
        return _form(f.m, 2 * f.m, {}, f.variant)
    terms = {}
    for wu, cu in f.terms.items():
        for wv, cv in g.terms.items():
            word, sign = merge_words(wu, wv)
            if word is None:
                continue
            _sum_into(terms, word, cu * cv if sign > 0 else -(cu * cv))
    return _form(f.m, degree, terms, f.variant)


def substitute_from_one_term(p, args):
    """``LaurentPoly.substitute`` with each term started as its numerator,
    a one-term polynomial over 1, times its argument powers."""
    from contactkit.coefficients import _ONE, _fields, _poly
    from contactkit.scalars import _sum
    m, m_src = p.m, args[0].m
    cache = {}

    def arg_power(j, e):
        if (j, e) not in cache:
            cache[j, e] = (args[j - m].conj() if j >= m else args[j]) ** e
        return cache[j, e]

    one = _ONE[m_src]
    order = [j for i in range(m) for j in (i, m + i)]
    parts = []
    bound = 0
    for key, num in p._terms.items():
        term = _poly(m_src, {one: num}, 1, 0)
        exps = _fields(m, key)
        for j in order:
            if exps[j]:
                term = term * arg_power(j, exps[j])
        parts.append((term._terms, term._den * p._den))
        bound = max(bound, term._bound)
    return _poly(m_src, *_sum(parts), bound)


def unsigned_pullback(F, f):
    """``forms.pullback`` on the three kernels above: d of each covector the
    words use, each coefficient substituted, then wedged in word order."""
    from contactkit.forms import _form, _sum_into
    if F.variant == "expr" or f.variant == "expr":
        F, f = F.to_expr(), f.to_expr()
    m_src, m_dst, comps = F.m_src, F.m_dst, F.components
    d_cov = {idx: unsigned_wirtinger_d(
        _form(m_src, 0, {(): comps[idx] if idx < m_dst else comps[idx - m_dst].conj()},
              F.variant), True)
        for idx in {i for word in f.terms for i in word}}
    terms = {}
    for word, coeff in f.terms.items():
        pulled = (substitute_from_one_term(coeff, comps) if F.variant == "laurent"
                  else coeff.substitute(comps))
        acc = _form(m_src, 0, {(): pulled}, F.variant)
        for idx in word:
            acc = unsigned_wedge(acc, d_cov[idx])
        for w, c in acc.terms.items():
            _sum_into(terms, w, c)
            if terms[w].is_zero:
                del terms[w]
    return _form(m_src, f.degree, terms, F.variant)
