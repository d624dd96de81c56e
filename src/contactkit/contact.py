"""Contact-condition checks and the one Pfaffian kernel of the relation.

A 1-form alpha on C^m (m = 2n+1 odd) is contact where alpha ^ (d alpha)^n
is nonzero; the formal variant replaces d alpha by a free 2-form beta.
Both defects reduce to one scalar coefficient against the holomorphic
volume word dz_1^...^dz_m.  With a the coefficients of alpha and beta the
skew matrix of the 2-form, that coefficient is

    h(a, beta) = n! Pf([[0, a^T], [-a, beta]]),

and its slope under a skew bump of beta_rs is a signed minor Pfaffian of
the same bordered matrix.  ``_pf`` is the only expansion: h, the slopes
and the wedge-power coefficients b_i = n! Pf(beta without i) all come from
it, on exact, complex and ndarray entries alike.  It reads each matrix
once into an upper table and expands each sub-Pfaffian once per matrix:
h and its slopes on one bordered matrix (``ampleness_slice``), or the m
minors of one beta (``pfaffian_coeffs``), share their sub-Pfaffians.
The expansion's structure (per index tuple: every sub-Pfaffian it
reaches, children first, with its partners, sub-Pfaffians and parities) is
one schedule built once per process; four indices take a closed formula,
and odd terms are subtracted rather than negated and added, so each result
keeps the bits of the plain expansion.

Exact tables stay exact, on one of two rings (``_Bordered``): from n = 2
on, an exact jet's table runs on Gaussian integers read from the jet's
view (``jets.Jet1._view``) while a proven bound holds, each result reduced
back to its one QC; every other exact table runs on the QCs that
``scalars._exact_all`` lifts, and any other table on its entries as read.
Every table is list rows: entry (r, s) at ``up[r][s]`` for s > r, and the
border last, so index -1 reads it.

Skew data reaches the kernel only as a reader ``beta(r, s)`` (r < s) whose
caller supplies the ring and its zero; ``jets`` reads the ``upper_pairs``
columns of a grid field through one.  ``_Bordered`` is the one way into
``_pf``: it builds every table, decides its ring, checks n and applies n!,
in one place.

The sampled verifiers ``is_contact_on`` and ``is_formal_contact_on`` read
their margins from ``relation_h`` on point values, one sample at a time
(``_pair_margins``, which refuses a sample that is no Point): alpha's dz_i
coefficients and the dz_r^dz_s coefficients of d alpha (taken once per
form) or of the pair's beta.  A missing word reads as the point's zero,
decided once by ``Form._zero_value``, so a Laurent form at an exact point
gives an all-QC table.
The symbolic defect forms ``contact_defect`` and ``formal_defect`` are
kept for exact identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .errors import DimensionError, PreconditionError, VariantError, _count
from .forms import Form, Point, ext_d, wedge, wedge_power
from .reports import VerificationReport, fmt_num
from .scalars import _exact_all, _reduced


@lru_cache(maxsize=1024)
def _schedule(idx: tuple) -> tuple:
    """The bottom-up schedule of Pf on ``idx``: each sub-Pfaffian of four or
    more indices that the expansion along the first index reaches, once,
    keyed by its int mask (bit k + 1 for index k >= -1).

    ``(top, quads, steps)``: ``top`` is the mask of ``idx``; ``quads`` are
    the four-index ones, ``(mask, i, j, k, l)``; ``steps`` are the others,
    children first, ``(mask, first, partner, sub, terms)``, where
    ``partner`` and ``sub`` (the sub-Pfaffian's mask) give the first term
    and ``terms`` holds ``(partner, sub, odd)`` for the rest.  A schedule
    depends only on the tuple, never on the entries, so each is built once
    per process; the cache holds at most 1024 schedules.
    """
    quads, steps = {}, {}

    def visit(sub: tuple) -> int:
        mask = sum(1 << (k + 1) for k in sub)
        if len(sub) == 4:
            quads[mask] = (mask, *sub)
        elif mask not in steps:
            first, rest = sub[0], sub[1:]
            terms = [(p, visit(rest[:k] + rest[k + 1:]), k % 2) for k, p in enumerate(rest)]
            steps[mask] = (mask, first, *terms[0][:2], tuple(terms[1:]))
        return mask

    return visit(idx), tuple(quads.values()), tuple(steps.values())


def _pf(up, idx: tuple, memo: dict):
    """The one Pfaffian kernel: Pf on ``idx`` of the skew matrix whose
    upper table is ``up``.

    ``up[i][j]`` holds the (i, j) entry for i preceding j in ``idx``.  The
    expansion runs along the first index,
    Pf = sum_k (-1)^k up[idx[0]][idx[k+1]] Pf(idx without both),
    and the kernel walks the cached ``_schedule`` of ``idx``, children
    first: each term is the table entry times the sub-Pfaffian, and odd
    terms are subtracted.  Four indices i, j, k, l take the closed form
    up[i][j]*up[k][l] - up[i][k]*up[j][l] + up[i][l]*up[j][k], which is
    that expansion term for term.  Each sub-Pfaffian of four or more
    indices is computed once and kept in ``memo`` under its mask; calls on
    the same table that share a memo share their sub-Pfaffians (one in the
    memo has all of its own there too).  The empty Pfaffian is 1.
    """
    if len(idx) < 4:
        return up[idx[0]][idx[1]] if idx else 1
    top, quads, steps = _schedule(idx)
    if top not in memo:
        for mask, i, j, k, l in quads:
            if mask not in memo:
                ui, uj = up[i], up[j]
                memo[mask] = ui[j] * up[k][l] - ui[k] * uj[l] + ui[l] * uj[k]
        for mask, first, partner, sub, terms in steps:
            if mask not in memo:
                row = up[first]
                total = row[partner] * memo[sub]
                for partner, sub, odd in terms:
                    term = row[partner] * memo[sub]
                    total = total - term if odd else total + term
                memo[mask] = total
    return memo[top]


@lru_cache(maxsize=1024)
def _bordered_idx(n: int, *drop: int) -> tuple:
    """The bordered matrix's indices -1 .. 2n, without those in ``drop``."""
    return tuple(k for k in range(-1, 2 * n + 1) if k not in drop)


@lru_cache(maxsize=64)
def _limit(n: int) -> float:
    """The bound on the largest scaled modulus E of a table at n on Gaussian
    integers: (2h-1)!! E^h < 2^52 with h = n + 1, taken once per n."""
    # the quotient is at most 2^52
    return (2 ** 52 / prod(range(1, 2 * n + 2, 2))) ** (1 / (n + 1))


class _Bordered:
    """n! times the Pfaffians of one bordered matrix [[0, a^T], [-a, beta]].

    Index -1 is the border and beta keeps its indices 0 .. m-1; with ``a``
    None the table holds beta alone.  The entries are read once, beta's in
    ``upper_pairs`` order and the border after them, and every Pfaffian
    shares one memo of sub-Pfaffians, which lives as long as this object.
    Here n is checked and n! taken, once.

    An exact table takes one of two rings.  An exact jet's table runs on
    the jet's ``view`` ``(L, top, a, p)`` (``jets.Jet1._view``, passed from
    n = 2 on by ``jets._bordered``): every entry as L times it, a Gaussian
    integer held in Python complex of modulus at most ``top``, and beta_rs
    = p[s][r] - p[r][s] one complex subtraction each, so no table entry
    passes 2 top.  With E the largest scaled modulus and h = n + 1, every
    term and partial sum of the expansion of a sub-Pfaffian on 2j indices
    is at most (2j-1)!! E^j <= (2h-1)!! E^h in modulus, and so are both
    real products inside each complex product x*y (|ac| + |bd| <=
    |x||y|).  The view is taken only when 2 top is below ``_limit(n)``,
    where (2h-1)!! E^h < 2^52 (the bit below 53 absorbs the guard's own
    rounding), so every float operation acts on integers below 2^53 and
    is exact.  A Pfaffian on k indices is then L^(k/2) times the exact
    one, and each result is ``_reduced(n! re, n! im, L^(k/2))``, the one
    reduced triple of its value: the QC the QC arithmetic gives.  Every
    other table is read through ``a`` and ``beta``; one whose entries
    ``_exact_all`` lifts runs on those QCs, taken as the kernel gives them
    when n! is 1 (n <= 1).
    """

    __slots__ = ("n", "_up", "_memo", "_scale", "_den")

    def __init__(self, a, beta, n: int, view=None):
        _count(n, "n", 0)
        # _den is L on Gaussian integers, 0 on the QCs or the entries as read
        self.n, self._memo, self._scale, self._den = n, {}, factorial(n), 0
        if view is not None and 2 * view[1] < _limit(n):
            self._den, _, va, vp = view
            self._up = [[c - x for x, c in zip(row, col)] for row, col in zip(vp, zip(*vp))]
            self._up.append(va)
            return
        m = 2 * n + 1
        entries = [beta(r, s) for r in range(m) for s in range(r + 1, m)]
        if a is not None:
            entries += map(a, range(m))
        lifted = _exact_all(entries)
        if lifted is not None:
            entries = lifted
            if n <= 1:
                # n! is 1: an exact Pfaffian comes back as the kernel gives it
                self._scale = None
        # beta's entries row by row, entry (r, s) at up[r][s] for s > r
        read = iter(entries).__next__
        self._up = [[None] * (r + 1) + [read() for _ in range(r + 1, m)] for r in range(m)]
        if a is not None:
            self._up.append(entries[-m:])

    def pf(self, *drop: int):
        """n! Pf of the bordered matrix without the indices in ``drop``."""
        idx = _bordered_idx(self.n, *drop)
        v = _pf(self._up, idx, self._memo)
        if self._den and idx:
            s = self._scale
            return _reduced(s * int(v.real), s * int(v.imag), self._den ** (len(idx) // 2))
        # an array result stays a fresh array: the product by 1 copies it
        return v if self._scale is None else self._scale * v

    def slope(self, r: int, s: int):
        if r == s:
            raise DimensionError(f"slope needs two distinct indices, got ({r},{s})")
        v = self.pf(r, s)
        # the minor's sign is (-1)^(r+s+1) for r < s and flips for r > s
        return v if (r + s) % 2 != (r > s) else -v

def relation_h(a, beta, n: int):
    """The contact relation h = n! Pf([[0, a^T], [-a, beta]]).

    ``a(i)`` reads the value vector and ``beta(r, s)`` (r < s) the skew
    matrix, 0-based with m = 2n+1.  Expanding along the border gives
    h = sum_i (-1)^i a_i b_i with b_i = n! Pf(beta without i), the
    holomorphic-volume coefficient of alpha ^ beta^n.
    """
    return _Bordered(a, beta, n).pf()


def relation_slope(a, beta, n: int, r: int, s: int):
    """dh/dt under the skew bump beta_rs += t, beta_sr -= t (r != s).

    For r < s this is n! (-1)^(r+s+1) Pf(bordered matrix without indices
    r+1 and s+1); swapping r and s flips the sign.  h is affine in each
    beta entry, so the slope is exact and does not read beta_rs.
    """
    bordered = _Bordered(a, beta, n)
    if max(_count(r, "slope index r", 0), _count(s, "slope index s", 0)) > 2 * n:
        raise DimensionError(f"slope indices ({r},{s}) are not ints in 0..{2 * n}")
    return bordered.slope(r, s)


def pfaffian_coeffs(beta, n: int) -> list:
    """Expand beta^n into its 2n-fold wedge coefficients.

    ``beta(r, s)`` (r < s) reads the skew matrix, 0-based with m = 2n+1.
    Returns b with beta^n = sum_i b[i] dz_1^...(dz_{i+1} omitted)...^dz_m,
    where b[i] = n! Pf(beta without index i).  The m minors share one memo
    of sub-Pfaffians.  The sign is forced by direct expansion of the wedge
    power; tests pin this against a brute-force oracle.
    """
    minors = _Bordered(None, beta, n)
    return [minors.pf(-1, i) for i in range(2 * n + 1)]


@dataclass(frozen=True)
class FormalPair:
    """A 1-form together with a stand-in 2-form for its exterior derivative."""

    alpha: Form
    beta: Form

    def __post_init__(self):
        if self.alpha.degree != 1 or self.beta.degree != 2:
            raise DimensionError("pair needs a 1-form and a 2-form")
        if self.alpha.m != self.beta.m:
            raise DimensionError("pair members live on different spaces")
        if self.alpha.m % 2 == 0:
            raise DimensionError("odd complex dimension 2n+1 required")
        if self.alpha.variant != self.beta.variant:
            raise VariantError("pair members mix coefficient variants; convert with to_expr()")

    @property
    def m(self) -> int:
        return self.alpha.m

    @property
    def n(self) -> int:
        return (self.alpha.m - 1) // 2

    @classmethod
    def holonomic(cls, alpha: Form) -> "FormalPair":
        return cls(alpha, ext_d(alpha))


def contact_defect(alpha: Form) -> Form:
    """The top form alpha ^ (d alpha)^n; nonvanishing means contact."""
    return formal_defect(FormalPair.holonomic(alpha))


def formal_defect(pair: FormalPair) -> Form:
    """The top form alpha ^ beta^n of a formal pair."""
    n = pair.n
    if n == 0:
        return pair.alpha
    return wedge(pair.alpha, wedge_power(pair.beta, n))


def _pair_margins(title: str, label: str, pair: FormalPair, samples, tol: float,
                  verbose: bool) -> VerificationReport:
    """The margin report of ``pair``: |h| at each sample, a missing word
    read as the point's zero.  No word but alpha's dz_i and beta's
    dz_r^dz_s reaches h, so the rest of both forms is dropped once."""
    m, n = pair.m, pair.n
    alpha, beta = [Form(m, f.degree, {w: c for w, c in f.terms.items() if w[-1] < m},
                        f.variant) for f in (pair.alpha, pair.beta)]
    report = VerificationReport(title)
    worst = worst_pt = None
    for idx, pt in enumerate(samples):
        if not isinstance(pt, Point):
            raise PreconditionError(f"sample {idx} is not a Point: {pt!r}")
        values, zero = alpha.evaluate(pt) | beta.evaluate(pt), alpha._zero_value(pt)
        mag = abs(complex(relation_h(lambda i: values.get((i,), zero),
                                     lambda r, s: values.get((r, s), zero), n)))
        if verbose:
            report.add(f"{label} sample {idx}", mag >= tol, f"|coeff|={fmt_num(mag)}")
        if worst is None or mag < worst:
            worst, worst_pt = mag, pt
    if worst is None:
        report.add(f"{label} samples", True, "no samples supplied (vacuous)")
    else:
        report.add(f"{label} min margin", worst >= tol,
                   f"min|coeff|={fmt_num(worst)} tol={fmt_num(tol)} at {worst_pt!r}")
    return report


def is_contact_on(alpha: Form, samples, tol: float,
                  verbose: bool = False) -> VerificationReport:
    """Check |h| >= tol at every sample, h the volume coefficient of
    alpha ^ (d alpha)^n.

    ``samples`` is an iterable of Point.  d alpha is taken once; at each
    sample h comes from ``relation_h`` on the point values, and the report
    records the minimum |h| and where it occurs.
    """
    return _pair_margins("contact condition on samples", "contact",
                         FormalPair.holonomic(alpha), samples, tol, verbose)


def is_formal_contact_on(pair: FormalPair, samples, tol: float,
                         verbose: bool = False) -> VerificationReport:
    return _pair_margins("formal contact condition on samples", "formal",
                         pair, samples, tol, verbose)


def relation_coefficient(a: list, b: list):
    """The alternating contraction sum_i (-1)^i a[i] b[i] (0-based).

    This is the scalar whose nonvanishing defines the contact relation;
    it equals the holomorphic-volume coefficient of alpha ^ beta^n when
    b comes from pfaffian_coeffs of beta's reader.
    """
    if len(a) != len(b):
        raise DimensionError("vector length mismatch")
    total = None
    for i, (ai, bi) in enumerate(zip(a, b)):
        term = ai * bi
        if i % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        raise DimensionError("empty vectors")
    return total
