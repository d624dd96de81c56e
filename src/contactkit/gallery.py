"""Catalog of explicit contact forms with their closed-form defects.

Every entry pairs a form with the top-degree identity its defect should
satisfy.  The form's variant decides how the identity is checked: exact
polynomial equality for Laurent (rational-coefficient) entries, seeded
sampling at 1e-12 relative tolerance for expression entries, whose
coefficients are irrational or transcendental.  Coordinates are
(z1, z2, z3) on the three-fold entries.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import (Const, Cos, Exp, LaurentPoly, Sin, Sqrt, Z, eadd,
                           emul, epow)
from .contact import contact_defect
from .errors import PreconditionError, _count
from .forms import Form, Point, PolyMap, pullback
from .reports import VerificationReport, fmt_num
from .sampling import numeric_points
from .scalars import QC

SAMPLE_TOL = 1e-12


@dataclass(frozen=True)
class GalleryEntry:
    """A named form with its expected defect identity."""

    name: str
    form: Form
    expected: Form

    @property
    def variant(self) -> str:
        return self.form.variant

    @property
    def mode(self) -> str:
        """Exact for a Laurent form, sampled for an expression form."""
        return "exact" if self.form.variant == "laurent" else "sampled"


def _top_form(m: int, coeff) -> Form:
    return Form(m, m, {tuple(range(m)): coeff})


def std_form(n: int = 1) -> Form:
    """Darboux form dz + sum x_j dy_j with the pairs interleaved as
    (x_j, y_j) = (z_{2j-1}, z_{2j}), so the defect constant is exactly n!."""
    m = 2 * _count(n, "dimension parameter n", 1, PreconditionError) + 1
    terms = {(m - 1,): LaurentPoly.const(m, 1)}
    for j in range(n):
        terms[(2 * j + 1,)] = LaurentPoly.z(m, 2 * j)
    return Form(m, 1, terms)


def circle_form(k: int) -> Form:
    """Contact form on C* x C^2 whose defect is exactly z1^k.

    Rational coefficient 1/(k+1) for k != -1; the k = -1 branch carries
    the irrational 1/sqrt(2) and is an expression form.
    """
    if _count(k, "exponent k", error=PreconditionError) == -1:
        s = epow(Sqrt(Const(2 + 0j)), -1)
        return Form(3, 1, {
            (2,): emul(s, epow(Z(0), -1)),
            (1,): emul(s, Z(0)),
        })
    c = Fraction(1, k + 1)
    return Form(3, 1, {
        (2,): LaurentPoly.const(3, 1),
        (1,): LaurentPoly.z(3, 0, k + 1) * c,
    })


def alpha_prime() -> Form:
    """The form (1/2)(z1 + 1/z1) dz3 - (i/2)(z1 - 1/z1) dz2, with defect
    exactly 1/(i z1); rational coefficients, so Laurent-exact."""
    half = QC(Fraction(1, 2))
    ihalf = QC(0, Fraction(1, 2))
    z = LaurentPoly.z(3, 0)
    zinv = LaurentPoly.z(3, 0, -1)
    return Form(3, 1, {
        (2,): (z + zinv) * half,
        (1,): (z - zinv) * -ihalf,
    })


def sigma_homotopy(t: float) -> Form:
    """The homotopy from circle_form(-1) at t = 0 to alpha_prime at t = 1;
    its defect is e^{-i pi t / 2} / z1 for every t."""
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise PreconditionError(f"homotopy parameter t must be a real number, got {t!r}")
    if not 0 <= t <= 1:
        raise PreconditionError(f"homotopy parameter {t} outside [0, 1]")
    T = Const(complex(t))
    scale = epow(Sqrt(eadd(Const(2 + 0j), emul(Const(2 + 0j), T, T))), -1)
    phase = Exp(emul(Const(-1j * math.pi / 2), T))
    z = Z(0)
    zinv = epow(Z(0), -1)
    return Form(3, 1, {
        (2,): emul(scale, eadd(emul(T, z), zinv)),
        (1,): emul(scale, phase, eadd(z, emul(Const(-1 + 0j), T, zinv))),
    })


def torus_form(k: int, l: int, m: int) -> Form:
    """Contact form on (C*)^3 with defect exactly z1^k z2^l z3^m; both
    branches have rational coefficients."""
    _count(k, "exponent k", error=PreconditionError)
    _count(l, "exponent l", error=PreconditionError)
    _count(m, "exponent m", error=PreconditionError)
    z3m = LaurentPoly.z(3, 2, m)
    if k == -1:
        return Form(3, 1, {
            (2,): z3m * LaurentPoly.z(3, 0, -1) * Fraction(1, 2),
            (1,): LaurentPoly.z(3, 0) * LaurentPoly.z(3, 1, l),
        })
    c = Fraction(1, k + 1)
    return Form(3, 1, {
        (2,): z3m,
        (1,): LaurentPoly.z(3, 0, k + 1) * LaurentPoly.z(3, 1, l) * c,
    })


def covering_map() -> PolyMap:
    """(z1, z2, z3) -> (e^{i z1}, z2, z3), the universal cover of the
    C*-factor."""
    return PolyMap(3, (Exp(emul(Const(1j), Z(0))), Z(1), Z(2)))


def rotation_automorphism() -> PolyMap:
    """(z1, z2, z3) -> (z1, z2 cos z1 - z3 sin z1, z2 sin z1 + z3 cos z1)."""
    x, y, z = Z(0), Z(1), Z(2)
    return PolyMap(3, (
        x,
        eadd(emul(y, Cos(x)), emul(Const(-1 + 0j), z, Sin(x))),
        eadd(emul(y, Sin(x)), emul(z, Cos(x))),
    ))


def cover_target_form() -> Form:
    """cos z1 dz3 + sin z1 dz2, the common value of both pullbacks."""
    return Form(3, 1, {(2,): Cos(Z(0)), (1,): Sin(Z(0))})


# -- sampling helpers ------------------------------------------------------


def _relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _check_sampled(report: VerificationReport, name: str, got: Form,
                   want: Form, samples: list[Point], tol: float) -> None:
    words = sorted(set(got.terms) | set(want.terms))
    worst = 0.0
    for pt in samples:
        for w in words:
            g = got.coefficient_at(pt, w)
            e = want.coefficient_at(pt, w)
            worst = max(worst, _relative_error(g, e))
    report.add(name, worst <= tol,
               f"max relative error {fmt_num(worst)} over {len(samples)} samples")


# -- catalog ---------------------------------------------------------------

TORUS_TRIPLES = [
    (0, 0, 0), (2, 1, 3), (-1, 0, 0), (1, 2, 0), (-1, 2, -1),
    (-2, -1, 3), (0, -2, 1), (3, 0, -3), (-3, 1, 1), (2, -2, 2),
]

SIGMA_TIMES = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

CIRCLE_EXPONENTS = [-3, -2, -1, 0, 1, 2, 3]


def gallery_entries() -> list[GalleryEntry]:
    entries = []
    for n in (1, 2):
        m = 2 * n + 1
        entries.append(GalleryEntry(
            f"std n={n}", std_form(n),
            _top_form(m, LaurentPoly.const(m, math.factorial(n)))))
    for k in CIRCLE_EXPONENTS:
        entries.append(GalleryEntry(f"circle k={k}", circle_form(k),
                                    _top_form(3, LaurentPoly.z(3, 0, k))))
    for t in SIGMA_TIMES:
        phase = cmath.exp(-1j * math.pi * float(t) / 2)
        expected = _top_form(3, emul(Const(phase), epow(Z(0), -1)))
        entries.append(GalleryEntry(
            f"sigma t={t}", sigma_homotopy(float(t)), expected))
    for (k, l, mm) in TORUS_TRIPLES:
        coeff = (LaurentPoly.z(3, 0, k) * LaurentPoly.z(3, 1, l)
                 * LaurentPoly.z(3, 2, mm))
        entries.append(GalleryEntry(
            f"torus k={k} l={l} m={mm}", torus_form(k, l, mm),
            _top_form(3, coeff)))
    return entries


def covering_check(samples: list[Point] | None = None,
                   seed: int = 0) -> VerificationReport:
    """Both displayed pullback identities onto cos z1 dz3 + sin z1 dz2."""
    _count(seed, "seed", error=PreconditionError)
    if samples is None:
        samples = numeric_points(3, 100, seed)
    report = VerificationReport("covering and automorphism pullbacks")
    target = cover_target_form()

    lifted = pullback(covering_map(), alpha_prime())
    _check_sampled(report, "covering map pulls the circle form back to the target",
                   lifted, target, samples, SAMPLE_TOL)

    base = Form(3, 1, {
        (2,): LaurentPoly.const(3, 1),
        (0,): -LaurentPoly.z(3, 1),
    })
    rotated = pullback(rotation_automorphism(), base)
    _check_sampled(report, "rotation automorphism pulls dz3 - z2 dz1 back to the target",
                   rotated, target, samples, SAMPLE_TOL)
    return report


def gallery_verify_all(name_filter: str | None = None,
                       seed: int = 0) -> VerificationReport:
    """Verify every entry in its declared mode, plus the pullback
    identities; a filter narrows by substring match on entry names."""
    _count(seed, "seed", error=PreconditionError)
    report = VerificationReport("gallery identities")
    entries = gallery_entries()
    if name_filter is not None:
        entries = [e for e in entries if name_filter in e.name]
        if not entries:
            report.add("no entries matched filter", True,
                       f"warning: filter {name_filter!r} selected nothing; vacuous pass")
            return report
    samples = numeric_points(3, 100, seed)
    for entry in entries:
        defect = contact_defect(entry.form)
        if entry.mode == "exact":
            same = (defect - entry.expected).is_zero
            report.add(f"{entry.name} defect identity (exact)", same,
                       "polynomial equality" if same else
                       f"defect {defect.sorted_terms()} != expected")
        else:
            _check_sampled(report, f"{entry.name} defect identity (sampled)",
                           defect, entry.expected, samples, SAMPLE_TOL)
    if name_filter is None:
        report.merge(covering_check(samples))
    return report


def named_form(spec: str) -> Form:
    """Resolve CLI names: std[:n], circle:k, sigma:t, torus:k,l,m, prime."""
    if not isinstance(spec, str):
        raise PreconditionError(f"bad gallery name {spec!r}: not a string")
    head, _, arg = spec.partition(":")
    try:
        if head == "std":
            return std_form(int(arg) if arg else 1)
        if head == "circle":
            return circle_form(int(arg))
        if head == "sigma":
            return sigma_homotopy(float(Fraction(arg)))
        if head == "torus":
            k, l, m = (int(p) for p in arg.split(","))
            return torus_form(k, l, m)
        if head == "prime":
            return alpha_prime()
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad gallery name {spec!r}: {exc}") from None
    raise PreconditionError(
        f"unknown gallery name {spec!r} (std, circle:k, sigma:t, torus:k,l,m, prime)")
