"""Catalog entries and their pinned defect identities."""

import cmath
import dataclasses
import math
import random

import pytest

from contactkit.coefficients import LaurentPoly
from contactkit.contact import contact_defect
from contactkit.errors import PreconditionError
from contactkit.forms import Form, Point, pullback
from contactkit.gallery import (
    CIRCLE_EXPONENTS, SAMPLE_TOL, SIGMA_TIMES, TORUS_TRIPLES, GalleryEntry,
    _check_sampled, alpha_prime, circle_form, cover_target_form,
    covering_check, covering_map, gallery_entries, gallery_verify_all,
    named_form, rotation_automorphism, sigma_homotopy, std_form, torus_form,
)
from contactkit.reports import VerificationReport
from contactkit.sampling import numeric_points
from contactkit.scalars import QC
from oracles import top_coefficient


def top_word(m=3):
    return tuple(range(m))


def test_std_defect_is_factorial():
    for n, expected in ((1, 1), (2, 2), (3, 6)):
        alpha = std_form(n)
        m = 2 * n + 1
        want = Form(m, m, {tuple(range(m)): LaurentPoly.const(m, expected)})
        assert contact_defect(alpha) == want
    with pytest.raises(PreconditionError):
        std_form(0)


def test_circle_defect_powers():
    """defect(circle k) = z1^k exactly on the rational branches."""
    for k in CIRCLE_EXPONENTS:
        if k == -1:
            continue
        defect = contact_defect(circle_form(k))
        assert defect == Form(3, 3, {top_word(): LaurentPoly.z(3, 0, k)})


def test_circle_minus_one_branch_sampled():
    """The k = -1 branch carries 1/sqrt(2) and is checked numerically."""
    defect = contact_defect(circle_form(-1))
    rng = random.Random(7)
    for _ in range(20):
        z1 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
        pt = Point([z1, 0.3 + 0.1j, -0.2 + 0.4j])
        got = complex(top_coefficient(defect, pt))
        assert abs(got - 1 / z1) <= 1e-12 * max(1.0, abs(1 / z1))


def test_alpha_prime_defect():
    want = Form(3, 3, {top_word(): LaurentPoly.z(3, 0, -1) * QC(0, -1)})
    assert contact_defect(alpha_prime()) == want


def test_sigma_homotopy_endpoints():
    """t=0 agrees with the circle form and t=1 with alpha_prime pointwise."""
    pts = [Point([1.1 + 0.3j, 0.2 - 0.1j, 0.4 + 0.2j]),
           Point([0.8 - 0.5j, -0.3 + 0.2j, 0.1 + 0.9j])]
    s0, s1 = sigma_homotopy(0.0), sigma_homotopy(1.0)
    c, ap = circle_form(-1), alpha_prime()
    for pt in pts:
        for w in ((1,), (2,)):
            assert abs(complex(s0.coefficient_at(pt, w))
                       - complex(c.coefficient_at(pt, w))) < 1e-14
            assert abs(complex(s1.coefficient_at(pt, w))
                       - complex(ap.coefficient_at(pt, w))) < 1e-14


def test_sigma_defect_rotates_with_t():
    """defect(sigma_t) = e^{-i pi t / 2} / z1 at every probed time."""
    rng = random.Random(11)
    for t in [float(s) for s in SIGMA_TIMES] + [0.3, 0.77]:
        defect = contact_defect(sigma_homotopy(t))
        for _ in range(5):
            z1 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
            pt = Point([z1, 0.1 + 0.2j, -0.4 + 0.1j])
            got = complex(top_coefficient(defect, pt))
            want = cmath.exp(-1j * math.pi * t / 2) / z1
            assert abs(got - want) < 1e-12


def test_sigma_homotopy_is_continuous_in_t():
    pt = Point([1.3 + 0.2j, 0.5j, 0.7 + 0.1j])
    gaps = []
    for dt in (0.25, 0.125, 0.0625):
        a = sigma_homotopy(0.5)
        b = sigma_homotopy(0.5 + dt)
        gap = max(abs(complex(a.coefficient_at(pt, w))
                      - complex(b.coefficient_at(pt, w)))
                  for w in ((1,), (2,)))
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.3)
    with pytest.raises(PreconditionError):
        sigma_homotopy(1.5)


def test_torus_defect_monomials():
    for k, l, m in TORUS_TRIPLES:
        mono = (LaurentPoly.z(3, 0, k) * LaurentPoly.z(3, 1, l)
                * LaurentPoly.z(3, 2, m))
        defect = contact_defect(torus_form(k, l, m))
        assert defect == Form(3, 3, {top_word(): mono})
    # a k = -1 triple outside the pinned list, same special branch
    mono = LaurentPoly.z(3, 0, -1) * LaurentPoly.z(3, 1, 2) * LaurentPoly.z(3, 2)
    assert contact_defect(torus_form(-1, 2, 1)) == Form(3, 3, {top_word(): mono})


def test_covering_check_passes():
    report = covering_check()
    assert report.passed, report.to_text()
    assert len(report.checks) == 2


def test_covering_pullback_pointwise():
    """The cover (e^{i z1}, z2, z3) turns the Laurent pair (z +- 1/z)/2
    into cos and sin of z1."""
    pulled = pullback(covering_map(), alpha_prime())
    target = cover_target_form()
    rng = random.Random(13)
    for _ in range(10):
        pt = Point([complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)),
                    complex(rng.uniform(-1, 1), 0),
                    complex(rng.uniform(-1, 1), 0)])
        for w in ((0,), (1,), (2,)):
            got = complex(pulled.coefficient_at(pt, w))
            want = complex(target.coefficient_at(pt, w))
            assert abs(got - want) < 1e-12


def test_rotation_automorphism_pullback():
    pulled = pullback(rotation_automorphism(),
                      Form(3, 1, {(2,): LaurentPoly.const(3, 1),
                                  (0,): -LaurentPoly.z(3, 1)}))
    target = cover_target_form()
    pt = Point([0.4 - 0.2j, 0.9 + 0.1j, -0.5 + 0.3j])
    for w in ((0,), (1,), (2,)):
        got = complex(pulled.coefficient_at(pt, w))
        want = complex(target.coefficient_at(pt, w))
        assert abs(got - want) < 1e-12


def test_gallery_verify_all_passes():
    report = gallery_verify_all()
    assert report.passed, report.to_text()
    assert len(report.checks) == 26


def test_gallery_filter():
    report = gallery_verify_all(name_filter="torus")
    assert report.passed
    assert len(report.checks) == len(TORUS_TRIPLES)
    assert all("torus" in c.name for c in report.checks)


def test_gallery_filter_vacuous_warning():
    report = gallery_verify_all(name_filter="no-such-entry")
    assert report.passed
    assert any("vacuous" in c.detail for c in report.checks)


def test_sampled_check_catches_wrong_expected():
    """A corrupted expected identity must fail, not pass vacuously."""
    report = VerificationReport("corrupted entry")
    got = contact_defect(circle_form(1))
    wrong = Form(3, 3, {top_word(): LaurentPoly.z(3, 0, 2)})
    _check_sampled(report, "bad", got, wrong, numeric_points(3, 20, 3), SAMPLE_TOL)
    assert not report.passed


def test_named_form_parsing():
    assert named_form("std").m == 3
    assert named_form("std:2").m == 5
    assert named_form("circle:-2") == circle_form(-2)
    assert named_form("prime") == alpha_prime()
    assert named_form("torus:1,2,3") == torus_form(1, 2, 3)
    assert named_form("sigma:1/2").variant == "expr"
    for bad in ("nope", "circle:x", "torus:1,2", "std:0", "sigma:2"):
        with pytest.raises(PreconditionError):
            named_form(bad)


GALLERY_REFUSALS = [
    (lambda: named_form(True), "bad gallery name True: not a string"),
    (lambda: named_form(None), "bad gallery name None: not a string"),
    (lambda: named_form(3), "bad gallery name 3: not a string"),
    (lambda: sigma_homotopy("a"), "homotopy parameter t must be a real number, got 'a'"),
    (lambda: sigma_homotopy(1j), "homotopy parameter t must be a real number, got 1j"),
    (lambda: sigma_homotopy(None), "homotopy parameter t must be a real number, got None"),
    (lambda: sigma_homotopy(True), "homotopy parameter t must be a real number, got True"),
    (lambda: sigma_homotopy(1.5), "homotopy parameter 1.5 outside [0, 1]"),
]


@pytest.mark.parametrize("call, fragment", GALLERY_REFUSALS, ids=[r[1] for r in GALLERY_REFUSALS])
def test_a_bad_gallery_argument_is_refused_by_name(call, fragment):
    """A gallery name must be a string and a homotopy time a real number,
    not a bool: each is refused with a PreconditionError naming it."""
    with pytest.raises(PreconditionError) as err:
        call()
    assert type(err.value) is PreconditionError
    assert fragment in str(err.value)


def test_gallery_entry_catalog():
    entries = gallery_entries()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert {e.mode for e in entries} == {"exact", "sampled"}
    for e in entries:
        assert e.variant == e.form.variant
        if e.mode == "exact":
            assert e.variant == "laurent"


CATALOG = [
    ("std n=1", "laurent", "exact"),
    ("std n=2", "laurent", "exact"),
    ("circle k=-3", "laurent", "exact"),
    ("circle k=-2", "laurent", "exact"),
    ("circle k=-1", "expr", "sampled"),
    ("circle k=0", "laurent", "exact"),
    ("circle k=1", "laurent", "exact"),
    ("circle k=2", "laurent", "exact"),
    ("circle k=3", "laurent", "exact"),
    ("sigma t=0", "expr", "sampled"),
    ("sigma t=1/4", "expr", "sampled"),
    ("sigma t=1/2", "expr", "sampled"),
    ("sigma t=3/4", "expr", "sampled"),
    ("sigma t=1", "expr", "sampled"),
    ("torus k=0 l=0 m=0", "laurent", "exact"),
    ("torus k=2 l=1 m=3", "laurent", "exact"),
    ("torus k=-1 l=0 m=0", "laurent", "exact"),
    ("torus k=1 l=2 m=0", "laurent", "exact"),
    ("torus k=-1 l=2 m=-1", "laurent", "exact"),
    ("torus k=-2 l=-1 m=3", "laurent", "exact"),
    ("torus k=0 l=-2 m=1", "laurent", "exact"),
    ("torus k=3 l=0 m=-3", "laurent", "exact"),
    ("torus k=-3 l=1 m=1", "laurent", "exact"),
    ("torus k=2 l=-2 m=2", "laurent", "exact"),
]


def test_gallery_modes_follow_the_form_variant():
    """An entry stores its name, form and expected defect; its variant and
    mode are read from the form, and the catalog keeps its pinned modes."""
    assert [f.name for f in dataclasses.fields(GalleryEntry)] == ["name", "form", "expected"]
    assert [(e.name, e.variant, e.mode) for e in gallery_entries()] == CATALOG
