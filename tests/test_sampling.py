"""Exact sample points are drawn without building Fractions.

The reference here is the earlier ``Fraction`` path: two reduced
fractions over 7, joined into one ``QC``.  The generators draw the same
two ints per value and reduce ``(a, b, 7)`` once, so the stored triples
must agree draw for draw.
"""

import cmath
import math
import random
from fractions import Fraction

from contactkit.sampling import exact_points, numeric_points, random_qc, unit_modulus_values
from contactkit.scalars import QC


def fraction_qc(rng, spread=2):
    re = Fraction(rng.randint(-spread * 7, spread * 7), 7)
    im = Fraction(rng.randint(-spread * 7, spread * 7), 7)
    return QC(re, im)


def triple(q):
    return q._a, q._b, q._d


def test_random_qc_matches_the_fraction_path_on_20000_draws():
    fast, slow = random.Random(11), random.Random(11)
    for k in range(20000):
        spread = 2 if k % 2 else k % 5
        assert triple(random_qc(fast, spread)) == triple(fraction_qc(slow, spread))
    assert fast.random() == slow.random()


def test_exact_points_match_the_fraction_path():
    for seed in (0, 5, 9):
        rng = random.Random(seed)
        want = []
        while len(want) < 40:
            vals = [fraction_qc(rng, 1) for _ in range(3)]
            if not any(v.is_zero for v in vals):
                want.append([triple(v) for v in vals])
        got = [[triple(v) for v in pt.values] for pt in exact_points(3, 40, seed)]
        assert got == want


def test_exact_points_are_sevenths_in_the_unit_box():
    """Every coordinate is (a + b*i) / 7 with |a|, |b| <= 7, and none is
    zero: the fixed denominator 7 and spread 1."""
    for m, seed in ((1, 0), (3, 8), (5, 21)):
        for pt in exact_points(m, 30, seed):
            for v in pt.values:
                assert not v.is_zero and 7 % v._d == 0
                assert abs(v._a) <= v._d and abs(v._b) <= v._d


def test_unit_modulus_values_keep_the_draws_over_9():
    """Distinct t = k/9 with |k| <= 18, each mapped to the unit circle."""
    for seed in (0, 4):
        rng = random.Random(seed)
        ts = []
        while len(ts) < 20:
            t = Fraction(rng.randint(-18, 18), 9)
            if t not in ts:
                ts.append(t)
        want = [QC((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
        got = unit_modulus_values(20, seed)
        assert [triple(v) for v in got] == [triple(v) for v in want]
        assert all(v.abs2() == 1 for v in got)


def annulus_samples(count, seed):
    """The gallery's three-fold sampler before it moved into sampling."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        r = 0.5 + 1.5 * rng.random()
        phi = 2 * math.pi * rng.random()
        z1 = r * cmath.exp(1j * phi)
        rest = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        pts.append((z1, *rest))
    return pts


def test_numeric_points_keep_the_gallery_draws():
    for seed in (0, 3, 17):
        got = [pt.values for pt in numeric_points(3, 100, seed)]
        assert repr(got) == repr(annulus_samples(100, seed))
    for m in (1, 2, 5):
        for pt in numeric_points(m, 50, m):
            assert pt.m == m and 0.5 <= abs(pt.values[0]) <= 2
            assert all(abs(z.real) <= 1 and abs(z.imag) <= 1 for z in pt.values[1:])
