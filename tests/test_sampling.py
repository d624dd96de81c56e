"""Exact sample points are drawn without building Fractions.

The reference here is the earlier ``Fraction`` path: two reduced
fractions over ``den``, joined into one ``QC``.  The generators draw the
same two ints per value and reduce ``(a, b, den)`` once, so the stored
triples must agree draw for draw.
"""

import cmath
import math
import random
from fractions import Fraction

from contactkit.sampling import exact_points, numeric_points, random_qc
from contactkit.scalars import QC


def fraction_qc(rng, den=7, spread=2):
    re = Fraction(rng.randint(-spread * den, spread * den), den)
    im = Fraction(rng.randint(-spread * den, spread * den), den)
    return QC(re, im)


def triple(q):
    return q._a, q._b, q._d


def test_random_qc_matches_the_fraction_path_on_20000_draws():
    fast, slow = random.Random(11), random.Random(11)
    for k in range(20000):
        den, spread = (7, 2) if k % 2 else (1 + k % 12, 1 + k % 3)
        assert triple(random_qc(fast, den, spread)) == triple(fraction_qc(slow, den, spread))
    assert fast.random() == slow.random()


def test_exact_points_match_the_fraction_path():
    for seed, spread in ((0, 1), (5, 1), (9, 3)):
        rng = random.Random(seed)
        want = []
        while len(want) < 40:
            vals = [fraction_qc(rng, 7, spread) for _ in range(3)]
            if not any(v.is_zero for v in vals):
                want.append([triple(v) for v in vals])
        got = [[triple(v) for v in pt.values] for pt in exact_points(3, 40, seed, spread)]
        assert got == want


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
