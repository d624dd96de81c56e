"""Seeded sample-point generators.

Identity checks in this package are exact, so the sample sets only need to
be reproducible and pole-free, not dense.  Everything here is driven by
``random.Random(seed)`` and returns the same points for the same arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .forms import Point
from .scalars import QC


def _rand_fraction(rng: random.Random, den: int, spread: int) -> Fraction:
    return Fraction(rng.randint(-spread * den, spread * den), den)


def exact_points(m: int, count: int, seed: int = 0, spread: int = 1) -> list[Point]:
    """Random Gaussian-rational points (denominator 7), all coordinates
    nonzero.

    Nonzero coordinates keep negative-exponent coefficients away from their
    poles, so every Laurent evaluation on these points is exact.
    """
    rng = random.Random(seed)
    pts: list[Point] = []
    while len(pts) < count:
        vals = [QC(_rand_fraction(rng, 7, spread), _rand_fraction(rng, 7, spread))
                for _ in range(m)]
        if any(v.is_zero for v in vals):
            continue
        pts.append(Point(vals))
    return pts


def numeric_points(m: int, count: int, seed: int = 0, radius: float = 1.0,
                   min_abs: float = 0.25) -> list[Point]:
    """Random complex points in an annulus (floats, for expr coefficients)."""
    rng = random.Random(seed)
    pts: list[Point] = []
    while len(pts) < count:
        vals = []
        for _ in range(m):
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            vals.append(z)
        if any(abs(z) < min_abs for z in vals):
            continue
        pts.append(Point(vals))
    return pts


def random_qc(rng: random.Random, den: int = 7, spread: int = 2) -> QC:
    """One random Gaussian rational."""
    return QC(_rand_fraction(rng, den, spread), _rand_fraction(rng, den, spread))


def random_jet(n: int, rng: random.Random):
    """A random exact first-order jet in ambient dimension 2n+1."""
    from .jets import Jet1

    m = 2 * n + 1
    a = tuple(random_qc(rng) for _ in range(m))
    p = tuple(tuple(random_qc(rng) for _ in range(m)) for _ in range(m))
    return Jet1(n, a, p)


def unit_modulus_values(count: int, seed: int = 0, den: int = 9) -> list[QC]:
    """Exact points on the unit circle via the rational parametrization
    ``t -> ((1-t^2) + 2ti) / (1+t^2)``."""
    rng = random.Random(seed)
    vals: list[QC] = []
    seen: set[Fraction] = set()
    while len(vals) < count:
        t = _rand_fraction(rng, den, 2)
        if t in seen:
            continue
        seen.add(t)
        d = 1 + t * t
        vals.append(QC(Fraction(1 - t * t, 1) / d, (2 * t) / d))
    return vals
