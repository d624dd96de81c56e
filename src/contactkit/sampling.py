"""Seeded sample-point generators.

Identity checks in this package are exact, so the sample sets only need to
be reproducible and pole-free, not dense.  Everything here is driven by
``random.Random(seed)`` and returns the same points for the same arguments.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from .errors import PreconditionError, _count
from .forms import Point
from .scalars import QC, _reduced


def _check_draw(m: int, count: int, seed: int) -> None:
    """Refuse a point draw's dimension m, count or seed that is not an int
    of its range, by name."""
    _count(m, "dimension m", 1)
    _count(count, "count", 0, PreconditionError)
    _count(seed, "seed", error=PreconditionError)


def exact_points(m: int, count: int, seed: int = 0) -> list[Point]:
    """Random Gaussian-rational points, every coordinate a ``random_qc``
    draw over 7 with spread 1, all coordinates nonzero.

    Nonzero coordinates keep negative-exponent coefficients away from their
    poles, so every Laurent evaluation on these points is exact.
    """
    _check_draw(m, count, seed)
    rng = random.Random(seed)
    pts: list[Point] = []
    while len(pts) < count:
        vals = [random_qc(rng, 1) for _ in range(m)]
        if any(v.is_zero for v in vals):
            continue
        pts.append(Point(vals))
    return pts


def numeric_points(m: int, count: int, seed: int = 0) -> list[Point]:
    """Random complex points (floats, for expr coefficients) with |z1| in
    [1/2, 2], clear of the C* puncture, and the other m - 1 coordinates in
    the unit box."""
    _check_draw(m, count, seed)
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        r = 0.5 + 1.5 * rng.random()
        phi = 2 * math.pi * rng.random()
        z1 = r * cmath.exp(1j * phi)
        rest = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m - 1)]
        pts.append(Point((z1, *rest)))
    return pts


def random_qc(rng: random.Random, spread: int = 2) -> QC:
    """One random Gaussian rational ``(a + b*i) / 7`` with ``|a|, |b| <=
    7 spread``, reduced once."""
    top = _count(spread, "spread", 0, PreconditionError) * 7
    return _reduced(rng.randint(-top, top), rng.randint(-top, top), 7)


def random_jet(n: int, rng: random.Random):
    """A random exact first-order jet in ambient dimension 2n+1."""
    from .jets import Jet1

    m = 2 * _count(n, "n", 0) + 1
    a = tuple(random_qc(rng) for _ in range(m))
    p = tuple(tuple(random_qc(rng) for _ in range(m)) for _ in range(m))
    return Jet1(n, a, p)


def unit_modulus_values(count: int, seed: int = 0) -> list[QC]:
    """Exact points on the unit circle via the rational parametrization
    ``t -> ((1-t^2) + 2ti) / (1+t^2)``, t a distinct draw of k/9 with
    |k| <= 18."""
    _count(count, "count", 0, PreconditionError)
    rng = random.Random(_count(seed, "seed", error=PreconditionError))
    vals: list[QC] = []
    seen: set[Fraction] = set()
    while len(vals) < count:
        t = Fraction(rng.randint(-18, 18), 9)
        if t in seen:
            continue
        seen.add(t)
        d = 1 + t * t
        vals.append(QC(Fraction(1 - t * t, 1) / d, (2 * t) / d))
    return vals
