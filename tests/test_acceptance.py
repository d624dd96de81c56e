"""Acceptance runs for the package's headline guarantees.

Each test covers one advertised criterion end to end and prints a single
PASS or FAIL line (bypassing pytest capture), so a full run leaves a
seven-line verdict in the log.  The per-module suites cover the same
ground with finer diagnostics; the sample counts and tolerances here are
the contract.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from contactkit.ci import (
    N_FRAMES, ci_solve, demo_flat_section, demo_gamma_section,
    demo_holonomic_section, loop_for_target, verify_ci,
)
from contactkit.coefficients import LaurentPoly, Monomial
from contactkit.contact import (
    FormalPair, contact_defect, formal_defect, is_contact_on,
    pfaffian_coeffs,
)
from contactkit.extend import (
    SampledExtension, ah_pullback_verify, extend_function, fit_holomorphic,
    multi_indices,
)
from contactkit.forms import Form, Point, ext_d, pullback, wedge, wedge_power
from contactkit.gallery import (
    alpha_prime, circle_form, covering_map, gallery_verify_all,
    rotation_automorphism, sigma_homotopy, std_form, torus_form,
)
from contactkit.grids import CubeGrid
from contactkit.jets import (
    RestrictedJet, ampleness_slice, formal_margin_grid, relation_value,
)
from contactkit.sampling import exact_points, random_jet, random_qc
from contactkit.scalars import QC


@pytest.fixture
def announce(capsys):
    """Run a criterion body and print one PASS/FAIL line past the capture."""

    def _run(num: int, label: str, body) -> None:
        try:
            detail = body()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num} ({label}): FAIL", flush=True)
            raise
        line = f"criterion {num} ({label}): PASS"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line, flush=True)

    return _run


# -- shared generators (same families as the module suites) ------------------


def random_coeff(m, rng, allow_negative=False, max_exp=2):
    low = -max_exp if allow_negative else 0
    mono = Monomial(tuple(rng.randint(low, max_exp) for _ in range(m)),
                    tuple(rng.randint(0, 1) for _ in range(m)))
    c = QC(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
           Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    if c.is_zero:
        c = QC(1)
    return LaurentPoly(m, {mono: c})


def random_form(m, degree, rng, n_terms=3, allow_negative=False, max_exp=2):
    words = list(combinations(range(2 * m), degree))
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        w = words[rng.randrange(len(words))]
        c = random_coeff(m, rng, allow_negative, max_exp)
        terms[w] = terms.get(w, LaurentPoly.zero(m)) + c
    return Form(m, degree, terms)


def random_poly_map(m, rng):
    """Affine or single-monomial components; composition-friendly."""
    from contactkit.forms import PolyMap

    comps = []
    for _ in range(m):
        scale = QC(rng.randint(1, 3), rng.randint(-2, 2))
        if rng.random() < 0.5:
            j = rng.randrange(2 * m)
            base = LaurentPoly.z(m, j) if j < m else LaurentPoly.zbar(m, j - m)
            c = base * scale + QC(rng.randint(-2, 2), rng.randint(-2, 2))
        else:
            slots = rng.sample(range(2 * m), 2)
            zexp = [0] * m
            zbexp = [0] * m
            for s in slots:
                if s < m:
                    zexp[s] += 1
                else:
                    zbexp[s - m] += 1
            c = LaurentPoly(m, {Monomial(tuple(zexp), tuple(zbexp)): scale})
        comps.append(c)
    return PolyMap(m, comps)


def random_skew(m, rng):
    """The upper entries {(i, j): B_ij} (i < j) of a random exact skew matrix."""
    return {(i, j): random_qc(rng) for i in range(m) for j in range(i + 1, m)}


def skew_reader(B):
    return lambda r, s: B[r, s]


def skew_to_two_form(B, m):
    terms = {}
    for (i, j), v in B.items():
        if not v.is_zero:
            terms[(i, j)] = LaurentPoly.const(m, v)
    return Form(m, 2, terms)


def annulus_points(count, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        z1 = cmath.rect(0.5 + 1.5 * rng.random(), 2 * math.pi * rng.random())
        rest = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        pts.append(Point([z1, *rest]))
    return pts


def node_sample(section, count, seed):
    """A seeded subsample of grid nodes with their 1-form rows."""
    grid = section.grid
    rng = random.Random(seed)
    chosen = rng.sample(list(np.ndindex(grid.shape)), count)
    pts = [Point(tuple(complex(c, 0.0) for c in grid.node_coords(node)))
           for node in chosen]
    rows = [tuple(section.a[node]) for node in chosen]
    return pts, rows


# -- the seven criteria -------------------------------------------------------


def test_criterion_1_gallery_identities(announce):
    def body():
        t0 = time.perf_counter()
        report = gallery_verify_all()
        elapsed = time.perf_counter() - t0
        assert report.passed, report.to_text()
        assert elapsed < 5.0, f"gallery run took {elapsed:.2f}s"
        return f"{len(report.checks)} checks in {elapsed:.2f}s"

    announce(1, "gallery identities, exact and sampled", body)


def test_criterion_2_pfaffian_oracle(announce):
    def body():
        rng = random.Random(202)
        matrices = 0
        for n in (1, 2):
            m = 2 * n + 1
            for _ in range(100):
                B = random_skew(m, rng)
                power = wedge_power(skew_to_two_form(B, m), n)
                expected = []
                for i in range(m):
                    word = tuple(k for k in range(m) if k != i)
                    expected.append(power.coeff(word).constant_value())
                assert pfaffian_coeffs(skew_reader(B), n) == expected
                matrices += 1
        pairs = 0
        for n in (1, 2):
            m = 2 * n + 1
            for _ in range(50):
                B = random_skew(m, rng)
                a = [random_qc(rng) for _ in range(m)]
                alpha = Form(m, 1, {(i,): LaurentPoly.const(m, v)
                                    for i, v in enumerate(a) if not v.is_zero})
                defect = formal_defect(FormalPair(alpha, skew_to_two_form(B, m)))
                b = pfaffian_coeffs(skew_reader(B), n)
                want = QC(0)
                for i in range(m):
                    term = a[i] * b[i]
                    want = want + term if i % 2 == 0 else want - term
                got = defect.coeff(tuple(range(m))).constant_value()
                assert got == want
                pairs += 1
        return f"{matrices} skew matrices, {pairs} formal pairs, exact"

    announce(2, "skew wedge-power expansion oracle", body)


def test_criterion_3_relation_ampleness(announce):
    def body():
        rng = random.Random(303)
        delta = 1e-3
        jets = loops = memberships = 0
        for n in (1, 2):
            m = 2 * n + 1
            for i in range(m):
                for _ in range(1000):
                    jet = random_jet(n, rng)
                    row0 = jet.p[i]
                    dr = [random_qc(rng) for _ in range(m)]
                    vals = []
                    for s in (0, 1, 2):
                        row = tuple(row0[k] + dr[k] * QC(s) for k in range(m))
                        vals.append(relation_value(jet.with_row(i, row)))
                    assert vals[0] - vals[1] * QC(2) + vals[2] == QC(0)
                    slc = ampleness_slice(RestrictedJet(jet, i))
                    probe = tuple(random_qc(rng) for _ in range(m))
                    for row in (row0, probe):
                        hv = relation_value(jet.with_row(i, row))
                        assert slc.contains(row) == (not hv.is_zero)
                        memberships += 1
                    if slc.kind != "empty":
                        target = tuple(
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(m))
                        loop = loop_for_target(slc, target, delta)
                        mean = loop.mean_quadrature(64)
                        assert max(abs(g - t)
                                   for g, t in zip(mean, target)) <= 1e-10
                        if slc.kind == "hyperplane":
                            margin = loop.min_affine_margin(slc.w, slc.c, k=72)
                            assert abs(margin - delta) <= 1e-10
                        loops += 1
                    jets += 1
        return f"{jets} jets, {loops} loops, {memberships} membership samples"

    announce(3, "jet relation affine, ample, and loop-reachable", body)


def test_criterion_4_flat_extension(announce):
    def body():
        t0 = time.perf_counter()
        for I in multi_indices(3, 4):
            f = LaurentPoly(3, {Monomial(tuple(I), (0, 0, 0)): QC(1)})
            assert extend_function(f, max(sum(I), 1)) == f

        grid = CubeGrid(1, nodes=17)
        x1 = grid.axis(0).reshape(-1, 1, 1)
        x2 = grid.axis(1).reshape(1, -1, 1)
        nodes = [(4, 4, 4), (8, 8, 8), (12, 6, 9)]
        for values in (np.sin(x1) * np.ones(grid.shape),
                       np.exp(x2) * np.ones(grid.shape)):
            for l in (1, 2, 3):
                ext = SampledExtension(grid, values, l=l)
                hi = ext.max_residual(nodes, (0.2, 0.1, 0.0))
                lo = ext.max_residual(nodes, (0.1, 0.05, 0.0))
                assert lo > 0
                assert abs(hi / lo / 2 ** l - 1) <= 0.2

        forms = [std_form(1), alpha_prime(), circle_form(-1), circle_form(2),
                 torus_form(1, 0, 2), torus_form(0, 1, 1), sigma_homotopy(0.25)]
        pairs = 0
        for idx in range(50):
            F = covering_map() if idx % 2 == 0 else rotation_automorphism()
            alpha = forms[idx % len(forms)]
            report = ah_pullback_verify(F, alpha, annulus_points(10, 400 + idx),
                                        1e-8)
            assert report.passed, report.to_text()
            pairs += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"extension checks took {elapsed:.2f}s"
        return f"35 monomials, 2 sampled families, {pairs} pullback pairs in {elapsed:.2f}s"

    announce(4, "flat extension off the real slice", body)


def test_criterion_5_convex_integration_desk_run(announce):
    def body():
        t0 = time.perf_counter()
        eps, delta = 0.5, 1e-3

        inp, gamma = demo_flat_section(nodes=33)
        result = ci_solve(inp, gamma, eps, delta)
        assert result.passed, result.failure
        assert result.margin >= delta
        assert result.deviation <= eps
        assert len(result.frames) == N_FRAMES
        for frame in result.frames:
            assert float(formal_margin_grid(frame).min()) > 0.0
        report = verify_ci(result, inp, eps, delta)
        assert report.passed, report.to_text()

        hol, hgamma = demo_holonomic_section(nodes=33)
        hres = ci_solve(hol, hgamma, eps, delta)
        assert hres.passed and hres.deviation == 0.0
        assert np.array_equal(hres.output.a, hol.a)
        assert np.array_equal(hres.output.beta, hol.beta)

        ginp, ggamma = demo_gamma_section(nodes=33)
        gres = ci_solve(ginp, ggamma, eps, delta)
        assert gres.passed, gres.failure
        frozen = ggamma.frozen_mask(ginp.grid)
        assert frozen.any()
        for frame in gres.frames:
            assert np.array_equal(frame.a[frozen], ginp.a[frozen])
            assert np.array_equal(frame.beta[frozen], ginp.beta[frozen])
        greport = verify_ci(gres, ginp, eps, delta)
        assert greport.passed, greport.to_text()

        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0, f"desk run took {elapsed:.1f}s"
        return (f"margin={result.margin:.3e} deviation={result.deviation:.3f} "
                f"three 33^3 runs in {elapsed:.1f}s")

    announce(5, "convex integration desk run", body)


def test_criterion_6_holomorphic_closure(announce):
    def body():
        delta = 1e-3

        pts = exact_points(3, 40, seed=606)
        rows = [std_form(1).covector_at(p) for p in pts]
        fit0 = fit_holomorphic(pts, rows, 1)
        assert fit0.residual == 0.0
        assert fit0.form == std_form(1)

        inp, gamma = demo_flat_section(nodes=33)
        result = ci_solve(inp, gamma, 0.5, delta)
        assert result.passed
        opts, orows = node_sample(result.output, 2000, seed=61)
        fit = fit_holomorphic(opts, orows, 10)
        if fit.residual <= delta / 10:
            rep = is_contact_on(fit.form, opts, delta / 2)
            assert rep.passed, rep.to_text()
            branch = f"margin >= {delta / 2} on the oscillatory output"
        else:
            branch = (f"oscillatory residual {fit.residual:.3e} above "
                      f"{delta / 10:.0e}, margin clause vacuous there")

        hol, hgamma = demo_holonomic_section(nodes=33)
        hres = ci_solve(hol, hgamma, 0.5, delta)
        hpts, hrows = node_sample(hres.output, 1200, seed=62)
        hfit = fit_holomorphic(hpts, hrows, 2)
        assert hfit.residual <= delta / 10
        hrep = is_contact_on(hfit.form, hpts, delta / 2)
        assert hrep.passed, hrep.to_text()

        return (f"exact degree-1 recovery; degree-10 residual "
                f"{fit.residual:.3e}; {branch}; holonomic branch non-vacuous")

    announce(6, "holomorphic closure of solver output", body)


def test_criterion_7_structural_invariants(announce):
    def body():
        rng = random.Random(707)
        for _ in range(1000):
            w = random_form(3, rng.choice([1, 2]), rng, allow_negative=True)
            assert ext_d(ext_d(w)).is_zero

        for _ in range(1000):
            p = rng.choice([0, 1, 2])
            a = random_form(3, p, rng)
            b = random_form(3, rng.choice([1, 2]), rng)
            sign_part = wedge(a, ext_d(b))
            if p % 2:
                sign_part = -sign_part
            assert ext_d(wedge(a, b)) == wedge(ext_d(a), b) + sign_part

        for _ in range(1000):
            p = rng.choice([1, 1, 2])
            q = rng.choice([1, 2])
            a = random_form(3, p, rng)
            b = random_form(3, q, rng)
            rhs = wedge(b, a)
            if (p * q) % 2:
                rhs = -rhs
            assert wedge(a, b) == rhs

        for _ in range(1000):
            F = random_poly_map(3, rng)
            G = random_poly_map(3, rng)
            w = random_form(3, rng.choice([1, 2]), rng, max_exp=1)
            assert pullback(G.compose(F), w) == pullback(F, pullback(G, w))

        for _ in range(1000):
            alpha = Form(3, 1, {
                (0,): LaurentPoly.const(3, random_qc(rng)),
                (1,): LaurentPoly.z(3, 0) * random_qc(rng) + QC(1),
                (2,): LaurentPoly.const(3, QC(1)),
            })
            f = LaurentPoly.z(3, rng.randrange(3)) * random_qc(rng) + random_qc(rng)
            scaled = wedge(Form.scalar(3, f), alpha)
            rhs = wedge(Form.scalar(3, f * f), contact_defect(alpha))
            assert contact_defect(scaled) == rhs

        return "5 identities x 1000 exact instances, zero failures"

    announce(7, "structural invariants at scale", body)
