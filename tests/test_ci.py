"""Convex-integration solver: loop geometry, the oscillation identity,
determinism, and the independent verifier including fault injection."""

import ast
import dataclasses
import hashlib
import math
import random
import re
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contactkit.ci as ci_mod
from contactkit.ci import (
    Homotopy, Loop, ci_solve, demo_flat_section, demo_gamma_section,
    demo_holonomic_section, good_frequency, loop_for_target,
    oscillation_field, verify_ci, FREQ_BASE, N_FRAMES, PHASE_CANDIDATES, SINC_GUARD,
)
from contactkit.errors import ContactKitError, DimensionError, PreconditionError
from contactkit.grids import CubeGrid, GammaSpec, GridSection, _smoothstep5, upper_pairs
from contactkit.jets import (
    RestrictedJet, SliceClass, ampleness_slice, curl_grid, formal_margin_grid, relation_grid,
    slope_grid,
)
from contactkit.sampling import random_jet
from contactkit.scalars import QC
from conftest import traced_peak
from oracles import loop_point


def test_loop_mean_is_center():
    rng = random.Random(2)
    center = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
    direction = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
    loop = Loop(center, direction, 0.7)
    mean = loop.mean_quadrature(64)
    assert max(abs(a - b) for a, b in zip(mean, center)) < 1e-14


def test_loop_for_target_mean_and_margin():
    """Means sit on the target and the worst phase clears exactly delta."""
    rng = random.Random(3)
    delta = 1e-3
    for n in (1, 2):
        m = 2 * n + 1
        for _ in range(25):
            jet = random_jet(n, rng)
            slc = ampleness_slice(RestrictedJet(jet, rng.randrange(m)))
            if slc.kind == "empty":
                continue
            target = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(m))
            loop = loop_for_target(slc, target, delta)
            mean = loop.mean_quadrature(64)
            assert max(abs(a - b) for a, b in zip(mean, target)) < 1e-10
            if slc.kind == "hyperplane":
                margin = loop.min_affine_margin(slc.w, slc.c, k=72)
                assert abs(margin - delta) < 1e-10


def test_loop_for_full_slice_is_constant():
    rng = random.Random(5)
    from contactkit.jets import SliceClass
    from contactkit.scalars import QC
    slc = SliceClass("full", None, QC(2, 1))
    target = (1 + 1j, 0j, -2j)
    loop = loop_for_target(slc, target, 1e-3)
    assert loop.radius == 0.0
    assert loop_point(loop, 1.234) == target


def mean_quadrature_oracle(loop, k):
    """The per-phase sum: point j at theta = 2 pi j / k, averaged."""
    acc = [0j] * len(loop.center)
    for j in range(k):
        pt = loop_point(loop, 2 * math.pi * j / k)
        acc = [a + p for a, p in zip(acc, pt)]
    return tuple(a / k for a in acc)


def min_affine_margin_oracle(loop, w, c, k):
    """min |<w, point> + c| over k phases plus the analytic worst phase."""
    w = [complex(x) for x in w]
    c = complex(c)
    base = sum(wi * ci for wi, ci in zip(w, loop.center)) + c
    slope = sum(wi * vi for wi, vi in zip(w, loop.direction))
    thetas = [2 * math.pi * j / k for j in range(k)]
    if base != 0 and slope != 0:
        thetas.append(math.pi + (np.angle(base) - np.angle(slope)))
    return min(abs(base + loop.radius * slope * complex(math.cos(t), math.sin(t)))
               for t in thetas)


def test_loop_phases_as_arrays_match_per_phase_oracles():
    """Random loops, a radius-0 loop, and both degenerate branches of the
    worst-phase step (base == 0, slope == 0) agree to 1e-12."""
    rng = random.Random(13)

    def vec(m):
        return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))

    cases = []
    for m in (1, 3, 5, 7):
        for _ in range(20):
            loop = Loop(vec(m), vec(m), rng.uniform(0, 3))
            cases.append((loop, vec(m), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        center = vec(m)
        cases.append((Loop(center, tuple(0j for _ in center), 0.0), vec(m), 0.5j))
        w = vec(m)
        loop = Loop(vec(m), vec(m), rng.uniform(0.1, 3))
        base_zero = -sum(wi * ci for wi, ci in zip(w, loop.center))
        cases.append((loop, w, base_zero))
        w0 = (1 + 0.5j,) + (0j,) * (m - 1)
        flat = Loop(vec(m), (0j,) + vec(m)[1:], rng.uniform(0.1, 3))
        cases.append((flat, w0, 0.25 - 1j))
    branches = set()
    for loop, w, c in cases:
        for k in (1, 7, 64):
            got, want = loop.mean_quadrature(k), mean_quadrature_oracle(loop, k)
            assert max(abs(g - x) for g, x in zip(got, want)) <= 1e-12
        for k in (1, 72, 720):
            got = loop.min_affine_margin(w, c, k)
            assert isinstance(got, float)
            assert abs(got - min_affine_margin_oracle(loop, w, c, k)) <= 1e-12
        base = sum(complex(wi) * ci for wi, ci in zip(w, loop.center)) + c
        slope = sum(complex(wi) * vi for wi, vi in zip(w, loop.direction))
        branches.add((base == 0, slope == 0, loop.radius == 0))
    assert {(True, False, False), (False, True, False), (False, True, True),
            (False, False, False)} <= branches
    for k in (0, -3):
        with pytest.raises(PreconditionError, match="phase count k must be >= 1"):
            loop.mean_quadrature(k)
        with pytest.raises(PreconditionError, match="phase count k must be >= 1"):
            loop.min_affine_margin(w, c, k)


def parent_mean_quadrature(loop, k):
    """``Loop.mean_quadrature``'s array body before the unit phases were
    cached per k, kept as the bit-level oracle."""
    ph = loop.radius * np.exp(1j * (2 * np.pi * np.arange(k) / k))
    center, direction = (np.asarray(v, complex) for v in (loop.center, loop.direction))
    pts = center + ph[:, None] * direction
    return tuple(complex(x) for x in pts.sum(axis=0) / k)


def parent_min_affine_margin(loop, w, c, k):
    """``Loop.min_affine_margin``'s array body since its worst phase is
    taken in closed form, kept as the bit-level oracle."""
    w = [complex(x) for x in w]
    c = complex(c)
    base = sum(wi * ci for wi, ci in zip(w, loop.center)) + c
    slope = sum(wi * vi for wi, vi in zip(w, loop.direction))
    thetas = 2 * np.pi * np.arange(k) / k
    sampled = float(np.abs(base + loop.radius * slope * np.exp(1j * thetas)).min())
    return min(sampled, abs(abs(base) - loop.radius * abs(slope)))


_unit_box = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 7).flatmap(lambda m: st.tuples(
    st.lists(_unit_box, min_size=m, max_size=m), st.lists(_unit_box, min_size=m, max_size=m),
    st.lists(_unit_box, min_size=m, max_size=m), _unit_box, st.floats(0, 3),
    st.sampled_from(("any", "base 0", "slope 0", "radius 0")))))
def test_loop_phases_keep_the_parents_bits(case):
    """Both loop methods give the parent's floats byte for byte at
    k = 1, 7, 64, 72 and 720, on both degenerate branches of the worst
    phase (base == 0, slope == 0) and on a radius-0 loop."""
    center, direction, w, c, radius, branch = case
    if branch == "base 0":
        c = -sum(wi * ci for wi, ci in zip(w, center))
    elif branch == "slope 0":
        direction = [0j] * len(w)
    elif branch == "radius 0":
        radius = 0.0
    loop = Loop(tuple(center), tuple(direction), radius)
    for k in (1, 7, 64, 72, 720):
        got, want = loop.mean_quadrature(k), parent_mean_quadrature(loop, k)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        got, want = loop.min_affine_margin(w, c, k), parent_min_affine_margin(loop, w, c, k)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_unit_phases_are_shared_and_read_only():
    units = ci_mod._unit_phases(64)
    assert ci_mod._unit_phases(64) is units
    with pytest.raises(ValueError):
        units[0] = 0j
    loop = Loop((1 + 1j,), (1j,), 2.0)
    loop.mean_quadrature(64)
    loop.min_affine_margin((1,), 0.5, k=64)
    assert np.array_equal(units, np.exp(1j * (2 * np.pi * np.arange(64) / 64)))


_HYPERPLANE = SliceClass("hyperplane", (QC(1), QC(0, 1), QC(0)), QC(2))


def _section_at_n2():
    grid = CubeGrid(2, nodes=5)
    return GridSection(grid, np.ones(grid.shape + (5,), complex),
                       np.ones(grid.shape + (10,), complex))


def _solve_at_n2():
    return ci_solve(_section_at_n2(), GammaSpec.empty(), 0.5, 1e-3)


DIMENSION_REFUSALS = [
    (lambda: Loop((0j, 0j), (1j, 0j, 0j), 1.0), DimensionError,
     "a loop's center has length 2 and its direction length 3"),
    (lambda: Loop((0j,) * 3, (1j, 0j, 0j), 1.0).min_affine_margin((1, 1j), 0j, 72),
     DimensionError, "w has length 2, the loop's center has length 3"),
    (lambda: loop_for_target(_HYPERPLANE, (0j, 1j), 1e-3), DimensionError,
     "target has length 2, the slice's w has length 3"),
    (lambda: loop_for_target(_HYPERPLANE, (0j,) * 4, 1e-3), DimensionError,
     "target has length 4, the slice's w has length 3"),
    (_solve_at_n2, DimensionError,
     "ci_solve and verify_ci take n = 1 only, got a grid with n = 2"),
]


@pytest.mark.parametrize("delta", (-5.0, 0.0, math.nan, math.inf))
def test_loop_for_target_refuses_a_delta_it_cannot_honour(delta):
    """A loop's worst margin is delta only for a finite delta > 0; a
    negative one once gave radius -4.0 here, whose worst margin is 3."""
    slc = SliceClass("hyperplane", (QC(1), QC(0), QC(0)), QC(1))
    for case in (slc, SliceClass("full", None, QC(1))):
        with pytest.raises(PreconditionError, match="delta must be finite and > 0"):
            loop_for_target(case, (0, 0, 0), delta)


def test_loop_for_target_refuses_a_hyperplane_with_zero_slopes():
    slc = SliceClass("hyperplane", (QC(0), QC(0), QC(0)), QC(1))
    with pytest.raises(PreconditionError, match="a hyperplane slice needs a nonzero w"):
        loop_for_target(slc, (0, 0, 0), 1e-3)


@pytest.mark.parametrize("call, error, fragment", DIMENSION_REFUSALS,
                         ids=[r[2] for r in DIMENSION_REFUSALS])
def test_every_dimension_refusal_is_reached(call, error, fragment):
    """A loop's center, direction, w and target lengths must agree, and the
    solver takes n = 1 only (a grid with n = 2 once ran all 12 rungs to a
    failure): one row per check, with its error class and a fragment of
    its message."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def test_empty_slice_has_no_loop():
    from contactkit.jets import SliceClass
    with pytest.raises(PreconditionError):
        loop_for_target(SliceClass("empty"), (0j, 0j, 0j), 1e-3)


def test_good_frequency_avoids_sinc_zeros():
    h = 1.0 / 32
    for base in (8, 100, 256, 1000):
        N = good_frequency(base, h)
        assert N >= base
        assert abs(math.sin(N * h)) >= SINC_GUARD
    # a base sitting exactly on a resonance gets bumped
    resonant = round(math.pi / h)
    N = good_frequency(resonant, h)
    assert abs(math.sin(N * h)) >= SINC_GUARD


@pytest.mark.parametrize("h", [0.0, -0.0, -1.0 / 32, math.nan, math.inf, -math.inf])
def test_good_frequency_refuses_a_bad_mesh_step(h):
    with pytest.raises(PreconditionError, match=re.escape(f"got {h!r}")):
        good_frequency(8, h)


def test_good_frequency_refuses_a_mesh_too_coarse_for_any_frequency():
    # every multiple of pi is a sinc zero
    with pytest.raises(PreconditionError, match="mesh too coarse"):
        good_frequency(1, math.pi)


@pytest.mark.parametrize("h", [1e-310, 5e-324])
def test_good_frequency_refuses_a_subnormal_mesh_step(h):
    """pi / h overflows to inf: a refusal naming the step, not an
    OverflowError from int()."""
    with pytest.raises(PreconditionError, match=re.escape(f"mesh step {h!r} is too small")):
        good_frequency(1, h)


def test_good_frequency_answers_on_a_tiny_normal_step():
    h = 1e-300
    N = good_frequency(1, h)
    assert abs(math.sin(N * h)) >= SINC_GUARD


def good_frequency_oracle(n_base, h):
    """The frequency scan as it was before it skipped the first rising arc:
    every N from n_base up, one at a time.  Kept as the scan's oracle."""
    n = max(1, int(n_base))
    for _ in range(int(math.pi / h) + 2):
        if abs(math.sin(n * h)) >= SINC_GUARD:
            return n
        n += 1
    raise PreconditionError("no usable oscillation frequency (mesh too coarse)")


@settings(deadline=None, max_examples=300)
@given(st.integers(-5, 10 ** 6),
       st.one_of(st.floats(1e-4, 4.0), st.floats(3.0, 3.3), st.floats(6.0, 6.6)))
@example(1, 1e-4)
@example(2000, 1e-4)
@example(1, math.pi)
def test_good_frequency_matches_the_one_step_scan(n_base, h):
    """Same frequency, or the same refusal, as the scan that starts at
    n_base, for fine meshes and for steps near pi and 2 pi, where every
    frequency may resonate."""
    try:
        want = good_frequency_oracle(n_base, h)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            good_frequency(n_base, h)
        return
    assert good_frequency(n_base, h) == want


def test_good_frequency_is_quick_on_a_fine_mesh(monkeypatch):
    """At h = 1e-9 a one-step scan from N = 1 would take 3e8 steps; the
    answer is the first N past the rising arc that clears the guard, found
    in a few."""
    sines = []

    def counting_sin(x):
        sines.append(x)
        assert len(sines) <= 10, "more than 10 frequencies scanned"
        return math.sin(x)

    public = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
    monkeypatch.setattr(ci_mod, "math", SimpleNamespace(**{**public, "sin": counting_sin}))
    h = 1e-9
    N = good_frequency(1, h)
    assert abs(math.sin((N - 1) * h)) < SINC_GUARD <= abs(math.sin(N * h))


def test_oscillation_identity_constant_envelope():
    """Central differences of the correction reproduce the intended
    column change exactly when the envelope is constant."""
    nodes = 129
    h = 1.0 / (nodes - 1)
    N = good_frequency(256, h)
    nu = N * h
    ell = np.arange(nodes, dtype=float)
    rho = np.full(nodes, 0.37)
    phi0 = 0.9
    corr = oscillation_field(ell, nu, phi0, rho, h)
    fd = (corr[2:] - corr[:-2]) / (2 * h)
    want = rho[1:-1] * np.exp(1j * (nu * ell[1:-1] + phi0))
    assert np.max(np.abs(fd - want)) < 1e-12


def test_oscillation_identity_smooth_envelope():
    """A varying envelope leaks an error of one envelope increment per
    step; it halves with the mesh at fixed phase step."""
    rels = []
    for nodes in (129, 257):
        h = 1.0 / (nodes - 1)
        x = np.linspace(0.0, 1.0, nodes)
        rho = 0.2 + 0.8 * _smoothstep5(x)
        N = good_frequency(int(round(8 / h)), h)
        nu = N * h
        ell = np.arange(nodes, dtype=float)
        corr = oscillation_field(ell, nu, 0.0, rho, h)
        fd = (corr[2:] - corr[:-2]) / (2 * h)
        want = rho[1:-1] * np.exp(1j * nu * ell[1:-1])
        rel = np.max(np.abs(fd - want)) / np.max(rho)
        # envelope slope is 1.5, so the leak is under 2 * slope * h / |sin nu|
        assert rel <= 3.0 * h / abs(math.sin(nu))
        rels.append(rel)
    assert rels[0] / rels[1] == pytest.approx(2.0, rel=0.35)


def run_flat(nodes=17, eps=0.5, delta=1e-3):
    inp, gamma = demo_flat_section(nodes=nodes)
    return inp, gamma, ci_solve(inp, gamma, eps, delta)


def test_flat_demo_solves_and_verifies():
    inp, gamma, result = run_flat()
    assert result.passed, result.failure
    assert result.margin >= 1e-3
    assert result.deviation <= 0.5
    assert len(result.frames) == N_FRAMES
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert report.passed, report.to_text()


def test_solver_is_deterministic():
    inp1, _, r1 = run_flat()
    inp2, _, r2 = run_flat()
    assert np.array_equal(r1.output.a, r2.output.a)
    assert np.array_equal(r1.output.beta, r2.output.beta)
    assert r1.sweep_frequencies == r2.sweep_frequencies
    assert r1.margin == r2.margin and r1.deviation == r2.deviation
    for f1, f2 in zip(r1.frames, r2.frames):
        assert np.array_equal(f1.a, f2.a)
        assert np.array_equal(f1.beta, f2.beta)


def test_holonomic_input_is_left_alone():
    """A section already deep in the relation short-circuits: the output
    and every frame equal the input bit for bit."""
    inp, gamma = demo_holonomic_section(nodes=9)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed
    assert result.deviation == 0.0
    assert np.array_equal(result.output.a, inp.a)
    assert all(np.array_equal(f.a, inp.a) for f in result.frames)


def test_frames_interpolate_between_input_and_output():
    inp, gamma, result = run_flat()
    first, last = result.frames[0], result.frames[-1]
    assert np.array_equal(first.a, inp.a)
    assert np.array_equal(first.beta, inp.beta)
    assert np.array_equal(last.a, result.output.a)
    assert np.array_equal(last.beta, result.output.beta)


def test_gamma_run_freezes_strips():
    inp, gamma = demo_gamma_section(nodes=33)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    frozen = gamma.frozen_mask(inp.grid)
    assert np.array_equal(result.output.a[frozen], inp.a[frozen])
    assert np.array_equal(result.output.beta[frozen], inp.beta[frozen])
    for f in result.frames:
        assert np.array_equal(f.a[frozen], inp.a[frozen])
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert report.passed, report.to_text()


def test_verifier_rejects_corrupted_margin():
    """Poking a hole in the relation at one node is caught and located."""
    inp, gamma, result = run_flat()
    node = (8, 8, 8)
    result.output.a[node] = (0.0, 0.0, 0.0)
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert not report.passed
    text = report.to_text()
    assert "(8, 8, 8)" in text


def test_verifier_rejects_runaway_deviation():
    inp, gamma, result = run_flat()
    result.output.a[..., 1] += 10.0
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert not report.passed


def test_verifier_on_failed_result_reports_solver_outcome():
    inp, gamma = demo_flat_section(nodes=17)
    # an eps too small to absorb any correction forces failure
    result = ci_solve(inp, gamma, 1e-9, 1e-3)
    assert not result.passed
    assert result.failure and "rung" in result.failure
    report = verify_ci(result, inp, 1e-9, 1e-3)
    assert not report.passed


def test_solver_preconditions():
    inp, gamma = demo_flat_section(nodes=9)
    with pytest.raises(PreconditionError):
        ci_solve(inp, gamma, 0.0, 1e-3)
    with pytest.raises(PreconditionError):
        ci_solve(inp, gamma, 0.5, -1.0)
    with pytest.raises(PreconditionError):
        ci_solve(inp, gamma, 0.5, 1e-3, max_sweeps=0)
    # zero formal margin anywhere is a hard precondition
    dead = GridSection(inp.grid, np.zeros_like(inp.a), np.zeros_like(inp.beta))
    with pytest.raises(PreconditionError):
        ci_solve(dead, gamma, 0.5, 1e-3)


@pytest.mark.parametrize("eps, delta", [(0.5, -1.0), (0.5, 0.0), (0.0, 1e-3), (-0.5, 1e-3),
                                        (math.inf, 1e-3), (0.5, math.inf),
                                        (math.nan, 1e-3), (0.5, math.nan)])
def test_solver_and_verifier_refuse_bounds_they_cannot_honour(eps, delta):
    """Both refuse an eps or delta that is not finite and positive, with
    one message, the solver before any rung runs: at delta <= 0 or
    eps = inf the margin and sup-distance checks are vacuous, and the
    verifier once passed a gamma-13 result at delta = -1, 0 and eps = inf."""
    inp, gamma = demo_gamma_section(nodes=13)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    want = re.escape(f"eps and delta must be finite and positive, got {eps}, {delta}")
    with pytest.raises(PreconditionError, match=want):
        ci_solve(inp, gamma, eps, delta)
    with pytest.raises(PreconditionError, match=want):
        verify_ci(result, inp, eps, delta)


def test_gamma_strip_preconditions():
    """Frozen strips must carry holonomic data with real margin."""
    inp, gamma = demo_gamma_section(nodes=33)
    broken = inp.copy()
    # declare a wrong beta inside the low-x1 strip: not the curl of a there
    broken.beta[0, ..., 1] += 0.5  # beta_13
    with pytest.raises(PreconditionError):
        ci_solve(broken, gamma, 0.5, 1e-3)


def test_gamma_strips_must_keep_the_margin():
    """Width-5 strips on 9 nodes reach the central plateau of the gamma
    demo, where the finite-difference relation value is 0."""
    inp, _ = demo_gamma_section(nodes=9)
    wide = GammaSpec.of({(0, 0), (0, 1)}, width=5)
    with pytest.raises(PreconditionError, match=re.escape(
            "frozen strips leave the relation: margin 0.000e+00 < 1.000e-03")):
        ci_solve(inp, wide, 0.5, 1e-3)


def test_verify_refuses_an_output_on_another_grid():
    inp, gamma = demo_flat_section(nodes=9)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed
    other, _ = demo_flat_section(nodes=13)
    report = verify_ci(result, other, 0.5, 1e-3)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("grid identity", False, "output grid differs from input grid")]


def test_achieved_margin_stable_under_refinement():
    """The certified margin lands in the same band on finer meshes."""
    margins = []
    for nodes in (9, 17):
        inp, gamma = demo_flat_section(nodes=nodes)
        result = ci_solve(inp, gamma, 0.5, 1e-3)
        assert result.passed
        margins.append(result.margin)
    lo, hi = min(margins), max(margins)
    assert hi / lo < 2.0


def test_meta_is_json_friendly():
    import json
    _, _, result = run_flat(nodes=9)
    blob = json.dumps(result.meta())
    assert "margin" in blob and "frames" in blob


def _failed_checks(report):
    return {c.name: c.detail for c in report.checks if not c.passed}


def test_verifier_rejects_moved_frozen_strip():
    inp, gamma = demo_gamma_section(nodes=33)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    frozen = gamma.frozen_mask(inp.grid)
    result.output.a[frozen] += 1e-9
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert not report.passed
    assert "frames constant on frozen strips" in _failed_checks(report)


def test_verifier_refuses_a_non_finite_output():
    """The verifier refuses a NaN in the output itself, with the message
    of the public constructor, before it takes any field of it."""
    inp, gamma = demo_gamma_section(nodes=21)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    result.output.a[10, 10, 10, 1] = math.nan
    with pytest.raises(PreconditionError, match="non-finite"):
        verify_ci(result, inp, 0.5, 1e-3)


@pytest.mark.parametrize("field, node, value", [
    ("beta", (10, 10, 10, 2), complex(math.nan, 0.0)),
    ("a", (0, 20, 3, 0), complex(0.0, -math.inf)),
])
def test_verifier_refuses_a_non_finite_beta_or_an_infinite_part(field, node, value):
    inp, gamma = demo_gamma_section(nodes=21)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    getattr(result.output, field)[node] = value
    with pytest.raises(PreconditionError, match="section contains non-finite values"):
        verify_ci(result, inp, 0.5, 1e-3)


def test_verifier_refuses_n_other_than_1_as_the_solver_does():
    """The certificate holds only where h is linear in beta, at n = 1, so a
    hand-built passed result on an n = 2 grid, which once got a report, is
    refused with the solver's error and message, from one shared check."""
    section = _section_at_n2()
    result = ci_mod.CIResult(section, section.copy(), GammaSpec.empty(), 0.5, 1e-3,
                             margin=1.0, deviation=0.0, passed=True)
    with pytest.raises(DimensionError) as solver:
        _solve_at_n2()
    with pytest.raises(DimensionError) as verifier:
        verify_ci(result, section, 0.5, 1e-3)
    assert str(verifier.value) == str(solver.value) == (
        "ci_solve and verify_ci take n = 1 only, got a grid with n = 2")


def test_verifier_and_integrate_out_build_no_frame(monkeypatch, tmp_path, capsys):
    """The verifier certifies the homotopy from its formula and builds no
    frame: flat, gamma and holonomic results, the output read back from
    its text as grid-solve reads it, verify with ``Homotopy`` unbuildable
    and its frames unreadable, and so does ``integrate --out``."""
    from contactkit.cli import main
    from contactkit.formats import section_from_text, section_to_text

    def unbuilt(*args):
        raise AssertionError("a homotopy was built or read")

    solved = {}
    for demo in (demo_flat_section, demo_gamma_section, demo_holonomic_section):
        inp, gamma = demo(13)
        result = ci_solve(inp, gamma, 0.5, 1e-3)
        assert result.passed, result.failure
        back = section_from_text(section_to_text(result.output))
        solved[demo.__name__.split("_")[1]] = dataclasses.replace(result, output=back), inp
    monkeypatch.setattr(Homotopy, "__getitem__", unbuilt)
    monkeypatch.setattr(ci_mod, "Homotopy", unbuilt)
    for name, (result, inp) in solved.items():
        report = verify_ci(result, inp, 0.5, 1e-3)
        assert report.passed, report.to_text()
        assert main(["integrate", "--demo", name, "--grid", "13",
                     "--out", str(tmp_path / name)]) == 0
        assert "result: OK" in capsys.readouterr().out


@pytest.mark.parametrize("eps, scale", [(0.5, -7 / 3), (2.0, -0.5)])
def test_verifier_refuses_an_output_whose_straight_line_meets_a_zero(eps, scale):
    """Set a1 = scale a0 at one node of the flat-13 output: a(tau) is 0 at
    tau = 0.3 (scale -7/3) or 2/3 (scale -1/2), between two frames, where
    the steering cannot act and h is 0.  Every one of the 17 frames, all
    that the verifier once checked, keeps a positive formal margin; the
    certificate gives that node the bound 0.  At eps 2 its line is the
    only one that fails, and the verifier once passed that output."""
    inp, gamma = demo_flat_section(13)
    result = ci_solve(inp, gamma, eps, 1e-3)
    assert result.passed, result.failure
    node = (6, 5, 7)
    result.output.a[node] = scale * inp.a[node]
    frames = Homotopy(inp, result.output, ())
    assert min(float(formal_margin_grid(frames[k]).min()) for k in range(N_FRAMES)) > 0
    failed = _failed_checks(verify_ci(result, inp, eps, 1e-3))
    assert failed["homotopy keeps positive formal margin at every tau"] == (
        f"min |h| >= 0.0 at node {node}, allowance 1e-11 of max(|h0|, |h1|)")
    if eps == 2.0:
        assert len(failed) == 1


def test_verifier_reads_no_frame_from_the_result(monkeypatch):
    """The verifier builds its homotopy from the caller's input and the
    output, so a result whose frames cannot be read still verifies, and a
    result cannot be handed frames of its own."""
    inp, gamma = demo_gamma_section(nodes=25)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    assert "frames" not in {f.name for f in dataclasses.fields(result)}
    with pytest.raises(TypeError):
        dataclasses.replace(result, frames=())
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.frames = ()

    def unread(self):
        raise AssertionError("the verifier read the result's frames")

    monkeypatch.setattr(ci_mod.CIResult, "frames", property(unread))
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert report.passed, report.to_text()


def test_verifier_rejects_beta_that_is_not_the_curl():
    inp, gamma, result = run_flat()
    result.output.beta[8, 8, 8, 1] += 0.5  # beta_13
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert "holonomy defect within stencil bound" in _failed_checks(report)


def test_strip_holonomy_uses_the_strip_bound():
    """Rough data away from the strips inflates the global stencil bound
    far past a small strip defect; the strip check must still see it."""
    inp, gamma = demo_gamma_section(nodes=33)
    broken = inp.copy()
    broken.beta[0, ..., 1] += 1e-6  # beta_13
    noise = np.random.default_rng(7).normal(0.0, 0.1, broken.a[12:21, ..., 1].shape)
    broken.a[12:21, ..., 1] += noise
    with pytest.raises(PreconditionError, match="not holonomic"):
        ci_solve(broken, gamma, 0.5, 1e-3)


def _count_curls(monkeypatch):
    """Count finite-difference curls: ``curl_grid`` takes the derivatives
    of a section's a field, so one call is one Jacobian's worth."""
    import contactkit.ci as ci_mod
    import contactkit.jets as jets_mod
    calls = []
    real = jets_mod.curl_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jets_mod, "curl_grid", counting)
    monkeypatch.setattr(ci_mod, "curl_grid", counting)
    return calls


def test_verifier_takes_one_jacobian(monkeypatch):
    inp, gamma, result = run_flat(nodes=9)
    assert result.passed
    calls = _count_curls(monkeypatch)
    assert verify_ci(result, inp, 0.5, 1e-3).passed
    assert len(calls) == 1


def test_holonomic_solve_takes_one_jacobian(monkeypatch):
    inp, gamma = demo_holonomic_section(nodes=9)
    calls = _count_curls(monkeypatch)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed and result.rung == 0
    assert len(calls) == 1


def test_gamma_solve_takes_each_relation_field_once(monkeypatch):
    """ci_solve computes h once per (a, beta) state it visits."""
    import hashlib
    import contactkit.ci as ci_mod
    import contactkit.jets as jets_mod
    inp, gamma = demo_gamma_section(nodes=33)
    seen = []
    real = jets_mod.relation_grid

    def hashing(a, beta, n):
        seen.append(hashlib.sha256(a.tobytes() + beta.tobytes()).digest())
        return real(a, beta, n)

    monkeypatch.setattr(ci_mod, "relation_grid", hashing)
    assert ci_solve(inp, gamma, 0.5, 1e-3).passed
    assert len(seen) == len(set(seen)), f"{len(seen) - len(set(seen))} of {len(seen)} repeated"


def test_pass_with_zero_amplitude_does_not_act(monkeypatch):
    """On the coarse gamma input rho is zero on every pass of every rung, so
    no pass searches phases or touches a; the solver refuses before rung 0,
    naming a node that no pass can reach."""
    calls = []
    real = ci_mod._line_phases

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ci_mod, "_line_phases", counting)
    inp, gamma = demo_gamma_section(nodes=9)
    grid = inp.grid
    curl = curl_grid(inp.a, grid)
    h = relation_grid(inp.a, curl, grid.n)
    cutoff, interior = gamma.cutoff_field(grid), grid.interior_mask()
    a = inp.a.copy()
    freq = FREQ_BASE / min(grid.h)
    while freq <= ci_mod.FREQ_CAP / min(grid.h):
        for d in range(grid.m):
            nd = good_frequency(round(freq), grid.h[d])
            assert not ci_mod._direction_pass(a, grid, cutoff, d, nd, 1e-3, interior, curl, h,
                                              inp.a, 0.5)
        freq *= 2
    assert not calls
    assert a.tobytes() == inp.a.tobytes()
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert not calls
    assert (result.passed, result.rung) == (False, 0)
    assert result.failure == ("refused before rung 0: margin 0.000e+00 < delta 1.000e-03 "
                              "at node (4, 1, 1), where the cutoff is 0 on the whole "
                              "stencil, so no pass can change h")


def solve_digest(demo, nodes, eps, delta):
    """Solve a demo, verify the result, and hash the output, the meta, every
    frame and the report text.  ``Homotopy`` builds the path the verifier
    certifies: every frame keeps at each node a formal margin of at least
    1 - PATH_ALLOWANCE times that node's certified bound."""
    inp, gamma = demo(nodes)
    result = ci_solve(inp, gamma, eps, delta)
    digest = hashlib.sha256(result.output.a.tobytes() + result.output.beta.tobytes())
    digest.update(repr(result.meta()).encode())
    bound = ci_mod._path_bound(inp, result.output, tuple(gamma.strips(inp.grid)))
    for k in range(N_FRAMES):
        frame = result.frames[k]
        assert (formal_margin_grid(frame) >= (1 - ci_mod.PATH_ALLOWANCE) * bound).all(), k
        digest.update(frame.a.tobytes() + frame.beta.tobytes())
    report = verify_ci(result, inp, eps, delta)
    digest.update(report.to_text().encode())
    return result, report, digest.hexdigest()


# solve_digest of the flat and holonomic demos as the solver gave them
# before its passes were bounded by eps; those runs never came near eps.
# The flat digests were re-pinned when the frames moved to the chord path
# and again when the steering became the least-norm step (outputs, meta
# and reports unmoved both times), and all of them when the verifier's
# frame check became the per-node certificate of the path (outputs, meta
# and frames unmoved, one report line changed); they hold at the AVX2
# level too
UNMOVED = {
    ("flat", 9, 0.5, 0.001): "9b62ffb85f3189bf0aa0c1ad404ad0194341dded94ac9208de72de8906b8d8e3",
    ("flat", 9, 0.1, 0.001): "8af1c5a69b9a58c94afaebe3a6288b5341a29f193071fdda26be3d3d657fba4e",
    ("flat", 13, 0.5, 0.001): "f5b8dc9825b60bcb6fd66cf5a68809930b97c72f7109f60985ed3ffca2d5e95c",
    ("flat", 13, 0.1, 0.001): "5c0ddcb91e53b92ea8c0a2fa3b19492944702a47e4117561b1936e1108b29c4d",
    ("flat", 17, 0.5, 0.001): "7f3edf9af20973f9902a62ea2765aa62671ed972a759f11710fcae9c0452757f",
    ("flat", 17, 0.1, 0.001): "2a825da1010551110f75e269258dd233ec3e89f17ba00ecab64d0835e82bd822",
    ("flat", 21, 0.5, 0.001): "46edc255eeb52dbf5cc04f58b87bb155802d02f7036eb2c6c510e6278c1e9b35",
    ("flat", 21, 0.1, 0.001): "d4af81e787c98b5b3e815c5955605367551dc764ad65157951bbeffa155f42f1",
    ("flat", 33, 0.5, 0.001): "11e73229b9b8db8751c8f09c754c670a7520d399ceab1b79c38a0256ea2838c0",
    ("flat", 33, 0.1, 0.001): "3941b932877e4e3ef3f4238bd92a7bf7fd99ea1882734665596fb9fc4f3f3fd5",
    ("holonomic", 9, 0.5, 0.001): "e12ea6e06760eada9186c95fc808dca60e8e2d0237ca63f8a2b164b0852b8708",
    ("holonomic", 9, 0.1, 0.001): "5456f76786509c1be1804f83fcd90ceec1a0e6f7279dddbc15a34d8534521161",
    ("holonomic", 13, 0.5, 0.001): "bc072971d5876ade766ed2e843f733fb80229442b73e75e16c8e6b6efc7d5fca",
    ("holonomic", 13, 0.1, 0.001): "7bfa835cc88a86d357d4d6df065fd047fa81d57eb364c8c94784f6e69df41a9f",
    ("holonomic", 17, 0.5, 0.001): "ce0a439c1428a329fd10fe4930293fbaa2c5317a5cd3dc284622fad24aff0294",
    ("holonomic", 17, 0.1, 0.001): "9b62c74473528561d398f85bd9dbc4135fe938b0434718c6674856f250b02e61",
    ("holonomic", 21, 0.5, 0.001): "eec419d926b5a47d9887954f1b603a711e658029de8d51c5ed74f204ce9ac567",
    ("holonomic", 21, 0.1, 0.001): "6271ce969733ad2ff32f042aa70ec3f5d8b2cefc56c83dfd5dbc0ac9b3ab33d4",
    ("holonomic", 33, 0.5, 0.001): "73a29277d552fb9462984ebf5f49149609d093eba8a1bff654bc292e3de100a2",
    ("holonomic", 33, 0.1, 0.001): "15a8360554a5361a90f8b6d8fb656acf319f26725f9794326e17af7479d55809",
}


@pytest.mark.parametrize("eps, delta", [(0.5, 1e-3), (0.1, 1e-3)])
@pytest.mark.parametrize("nodes", [9, 13, 17, 21, 33])
@pytest.mark.parametrize("demo", [demo_gamma_section, demo_flat_section,
                                  demo_holonomic_section])
def test_no_solve_passes_that_the_verifier_refuses(demo, nodes, eps, delta):
    """Every passed result verifies.  Gamma passes at rung 0 from 11 nodes
    and refuses before rung 0 at 9 and 17, naming a node no pass can
    reach; gamma-13 acts on at most 10 passes.  Flat and holonomic keep
    their outputs, frames and reports bit for bit."""
    result, report, digest = solve_digest(demo, nodes, eps, delta)
    assert report.passed == result.passed, report.to_text()
    name = demo.__name__.split("_")[1]
    if name == "gamma":
        if nodes in (9, 17):
            assert (result.passed, result.rung) == (False, 0)
            assert re.fullmatch(r"refused before rung 0: .* at node \(\d+, \d+, \d+\), .*",
                                result.failure)
        else:
            assert (result.passed, result.rung) == (True, 0), result.failure
        if nodes == 13:
            acted = sum(1 for sweep in result.sweep_frequencies for f in sweep if f)
            assert acted <= 10
    else:
        assert result.passed, result.failure
        assert digest == UNMOVED[name, nodes, eps, delta]


def test_solved_result_retains_two_sections():
    """A result keeps its output and the frame recipe, not 17 sections."""
    inp, gamma = demo_gamma_section(nodes=33)
    result, _, retained = traced_peak(ci_solve, inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    assert retained < 32 * 2 ** 20, f"{retained / 2 ** 20:.1f} MB retained"


def line_phases_oracle(h_act, rho, nu, d):
    """The per-phase search: every line scored at each of the candidate
    phases in turn, a strict > keeping the first best phase."""
    shape_d = [1] * h_act.ndim
    shape_d[d] = h_act.shape[d]
    ell = np.arange(h_act.shape[d], dtype=float).reshape(shape_d)

    best_min, best_phi = -np.inf, 0.0
    for j in range(PHASE_CANDIDATES):
        phi = 2 * math.pi * j / PHASE_CANDIDATES
        predicted = np.abs(h_act + rho * np.exp(1j * (nu * ell + phi)))
        line_min = predicted.min(axis=d, keepdims=True)
        better = line_min > best_min
        best_min = np.where(better, line_min, best_min)
        best_phi = np.where(better, phi, best_phi)
    return best_phi


def _phase_search_input(shape, d, activity, coarse_h, seed):
    """(h, rho) on a grid of the given shape.  ``activity`` sets where rho
    is positive: nowhere, at one node of some lines, at scattered nodes,
    or everywhere.  Coarse h repeats a few values, zero among them, so
    lines whose worst node has rho == 0 tie across every phase."""
    rng = np.random.default_rng(seed)
    if coarse_h:
        h = (rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)) / 4
    else:
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = np.zeros(shape)
    if activity == "single":
        lines = np.moveaxis(rho, d, -1)  # a view: writes land in rho
        picks = rng.integers(0, shape[d], lines.shape[:-1])
        values = np.where(rng.random(picks.shape) < 0.7, rng.uniform(0, 2, picks.shape), 0.0)
        np.put_along_axis(lines, picks[..., None], values[..., None], -1)
    elif activity == "sparse":
        rho = np.where(rng.random(shape) < 0.2, rng.uniform(0, 2, shape), 0.0)
    elif activity == "full":
        rho = rng.uniform(0.01, 2, shape)
    return h, rho


@settings(deadline=None, max_examples=200)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)), st.integers(0, 2),
       st.sampled_from(["none", "single", "sparse", "full"]), st.booleans(),
       st.sampled_from([1, 50, ci_mod.PHASE_BLOCK_ELEMENTS]), st.integers(0, 2 ** 32))
@example((4, 5, 6), 1, "single", True, 1, 0)
@example((33, 2, 3), 0, "full", False, 200, 1)
def test_line_phases_match_the_per_phase_loop(shape, d, activity, coarse_h, block, seed):
    """Bit-equal phases whatever the activity and however many phases one
    numpy call scores (1, a few with a short last block, all 64)."""
    h, rho = _phase_search_input(shape, d, activity, coarse_h, seed)
    nu = np.random.default_rng(seed).uniform(0.1, 3.0)
    with patch.object(ci_mod, "PHASE_BLOCK_ELEMENTS", block):
        got = ci_mod._line_phases(h, rho, nu, d)
    want = line_phases_oracle(h, rho, nu, d)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("demo,nodes", [(demo_flat_section, 33), (demo_gamma_section, 13),
                                        (demo_gamma_section, 33)])
def test_direction_pass_matches_the_per_phase_loop(demo, nodes):
    """The solver's first sweep leaves a bit-equal to passes whose phases
    come from the per-phase search."""
    inp, gamma = demo(nodes)
    grid = inp.grid
    cutoff, interior = gamma.cutoff_field(grid), grid.interior_mask()
    a, a_want = inp.a.copy(), inp.a.copy()
    curl = curl_grid(a, grid)
    h = relation_grid(a, curl, grid.n)
    acted = []
    for d in range(grid.m):
        freq = good_frequency(round(FREQ_BASE / min(grid.h)), grid.h[d])
        acted.append(ci_mod._direction_pass(a, grid, cutoff, d, freq, 1e-3, interior, curl, h,
                                            inp.a, 0.5))
        with patch.object(ci_mod, "_line_phases", line_phases_oracle):
            ci_mod._direction_pass(a_want, grid, cutoff, d, freq, 1e-3, interior, curl, h,
                                   inp.a, 0.5)
        assert a.tobytes() == a_want.tobytes()
        curl = curl_grid(a, grid)
        h = relation_grid(a, curl, grid.n)
    assert acted[0]


def test_phase_search_memory_on_a_fully_active_grid():
    """Along axis 0 of the flat 33-node demo every line moves, so every
    line is scored; the phase blocks keep the pass's peak bounded."""
    inp, gamma = demo_flat_section(33)
    grid = inp.grid
    curl = curl_grid(inp.a, grid)
    h = relation_grid(inp.a, curl, grid.n)
    cutoff, interior = gamma.cutoff_field(grid), grid.interior_mask()
    freq = good_frequency(round(FREQ_BASE / min(grid.h)), grid.h[0])
    a = inp.a.copy()
    acted, peak, _ = traced_peak(ci_mod._direction_pass, a, grid, cutoff, 0, freq, 1e-3,
                                 interior, curl, h, inp.a, 0.5)
    assert acted
    assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB peak"


def chord_target(h0, h1, tau):
    """The chord path at tau from h0 to h1, every product on real parts.
    Its modulus is (1 - tau) |h0| + tau |h1|; its direction is the chord
    from u0 to w for tau <= 1/2 and from w to u1 after, normalized.  Here
    u = h / |h|, or 1 where |h| is 0 or not finite, and w = u0 (c + is),
    where c + is is the principal square root of z = u1 conj(u0) = x + iy:
    for x >= 0, c = sqrt((1 + x) / 2) and s = y / (2c); for x < 0,
    s = sign(y) sqrt((1 - x) / 2) with sign(0) = 1 and c = |y| / (2|s|)."""
    def unit(h):
        mod = np.hypot(h.real, h.imag)
        u = np.ones_like(h)
        ok = (mod > 0) & np.isfinite(mod)
        u[ok] = h[ok] / mod[ok]
        return mod, u.real, u.imag

    (mod0, u0r, u0i), (mod1, u1r, u1i) = unit(h0), unit(h1)
    x = u1r * u0r + u1i * u0i
    y = u1i * u0r - u1r * u0i
    c, s = np.empty_like(x), np.empty_like(x)
    right = x >= 0
    c[right] = np.sqrt((1 + x[right]) / 2)
    s[right] = np.abs(y[right]) / (2 * c[right])
    s[~right] = np.sqrt((1 - x[~right]) / 2)
    c[~right] = np.abs(y[~right]) / (2 * s[~right])
    s[y < 0] = -s[y < 0]
    wr, wi = u0r * c - u0i * s, u0r * s + u0i * c
    if tau <= 0.5:
        pr, pi, qr, qi, t = u0r, u0i, wr, wi, 2 * tau
    else:
        pr, pi, qr, qi, t = wr, wi, u1r, u1i, 2 * tau - 1
    chord_r, chord_i = (1 - t) * pr + t * qr, (1 - t) * pi + t * qi
    scale = ((1 - tau) * mod0 + tau * mod1) / np.hypot(chord_r, chord_i)
    return chord_r * scale + 1j * (chord_i * scale)


def _straight_line(start, end, tau):
    return start.a + tau * (end.a - start.a), start.beta + tau * (end.beta - start.beta)


def _stacked_slopes(a, beta, grid):
    return np.stack([slope_grid(a, beta, grid.n, r, s) for r, s in upper_pairs(grid.m)],
                    axis=-1)


def frame_oracle(start, end, frozen, k):
    """Frame k by the stated formula: the straight line at
    tau = k / (N_FRAMES - 1), with h steered onto ``chord_target`` of the
    ends' relation fields by the least-norm change of beta.  With s the
    slopes of h in the upper columns, lam = (target - h) / sum |s_c|^2
    where that sum exceeds 1e-60 and 0 elsewhere, and column c gains
    lam conj(s_c).  Every product is taken on real parts."""
    if k == 0 or end == start:
        return start.copy()
    if k == N_FRAMES - 1:
        return end.copy()
    grid, tau = start.grid, k / (N_FRAMES - 1)
    n = grid.n
    a_k, beta_k = _straight_line(start, end, tau)
    h0, h1 = relation_grid(start.a, start.beta, n), relation_grid(end.a, end.beta, n)
    gap = chord_target(h0, h1, tau) - relation_grid(a_k, beta_k, n)
    slopes = _stacked_slopes(a_k, beta_k, grid)
    squares = slopes.real ** 2 + slopes.imag ** 2
    norm2 = sum(squares[..., c] for c in range(squares.shape[-1]))
    ok = norm2 > 1e-60
    lam_r, lam_i = np.zeros(grid.shape), np.zeros(grid.shape)
    lam_r[ok] = gap.real[ok] / norm2[ok]
    lam_i[ok] = gap.imag[ok] / norm2[ok]
    lam_r, lam_i = lam_r[..., None], lam_i[..., None]
    beta_k.real += lam_r * slopes.real + lam_i * slopes.imag
    beta_k.imag += lam_i * slopes.real - lam_r * slopes.imag
    a_k[frozen] = start.a[frozen]
    beta_k[frozen] = start.beta[frozen]
    return GridSection(grid, a_k, beta_k)


def _turned(demo, turn):
    """A demo with a and beta both multiplied by e^{i turn}: still holonomic
    where it was, with h multiplied by e^{2 i turn}, so h0 has a phase."""
    def make(nodes):
        inp, gamma = demo(nodes)
        phase = np.exp(1j * turn)
        return GridSection(inp.grid, inp.a * phase, inp.beta * phase), gamma
    return make


def _tied_sections(grid, rng):
    """Two sections whose a components have equal moduli at most nodes,
    and so does every point of the line between them: at each node a is a
    complex value times a unit per component, from {1, -1, i, -i}, the
    same units at both ends.  The slopes of h, which at n = 1 are the a
    components up to sign, then tie exactly.  A third of the nodes double
    the last component, tying only the first two columns, and beta carries
    -0.0 parts."""
    units = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, grid.shape + (3,))]
    units[rng.random(grid.shape) < 1 / 3, 2] *= 2.0

    def section():
        c = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        beta = rng.normal(size=grid.shape + (3,)) + 1j * rng.normal(size=grid.shape + (3,))
        beta.real[rng.random(beta.shape) < 0.2] = -0.0
        beta.imag[rng.random(beta.shape) < 0.2] = -0.0
        return GridSection(grid, c[..., None] * units, beta)

    return section(), section()


def _solved_frames(demo, nodes):
    def make():
        inp, gamma = demo(nodes)
        return ci_solve(inp, gamma, 0.5, 1e-3).frames, gamma
    return make


def _tied_frames(faces):
    def make():
        grid = CubeGrid(1, nodes=9)
        gamma = GammaSpec.of(faces, width=2)
        start, end = _tied_sections(grid, np.random.default_rng(2818))
        return Homotopy(start, end, tuple(gamma.strips(grid))), gamma
    return make


FRAME_DEMOS = {"flat": demo_flat_section, "gamma": demo_gamma_section,
               "holonomic": demo_holonomic_section,
               "flat-turned": _turned(demo_flat_section, 0.7),
               "gamma-turned": _turned(demo_gamma_section, -2.1)}
FRAME_CASES = {f"{name}-{nodes}": _solved_frames(demo, nodes)
               for name, demo in FRAME_DEMOS.items() for nodes in (9, 13, 21, 33)}
FRAME_CASES["tied"] = _tied_frames(set())
FRAME_CASES["tied-strips"] = _tied_frames({(0, 0), (2, 1)})


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_frames_match_the_stored_field_formula(case):
    """Every frame is bit-equal to the oracle: on the solved demos, and on
    a pair with tied slopes and -0.0 parts in beta, with strips and
    without."""
    frames, gamma = FRAME_CASES[case]()
    frozen = gamma.frozen_mask(frames.start.grid)
    for k in range(N_FRAMES):
        got = frames[k]
        want = frame_oracle(frames.start, frames.end, frozen, k)
        assert got.grid == want.grid
        assert got.a.tobytes() == want.a.tobytes(), k
        assert got.beta.tobytes() == want.beta.tobytes(), k


@pytest.mark.parametrize("nodes", [13, 21])
@pytest.mark.parametrize("demo", ["flat", "gamma", "flat-turned", "gamma-turned"])
def test_frames_take_the_least_norm_step_onto_the_chord_path(demo, nodes):
    """A check that compares no bits.  At every off-strip node of every
    interior frame, the change dbeta of beta from the straight line's beta
    is parallel to the conjugated slopes s of h there,
    dbeta_c conj(s_d) = dbeta_d conj(s_c), and it moves h onto the chord
    path, sum_c s_c dbeta_c = target - h.  Both hold to 1e-9 of
    (|dbeta| + |beta|) |s|, the size of their terms beside the rounding of
    beta + dbeta.  A step in the one column of the largest slope fails the
    first (a relative residual of 0.16)."""
    inp, gamma = FRAME_DEMOS[demo](nodes)
    frames = ci_solve(inp, gamma, 0.5, 1e-3).frames
    start, end, grid = frames.start, frames.end, inp.grid
    assert end != start
    n, off = grid.n, ~gamma.frozen_mask(grid)
    h0, h1 = relation_grid(start.a, start.beta, n), relation_grid(end.a, end.beta, n)
    for k in range(1, N_FRAMES - 1):
        tau = k / (N_FRAMES - 1)
        a_k, beta_k = _straight_line(start, end, tau)
        s = _stacked_slopes(a_k, beta_k, grid)[off]
        dbeta = frames[k].beta[off] - beta_k[off]
        h = relation_grid(a_k, beta_k, n)[off]
        target = chord_target(h0, h1, tau)[off]
        scale = 1e-9 * (np.linalg.norm(dbeta, axis=-1)
                        + np.linalg.norm(beta_k[off], axis=-1)) * np.linalg.norm(s, axis=-1)
        cross = dbeta[:, :, None] * np.conj(s[:, None, :]) \
            - dbeta[:, None, :] * np.conj(s[:, :, None])
        assert (np.abs(cross).max(axis=(1, 2)) <= scale).all(), k
        assert (np.abs((s * dbeta).sum(axis=-1) - (target - h)) <= scale).all(), k


@pytest.mark.parametrize("nodes", [13, 21])
@pytest.mark.parametrize("demo", [demo_flat_section, demo_gamma_section,
                                  _turned(demo_flat_section, 0.7),
                                  _turned(demo_gamma_section, -2.1)])
def test_frame_targets_keep_the_modulus_and_turn_of_the_polar_path(demo, nodes):
    """A check that compares no bits.  The steering puts each interior
    frame's h on its target, so at every interior node that h has modulus
    (1 - tau) |h0| + tau |h1| to 1e-12 relative, and turns away from h0 in
    the sense of arg(h1 / h0) by no more than |arg(h1 / h0)|, to 1e-12.
    Where |arg(h1 / h0)| is within 1e-12 of pi the ends are opposite up to
    rounding: either sense is a half turn, and only the amount is checked.
    Gamma at 13 and 21 nodes has nodes where arg(h1 / h0) is exactly pi."""
    inp, gamma = demo(nodes)
    frames = ci_solve(inp, gamma, 0.5, 1e-3).frames
    n = inp.grid.n
    interior = inp.grid.interior_mask()
    h0 = relation_grid(inp.a, inp.beta, n)[interior]
    h1 = relation_grid(frames.end.a, frames.end.beta, n)[interior]
    assert (h0 != 0).all()
    # arg(h1 / h0) in (-pi, pi]: np.angle gives -pi where the quotient's
    # imaginary part is -0.0
    turn = np.angle(h1 / h0)
    turn[np.abs(turn) == np.pi] = np.pi
    half = np.pi - np.abs(turn) <= 1e-12
    if demo is demo_gamma_section:
        assert (turn == np.pi).any()
    for k in range(1, N_FRAMES - 1):
        tau = k / (N_FRAMES - 1)
        frame = frames[k]
        hk = relation_grid(frame.a, frame.beta, n)[interior]
        modulus = (1 - tau) * np.abs(h0) + tau * np.abs(h1)
        assert (np.abs(np.abs(hk) - modulus) <= 1e-12 * modulus).all(), k
        away = np.angle(hk / h0)
        assert (np.abs(away) <= np.abs(turn) + 1e-12).all(), k
        assert (half | (away * np.sign(turn) >= -1e-12)).all(), k


def _pair_with_relation_values(h0, h1):
    """Two sections on the 125 nodes of a 5-node cube (n = 1) whose formal
    relation fields are h0 and h1: with a = (0, 0, 1) and beta = (b, 0, 0)
    h is b, its slopes are 1 in that column and 0 in the others, and the
    least-norm steering changes that column only.  They are built without
    the constructor's checks, so a value may be NaN."""
    grid = CubeGrid(1, nodes=5)
    a = np.zeros((3,) + grid.shape, complex)
    a[2] = 1

    def section(h):
        beta = np.zeros((3,) + grid.shape, complex)
        beta[0] = np.reshape(h, grid.shape)
        return GridSection._trusted(grid, np.moveaxis(a.copy(), 0, -1), np.moveaxis(beta, 0, -1))

    return section(h0), section(h1)


def test_chord_path_directions_at_opposite_zero_and_nan_ends():
    """Ends that are exactly opposite, one ulp off opposite, zero or NaN.
    No frame raises a warning or a floating-point error; where u1 = -u0
    exactly the path turns counterclockwise; and at every finite, nonzero
    node each frame's |h| is at least min(|h0|, |h1|) less 4 ulps of
    max(|h0|, |h1|), the rounding of the modulus, the chord's
    normalization and the steering (1.3 ulps at worst here).  A zero or
    non-finite end points along 1."""
    rng = np.random.default_rng(53)
    ulp = np.finfo(float).eps
    values = [1, 1j, -1, 0.3 + 0.7j, -2.5 - 1e-3j, np.exp(-2.1j), 1e-300 - 3e-300j]
    opposite, off = [], []
    for v in map(complex, values):
        opposite += [(v, -v), (v, -2 * v), (-2 * v, 0.5 * v)]
        for up in (math.inf, -math.inf):
            off += [(v, complex(np.nextafter(-v.real, up), -v.imag)),
                    (v, complex(-v.real, np.nextafter(-v.imag, up)))]
    off += [(1, complex(-1, t)) for t in (2 ** -26, -2 ** -26, 2 ** -27, 1e-17, -1e-300)]
    off += [(1, complex(-1 + ulp / 2, 2 ** -27)), (1j, complex(2 ** -27, -1 + ulp / 2))]
    zero = [(0, 1 + 1j), (1 - 1j, 0), (0, 0), (0j, -0j)]
    nan = [(math.nan, 1), (2j, complex(math.nan, math.nan)), (math.nan, math.nan)]
    pairs = opposite + off + zero + nan
    pairs += [tuple(rng.normal(size=2) @ [1, 1j] for _ in range(2))
              for _ in range(125 - len(pairs))]
    h0, h1 = np.array(pairs, complex).T
    start, end = _pair_with_relation_values(h0, h1)
    assert np.array_equal(relation_grid(start.a, start.beta, 1).ravel(), h0, equal_nan=True)
    frames = Homotopy(start, end, ())
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        hs = [relation_grid(frames[k].a, frames[k].beta, 1).ravel()
              for k in range(1, N_FRAMES - 1)]
    m0, m1 = np.abs(h0), np.abs(h1)
    finite = np.isfinite(h0) & np.isfinite(h1)
    live = finite & (m0 > 0) & (m1 > 0)
    exact = np.zeros(len(h0), bool)
    exact[:len(opposite)] = True
    for hk in hs:
        assert np.isfinite(hk[finite]).all() and not np.isfinite(hk[~finite]).any()
        floor = np.minimum(m0, m1) - 4 * ulp * np.maximum(m0, m1)
        assert (np.abs(hk[live]) >= floor[live]).all()
        assert (hk[exact] / h0[exact]).imag.min() > 0
    # the rule itself on values relation_grid cannot give without a
    # warning: infinite parts, beside a NaN and a zero
    bad = np.array([complex(math.inf, 1), complex(-math.inf, math.inf), complex(math.nan, 1), 0j])
    with patch.object(ci_mod, "relation_grid", side_effect=[bad, bad[::-1]]), \
            warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        _, _, u0, w, u1 = Homotopy(start, end, ())._path
    assert (u0 == 1).all() and (w == 1).all() and (u1 == 1).all()


ANGLE_FUNCTIONS = {"angle", "arctan2", "atan2", "arctan", "atan", "phase"}
# field operations, sqrt, hypot and abs, and the array builders and
# selections around them
HOMOTOPY_NUMPY_CALLS = {"subtract", "divide", "sqrt", "hypot", "abs",
                        "ones_like", "zeros", "zeros_like", "where"}


def test_ci_takes_no_angle_and_homotopy_no_transcendental_function():
    """ci.py names no angle function (np.angle, np.arctan2, math.atan2 and
    the like), and ``Homotopy`` calls no numpy or math function outside
    field operations, sqrt, hypot and selections: no exp, log or
    trigonometric function builds a frame."""
    tree = ast.parse(Path(ci_mod.__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & ANGLE_FUNCTIONS
    (homotopy,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Homotopy"]
    calls = {node.func.attr for node in ast.walk(homotopy) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) in ("np", "math", "cmath")}
    assert calls and calls <= HOMOTOPY_NUMPY_CALLS, calls - HOMOTOPY_NUMPY_CALLS


def test_unread_solved_result_keeps_no_relation_field():
    """A homotopy keeps only its endpoints and the frozen mask.  Before a
    frame is read a solved gamma-33 result holds its output and the mask,
    3.3 MB; a stored complex relation field would add 0.55 MB each."""
    assert [f.name for f in dataclasses.fields(Homotopy)] == ["start", "end", "frozen"]
    inp, gamma = demo_gamma_section(nodes=33)
    result, _, retained = traced_peak(ci_solve, inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure
    assert retained <= 3.75 * 2 ** 20, f"{retained / 2 ** 20:.2f} MB retained"


def test_a_read_homotopy_keeps_only_its_endpoints_strips_and_path_fields():
    """After every frame has been read a homotopy holds its endpoints, its
    strips and the chord path's fields, and no copy of end - start."""
    inp, gamma = demo_gamma_section(nodes=13)
    frames = ci_solve(inp, gamma, 0.5, 1e-3).frames
    for k in range(N_FRAMES):
        frames[k]
    assert set(vars(frames)) == {"start", "end", "frozen", "_path"}


@pytest.mark.parametrize("demo", [demo_gamma_section, demo_flat_section])
def test_verifier_holds_no_frame(demo):
    """verify_ci's traced peak on a 33-node result: it drops the curl,
    margin and deviation fields before the path certificate and builds no
    frame, 5.8 MiB (8.6 MiB when it held one frame at a time, 17.4 MB when
    it held two frames and those fields)."""
    inp, gamma = demo(33)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    report, peak, _ = traced_peak(verify_ci, result, inp, 0.5, 1e-3)
    assert report.passed, report.to_text()
    assert peak <= 13 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB peak"


def _is_component_major(x):
    return np.moveaxis(x, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("demo", [demo_flat_section, demo_gamma_section,
                                  demo_holonomic_section])
def test_fields_are_component_major_and_keep_their_bits(demo, monkeypatch):
    """Each component of a field is one contiguous block: in every field
    the solver, its frames and the verifier hand to the relation kernels,
    in the solver's output and frames, in curl_grid, in a section read back
    from text and in a section built from row-major data.  Each holds the
    bytes of the same computation on row-major arrays."""
    from contactkit.formats import section_from_text, section_to_text
    from contactkit.jets import grid_jacobian
    from oracles import skew_of_jacobian
    seen = []

    def spied(kernel):
        def call(a, beta_or_grid, *rest):
            seen.extend(_is_component_major(x) for x in (a, beta_or_grid)
                        if isinstance(x, np.ndarray))
            return kernel(a, beta_or_grid, *rest)
        return call

    for name in ("relation_grid", "slope_grid", "curl_grid"):
        monkeypatch.setattr(ci_mod, name, spied(getattr(ci_mod, name)))
    inp, gamma = demo(13)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    outputs = [result.output, *result.frames]
    assert verify_ci(result, inp, 0.5, 1e-3).passed
    assert seen and all(seen)
    monkeypatch.undo()

    rows = GridSection._trusted(inp.grid, np.ascontiguousarray(inp.a),
                                np.ascontiguousarray(inp.beta))
    assert not _is_component_major(rows.a)
    plain = ci_solve(rows, gamma, 0.5, 1e-3)
    pairs = [(x, y) for s, t in zip(outputs, [plain.output, *plain.frames])
             for x, y in ((s.a, t.a), (s.beta, t.beta))]
    back = section_from_text(section_to_text(result.output))
    built = GridSection(inp.grid, rows.a, rows.beta)
    pairs += [(back.a, result.output.a), (back.beta, result.output.beta),
              (curl_grid(inp.a, inp.grid), skew_of_jacobian(grid_jacobian(rows.a, inp.grid))),
              (built.a, rows.a), (built.beta, rows.beta), (built.copy().a, rows.a)]
    for got, want in pairs:
        assert _is_component_major(got)
        assert got.tobytes() == want.tobytes()
