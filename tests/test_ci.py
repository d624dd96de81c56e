"""Convex-integration solver: loop geometry, the oscillation identity,
determinism, and the independent verifier including fault injection."""

import math
import random

import numpy as np
import pytest

from contactkit.ci import (
    Loop, ci_solve, demo_flat_section, demo_gamma_section,
    demo_holonomic_section, good_frequency, loop_for_target,
    oscillation_field, verify_ci, N_FRAMES, SINC_GUARD,
)
from contactkit.errors import PreconditionError
from contactkit.grids import CubeGrid, GammaSpec, GridSection, _smoothstep5
from contactkit.jets import RestrictedJet, ampleness_slice
from contactkit.sampling import random_jet


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
    assert loop.point(1.234) == target


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


def test_verifier_rejects_corrupted_endpoint():
    inp, gamma, result = run_flat()
    result.frames[0].a[0, 0, 0, 0] += 1e-6
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert not report.passed


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


def test_gamma_strip_preconditions():
    """Frozen strips must carry holonomic data with real margin."""
    inp, gamma = demo_gamma_section(nodes=33)
    broken = inp.copy()
    # declare a wrong beta inside the low-x1 strip: not the curl of a there
    broken.beta[0, ..., 0, 2] += 0.5
    broken.beta[0, ..., 2, 0] -= 0.5
    with pytest.raises(PreconditionError):
        ci_solve(broken, gamma, 0.5, 1e-3)


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
    result.frames[5].a[frozen] += 1e-9
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert not report.passed
    assert "frames constant on frozen strips" in _failed_checks(report)


def test_verifier_names_the_frame_that_leaves_the_relation():
    inp, gamma, result = run_flat()
    result.frames[8].a[...] = 0
    report = verify_ci(result, inp, 0.5, 1e-3)
    failed = _failed_checks(report)
    assert "frames keep positive formal margin" in failed
    assert "frame 8" in failed["frames keep positive formal margin"]


def test_verifier_rejects_beta_that_is_not_the_curl():
    inp, gamma, result = run_flat()
    result.output.beta[8, 8, 8, 0, 2] += 0.5
    result.output.beta[8, 8, 8, 2, 0] -= 0.5
    report = verify_ci(result, inp, 0.5, 1e-3)
    assert "holonomy defect within stencil bound" in _failed_checks(report)


def test_strip_holonomy_uses_the_strip_bound():
    """Rough data away from the strips inflates the global stencil bound
    far past a small strip defect; the strip check must still see it."""
    inp, gamma = demo_gamma_section(nodes=33)
    broken = inp.copy()
    broken.beta[0, ..., 0, 2] += 1e-6
    broken.beta[0, ..., 2, 0] -= 1e-6
    noise = np.random.default_rng(7).normal(0.0, 0.1, broken.a[12:21, ..., 1].shape)
    broken.a[12:21, ..., 1] += noise
    with pytest.raises(PreconditionError, match="not holonomic"):
        ci_solve(broken, gamma, 0.5, 1e-3)


def _count_jacobians(monkeypatch):
    import contactkit.ci as ci_mod
    import contactkit.jets as jets_mod
    calls = []
    real = jets_mod.grid_jacobian

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jets_mod, "grid_jacobian", counting)
    monkeypatch.setattr(ci_mod, "grid_jacobian", counting, raising=False)
    return calls


def test_verifier_takes_one_jacobian(monkeypatch):
    inp, gamma, result = run_flat(nodes=9)
    assert result.passed
    calls = _count_jacobians(monkeypatch)
    assert verify_ci(result, inp, 0.5, 1e-3).passed
    assert len(calls) == 1


def test_holonomic_solve_takes_one_jacobian(monkeypatch):
    inp, gamma = demo_holonomic_section(nodes=9)
    calls = _count_jacobians(monkeypatch)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed and result.rung == 0
    assert len(calls) == 1
