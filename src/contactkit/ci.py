"""Grid-scale convex integration for the contact relation.

Input: a sampled formal pair (a, beta) on a cube whose formal relation
value never vanishes.  Output: a corrected field whose finite-difference
jet lies in the relation with margin delta at every interior node, within
sup-distance eps of the input, together with a 17-frame homotopy whose
formal margin stays strictly positive, all constant on frozen boundary
strips.

The correction primitive is a rapid oscillation along one grid axis whose
finite-difference derivative sweeps a circle in the complex column of the
jet.  The relation value h is affine in that column, so per node the
oscillation moves h on a circle of chosen radius around its current
value; radius = current |h| + headroom keeps the worst phase away from
zero.  The discrete amplitude is divided by sin(frequency * mesh), which
makes the central-difference change exact for constant envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .grids import CubeGrid, GammaSpec, GridSection, _smoothstep5
from .jets import (SliceClass, grid_jacobian, holonomy_defect, relation_grid,
                   skew_of_jacobian, slope_grid)
from .reports import VerificationReport, fmt_num

SINC_GUARD = 0.3
FREQ_BASE = 8.0
FREQ_CAP = 2.0 ** 14
N_FRAMES = 17
PHASE_CANDIDATES = 64


# -- loops in the relation slice ------------------------------------------


@dataclass(frozen=True)
class Loop:
    """theta -> center + radius * e^{i theta} * direction in C^m."""

    center: tuple
    direction: tuple
    radius: float

    def point(self, theta: float) -> tuple:
        ph = self.radius * complex(math.cos(theta), math.sin(theta))
        return tuple(c + ph * v for c, v in zip(self.center, self.direction))

    def mean_quadrature(self, k: int = 64) -> tuple:
        """Uniform average over k phases; exact for circular harmonics."""
        acc = [0j] * len(self.center)
        for j in range(k):
            pt = self.point(2 * math.pi * j / k)
            acc = [a + p for a, p in zip(acc, pt)]
        return tuple(a / k for a in acc)

    def min_affine_margin(self, w, c, k: int = 720) -> float:
        """min over the loop of |<w, point> + c|, sampling plus the
        analytically worst phase."""
        w = [complex(x) for x in w]
        c = complex(c)
        base = sum(wi * ci for wi, ci in zip(w, self.center)) + c
        slope = sum(wi * vi for wi, vi in zip(w, self.direction))
        thetas = [2 * math.pi * j / k for j in range(k)]
        if base != 0 and slope != 0:
            thetas.append(math.pi + (np.angle(base) - np.angle(slope)))
        return min(abs(base + self.radius * slope * complex(math.cos(t), math.sin(t)))
                   for t in thetas)


def loop_for_target(slc: SliceClass, target, delta: float) -> Loop:
    """A circle in the relation slice with mean exactly at the target.

    Full slices give the degenerate constant loop; hyperplane complements
    give a circle in the conjugate-normal direction whose worst point
    stays delta away from the hyperplane.
    """
    target = tuple(complex(t) for t in target)
    if slc.kind == "empty":
        raise PreconditionError("empty slice admits no loop")
    if slc.kind == "full":
        return Loop(target, tuple(0j for _ in target), 0.0)
    w = [complex(x) for x in slc.w]
    norm2 = sum(abs(x) ** 2 for x in w)
    v = tuple(x.conjugate() / norm2 for x in w)
    h0 = sum(wi * ti for wi, ti in zip(w, target)) + complex(slc.c)
    return Loop(target, v, abs(h0) + delta)


# -- solver ---------------------------------------------------------------


def good_frequency(n_base: int, h: float) -> int:
    """Smallest integer >= n_base whose phase step avoids the sinc
    resonance: |sin(N h)| >= SINC_GUARD."""
    n = max(1, int(n_base))
    # phase moves by h per unit N, so a guard window is reached quickly
    for _ in range(int(math.pi / h) + 2):
        if abs(math.sin(n * h)) >= SINC_GUARD:
            return n
        n += 1
    raise PreconditionError("no usable oscillation frequency (mesh too coarse)")


def oscillation_field(ell: np.ndarray, nu: float, phi0, rho: np.ndarray,
                      h: float) -> np.ndarray:
    """The scalar correction whose central difference along the axis is
    exactly rho * e^{i(nu ell + phi0)} for constant rho and phi0."""
    theta = nu * ell + phi0
    return (h / math.sin(nu)) * (-1j) * rho * np.exp(1j * theta)


def _direction_pass(a: np.ndarray, grid: CubeGrid, cutoff: np.ndarray,
                    d: int, freq: int, delta: float,
                    interior: np.ndarray) -> bool:
    """One oscillation pass along axis d, in place.  Returns False when the
    margins made the pass unnecessary."""
    n = grid.n
    beta = skew_of_jacobian(grid_jacobian(a, grid))
    h_act = relation_grid(a, beta, n)
    margins = np.abs(h_act)
    if margins[interior].min() >= 3 * delta:
        return False

    # h is affine in column d of the jacobian: jac[k, d] enters beta only
    # through beta_dk = jac[k, d] - jac[d, k], and that slope never reads
    # column d
    w = np.zeros(a.shape, dtype=complex)
    for k in range(grid.m):
        if k != d:
            w[..., k] = slope_grid(a, beta, n, d, k)
    wnorm2 = np.sum(np.abs(w) ** 2, axis=-1)
    usable = wnorm2 > 1e-30
    u = np.zeros_like(w)
    u[usable] = np.conj(w[usable]) / wnorm2[usable][..., None]

    # amplitude: needed only where |h| is small, headroom 4 delta
    need = 1.0 - _smoothstep5((margins - 2 * delta) / (4 * delta))
    rho = (margins + 4 * delta) * need * cutoff * usable

    h_mesh = grid.h[d]
    nu = freq * h_mesh
    shape_d = [1] * grid.m
    shape_d[d] = grid.nodes
    ell = np.arange(grid.nodes, dtype=float).reshape(shape_d)

    # per-line phase offset maximizing the predicted worst margin
    best_min = None
    best_phi = None
    for j in range(PHASE_CANDIDATES):
        phi = 2 * math.pi * j / PHASE_CANDIDATES
        predicted = np.abs(h_act + rho * np.exp(1j * (nu * ell + phi)))
        line_min = predicted.min(axis=d, keepdims=True)
        if best_min is None:
            best_min = line_min
            best_phi = np.full(line_min.shape, phi)
        else:
            better = line_min > best_min
            best_min = np.where(better, line_min, best_min)
            best_phi = np.where(better, phi, best_phi)

    corr = oscillation_field(ell, nu, best_phi, rho, h_mesh)
    a += corr[..., None] * u
    return True


def _third_difference_bound(a: np.ndarray, grid: CubeGrid) -> float:
    """Certified local curvature scale: max third difference / h^3."""
    worst = 0.0
    for d in range(grid.m):
        diffs = np.diff(a, 3, axis=d) / grid.h[d] ** 3
        worst = max(worst, float(np.max(np.abs(diffs))))
    return worst


def _stencil_bound(s: GridSection) -> float:
    h2 = max(s.grid.h) ** 2
    return 10.0 * h2 * _third_difference_bound(s.a, s.grid) + 1e-12


def _strip_stencil_bound(s: GridSection, gamma: GammaSpec) -> float:
    """Stencil bound from the strips' own curvature.

    Uses only difference windows lying inside the strips plus their one
    guard layer, so rough data elsewhere on the grid cannot launder a
    non-holonomic strip through an inflated global bound.
    """
    grid = s.grid
    guard = gamma.frozen_mask(grid)
    for axis, side in gamma.faces:
        plane = [slice(None)] * grid.m
        plane[axis] = gamma.width if side == 0 else grid.nodes - 1 - gamma.width
        guard[tuple(plane)] = True
    worst = 0.0
    for d in range(grid.m):
        diffs = np.abs(np.diff(s.a, 3, axis=d)) / grid.h[d] ** 3
        # a window covers nodes k..k+3 along d; keep those fully in guard
        sl = [slice(None)] * grid.m
        sl[d] = slice(0, grid.nodes - 3)
        window_ok = guard[tuple(sl)].copy()
        for off in range(1, 4):
            sl[d] = slice(off, grid.nodes - 3 + off)
            window_ok &= guard[tuple(sl)]
        if window_ok.any():
            worst = max(worst, float(diffs.max(axis=-1)[window_ok].max()))
    h2 = max(grid.h) ** 2
    return 10.0 * h2 * worst + 1e-12


def _check_gamma_preconditions(s: GridSection, gamma: GammaSpec, delta: float,
                               jac: np.ndarray) -> None:
    if gamma.is_empty:
        return
    mask = gamma.frozen_mask(s.grid)
    defect_field = np.max(np.abs(skew_of_jacobian(jac) - s.beta), axis=(-2, -1))
    bound = _strip_stencil_bound(s, gamma)
    worst_defect = float(defect_field[mask].max())
    if worst_defect > bound:
        raise PreconditionError(
            f"frozen strips are not holonomic: defect {worst_defect:.3e} exceeds "
            f"stencil bound {bound:.3e}")
    margins = np.abs(relation_grid(s.a, skew_of_jacobian(jac), s.grid.n))
    worst_margin = float(margins[mask].min())
    if worst_margin < delta:
        raise PreconditionError(
            f"frozen strips leave the relation: margin {worst_margin:.3e} < {delta:.3e}")


# -- homotopy frames -------------------------------------------------------


def _skew_pairs(m: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(m) for s in range(r + 1, m)]


def _polar_path(h0: np.ndarray, h1: np.ndarray, tau: float) -> np.ndarray:
    """Interpolate moduli linearly and arguments geodesically; never zero
    when both endpoints are nonzero."""
    mod = (1 - tau) * np.abs(h0) + tau * np.abs(h1)
    ang = np.angle(h0) + tau * np.angle(h1 / h0)
    return mod * np.exp(1j * ang)


def _build_frames(inp: GridSection, a_out: np.ndarray, beta_out: np.ndarray,
                  gamma: GammaSpec) -> list[GridSection]:
    grid = inp.grid
    n = grid.n
    frozen = None if gamma.is_empty else gamma.frozen_mask(grid)
    h0 = relation_grid(inp.a, inp.beta, n)
    h1 = relation_grid(a_out, beta_out, n)
    pairs = _skew_pairs(grid.m)

    frames = [GridSection(grid, inp.a.copy(), inp.beta.copy())]
    for k in range(1, N_FRAMES - 1):
        tau = k / (N_FRAMES - 1)
        a_k = inp.a + tau * (a_out - inp.a)
        beta_lerp = inp.beta + tau * (beta_out - inp.beta)
        hk = relation_grid(a_k, beta_lerp, n)
        target = _polar_path(h0, h1, tau)

        # steer h to the polar path with one skew entry per node, chosen
        # for the largest affine slope
        slopes = np.stack([slope_grid(a_k, beta_lerp, n, r, s) for r, s in pairs],
                          axis=-1)
        choice = np.argmax(np.abs(slopes), axis=-1)
        slope = np.take_along_axis(slopes, choice[..., None], axis=-1)[..., 0]
        ok = np.abs(slope) > 1e-30
        lam = np.zeros_like(hk)
        lam[ok] = (target[ok] - hk[ok]) / slope[ok]

        beta_k = beta_lerp.copy()
        for idx, (r, s) in enumerate(pairs):
            sel = np.where(choice == idx, lam, 0)
            beta_k[..., r, s] += sel
            beta_k[..., s, r] -= sel
        if frozen is not None:
            a_k[frozen] = inp.a[frozen]
            beta_k[frozen] = inp.beta[frozen]
        frames.append(GridSection(grid, a_k, beta_k))
    frames.append(GridSection(grid, a_out.copy(), beta_out.copy()))
    return frames


# -- result and verification ----------------------------------------------


@dataclass
class CIResult:
    """Solver outcome: corrected section, homotopy frames, achieved bounds."""

    output: GridSection
    frames: list[GridSection]
    gamma: GammaSpec
    eps: float
    delta: float
    margin: float
    deviation: float
    sweep_frequencies: list[list[int]] = field(default_factory=list)
    rung: int = 0
    passed: bool = False
    failure: str = ""

    def meta(self) -> dict:
        return {
            "nodes": self.output.grid.nodes,
            "n": self.output.grid.n,
            "eps": self.eps,
            "delta": self.delta,
            "margin": self.margin,
            "deviation": self.deviation,
            "sweep_frequencies": self.sweep_frequencies,
            "rung": self.rung,
            "passed": self.passed,
            "failure": self.failure,
            "frames": len(self.frames),
            "frozen_faces": sorted(list(self.gamma.faces)),
            "strip_width": self.gamma.width,
        }


def ci_solve(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
             max_sweeps: int = 8) -> CIResult:
    """Correct a formal pair into the relation by coordinate oscillations.

    Frequencies double from FREQ_BASE/mesh when a full sweep set fails to
    reach the margin, restarting from the input each time; the cap is
    FREQ_CAP/mesh.  A capped-out ladder returns a failure result carrying
    the worst node, never a partial success.
    """
    grid = inp.grid
    if eps <= 0 or delta <= 0:
        raise PreconditionError("eps and delta must be positive")
    if max_sweeps < 1:
        raise PreconditionError("max_sweeps must be at least 1")

    formal = np.abs(relation_grid(inp.a, inp.beta, grid.n))
    worst_formal = float(formal.min())
    if worst_formal <= 1e-12:
        node = np.unravel_index(int(formal.argmin()), formal.shape)
        raise PreconditionError(
            f"formal margin vanishes at node {tuple(int(k) for k in node)}")

    jac_in = grid_jacobian(inp.a, grid)
    _check_gamma_preconditions(inp, gamma, delta, jac_in)

    interior = grid.interior_mask()
    margins_in = np.abs(relation_grid(inp.a, skew_of_jacobian(jac_in), grid.n))
    already = float(margins_in[interior].min())
    if already >= delta and holonomy_defect(inp) <= _stencil_bound(inp):
        frames = [inp.copy() for _ in range(N_FRAMES)]
        return CIResult(inp.copy(), frames, gamma, eps, delta,
                        margin=already, deviation=0.0,
                        sweep_frequencies=[], rung=0, passed=True)

    cutoff = gamma.cutoff_field(grid)
    frozen = None if gamma.is_empty else gamma.frozen_mask(grid)
    mesh = min(grid.h)
    base_freq = FREQ_BASE / mesh
    cap = FREQ_CAP / mesh

    worst_note = ""
    rung = 0
    freq = base_freq
    while freq <= cap:
        a = inp.a.copy()
        sweep_freqs: list[list[int]] = []
        success = False
        for _ in range(max_sweeps):
            per_direction = []
            acted = False
            for d in range(grid.m):
                nd = good_frequency(round(freq), grid.h[d])
                if _direction_pass(a, grid, cutoff, d, nd, delta, interior):
                    acted = True
                    per_direction.append(nd)
                else:
                    per_direction.append(0)
            sweep_freqs.append(per_direction)
            jac = grid_jacobian(a, grid)
            margins = np.abs(relation_grid(a, skew_of_jacobian(jac), grid.n))
            achieved = float(margins[interior].min())
            if achieved >= delta:
                success = True
                break
            if not acted:
                break
        deviation = float(np.max(np.abs(a - inp.a)))
        if success and deviation <= eps:
            beta_out = skew_of_jacobian(jac)
            if frozen is not None:
                beta_out[frozen] = inp.beta[frozen]
                a[frozen] = inp.a[frozen]
            out = GridSection(grid, a, beta_out)
            frames = _build_frames(inp, a, beta_out, gamma)
            return CIResult(out, frames, gamma, eps, delta,
                            margin=achieved, deviation=deviation,
                            sweep_frequencies=sweep_freqs, rung=rung, passed=True)
        masked = np.where(interior, margins, np.inf)
        node = np.unravel_index(int(masked.argmin()), margins.shape)
        worst_note = (f"rung {rung} (freq {freq:.0f}): margin "
                      f"{float(masked.min()):.3e} at node "
                      f"{tuple(int(k) for k in node)}, deviation {deviation:.3e}")
        rung += 1
        freq *= 2

    frames = [inp.copy() for _ in range(N_FRAMES)]
    return CIResult(inp.copy(), frames, gamma, eps, delta,
                    margin=0.0, deviation=0.0, sweep_frequencies=[],
                    rung=rung, passed=False,
                    failure=f"frequency ladder exhausted; last attempt: {worst_note}")


def verify_ci(result: CIResult, inp: GridSection, eps: float,
              delta: float) -> VerificationReport:
    """Independent re-check of the solver postconditions.

    Uses only jet and relation operations on the result data; no solver
    internals are trusted.
    """
    report = VerificationReport("convex integration postconditions")
    out = result.output
    grid = out.grid
    if not result.passed:
        report.add("solver outcome", False, result.failure or "solver reported failure")
        return report
    if grid != inp.grid:
        report.add("grid identity", False, "output grid differs from input grid")
        return report

    # (a) holonomy: beta equals the finite-difference curl within the
    # certified stencil bound
    defect = holonomy_defect(out)
    bound = _stencil_bound(out)
    report.add("holonomy defect within stencil bound", defect <= bound,
               f"defect={fmt_num(defect)} bound={fmt_num(bound)} (bound from data)")

    # (b) relation margin at interior nodes
    interior = grid.interior_mask()
    jac = grid_jacobian(out.a, grid)
    margins = np.abs(relation_grid(out.a, skew_of_jacobian(jac), grid.n))
    interior_margins = np.where(interior, margins, np.inf)
    worst = float(interior_margins.min())
    node = np.unravel_index(int(interior_margins.argmin()), margins.shape)
    report.add("relation margin at interior nodes", worst >= delta,
               f"min |h|={fmt_num(worst)} needed {fmt_num(delta)} at node "
               f"{tuple(int(k) for k in node)}")

    # (c) sup-deviation
    dev_field = np.max(np.abs(out.a - inp.a), axis=-1)
    deviation = float(dev_field.max())
    dev_node = np.unravel_index(int(dev_field.argmax()), dev_field.shape)
    report.add("sup-deviation within eps", deviation <= eps,
               f"deviation={fmt_num(deviation)} eps={fmt_num(eps)} at node "
               f"{tuple(int(k) for k in dev_node)}")

    # (d) frames: endpoints exact, formal margin strictly positive throughout
    frames = result.frames
    report.add("frame count", len(frames) == N_FRAMES, f"{len(frames)} frames")
    if frames:
        first, last = frames[0], frames[-1]
        report.add("first frame equals input",
                   np.array_equal(first.a, inp.a) and np.array_equal(first.beta, inp.beta))
        report.add("last frame equals output",
                   np.array_equal(last.a, out.a) and np.array_equal(last.beta, out.beta))
        worst_frame = math.inf
        worst_k = -1
        for k, fr in enumerate(frames):
            fm = float(np.abs(relation_grid(fr.a, fr.beta, grid.n)).min())
            if fm < worst_frame:
                worst_frame = fm
                worst_k = k
        report.add("frames keep positive formal margin", worst_frame > 0.0,
                   f"min over frames |h|={fmt_num(worst_frame)} at frame {worst_k}")

    # (e) frames constant on frozen strips
    if not result.gamma.is_empty:
        mask = result.gamma.frozen_mask(grid)
        constant = all(
            np.array_equal(fr.a[mask], inp.a[mask])
            and np.array_equal(fr.beta[mask], inp.beta[mask])
            for fr in frames)
        report.add("frames constant on frozen strips", constant)
    return report


# -- built-in demonstration inputs ----------------------------------------


def demo_flat_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Constant a = (0, 0, 1) with beta = dz1^dz2: formal margin 1
    everywhere, actual relation value 0 everywhere."""
    grid = CubeGrid(1, nodes)
    a = np.zeros(grid.shape + (3,), dtype=complex)
    a[..., 2] = 1.0
    beta = np.zeros(grid.shape + (3, 3), dtype=complex)
    beta[..., 0, 1] = 1.0
    beta[..., 1, 0] = -1.0
    return GridSection(grid, a, beta), GammaSpec.empty()


def demo_holonomic_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Sampled standard contact data: already holonomic and in-relation."""
    grid = CubeGrid(1, nodes)
    x1 = grid.axis(0).reshape(-1, 1, 1)
    a = np.zeros(grid.shape + (3,), dtype=complex)
    a[..., 1] = x1 * np.ones(grid.shape)
    a[..., 2] = 1.0
    beta = np.zeros(grid.shape + (3, 3), dtype=complex)
    beta[..., 0, 1] = 1.0
    beta[..., 1, 0] = -1.0
    return GridSection(grid, a, beta), GammaSpec.empty()


def demo_gamma_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Holonomic standard data near both x1 faces, blended to the
    non-holonomic flat pair in the middle, with those faces frozen.

    The second component is x1 within distance 1/8 of either face (there
    the pair is the sampled standard form, holonomic with margin 1) and 0
    on the central band, joined by quintic ramps.  beta stays dz1^dz2
    throughout, so the formal margin is 1 everywhere while the
    finite-difference relation value vanishes on the central plateau.
    """
    grid = CubeGrid(1, nodes)
    x1 = grid.axis(0)
    u = np.clip((np.abs(x1 - 0.5) - 0.125) / 0.25, 0.0, 1.0)
    blend = _smoothstep5(u)
    a = np.zeros(grid.shape + (3,), dtype=complex)
    a[..., 1] = (blend * x1).reshape(-1, 1, 1) * np.ones(grid.shape)
    a[..., 2] = 1.0
    beta = np.zeros(grid.shape + (3, 3), dtype=complex)
    beta[..., 0, 1] = 1.0
    beta[..., 1, 0] = -1.0
    gamma = GammaSpec.of({(0, 0), (0, 1)}, width=3)
    return GridSection(grid, a, beta), gamma
