"""Grid-scale convex integration for the contact relation.

Input: a sampled formal pair (a, beta) on a cube whose formal relation
value never vanishes.  Output: a corrected field whose finite-difference
jet lies in the relation with margin delta at every interior node, within
sup-distance eps of the input, together with a 17-frame homotopy whose
formal margin stays strictly positive, all constant on frozen boundary
strips.  A passed output, corrected or not, is the input on the strips
and off them carries the finite-difference curl of its a as its beta, bit
for bit.  Each interior frame is the straight line from the input to the
output with its relation value steered onto a chord path by the
least-norm change of beta, one formula at every node.  The homotopy is a
function of its endpoints and the strips, so a result stores only the
input and the output; its ``frames`` are a view that builds frame k when
it is read, into two arrays of its own.  The first interior read keeps
the moduli and unit directions of both endpoints' formal relation
fields, all that the chord path reads.  The verifier builds no frame: at
n = 1 the path is a formula per node, and it certifies every tau of the
path from the caller's input, the output and the strips
(``_path_bound``).

The correction primitive is a rapid oscillation along one grid axis whose
finite-difference derivative sweeps a circle in the complex column of the
jet.  The relation value h is affine in that column, so per node the
oscillation moves h on a circle of chosen radius around its current
value; radius = current |h| + headroom keeps the worst phase away from
zero.  On the grid the oscillation is its phase step per node nu, taken
mod 2 pi; rung r of the solver's ladder steps PHASE_STEPS[r] on every
axis.  The discrete amplitude is divided by sin(nu), which makes the
central-difference change exact for constant envelopes, so a pass knows
its step in a before it acts and does not act when that step would take a
further than eps from the input.  Each section's finite-difference curl
is taken once and shared by the solver checks and the verifier.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError, _count
from .grids import (CubeGrid, GammaSpec, GridSection, _require_finite, _smoothstep5,
                    upper_pairs)
from .jets import SliceClass, curl_grid, relation_grid, slope_grid
from .reports import VerificationReport, fmt_num

SINC_GUARD = 0.3
# the phase step per node of each rung, on every axis.  Rung 0 steps 8 rad;
# rungs 1-11 spread over the arc [_ARC, pi - _ARC], where |sin nu| >=
# SINC_GUARD, by the fractional parts of r (sqrt 5 - 1) / 2
_ARC = math.asin(SINC_GUARD)
PHASE_STEPS = (8.0, *(_ARC + (math.pi - 2 * _ARC) * (r * (math.sqrt(5) - 1) / 2 % 1)
                      for r in range(1, 12)))
N_FRAMES = 17
# the homotopy certificate's relative rounding allowance: on the demo
# solves no frame's |h| fell more than 3.6e-14 relative below the stated
# modulus (1 - tau) |h0| + tau |h1|
PATH_ALLOWANCE = 1e-11
PHASE_CANDIDATES = 64
# complex elements scored per numpy call in the phase search: every phase
# of a coarse grid's few active lines, or one phase of a fully active
# 33-node grid, whose working set is then the per-phase loop's
PHASE_BLOCK_ELEMENTS = 2 ** 16


# -- loops in the relation slice ------------------------------------------


@functools.lru_cache(maxsize=32)
def _unit_phases(k: int) -> np.ndarray:
    """The k unit phases e^{2 pi i j / k}, j = 0 .. k-1, read-only: every
    loop's sampling shares them."""
    units = np.exp(1j * (2 * np.pi * np.arange(k) / k))
    units.flags.writeable = False
    return units


@dataclass(frozen=True)
class Loop:
    """theta -> center + radius * e^{i theta} * direction in C^m."""

    center: tuple
    direction: tuple
    radius: float

    def __post_init__(self):
        if len(self.center) != len(self.direction):
            raise DimensionError(f"a loop's center has length {len(self.center)} and its "
                                 f"direction length {len(self.direction)}")

    def mean_quadrature(self, k: int = 64) -> tuple:
        """Uniform average over k phases; exact for circular harmonics."""
        _count(k, "a loop's phase count k", 1, PreconditionError)
        ph = self.radius * _unit_phases(k)
        center, direction = np.array((self.center, self.direction), complex)
        pts = center + ph[:, None] * direction
        return tuple((pts.sum(axis=0) / k).tolist())

    def min_affine_margin(self, w, c, k: int = 720) -> float:
        """min over the loop of |<w, point> + c|: the k sampled phases and
        the worst phase's value ||base| - radius |slope||, in closed form."""
        _count(k, "a loop's phase count k", 1, PreconditionError)
        if len(w) != len(self.center):
            raise DimensionError(f"w has length {len(w)}, the loop's center has length "
                                 f"{len(self.center)}")
        w = [complex(x) for x in w]
        c = complex(c)
        base = sum(wi * ci for wi, ci in zip(w, self.center)) + c
        slope = sum(wi * vi for wi, vi in zip(w, self.direction))
        sampled = float(np.abs(base + self.radius * slope * _unit_phases(k)).min())
        return min(sampled, abs(abs(base) - self.radius * abs(slope)))


def loop_for_target(slc: SliceClass, target, delta: float) -> Loop:
    """A circle in the relation slice with mean exactly at the target.

    Full slices give the degenerate constant loop; hyperplane complements
    give a circle in the conjugate-normal direction whose worst point
    stays delta away from the hyperplane; delta must be finite and > 0.
    """
    if not 0 < delta < math.inf:
        raise PreconditionError(f"loop margin delta must be finite and > 0, got {delta!r}")
    target = tuple(complex(t) for t in target)
    if slc.kind == "empty":
        raise PreconditionError("empty slice admits no loop")
    if slc.kind == "full":
        return Loop(target, tuple(0j for _ in target), 0.0)
    if len(target) != len(slc.w):
        raise DimensionError(f"target has length {len(target)}, the slice's w has length "
                             f"{len(slc.w)}")
    w = [complex(x) for x in slc.w]
    norm2 = sum(abs(x) ** 2 for x in w)
    if not norm2:
        raise PreconditionError(f"a hyperplane slice needs a nonzero w, got {slc.w!r}")
    v = tuple(x.conjugate() / norm2 for x in w)
    h0 = sum(wi * ti for wi, ti in zip(w, target)) + complex(slc.c)
    return Loop(target, v, abs(h0) + delta)


# -- solver ---------------------------------------------------------------


def oscillation_field(ell: np.ndarray, nu: float, phi0, rho: np.ndarray,
                      h: float) -> np.ndarray:
    """The scalar correction whose central difference along the axis is
    exactly rho * e^{i(nu ell + phi0)} for constant rho and phi0."""
    theta = nu * ell + phi0
    return (h / math.sin(nu)) * (-1j) * rho * np.exp(1j * theta)


def _direction_pass(a: np.ndarray, grid: CubeGrid, cutoff: np.ndarray,
                    d: int, nu: float, delta: float, interior: np.ndarray,
                    beta: np.ndarray, h_act: np.ndarray, a_in: np.ndarray,
                    eps: float) -> bool:
    """One oscillation pass along axis d, phase step ``nu`` per node, in
    place; ``beta`` is the curl of a on entry and ``h_act`` the relation
    field of (a, beta).  Returns False, leaving a untouched, when the
    margins made the pass unnecessary, its amplitude rho is zero on the
    whole grid, or its step would take some component of a more than eps
    away from the input ``a_in``."""
    n = grid.n
    margins = np.abs(h_act)
    if margins[interior].min() >= 3 * delta:
        return False

    # h is affine in column d of the jacobian: jac[k, d] enters beta only
    # through beta_dk = jac[k, d] - jac[d, k], and that slope never reads
    # column d
    w = np.zeros_like(a)
    for k in range(grid.m):
        if k != d:
            w[..., k] = slope_grid(a, beta, n, d, k)
    wnorm2 = np.sum(np.abs(w) ** 2, axis=-1)
    usable = wnorm2 > 1e-30
    u = np.divide(np.conj(w), wnorm2[..., None], out=np.zeros_like(w),
                  where=usable[..., None])

    # amplitude: needed only where |h| is small, headroom 4 delta
    need = 1.0 - _smoothstep5((margins - 2 * delta) / (4 * delta))
    rho = (margins + 4 * delta) * need * cutoff * usable
    if not (rho > 0).any():
        return False

    h_mesh = grid.h[d]
    # the oscillation moves component k of a by exactly
    # h / |sin nu| * rho * |u_k| at each node: a pass never overspends eps
    step = (h_mesh / abs(math.sin(nu))) * rho[..., None] * np.abs(u)
    if float(np.max(np.abs(a - a_in) + step)) > eps:
        return False

    shape_d = [1] * grid.m
    shape_d[d] = grid.nodes
    ell = np.arange(grid.nodes, dtype=float).reshape(shape_d)

    corr = oscillation_field(ell, nu, _line_phases(h_act, rho, nu, d), rho, h_mesh)
    a += corr[..., None] * u
    return True


def _line_phases(h_act: np.ndarray, rho: np.ndarray, nu: float, d: int) -> np.ndarray:
    """Per grid line along axis d (kept as a length-1 axis) the phase
    offset 2 pi j / PHASE_CANDIDATES maximizing the predicted worst margin
    min over the line of |h + rho e^{i(nu l + phi)}|, the first one on ties.

    A line with rho == 0 predicts |h| for every phase and keeps phase 0
    unscored; the other lines are scored a block of phases per numpy call.
    Every value is the one a per-phase loop with a strict > gives."""
    act = (rho > 0).any(axis=d)
    best_phi = np.zeros(act.shape)
    if act.any():
        # nodes x active lines, contiguous, so line minima run down columns;
        # rho is made complex once here rather than cast in every product
        h_lines = np.ascontiguousarray(np.moveaxis(h_act, d, 0)[:, act])
        rho_lines = np.ascontiguousarray(np.moveaxis(rho, d, 0)[:, act], dtype=complex)
        nodes, lines = h_lines.shape
        phases = 2 * np.pi * np.arange(PHASE_CANDIDATES) / PHASE_CANDIDATES
        ell = np.arange(nodes, dtype=float)
        block = max(1, PHASE_BLOCK_ELEMENTS // h_lines.size)
        cols = np.arange(lines)
        line_best = np.full(lines, -np.inf)
        line_phi = np.zeros(lines)
        for j in range(0, PHASE_CANDIDATES, block):
            phi = phases[j:j + block]
            predicted = rho_lines * np.exp(1j * (nu * ell + phi[:, None]))[..., None]
            predicted += h_lines
            line_min = np.abs(predicted).min(axis=1)
            # argmax takes the first maximum, as a strict > over phases does
            k = line_min.argmax(axis=0)
            top = line_min[k, cols]
            better = top > line_best
            line_best = np.where(better, top, line_best)
            line_phi = np.where(better, phi[k], line_phi)
        best_phi[act] = line_phi
    return np.expand_dims(best_phi, d)


def _worst_node(values: np.ndarray) -> tuple[int, ...]:
    """Index of the smallest entry, the first one on ties."""
    return tuple(int(k) for k in np.unravel_index(int(values.argmin()), values.shape))


def _out_of_reach(cutoff: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Interior nodes whose relation value no pass can change.  A pass
    moves a only where the cutoff is positive, and h at an interior node
    reads a at the node and at its neighbours one step along each axis."""
    live = cutoff > 0
    reached = live.copy()
    for d in range(live.ndim):
        below = (slice(None),) * d + (slice(None, -1),)
        above = (slice(None),) * d + (slice(1, None),)
        reached[below] |= live[above]
        reached[above] |= live[below]
    return interior & ~reached


def _check_gamma_preconditions(s: GridSection, gamma: GammaSpec, delta: float,
                               curl: np.ndarray, margins: np.ndarray) -> None:
    """Frozen strips must carry holonomic data whose margins clear delta.
    Holonomic there means a curl defect within the certified stencil error:
    10 h^2 times the max third difference / h^3 over the difference windows
    lying wholly inside the strips plus their one guard layer, so rough data
    elsewhere cannot launder a non-holonomic strip through an inflated bound."""
    if gamma.is_empty:
        return
    grid = s.grid
    mask = gamma.frozen_mask(grid)
    guard = GammaSpec(gamma.faces, gamma.width + 1).frozen_mask(grid)
    worst = 0.0
    for d in range(grid.m):
        diffs = np.abs(np.diff(s.a, 3, axis=d) / grid.h[d] ** 3)
        # a window covers nodes k..k+3 along d
        inside = np.ones(diffs.shape[:-1], dtype=bool)
        for off in range(4):
            inside &= np.take(guard, range(off, grid.nodes - 3 + off), axis=d)
        if inside.any():
            worst = max(worst, float(diffs[inside].max()))
    bound = 10.0 * max(grid.h) ** 2 * worst + 1e-12
    worst_defect = float(np.max(np.abs(curl - s.beta), axis=-1)[mask].max())
    if worst_defect > bound:
        raise PreconditionError(
            f"frozen strips are not holonomic: defect {worst_defect:.3e} exceeds "
            f"stencil bound {bound:.3e}")
    worst_margin = float(margins[mask].min())
    if worst_margin < delta:
        raise PreconditionError(
            f"frozen strips leave the relation: margin {worst_margin:.3e} < {delta:.3e}")


# -- homotopy frames -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Homotopy(Sequence):
    """The N_FRAMES frames from ``start`` to ``end``, each built when read.

    Frames 0 and N_FRAMES - 1 copy the endpoints (all frames copy ``start``
    when the endpoints are equal).  Frame k between is the straight line at
    tau = k / (N_FRAMES - 1) with h steered onto the chord path from h0 to
    h1, the formal relation fields of ``start`` and ``end``, held at
    ``start`` on the ``frozen`` strips (``GammaSpec.strips``' slices).
    The path takes + - * /, sqrt and hypot only: modulus (1 - tau) |h0| +
    tau |h1|, direction the normalized chord from u0 = h0 / |h0| to
    w = u0 sqrt(u1 / u0) for tau <= 1/2 and from w to u1 = h1 / |h1| after.
    The root is principal, so each leg spans at most a quarter turn and
    ends with u1 = -u0 turn counterclockwise, as arg in (-pi, pi] did; a
    zero or non-finite endpoint value points along 1.
    The steering is the least-norm change of beta: with s_c the slope of h
    in upper column c, every column gains lam conj(s_c), where
    lam = (target - h) / sum |s_c|^2, or 0 where that sum is at most
    1e-60.  At n = 1 h is linear in beta and the slopes are the entries of
    a up to sign, so the step puts h on the target, up to rounding, and is
    continuous in tau wherever a is not 0.
    The endpoints are held by reference, so changing them changes the
    frames.  The path's moduli and directions are read from them once, on
    the first interior frame, and kept in ``_path``; each frame reads
    end - start afresh, into the arrays it returns."""

    start: GridSection
    end: GridSection
    frozen: tuple

    def __len__(self) -> int:
        return N_FRAMES

    @functools.cached_property
    def _path(self) -> tuple[np.ndarray, ...] | None:
        """|h0|, |h1|, u0, w and u1, all that frames read, or None when the
        endpoints are equal and every frame copies start."""
        if self.end == self.start:
            return None
        path = []
        for section in (self.start, self.end):
            h = relation_grid(section.a, section.beta, section.grid.n)
            mod = np.hypot(h.real, h.imag)
            path += [mod, np.divide(h, mod, out=np.ones_like(h),
                                    where=(mod > 0) & (mod < math.inf))]
        mod0, u0, mod1, u1 = path
        # z = u1 conj(u0) = x + iy and its principal root c + is, from real
        # parts: the larger of |c| and |s| is sqrt((1 + |x|) / 2) and the
        # other |y| / (2 larger), so both keep their precision; s >= 0 at y = 0
        x = u1.real * u0.real + u1.imag * u0.imag
        y = u1.imag * u0.real - u1.real * u0.imag
        big = np.sqrt((1 + np.abs(x)) / 2)
        small = np.abs(y) / (2 * big)
        c = np.where(x < 0, small, big)
        s = np.where(y < 0, -1.0, 1.0) * np.where(x < 0, big, small)
        w = (u0.real * c - u0.imag * s) + 1j * (u0.real * s + u0.imag * c)
        return mod0, mod1, u0, w, u1

    def __getitem__(self, k) -> GridSection:
        k = range(N_FRAMES)[operator.index(k)]
        start, end = self.start, self.end
        if k == 0 or self._path is None:
            return start.copy()
        if k == N_FRAMES - 1:
            return end.copy()
        grid, tau = start.grid, k / (N_FRAMES - 1)
        # start + tau (end - start), each field built in its own array
        a_k = np.subtract(end.a, start.a)
        a_k *= tau
        a_k += start.a
        beta_k = np.subtract(end.beta, start.beta)
        beta_k *= tau
        beta_k += start.beta
        # the chord point on tau's leg, normalized, times the modulus
        mod0, mod1, u0, w, u1 = self._path
        t, (p, q) = (2 * tau, (u0, w)) if tau <= 0.5 else (2 * tau - 1, (w, u1))
        target = p * (1 - t) + q * t
        target *= (mod0 * (1 - tau) + mod1 * tau) / np.hypot(target.real, target.imag)
        # the steering's numerator: the target less h
        target -= relation_grid(a_k, beta_k, grid.n)

        # steer h to the chord path by the least-norm change of beta: h is
        # affine in beta with slope s_c in column c, so adding
        # lam conj(s_c) to every column moves h by lam sum |s_c|^2, the
        # numerator when lam = numerator / sum |s_c|^2.  Every product is
        # taken on real parts: numpy's complex product rounds differently
        # at different SIMD dispatch levels
        slopes = [slope_grid(a_k, beta_k, grid.n, r, s) for r, s in upper_pairs(grid.m)]
        norm2 = np.zeros(target.shape)
        for s in slopes:
            norm2 += s.real * s.real + s.imag * s.imag
        live = norm2 > 1e-60
        lam_r = np.divide(target.real, norm2, out=np.zeros_like(norm2), where=live)
        lam_i = np.divide(target.imag, norm2, out=np.zeros_like(norm2), where=live)
        del target, norm2, live
        for c, s in enumerate(slopes):
            beta_k.real[..., c] += lam_r * s.real + lam_i * s.imag
            beta_k.imag[..., c] += lam_i * s.real - lam_r * s.imag
        for strip in self.frozen:
            a_k[strip] = start.a[strip]
            beta_k[strip] = start.beta[strip]
        return GridSection(grid, a_k, beta_k)


# -- result and verification ----------------------------------------------


@dataclass(frozen=True)
class CIResult:
    """Solver outcome: the input it was given, the corrected section and
    the achieved bounds.  ``sweep_frequencies`` holds, per sweep of the
    rung that passed, one entry per axis: the phase step nu where that
    pass acted, else 0.0.  ``frames`` is a read-only view, the
    ``Homotopy`` from the input to the output, built on first read."""

    input: GridSection
    output: GridSection
    gamma: GammaSpec
    eps: float
    delta: float
    margin: float
    deviation: float
    sweep_frequencies: list[list[float]] = field(default_factory=list)
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
            "frames": N_FRAMES,
            "frozen_faces": sorted(list(self.gamma.faces)),
            "strip_width": self.gamma.width,
        }

    @functools.cached_property
    def frames(self) -> Homotopy:
        return Homotopy(self.input, self.output, tuple(self.gamma.strips(self.input.grid)))


def _unchanged(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
               **outcome) -> CIResult:
    """A refusal: its output, and so every frame, equals the input."""
    return CIResult(inp, inp.copy(), gamma, eps, delta, deviation=0.0, margin=0.0, **outcome)


def _passed(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
            h_formal: np.ndarray, a: np.ndarray, curl: np.ndarray, h: np.ndarray,
            rung: int = 0, **outcome) -> CIResult:
    """The one success exit: the output (a, curl), ``curl`` the curl of
    ``a`` and ``h`` their relation field, reset in place to the input,
    whose formal relation field is ``h_formal``, on the frozen strips.
    Refused by node where the homotopy to it has no certified margin."""
    frozen = tuple(gamma.strips(inp.grid))
    for strip in frozen:
        curl[strip] = inp.beta[strip]
        a[strip] = inp.a[strip]
        h[strip] = h_formal[strip]
    path = _path_bound(inp.a, a, h_formal, h, frozen)
    node = _worst_node(path)
    if path[node] == 0.0:
        return _unchanged(inp, gamma, eps, delta, rung=rung, failure=(
            f"refused at rung {rung}: the homotopy to the output has no certified "
            f"formal margin at node {node}"))
    return CIResult(inp, GridSection(inp.grid, a, curl), gamma, eps, delta, rung=rung,
                    passed=True, **outcome)


def _check_problem(grid: CubeGrid, eps: float, delta: float) -> None:
    """The solver and the verifier take only n = 1, where h is linear in
    beta, so that the homotopy's steering puts h on its target, and only a
    finite, positive eps and delta: the sup-distance and margin checks are
    vacuous at any other."""
    if grid.n != 1:
        raise DimensionError(f"ci_solve and verify_ci take n = 1 only, got a grid with "
                             f"n = {grid.n}")
    if not (0 < eps < math.inf and 0 < delta < math.inf):
        raise PreconditionError(f"eps and delta must be finite and positive, got {eps}, {delta}")


def ci_solve(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
             max_sweeps: int = 8) -> CIResult:
    """Correct a formal pair into the relation by coordinate oscillations.

    Rung r oscillates with phase step PHASE_STEPS[r] per node along every
    axis, up to ``max_sweeps`` sweeps, each rung starting from the input;
    an input already in the relation passes at rung 0 with no sweep.
    When every rung fails, the result is a refusal naming the last rung's
    phase step and worst node, never a partial success.  The grid must
    have n = 1: the homotopy's steering puts h on its target only where h
    is linear in beta.
    """
    grid = inp.grid
    _check_problem(grid, eps, delta)
    _count(max_sweeps, "max_sweeps", 1, PreconditionError)

    h_formal = relation_grid(inp.a, inp.beta, grid.n)
    formal = np.abs(h_formal)
    if float(formal.min()) <= 1e-12:
        raise PreconditionError(f"formal margin vanishes at node {_worst_node(formal)}")

    curl_in = curl_grid(inp.a, grid)
    h_in = relation_grid(inp.a, curl_in, grid.n)
    margins_in = np.abs(h_in)
    _check_gamma_preconditions(inp, gamma, delta, curl_in, margins_in)

    interior = grid.interior_mask()
    cutoff = gamma.cutoff_field(grid)
    stuck = np.where(_out_of_reach(cutoff, interior), margins_in, np.inf)
    unreachable = float(stuck.min())
    if unreachable < delta:
        return _unchanged(inp, gamma, eps, delta, failure=(
            f"refused before rung 0: margin {unreachable:.3e} < delta "
            f"{delta:.3e} at node {_worst_node(stuck)}, where the cutoff is 0 on "
            f"the whole stencil, so no pass can change h"))

    for rung, nu in enumerate(PHASE_STEPS):
        # curl, h and the interior margins always belong to the current a
        a = inp.a.copy(order="K")
        curl, h = curl_in, h_in
        masked = np.where(interior, margins_in, np.inf)
        sweeps: list[list[float]] = []
        while float(masked.min()) < delta and len(sweeps) < max_sweeps:
            sweeps.append([])
            for d in range(grid.m):
                acted = _direction_pass(a, grid, cutoff, d, nu, delta, interior, curl, h,
                                        inp.a, eps)
                if acted:
                    curl = curl_grid(a, grid)
                    h = relation_grid(a, curl, grid.n)
                sweeps[-1].append(nu if acted else 0.0)
            masked = np.where(interior, np.abs(h), np.inf)
            if not any(sweeps[-1]):
                break
        achieved = float(masked.min())
        deviation = float(np.max(np.abs(a - inp.a)))
        if achieved >= delta and deviation <= eps:
            return _passed(inp, gamma, eps, delta, h_formal, a, curl, h, rung=rung,
                           margin=achieved, deviation=deviation, sweep_frequencies=sweeps)
        worst_note = (f"rung {rung} (phase step {nu:.4f}): margin {achieved:.3e} at node "
                      f"{_worst_node(masked)}, deviation {deviation:.3e}")

    return _unchanged(inp, gamma, eps, delta, rung=len(PHASE_STEPS),
                      failure=f"phase steps exhausted; last attempt: {worst_note}")


def _path_bound(a0: np.ndarray, a1: np.ndarray, h0: np.ndarray, h1: np.ndarray,
                frozen: tuple) -> np.ndarray:
    """Per node, a lower bound on the formal |h| of the homotopy from the
    section with a field ``a0`` and formal relation field ``h0`` to the one
    with ``a1`` and ``h1``, at every tau in [0, 1], or 0 where none holds.

    At n = 1 the steering puts h(tau) on the chord path, of modulus
    (1 - tau) |h0| + tau |h1| >= min(|h0|, |h1|), wherever the least-norm
    step is live, that is, where |a(tau)|^2 > 1e-60 for
    a(tau) = a0 + tau (a1 - a0); on the frozen strips h(tau) is h0.  A node
    gets the bound min(|h0|, |h1|) when it exceeds PATH_ALLOWANCE times
    max(|h0|, |h1|), which needs both moduli finite and positive, and, off
    the strips, when the least |a(tau)|^2 over [0, 1] exceeds 1e-60.  The
    frames ``Homotopy`` builds in floats are tested to keep
    |h| >= (1 - PATH_ALLOWANCE) times the bound."""
    mod0, mod1 = np.hypot(h0.real, h0.imag), np.hypot(h1.real, h1.imag)
    lo = np.minimum(mod0, mod1)
    # |a(tau)|^2 = A + 2 B tau + C tau^2: least at tau = -B / C when that
    # lies in (0, 1), else at an end
    step = a1 - a0
    A, B, C = (np.sum(x.real * y.real + x.imag * y.imag, axis=-1)
               for x, y in ((a0, a0), (a0, step), (step, step)))
    least = np.minimum(A, A + 2 * B + C)
    np.divide(A * C - B * B, C, out=least, where=(B < 0) & (B + C > 0))
    live = least > 1e-60
    for strip in frozen:
        live[strip] = True
    return np.where(live & (lo > PATH_ALLOWANCE * np.maximum(mod0, mod1)), lo, 0.0)


def verify_ci(result: CIResult, inp: GridSection, eps: float,
              delta: float) -> VerificationReport:
    """Independent re-check of the solver postconditions.

    Uses only jet and relation operations on the caller's input and the
    result's output; no solver internals are trusted, and no frame is
    built or read.  Check (a) has tolerance 0: off the frozen strips beta
    must be the finite-difference curl of a, bit for bit.  The homotopy is
    certified at every tau from its formula, per node (``_path_bound``),
    with the relative rounding allowance PATH_ALLOWANCE = 1e-11, about 280
    times the largest shortfall of a demo frame.  The strips still come
    from ``result.gamma``, so an output that moves them and claims none
    passes.  n, eps and delta are refused as ``ci_solve`` refuses them,
    and a NaN or an infinite part of the output as ``GridSection`` does.
    """
    _check_problem(inp.grid, eps, delta)
    report = VerificationReport("convex integration postconditions")
    out = result.output
    grid = out.grid
    if not result.passed:
        report.add("solver outcome", False, result.failure or "solver reported failure")
        return report
    if grid != inp.grid:
        report.add("grid identity", False, "output grid differs from input grid")
        return report
    _require_finite(out.a, out.beta)
    curl = curl_grid(out.a, grid)
    strips = tuple(result.gamma.strips(grid))

    # (a) holonomy: off the strips the largest |real| or |imaginary| part
    # of beta - curl is 0; (e) holds the strips to the input
    diff = out.beta - curl
    defect = np.maximum(np.abs(diff.real), np.abs(diff.imag)).max(axis=-1)
    for s in strips:
        defect[s] = 0.0
    node = _worst_node(-defect)
    report.add("beta is the curl of a off the frozen strips", defect[node] == 0.0,
               f"defect={fmt_num(float(defect[node]))} at node {node}, tolerance 0")

    # (b) relation margin at interior nodes
    margins = np.where(grid.interior_mask(),
                       np.abs(relation_grid(out.a, curl, grid.n)), np.inf)
    worst = float(margins.min())
    report.add("relation margin at interior nodes", worst >= delta,
               f"min |h|={fmt_num(worst)} needed {fmt_num(delta)} at node "
               f"{_worst_node(margins)}")

    # (c) sup-deviation
    dev_field = np.max(np.abs(out.a - inp.a), axis=-1)
    deviation = float(dev_field.max())
    report.add("sup-deviation within eps", deviation <= eps,
               f"deviation={fmt_num(deviation)} eps={fmt_num(eps)} at node "
               f"{_worst_node(-dev_field)}")

    del curl, diff, defect, margins, dev_field

    # (d) the formal margin stays positive at every tau of the homotopy
    # from the caller's input to the output
    path = _path_bound(inp.a, out.a, relation_grid(inp.a, inp.beta, grid.n),
                       relation_grid(out.a, out.beta, grid.n), strips)
    node = _worst_node(path)
    report.add("homotopy keeps positive formal margin at every tau", path[node] > 0.0,
               f"min |h| >= {fmt_num(float(path[node]))} at node {node}, "
               f"allowance {PATH_ALLOWANCE:g} of max(|h0|, |h1|)")
    # (e) every frame copies the input on the strips except the last, the
    # output, so the frames are constant there when the output is
    if strips:
        report.add("frames constant on frozen strips",
                   all(np.array_equal(out.a[s], inp.a[s])
                       and np.array_equal(out.beta[s], inp.beta[s]) for s in strips))
    return report


# -- built-in demonstration inputs ----------------------------------------


def _demo_section(nodes: int, a2) -> GridSection:
    """a = (0, a2(x1), 1) with beta = dz1^dz2 on the unit cube, n = 1."""
    grid = CubeGrid(1, nodes)
    # built as component planes, the sections' layout, so nothing is copied
    a = np.zeros((3,) + grid.shape, dtype=complex)
    a[1] = a2(grid.axis(0)).reshape(-1, 1, 1)
    a[2] = 1.0
    beta = np.zeros((3,) + grid.shape, dtype=complex)
    beta[0] = 1.0  # beta_12, the first upper column
    return GridSection(grid, np.moveaxis(a, 0, -1), np.moveaxis(beta, 0, -1))


def demo_flat_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Constant a = (0, 0, 1) with beta = dz1^dz2: formal margin 1
    everywhere, actual relation value 0 everywhere."""
    return _demo_section(nodes, np.zeros_like), GammaSpec.empty()


def demo_holonomic_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Sampled standard contact data: already holonomic and in-relation."""
    return _demo_section(nodes, lambda x1: x1), GammaSpec.empty()


def demo_gamma_section(nodes: int = 33) -> tuple[GridSection, GammaSpec]:
    """Holonomic standard data near both x1 faces, blended to the
    non-holonomic flat pair in the middle, with those faces frozen.

    The second component is x1 within distance 1/8 of either face (there
    the pair is the sampled standard form, holonomic with margin 1) and 0
    on the central band, joined by quintic ramps.  beta stays dz1^dz2
    throughout, so the formal margin is 1 everywhere while the
    finite-difference relation value vanishes on the central plateau.
    """
    def a2(x1):
        u = np.clip((np.abs(x1 - 0.5) - 0.125) / 0.25, 0.0, 1.0)
        return _smoothstep5(u) * x1

    return _demo_section(nodes, a2), GammaSpec.of({(0, 0), (0, 1)}, width=3)
