"""Grid-scale convex integration for the contact relation.

Input: a sampled formal pair (a, beta) on a cube whose formal relation
value never vanishes.  Output: a corrected field whose finite-difference
jet lies in the relation with margin delta at every interior node, within
sup-distance eps of the input, together with a 17-frame homotopy whose
formal margin stays strictly positive, all constant on frozen boundary
strips.  The homotopy is a function of its endpoints: a result keeps the
input, the output and the frozen strips, and builds frame k when it is
read, into two arrays of its own.  The first interior read takes both
endpoints' formal relation fields and keeps the moduli and arguments
every frame reads; nothing else is kept, and the verifier holds one frame
at a time.

The correction primitive is a rapid oscillation along one grid axis whose
finite-difference derivative sweeps a circle in the complex column of the
jet.  The relation value h is affine in that column, so per node the
oscillation moves h on a circle of chosen radius around its current
value; radius = current |h| + headroom keeps the worst phase away from
zero.  The discrete amplitude is divided by sin(frequency * mesh), which
makes the central-difference change exact for constant envelopes, so a
pass knows its step in a before it acts and does not act when that step
would take a further than eps from the input.  Each section's
finite-difference curl is taken once and shared by the solver checks and
the verifier.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .grids import CubeGrid, GammaSpec, GridSection, _smoothstep5, upper_pairs
from .jets import SliceClass, curl_grid, formal_margin_grid, relation_grid, slope_grid
from .reports import VerificationReport, fmt_num

SINC_GUARD = 0.3
FREQ_BASE = 8.0
FREQ_CAP = 2.0 ** 14
N_FRAMES = 17
PHASE_CANDIDATES = 64
# complex elements scored per numpy call in the phase search: every phase
# of a coarse grid's few active lines, or one phase of a fully active
# 33-node grid, whose working set is then the per-phase loop's
PHASE_BLOCK_ELEMENTS = 2 ** 16


# -- loops in the relation slice ------------------------------------------


def _check_phases(k: int) -> None:
    if type(k) is not int:
        raise PreconditionError(f"a loop's phase count k must be an int, got {k!r}")
    if k < 1:
        raise PreconditionError(f"a loop needs k >= 1 phases, got {k}")


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

    def point(self, theta: float) -> tuple:
        ph = self.radius * complex(math.cos(theta), math.sin(theta))
        return tuple(c + ph * v for c, v in zip(self.center, self.direction))

    def mean_quadrature(self, k: int = 64) -> tuple:
        """Uniform average over k phases; exact for circular harmonics."""
        _check_phases(k)
        ph = self.radius * _unit_phases(k)
        center, direction = np.array((self.center, self.direction), complex)
        pts = center + ph[:, None] * direction
        return tuple((pts.sum(axis=0) / k).tolist())

    def min_affine_margin(self, w, c, k: int = 720) -> float:
        """min over the loop of |<w, point> + c|, sampling plus the
        analytically worst phase."""
        _check_phases(k)
        if len(w) != len(self.center):
            raise DimensionError(f"w has length {len(w)}, the loop's center has length "
                                 f"{len(self.center)}")
        w = [complex(x) for x in w]
        c = complex(c)
        base = sum(wi * ci for wi, ci in zip(w, self.center)) + c
        slope = sum(wi * vi for wi, vi in zip(w, self.direction))
        units = _unit_phases(k)
        if base != 0 and slope != 0:
            # np.angle of base and of slope, in one arctan2 call
            at_base, at_slope = np.arctan2((base.imag, slope.imag), (base.real, slope.real)).tolist()
            worst = math.pi + (at_base - at_slope)
            # the worst phase stays an element of the array: the same
            # elementwise exp and products as the k sampled phases
            units = np.concatenate((units, np.exp(1j * np.array([worst]))))
        return float(np.abs(base + self.radius * slope * units).min())


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
    if len(target) != len(slc.w):
        raise DimensionError(f"target has length {len(target)}, the slice's w has length "
                             f"{len(slc.w)}")
    w = [complex(x) for x in slc.w]
    norm2 = sum(abs(x) ** 2 for x in w)
    v = tuple(x.conjugate() / norm2 for x in w)
    h0 = sum(wi * ti for wi, ti in zip(w, target)) + complex(slc.c)
    return Loop(target, v, abs(h0) + delta)


# -- solver ---------------------------------------------------------------


def good_frequency(n_base: int, h: float) -> int:
    """Smallest integer >= n_base whose phase step avoids the sinc
    resonance: |sin(N h)| >= SINC_GUARD."""
    if not 0 < h < math.inf:
        raise PreconditionError(f"mesh step must be finite and positive, got {h!r}")
    steps = math.pi / h
    if not math.isfinite(steps):
        raise PreconditionError(f"mesh step {h!r} is too small: pi / h overflows")
    # every N below asin(SINC_GUARD) / h lies on the first rising arc of
    # |sin(N h)|, below the guard; the phase then moves by h per unit N, so
    # a guard window is reached quickly
    n = max(1, int(n_base), int(math.asin(SINC_GUARD) / h) - 1)
    for _ in range(int(steps) + 2):
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
                    d: int, freq: int, delta: float, interior: np.ndarray,
                    beta: np.ndarray, h_act: np.ndarray, a_in: np.ndarray,
                    eps: float) -> bool:
    """One oscillation pass along axis d, in place; ``beta`` is the curl
    of a on entry and ``h_act`` the relation field of (a, beta).  Returns
    False, leaving a untouched, when the margins made the pass unnecessary,
    its amplitude rho is zero on the whole grid, or its step would take
    some component of a more than eps away from the input ``a_in``."""
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
    nu = freq * h_mesh
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


def _stencil_bound(s: GridSection, guard: np.ndarray | None = None) -> float:
    """Certified stencil error: 10 h^2 times the max third difference / h^3.

    With a ``guard`` mask only difference windows lying wholly inside it
    count, so rough data elsewhere on the grid cannot launder a
    non-holonomic strip through an inflated global bound.
    """
    grid = s.grid
    worst = 0.0
    for d in range(grid.m):
        diffs = np.abs(np.diff(s.a, 3, axis=d) / grid.h[d] ** 3)
        if guard is not None:
            # a window covers nodes k..k+3 along d
            inside = np.ones(diffs.shape[:-1], dtype=bool)
            for off in range(4):
                inside &= np.take(guard, range(off, grid.nodes - 3 + off), axis=d)
            diffs = diffs[inside]
        if diffs.size:
            worst = max(worst, float(diffs.max()))
    return 10.0 * max(grid.h) ** 2 * worst + 1e-12


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
    """Frozen strips must carry holonomic data whose margins clear delta."""
    if gamma.is_empty:
        return
    mask = gamma.frozen_mask(s.grid)
    defect_field = np.max(np.abs(curl - s.beta), axis=-1)
    # the strips plus their one guard layer
    bound = _stencil_bound(s, GammaSpec(gamma.faces, gamma.width + 1).frozen_mask(s.grid))
    worst_defect = float(defect_field[mask].max())
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
    when ``end`` is ``start``).  Frame k between is the straight line at
    tau = k / (N_FRAMES - 1) with h steered onto the polar path from h0 to
    h1, the formal relation fields of ``start`` and ``end``, held at
    ``start`` on the ``frozen`` strips (``GammaSpec.strips``' slices).
    The endpoints are held by reference, so changing them changes the
    frames.  The polar path's moduli and arguments are read from them
    once, on the first interior frame, and kept in ``_polar``; each frame
    reads end - start afresh, into the arrays it returns."""

    start: GridSection
    end: GridSection
    frozen: tuple

    def __len__(self) -> int:
        return N_FRAMES

    @functools.cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """|h0|, |h1|, arg h0 and arg(h1 / h0), all that frames read."""
        h0, h1 = (relation_grid(s.a, s.beta, s.grid.n) for s in (self.start, self.end))
        return np.abs(h0), np.abs(h1), np.angle(h0), np.angle(h1 / h0)

    def __getitem__(self, k) -> GridSection:
        k = range(N_FRAMES)[operator.index(k)]
        start, end = self.start, self.end
        if k == 0 or end is start:
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
        # polar path: moduli linear, arguments geodesic; never zero if h0, h1 are not
        mod0, mod1, arg0, turn = self._polar
        angle = np.multiply(turn, tau)
        angle += arg0
        target = 1j * angle
        np.exp(target, out=target)
        modulus = np.multiply(mod0, 1 - tau, out=angle)
        modulus += np.multiply(mod1, tau)
        target *= modulus
        del angle, modulus
        # the steering's numerator: the polar target less h
        target -= relation_grid(a_k, beta_k, grid.n)

        # steer h to the polar path with one skew entry per node, chosen
        # for the largest affine slope: a strict > keeps the first column
        # on ties, as argmax does
        pairs = upper_pairs(grid.m)
        slope = slope_grid(a_k, beta_k, grid.n, *pairs[0])
        size, choice = np.abs(slope), np.zeros(slope.shape, dtype=int)
        for c, (r, s) in enumerate(pairs[1:], 1):
            slope_c = slope_grid(a_k, beta_k, grid.n, r, s)
            size_c = np.abs(slope_c)
            better = size_c > size
            np.copyto(slope, slope_c, where=better)
            np.copyto(size, size_c, where=better)
            choice[better] = c
            del slope_c, size_c, better
        lam = np.divide(target, slope, out=np.zeros_like(target), where=size > 1e-30)
        del target, slope, size
        # lam goes to the chosen column; every other column gets a zero
        for c in range(beta_k.shape[-1]):
            beta_k[..., c] += np.where(choice == c, lam, 0)
        for strip in self.frozen:
            a_k[strip] = start.a[strip]
            beta_k[strip] = start.beta[strip]
        return GridSection._trusted(grid, a_k, beta_k)


# -- result and verification ----------------------------------------------


@dataclass
class CIResult:
    """Solver outcome: corrected section, homotopy frames (the solver's
    ``Homotopy`` computes them on read), achieved bounds."""

    output: GridSection
    frames: Sequence[GridSection]
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


def _unchanged(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
               **outcome) -> CIResult:
    """A result whose output and every frame equal the input."""
    out = inp.copy()
    frames = Homotopy(out, out, tuple(gamma.strips(inp.grid)))
    return CIResult(out, frames, gamma, eps, delta, deviation=0.0, **outcome)


def ci_solve(inp: GridSection, gamma: GammaSpec, eps: float, delta: float,
             max_sweeps: int = 8) -> CIResult:
    """Correct a formal pair into the relation by coordinate oscillations.

    Frequencies double from FREQ_BASE/mesh when a full sweep set fails to
    reach the margin, restarting from the input each time; the cap is
    FREQ_CAP/mesh.  A capped-out ladder returns a failure result carrying
    the worst node, never a partial success.
    """
    grid = inp.grid
    if not (0 < eps < math.inf and 0 < delta < math.inf):
        raise PreconditionError(f"eps and delta must be finite and positive, got {eps}, {delta}")
    if type(max_sweeps) is not int:
        raise PreconditionError(f"max_sweeps must be an int, got {max_sweeps!r}")
    if max_sweeps < 1:
        raise PreconditionError("max_sweeps must be at least 1")

    formal = formal_margin_grid(inp)
    if float(formal.min()) <= 1e-12:
        raise PreconditionError(f"formal margin vanishes at node {_worst_node(formal)}")

    curl_in = curl_grid(inp.a, grid)
    h_in = relation_grid(inp.a, curl_in, grid.n)
    margins_in = np.abs(h_in)
    _check_gamma_preconditions(inp, gamma, delta, curl_in, margins_in)

    interior = grid.interior_mask()
    already = float(margins_in[interior].min())
    if already >= delta and float(np.max(np.abs(curl_in - inp.beta))) <= _stencil_bound(inp):
        return _unchanged(inp, gamma, eps, delta, margin=already, passed=True)

    cutoff = gamma.cutoff_field(grid)
    stuck = np.where(_out_of_reach(cutoff, interior), margins_in, np.inf)
    unreachable = float(stuck.min())
    if unreachable < delta:
        return _unchanged(inp, gamma, eps, delta, margin=0.0, failure=(
            f"refused before rung 0: margin {unreachable:.3e} < delta "
            f"{delta:.3e} at node {_worst_node(stuck)}, where the cutoff is 0 on "
            f"the whole stencil, so no pass can change h"))
    frozen = tuple(gamma.strips(grid))
    mesh = min(grid.h)
    base_freq = FREQ_BASE / mesh
    cap = FREQ_CAP / mesh

    worst_note = ""
    rung = 0
    freq = base_freq
    while freq <= cap:
        # curl and h always belong to the current a
        a = inp.a.copy(order="K")
        curl, h = curl_in, h_in
        sweep_freqs: list[list[int]] = []
        success = False
        rung_freqs = [good_frequency(round(freq), step) for step in grid.h]
        for _ in range(max_sweeps):
            per_direction = []
            for d, nd in enumerate(rung_freqs):
                if _direction_pass(a, grid, cutoff, d, nd, delta, interior, curl, h,
                                   inp.a, eps):
                    curl = curl_grid(a, grid)
                    h = relation_grid(a, curl, grid.n)
                else:
                    nd = 0
                per_direction.append(nd)
            sweep_freqs.append(per_direction)
            margins = np.abs(h)
            achieved = float(margins[interior].min())
            if achieved >= delta:
                success = True
                break
            if not any(per_direction):
                break
        deviation = float(np.max(np.abs(a - inp.a)))
        if success and deviation <= eps:
            for strip in frozen:
                curl[strip] = inp.beta[strip]
                a[strip] = inp.a[strip]
            out = GridSection(grid, a, curl)
            frames = Homotopy(inp, out, frozen)
            return CIResult(out, frames, gamma, eps, delta,
                            margin=achieved, deviation=deviation,
                            sweep_frequencies=sweep_freqs, rung=rung, passed=True)
        masked = np.where(interior, margins, np.inf)
        worst_note = (f"rung {rung} (freq {freq:.0f}): margin "
                      f"{float(masked.min()):.3e} at node "
                      f"{_worst_node(masked)}, deviation {deviation:.3e}")
        rung += 1
        freq *= 2

    return _unchanged(inp, gamma, eps, delta, margin=0.0, rung=rung,
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
    curl = curl_grid(out.a, grid)

    # (a) holonomy: beta equals the finite-difference curl within the
    # certified stencil bound
    defect = float(np.max(np.abs(curl - out.beta)))
    bound = _stencil_bound(out)
    report.add("holonomy defect within stencil bound", defect <= bound,
               f"defect={fmt_num(defect)} bound={fmt_num(bound)} (bound from data)")

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

    del curl, margins, dev_field

    # (d) frames: endpoints exact, formal margin strictly positive throughout;
    # (e) frames constant on frozen strips, compared with the input strip by
    # strip; checked only when there are strips.  One pass reads each frame
    # once and holds one frame at a time: indexing, unlike iterating a
    # Sequence, keeps no reference to the frame before.
    strips = not result.gamma.is_empty
    if strips:
        held = [(s, inp.a[s], inp.beta[s]) for s in result.gamma.strips(grid)]
    frames, frame_mins, constant = result.frames, [], True
    for k in range(len(frames)):
        fr = frames[k]
        if k == 0:
            first_ok = fr == inp
        if k == len(frames) - 1:
            last_ok = fr == out
        frame_mins.append(float(formal_margin_grid(fr).min()))
        if strips and constant:
            constant = all(np.array_equal(fr.a[s], a) and np.array_equal(fr.beta[s], beta)
                           for s, a, beta in held)
        del fr
    report.add("frame count", len(frame_mins) == N_FRAMES, f"{len(frame_mins)} frames")
    if frame_mins:
        report.add("first frame equals input", first_ok)
        report.add("last frame equals output", last_ok)
        worst_k = int(np.argmin(frame_mins))
        report.add("frames keep positive formal margin", frame_mins[worst_k] > 0.0,
                   f"min over frames |h|={fmt_num(frame_mins[worst_k])} at frame {worst_k}")
    if strips:
        report.add("frames constant on frozen strips", constant)
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
