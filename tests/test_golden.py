"""CLI reports compared byte for byte with the stored outputs in golden/.

Every report run here takes the exact path (no libm-dependent floats), so
the stored text is the same on any machine.  After an intended report
change, rewrite a file from ``main()``'s stdout for the same arguments.

The solver dumps are pinned by sha256 instead: their columns are numpy
floats, so a digest pins that the input and output sections written by
``integrate --out`` do not move by a single bit.  The dump holds no
interior frame, so its digests hold at every SIMD dispatch level of one
numpy build (``test_dump_digests_hold_at_every_dispatch_level``).  The
solve digests of test_ci.py hash every homotopy frame; the frames' chord
path takes no angle and no exp, and their steering no complex product,
so those digests and the frames' oracle tests hold at the AVX2 level too
(``test_frames_and_solve_digests_hold_at_avx2``).  The float outputs of
the extension layer are pinned the same way, for one numpy build.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contactkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "verify_prime_verbose": (0, ["verify", "--form", "prime", "--verbose"]),
    "verify_torus_2_1_3": (0, ["verify", "--form", "torus:2,1,3"]),
    "verify_std_2": (0, ["verify", "--form", "std:2"]),
    "formal_circle_2": (0, ["formal", "--form", "circle:2"]),
    "ample_n2_samples50": (0, ["ample", "--n", "2", "--samples", "50"]),
    "fit_prime_degree2": (1, ["fit", "--form", "prime", "--degree", "2"]),
    "extend_std_degree2": (0, ["extend", "--form", "std", "--degree", "2"]),
    "gallery_torus": (0, ["gallery", "--form", "torus"]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_report_matches_golden(name, capsys):
    code, argv = RUNS[name]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


# sha256 over (file name, NUL, bytes) of every file in integrate --out's
# result directory, in name order
DUMPS = {
    # meta.json's sweep record holds the phase step of each pass that acted
    "flat": (0, "50e3ba1c8f92745a3844e0f78cef9f98344f85bafd55d555f834e94f90d30db0"),
    "holonomic": (0, "cd94bd5b8d678f8a0937d003501e80be020bd58b5b371ec6e93fa27f3043dc52"),
    # refused at 9 nodes before rung 0, naming a node no pass can reach:
    # the output is the input
    "gamma": (1, "36270801d395e6507dcdaec99701bdc8a6fcdf045a12e2ab9dfe937759ff7179"),
}


@pytest.mark.parametrize("demo", sorted(DUMPS))
def test_integrate_dump_matches_golden_digest(demo, tmp_path, capsys):
    code, want = DUMPS[demo]
    assert main(["integrate", "--demo", demo, "--grid", "9", "--out", str(tmp_path)]) == code
    capsys.readouterr()
    h = hashlib.sha256()
    for path in sorted((tmp_path / "result").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == want


# numpy's SIMD dispatch levels below AVX-512, as the features to disable
LEVELS = {
    "avx2": "X86_V4 AVX512_ICL AVX512_SPR",
    "x86-64-v2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}

# runs the tests named in its first argument, then names each feature
# meant to be disabled that numpy still dispatches to; numpy is imported
# only after pytest has loaded conftest.py, which pins the thread pools first
_AT_LEVEL = """
import sys
import pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1].split()])
from numpy._core._multiarray_umath import __cpu_features__
print("still dispatched:", [f for f in sys.argv[2:] if __cpu_features__[f]])
sys.exit(code)
"""


# prints the features numpy can dispatch to; exits with 3 before numpy 2
_CPU_FEATURES = """
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2 names no X86_V* levels
    raise SystemExit(3)
print(*[f for f, on in __cpu_features__.items() if on])
"""


@functools.lru_cache(maxsize=1)
def _cpu_features() -> frozenset | None:
    """The features this CPU offers numpy, or None before numpy 2.  They
    are read in a child process whose environment has no
    ``NPY_DISABLE_CPU_FEATURES``, since numpy reports a disabled feature
    as absent: a run that is itself at a reduced level still reaches the
    other levels."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    run = subprocess.run([sys.executable, "-c", _CPU_FEATURES], env=env,
                         capture_output=True, text=True, timeout=60)
    if run.returncode == 3:
        return None
    assert run.returncode == 0, run.stderr
    return frozenset(run.stdout.split())


def _run_at_level(level: str, tests: str) -> str:
    """pytest's output for ``tests`` (space-separated ids) run in a
    subprocess with numpy dispatching at ``level`` through
    ``NPY_DISABLE_CPU_FEATURES``; skipped where this CPU lacks one of the
    level's features, failed where a test fails."""
    features = LEVELS[level].split()
    offered = _cpu_features()
    if offered is None:
        pytest.skip("numpy < 2 has no X86_V* dispatch levels")
    missing = [f for f in features if f not in offered]
    if missing:
        pytest.skip(f"this CPU does not offer numpy {missing}, with no feature disabled")
    run = subprocess.run([sys.executable, "-c", _AT_LEVEL, tests, *features],
                         cwd=GOLDEN.parent.parent, capture_output=True, text=True, timeout=300,
                         env={**os.environ, "NPY_DISABLE_CPU_FEATURES": LEVELS[level]})
    assert run.returncode == 0, run.stdout + run.stderr
    assert "still dispatched: []" in run.stdout, run.stdout
    return run.stdout


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_dump_digests_hold_at_every_dispatch_level(level):
    """The dump digests above hold with numpy dispatching at a reduced
    level."""
    out = _run_at_level(level, "tests/test_golden.py::test_integrate_dump_matches_golden_digest")
    assert "3 passed" in out, out


# The solve digests pinned in test_ci.py, which hash every frame and check
# it against the verifier's certified bound, and the frames' bit-level
# tests.  The chord path takes real +, -, *, /, sqrt and
# hypot and complex products by reals, and the least-norm steering takes
# its products on real parts, which keep their bits at every level.
# x86-64-v2 is left out: there complex multiplication and complex abs
# take other bits, the solver and relation_grid use both, and the flat
# outputs at 17 nodes and more move, and with them the UNMOVED digests.
# Of the 40 solves, the frames differ there only where the output does.
FRAME_TESTS = " ".join(f"tests/test_ci.py::{name}" for name in (
    "test_no_solve_passes_that_the_verifier_refuses",
    "test_frames_match_the_stored_field_formula",
    "test_chord_path_directions_at_opposite_zero_and_nan_ends"))


def test_frames_and_solve_digests_hold_at_avx2():
    """The frame tests above pass with numpy dispatching at AVX2, so a
    frame formula whose bits depend on the dispatch level fails here.  A
    failing or missing test id already fails the run; no case may drop
    out by a skip either."""
    out = _run_at_level("avx2", FRAME_TESTS)
    assert " passed" in out, out
    assert "skipped" not in out and "deselected" not in out, out


def _extension_layer_transcript() -> bytes:
    """The float outputs of the extension layer, as exact reprs: sampled
    jets and residuals, the order-3 dbar-defect of both expression maps,
    the float fit on the holonomic demo, and the sigma homotopy trees."""
    import numpy as np

    from contactkit.ci import demo_holonomic_section
    from contactkit.coefficients import Cos, Exp, Sin, Z, Zbar, eadd, emul
    from contactkit.extend import SampledExtension, dbar_defect, fit_holomorphic
    from contactkit.forms import Point, PolyMap
    from contactkit.gallery import (SIGMA_TIMES, covering_map,
                                    rotation_automorphism, sigma_homotopy)
    from contactkit.grids import CubeGrid
    from contactkit.sampling import exact_points

    out = []
    grid = CubeGrid(1, nodes=17)
    x1 = grid.axis(0).reshape(-1, 1, 1)
    x2 = grid.axis(1).reshape(1, -1, 1)
    values = np.sin(x1) * np.ones(grid.shape) + np.exp(x2) * 0.5
    nodes = [(4, 4, 4), (8, 8, 8), (12, 6, 9)]
    heights = [(0.2, 0.1, 0.0), (0.1, 0.05, -0.3)]
    for l in (1, 2, 3):
        ext = SampledExtension(grid, values, l=l)
        for node in nodes:
            for y in heights:
                out.append(ext.value(node, y))
                out.extend(ext.dbar_residual(node, y, j) for j in range(3))
        out.extend(ext.max_residual(nodes, y) for y in heights)

    # the two gallery maps are holomorphic; the third is not
    x, y, z = Z(0), Z(1), Z(2)
    crooked = PolyMap(3, (emul(Exp(x), Zbar(1)), eadd(Sin(Zbar(0)), emul(z, Zbar(2))),
                          Cos(emul(y, Zbar(0)))))
    pts = exact_points(3, 4, seed=17)
    for F in (covering_map(), rotation_automorphism(), crooked):
        out.append(dbar_defect(F, pts, 3))

    section, _ = demo_holonomic_section(9)
    sg = section.grid
    picks = [tuple(int(v) for v in np.unravel_index(p, sg.shape))
             for p in range(0, sg.n_nodes, 7)]
    fit = fit_holomorphic(
        [Point([complex(c, 0.0) for c in sg.node_coords(nd)]) for nd in picks],
        [tuple(section.a[nd]) for nd in picks], 2)
    out.append(fit.residual)
    out.append(fit.form.sorted_terms())

    out.extend(sigma_homotopy(float(t)).terms for t in SIGMA_TIMES)
    return "\n".join(map(repr, out)).encode()


def test_extension_layer_matches_golden_digest():
    # one numpy build, as for the dumps above
    got = hashlib.sha256(_extension_layer_transcript()).hexdigest()
    assert got == "cd715c234cda6cc8fef1689f2c0ec5c2a1bfa4829d6473ad570829405cb7b771"


def _term_order_transcript() -> bytes:
    """The insertion order, unsorted, of exact ring results.

    Term order is not part of ring equality, but it reaches float output:
    ``LaurentPoly.eval`` at complex points adds the terms in dict order,
    and float addition is not associative.
    The data here is exact, so this digest does not depend on the numpy
    build.
    """
    import random
    from fractions import Fraction
    from itertools import combinations

    from contactkit.coefficients import LaurentPoly, Monomial
    from contactkit.forms import Form, PolyMap, ext_d, pullback, wedge
    from contactkit.scalars import QC

    rng = random.Random(20181)

    def qc():
        return QC(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                  Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    def poly(m, n_terms=4, low=-2):
        terms = {}
        for _ in range(rng.randint(1, n_terms)):
            mono = Monomial(tuple(rng.randint(low, 2) for _ in range(m)),
                            tuple(rng.randint(0, 2) for _ in range(m)))
            terms[mono] = qc()
        return LaurentPoly(m, terms)

    def monomial_arg(m):
        return LaurentPoly(m, {Monomial(tuple(rng.randint(-1, 2) for _ in range(m)),
                                        tuple(rng.randint(0, 1) for _ in range(m))): qc()})

    def affine_arg(m):
        j = rng.randrange(2 * m)
        base = LaurentPoly.z(m, j) if j < m else LaurentPoly.zbar(m, j - m)
        return base * qc() + qc()

    def form(m, degree, n_terms=3):
        words = list(combinations(range(2 * m), degree))
        terms = {}
        for _ in range(rng.randint(1, n_terms)):
            w = words[rng.randrange(len(words))]
            terms[w] = terms.get(w, LaurentPoly.zero(m)) + poly(m, 2, low=0)
        return Form(m, degree, terms)

    out = []

    def record(p):
        out.append([(mono, c.re, c.im) for mono, c in p.terms.items()])

    def record_form(f):
        out.append(list(f.terms))
        for c in f.terms.values():
            record(c)

    for _ in range(60):
        f, g = poly(2), poly(2)
        for p in (f + g, f - g, f * g, f ** 3, f.conj()):
            record(p)
        for i in range(2):
            record(f.diff_z(i))
            record(f.diff_zbar(i))
        record(f.substitute([monomial_arg(3) for _ in range(2)]))
        record(poly(2, low=0).substitute([affine_arg(2) for _ in range(2)]))
    for _ in range(12):
        f, g = form(3, rng.randint(0, 2)), form(3, rng.randint(0, 2))
        record_form(wedge(f, g))
        record_form(ext_d(f))
        F = PolyMap(2, [rng.choice((monomial_arg, affine_arg))(2) for _ in range(3)])
        record_form(pullback(F, f))
    return "\n".join(map(repr, out)).encode()


def test_ring_term_order_matches_golden_digest():
    got = hashlib.sha256(_term_order_transcript()).hexdigest()
    assert got == "bbb7541cdc3a69a61c45f4c83d9e82ffc1f0c43bbbe118996577dd3f08bc4a58"
