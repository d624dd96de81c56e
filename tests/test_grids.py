import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import contactkit
from contactkit.errors import ContactKitError, DimensionError, PreconditionError
from contactkit.grids import CubeGrid, GammaSpec, GridSection, _smoothstep5, upper_pairs


def test_cube_grid_geometry():
    grid = CubeGrid(1, nodes=5, bounds=[(0, 1), (-1, 1), (2, 4)])
    assert grid.m == 3
    assert grid.shape == (5, 5, 5)
    assert grid.h == (0.25, 0.5, 0.5)
    assert grid.node_coords((0, 0, 0)) == (0.0, -1.0, 2.0)
    assert grid.node_coords((4, 4, 4)) == (1.0, 1.0, 4.0)
    assert np.allclose(grid.axis(1), [-1, -0.5, 0, 0.5, 1])


def test_grid_validation():
    with pytest.raises(PreconditionError):
        CubeGrid(1, nodes=3)
    with pytest.raises(PreconditionError):
        CubeGrid(1, nodes=5, bounds=[(0, 0)] * 3)
    with pytest.raises(DimensionError):
        CubeGrid(1, nodes=5, bounds=[(0, 1)] * 2)


@pytest.mark.parametrize("bounds, axis", [
    ([(0.0, 1.0), (0.0, math.inf), (0.0, 1.0)], 1),
    ([(-math.inf, 0.0), (0.0, 1.0), (0.0, 1.0)], 0),
    # finite bounds whose difference overflows
    ([(0.0, 1.0), (0.0, 1.0), (-1e308, 1e308)], 2),
    # a subnormal interval whose step underflows to 0
    ([(0.0, 1.0), (0.0, 5e-324), (0.0, 1.0)], 1),
])
def test_grid_refuses_a_non_finite_bound_or_mesh_step(bounds, axis):
    with pytest.raises(PreconditionError,
                       match=f"^axis {axis}: .* must be finite and the step positive$"):
        CubeGrid(1, 5, bounds)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (1.0, -1.0), (math.nan, 1.0), (0.0, math.nan)])
def test_grid_refuses_an_empty_or_nan_interval_by_its_one_axis_check(lo, hi):
    with pytest.raises(PreconditionError,
                       match=f"^axis 2: interval \\[{lo}, {hi}\\] .* must be finite and the "
                             "step positive$"):
        CubeGrid(1, 5, [(0.0, 1.0), (0.0, 1.0), (lo, hi)])


@pytest.mark.parametrize("n, nodes", [(1, 5.5), (1, 5.0), (1, True), (1.5, 5), (True, 5)])
def test_grid_sizes_must_be_ints(n, nodes):
    with pytest.raises((DimensionError, PreconditionError), match="must be an int"):
        CubeGrid(n, nodes)


def test_interior_mask():
    grid = CubeGrid(1, nodes=5)
    mask = grid.interior_mask()
    assert mask.sum() == 27
    assert not mask[0, 2, 2] and mask[2, 2, 2]


def test_upper_pairs_match_the_row_loop():
    """Against the row-by-row loop ``upper_pairs`` replaced, the oracle:
    every sampled beta's column layout depends on this order."""
    for m in range(12):
        assert upper_pairs(m) == [(r, s) for r in range(m) for s in range(r + 1, m)]


def std_section(nodes: int = 5) -> GridSection:
    """The standard form dz3 + z1 dz2 on the real slice of CubeGrid(1, nodes),
    with its curl: a = (0, x1, 1) and beta_12 = 1."""
    grid = CubeGrid(1, nodes)
    a = np.zeros(grid.shape + (3,), dtype=complex)
    a[..., 1] = grid.axis(0).reshape(-1, 1, 1)
    a[..., 2] = 1.0
    beta = np.zeros(grid.shape + (3,), dtype=complex)
    beta[..., 0] = 1.0
    return GridSection(grid, a, beta)


def test_grid_and_section_reprs():
    grid = CubeGrid(1, nodes=7)
    assert repr(grid) == "CubeGrid(n=1, nodes=7)"
    assert repr(std_section(7)) == "GridSection(CubeGrid(n=1, nodes=7))"


def test_section_validation():
    good = std_section()
    grid = good.grid
    with pytest.raises(DimensionError):
        GridSection(grid, good.a[..., :2], good.beta)
    # beta holds the three upper columns; a full (3, 3) matrix is the wrong width
    with pytest.raises(DimensionError, match="beta field shape"):
        GridSection(grid, good.a, np.zeros(grid.shape + (3, 3), dtype=complex))
    with pytest.raises(DimensionError, match="beta field shape"):
        GridSection(grid, good.a, good.beta[..., :2])
    poisoned = good.a.copy()
    poisoned[0, 0, 0, 0] = np.nan
    with pytest.raises(PreconditionError):
        GridSection(grid, poisoned, good.beta)


def test_section_deviations_and_copy():
    s = std_section()
    t = s.copy()
    assert s == t and s.a is not t.a
    t.a[2, 2, 2, 1] += 0.25
    assert s != t


def test_smoothstep_profile():
    u = np.linspace(0, 1, 11)
    v = _smoothstep5(u)
    assert v[0] == 0.0 and v[-1] == 1.0
    assert np.all(np.diff(v) >= 0)
    # flat to second order at both ends
    eps = 1e-4
    assert _smoothstep5(np.array([eps]))[0] < 1e-10
    assert 1.0 - _smoothstep5(np.array([1 - eps]))[0] < 1e-10
    assert _smoothstep5(np.array([-3.0]))[0] == 0.0
    assert _smoothstep5(np.array([7.0]))[0] == 1.0


def test_gamma_masks():
    grid = CubeGrid(1, nodes=9)
    gamma = GammaSpec.of({(0, 0)}, width=3)
    mask = gamma.frozen_mask(grid)
    assert mask[0].all() and mask[2].all()
    assert not mask[3].any()
    assert GammaSpec.empty().frozen_mask(grid).sum() == 0


def test_gamma_cutoff_vanishes_past_strip():
    """The cutoff is exactly zero one layer beyond the strip and 1 deep inside."""
    grid = CubeGrid(1, nodes=17)
    gamma = GammaSpec.of({(0, 0), (1, 1)}, width=3)
    cut = gamma.cutoff_field(grid)
    assert cut.shape == grid.shape
    assert np.all(cut[:4] == 0.0)
    assert np.all(cut[:, -4:] == 0.0)
    assert np.all(cut[8:, :9] > 0.99) or np.all(cut[8:10, 4:9] > 0.0)
    assert float(cut.max()) <= 1.0
    # empty spec: no cutoff anywhere
    assert np.all(GammaSpec.empty().cutoff_field(grid) == 1.0)


@pytest.mark.parametrize("width, nodes", [(1, 9), (3, 9), (3, 17), (5, 17)])
def test_gamma_cutoff_zero_set_is_strip_plus_two_layers(width, nodes):
    """Zero exactly through distance width + 1 from each frozen face."""
    grid = CubeGrid(1, nodes=nodes)
    for side in (0, 1):
        line = GammaSpec.of({(0, side)}, width).cutoff_field(grid)[:, 2, 2]
        dist = np.arange(nodes) if side == 0 else np.arange(nodes)[::-1]
        assert np.array_equal(line == 0.0, dist <= width + 1)
    # width 3 on 9 nodes: nodes 0-4 are zero, node 5 starts the ramp
    line = GammaSpec.of({(0, 0)}, 3).cutoff_field(CubeGrid(1, nodes=9))[:, 0, 0]
    assert np.all(line[:5] == 0.0) and abs(line[5] - 0.05792) < 1e-12


def test_gamma_validation():
    with pytest.raises(DimensionError):
        GammaSpec.of({(0, 2)})
    with pytest.raises(PreconditionError):
        GammaSpec.of({(0, 0)}, width=0)
    grid = CubeGrid(1, nodes=5)
    with pytest.raises(DimensionError):
        GammaSpec.of({(5, 0)}).frozen_mask(grid)


def test_gamma_refuses_an_out_of_range_face_axis_alike_in_mask_and_cutoff():
    gamma = GammaSpec.of({(0, 0), (3, 1)})
    grid = CubeGrid(1, nodes=9)
    for method in (gamma.frozen_mask, gamma.cutoff_field):
        with pytest.raises(DimensionError, match="^face axis 3 out of range$"):
            method(grid)
    assert gamma.frozen_mask(CubeGrid(2, nodes=9)).any()


@pytest.mark.parametrize("bad", [
    (0, 0, 1), (0,), (0.5, 0), (0, 0.0), (True, 0), (0, True), (-1, 0), (1, 2), "ab",
])
def test_gamma_refuses_malformed_faces_by_name(bad):
    """Each face is an (int axis >= 0, side 0 or 1) pair; bool is no int."""
    with pytest.raises(DimensionError, match=re.escape(f"bad face spec {bad!r}")):
        GammaSpec.of({(2, 0), bad})


@pytest.mark.parametrize("width", [2.5, 3.0, True, "3", 0])
def test_gamma_refuses_a_width_that_is_not_a_positive_int(width):
    with pytest.raises(PreconditionError, match=re.escape(f"got {width!r}")):
        GammaSpec.of({(0, 0)}, width)


_G5 = CubeGrid(1, nodes=5)

GRIDS_REFUSALS = [
    (lambda: CubeGrid(1.0), DimensionError, "n must be an int, got 1.0"),
    pytest.param(lambda: CubeGrid(0), DimensionError,
                 "n must be >= 1, got 0", id="need n >= 1"),
    pytest.param(lambda: CubeGrid(1, 5.0), PreconditionError,
                 "nodes per axis must be an int, got 5.0", id="node count must be an int, got 5.0"),
    pytest.param(lambda: CubeGrid(1, 4), PreconditionError, "nodes per axis must be >= 5, got 4",
                 id="stencils need at least 5 nodes per axis"),
    (lambda: CubeGrid(1, 5, [(0, 1)]), DimensionError, "bounds count != 2n+1"),
    (lambda: CubeGrid(1, 5, [(0, 1), (1, 0), (0, 1)]), PreconditionError,
     "axis 1: interval [1.0, 0.0] and mesh step -0.25 must be finite"),
    pytest.param(lambda: _G5.axis(-1), DimensionError,
                 "axis k must be >= 0, got -1", id="axis -1 does not exist on a grid in R^3"),
    (lambda: _G5.axis(3), DimensionError, "axis 3 does not exist on a grid in R^3"),
    pytest.param(lambda: _G5.axis(1.0), DimensionError,
                 "axis k must be an int, got 1.0", id="axis 1.0 is not an int"),
    pytest.param(lambda: _G5.axis(True), DimensionError,
                 "axis k must be an int, got True", id="axis True is not an int"),
    (lambda: _G5.node_coords((0, 0)), DimensionError, "node index length != m"),
    (lambda: _G5.node_coords((0, 0, 5)), DimensionError, "node index (0, 0, 5) out of range"),
    (lambda: _G5.node_coords((0.5, 0, 0)), DimensionError,
     "node index (0.5, 0, 0) must be an int, got 0.5"),
    (lambda: _G5.node_coords((True, 0, 0)), DimensionError,
     "node index (True, 0, 0) must be an int, got True"),
    (lambda: GridSection(_G5, np.zeros((5, 5, 5, 2)), np.zeros((5, 5, 5, 3))), DimensionError,
     "a field shape (5, 5, 5, 2) != (5, 5, 5, 3)"),
    (lambda: GridSection(_G5, np.full((5, 5, 5, 3), np.inf), np.zeros((5, 5, 5, 3))),
     PreconditionError, "section contains non-finite values"),
    (lambda: GammaSpec.of({(0, 2)}), DimensionError, "bad face spec (0, 2)"),
    pytest.param(lambda: GammaSpec.of({(0, 0)}, width=0), PreconditionError,
                 "strip width must be >= 1, got 0",
                 id="strip width must be an int >= 1 node, got 0"),
    (lambda: list(GammaSpec.of({(5, 0)}).strips(_G5)), DimensionError,
     "face axis 5 out of range"),
]


@pytest.mark.parametrize("call, error, fragment", GRIDS_REFUSALS,
                         ids=[r[2] for r in GRIDS_REFUSALS])
def test_every_grids_refusal_is_reached(call, error, fragment):
    """One row per ``raise`` in ``grids.py``: the malformed input, its
    error class and a fragment of its message.
    A row's id is its fragment, or the case its ``pytest.param`` names."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


def _imported_modules(source: str) -> set[str]:
    """Every module a ``contactkit`` module's source imports, by absolute
    name, function-local imports included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "contactkit" if node.level else ""
            if node.module:
                names.add(f"{base}.{node.module}".lstrip("."))
            else:  # from . import forms
                names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_grids_imports_nothing_from_forms_or_coefficients():
    """Grids are numpy geometry: a section is built from arrays, and only
    ``coefficients.py`` knows whether a coefficient is a Laurent polynomial
    or an expression tree."""
    source = (Path(contactkit.__file__).parent / "grids.py").read_text()
    imported = _imported_modules(source)
    assert "contactkit.errors" in imported  # the walk sees the relative imports
    assert not {"contactkit.coefficients", "contactkit.forms"} & imported
