"""One int rule: every count, index and order of the public API goes
through ``errors._count``.

A walk over the package's signatures finds each ``int``-annotated
parameter of a public function, class or method; each is called with
values that are no int, and below its lower bound, and must be refused by
a ``ContactKitError`` that names it.  A structural test pins that no other
code tests a value against ``int``, but for a named allowlist.
"""

import ast
import importlib
import inspect
import pkgutil
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactkit
from contactkit.ci import Loop, ci_solve, demo_flat_section
from contactkit.coefficients import LaurentPoly, Monomial, Pow, Z, Zbar, epow
from contactkit.contact import pfaffian_coeffs, relation_h, relation_slope
from contactkit.errors import ContactKitError, DimensionError, PreconditionError, VariantError
from contactkit.extend import (SampledExtension, dbar_defect, extend_form, extend_function,
                               fit_holomorphic, multi_indices)
from contactkit.forms import Form, PolyMap, covector_index, covector_name, wedge_power
from contactkit.gallery import (circle_form, covering_check, gallery_verify_all, std_form,
                                torus_form)
from contactkit.grids import CubeGrid, GammaSpec, upper_pairs
from contactkit.jets import Jet1, RestrictedJet, grid_derivative, relation_grid, slope_grid
from contactkit.sampling import (exact_points, numeric_points, random_jet, random_qc,
                                 unit_modulus_values)
from contactkit.scalars import QC, power
from conftest import class_tests

SRC = Path(__file__).resolve().parent.parent / "src" / "contactkit"

# -- the signature walk -------------------------------------------------------


def _int_parameters(obj) -> list[str]:
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in parameters if p.annotation in (int, "int")]


def walked() -> dict[str, list[str]]:
    """``{"module.Name[.method]": [int parameters]}`` for every public
    function, class and method defined in a ``contactkit`` module."""
    found = {}
    for info in pkgutil.iter_modules(contactkit.__path__):
        module = importlib.import_module(f"contactkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(value, "__func__", value))
                            for attr, value in vars(obj).items() if not attr.startswith("_")]
            for qualname, member in members:
                if inspect.isfunction(member) or inspect.isclass(member):
                    params = _int_parameters(member)
                    if params:
                        found[f"{info.name}.{qualname}"] = params
    return found


# result records: their int fields are filled by the package, not passed in
EXEMPT = {
    "ci.CIResult": "the solver's result record; its rung is the solver's own count",
    "extend.FitResult": "the fit's result record; its rank and counts are the fit's own",
}

_GRID = CubeGrid(1, 5)
_LOOP = Loop((0j,) * 3, (1j, 0j, 0j), 1.0)
_JET = Jet1.build(1, (QC(0),) * 3, [[QC(0)] * 3] * 3)
_FLAT, _NO_STRIPS = demo_flat_section(5)
_ONES = (lambda i: QC(1)), (lambda r, s: QC(1))
_FIELDS = np.ones(_GRID.shape + (3,)), np.ones(_GRID.shape + (3,))

# callable -> (the call, valid keyword arguments, lower bound per bounded parameter)
FIXTURES = {
    "ci.Loop.mean_quadrature": (_LOOP.mean_quadrature, {"k": 4}, {"k": 1}),
    "ci.Loop.min_affine_margin": (_LOOP.min_affine_margin,
                                  {"w": (1, 0, 0), "c": 0, "k": 8}, {"k": 1}),
    "ci.ci_solve": (ci_solve, {"inp": _FLAT, "gamma": _NO_STRIPS, "eps": 0.5, "delta": 1e-3,
                               "max_sweeps": 1}, {"max_sweeps": 1}),
    "ci.demo_flat_section": (demo_flat_section, {"nodes": 5}, {"nodes": 5}),
    "ci.demo_holonomic_section": (contactkit.ci.demo_holonomic_section, {"nodes": 5},
                                  {"nodes": 5}),
    "ci.demo_gamma_section": (contactkit.ci.demo_gamma_section, {"nodes": 5}, {"nodes": 5}),
    "coefficients.Monomial.one": (Monomial.one, {"m": 2}, {"m": 1}),
    "coefficients.LaurentPoly": (LaurentPoly, {"m": 2}, {"m": 1}),
    "coefficients.LaurentPoly.zero": (LaurentPoly.zero, {"m": 2}, {"m": 1}),
    "coefficients.LaurentPoly.const": (LaurentPoly.const, {"m": 2, "value": 1}, {"m": 1}),
    "coefficients.LaurentPoly.z": (LaurentPoly.z, {"m": 2, "i": 0, "power": 2},
                                   {"m": 1, "i": 0}),
    "coefficients.LaurentPoly.zbar": (LaurentPoly.zbar, {"m": 2, "i": 0, "power": -2},
                                      {"m": 1, "i": 0}),
    "coefficients.LaurentPoly.diff_z": (LaurentPoly.z(2, 0).diff_z, {"i": 0}, {"i": 0}),
    "coefficients.LaurentPoly.diff_zbar": (LaurentPoly.z(2, 0).diff_zbar, {"i": 0}, {"i": 0}),
    "coefficients.Expr.diff_z": (Z(0).diff_z, {"i": 0}, {"i": 0}),
    "coefficients.Expr.diff_zbar": (Z(0).diff_zbar, {"i": 0}, {"i": 0}),
    "coefficients.Z": (Z, {"i": 0}, {"i": 0}),
    "coefficients.Zbar": (Zbar, {"i": 0}, {"i": 0}),
    "coefficients.Pow": (Pow, {"base": Z(0), "k": 2}, {}),
    "coefficients.epow": (epow, {"base": Z(0), "k": 2}, {}),
    "contact.relation_h": (relation_h, {"a": _ONES[0], "beta": _ONES[1], "n": 1}, {"n": 0}),
    "contact.relation_slope": (relation_slope,
                               {"a": _ONES[0], "beta": _ONES[1], "n": 1, "r": 0, "s": 1},
                               {"n": 0, "r": 0, "s": 0}),
    "contact.pfaffian_coeffs": (pfaffian_coeffs, {"beta": _ONES[1], "n": 1}, {"n": 0}),
    "extend.multi_indices": (multi_indices, {"m": 2, "max_total": 1},
                             {"m": 0, "max_total": 0}),
    "extend.extend_function": (extend_function, {"f": LaurentPoly.z(1, 0), "l": 1}, {"l": 1}),
    "extend.extend_form": (extend_form, {"coeffs": [LaurentPoly.z(1, 0)], "l": 1}, {"l": 1}),
    "extend.dbar_defect": (dbar_defect, {"target": LaurentPoly.z(1, 0), "samples": [],
                                         "order": 1}, {"order": 1}),
    "extend.SampledExtension": (SampledExtension, {"grid": _GRID, "values": np.zeros(_GRID.shape),
                                                   "l": 1}, {"l": 1}),
    "extend.SampledExtension.dbar_residual": (
        SampledExtension(_GRID, np.zeros(_GRID.shape), 1).dbar_residual,
        {"node": (2, 2, 2), "y": (0.1, 0, 0), "j": 0}, {"j": 0}),
    "extend.fit_holomorphic": (fit_holomorphic, {"points": exact_points(1, 4),
                                                 "values": [[1]] * 4, "degree": 1},
                               {"degree": 0}),
    "forms.covector_name": (covector_name, {"idx": 0, "m": 3}, {"idx": 0, "m": 1}),
    "forms.covector_index": (covector_index, {"name": "dz1", "m": 3}, {"m": 1}),
    "forms.Form": (Form, {"m": 3, "degree": 1}, {"m": 1, "degree": 0}),
    "forms.Form.zero": (Form.zero, {"m": 3, "degree": 1}, {"m": 1, "degree": 0}),
    "forms.Form.scalar": (Form.scalar, {"m": 3, "coeff": LaurentPoly.const(3, 1)}, {"m": 1}),
    "forms.Form.dz": (Form.dz, {"m": 3, "i": 0}, {"m": 1, "i": 0}),
    "forms.Form.pq_part": (Form.zero(3, 0).pq_part, {"p": 0, "q": 0}, {"p": 0, "q": 0}),
    "forms.wedge_power": (wedge_power, {"f": Form.dz(3, 0), "n": 1}, {"n": 1}),
    "forms.PolyMap": (PolyMap, {"m_src": 1, "components": [LaurentPoly.z(1, 0)]},
                      {"m_src": 1}),
    "forms.PolyMap.identity": (PolyMap.identity, {"m": 2}, {"m": 1}),
    "gallery.std_form": (std_form, {"n": 1}, {"n": 1}),
    "gallery.circle_form": (circle_form, {"k": 1}, {}),
    "gallery.torus_form": (torus_form, {"k": 1, "l": 1, "m": 1}, {}),
    "gallery.covering_check": (covering_check, {"samples": numeric_points(3, 1), "seed": 0},
                               {}),
    "gallery.gallery_verify_all": (gallery_verify_all, {"name_filter": "std n=1", "seed": 0},
                                   {}),
    "grids.upper_pairs": (upper_pairs, {"m": 3}, {"m": 0}),
    "grids.CubeGrid": (CubeGrid, {"n": 1, "nodes": 5}, {"n": 1, "nodes": 5}),
    "grids.CubeGrid.axis": (_GRID.axis, {"k": 0}, {"k": 0}),
    "grids.GammaSpec": (GammaSpec, {"faces": frozenset(), "width": 3}, {"width": 1}),
    "grids.GammaSpec.of": (GammaSpec.of, {"faces": (), "width": 3}, {"width": 1}),
    "jets.Jet1": (Jet1, {"n": 1, "a": _JET.a, "p": _JET.p}, {"n": 0}),
    "jets.Jet1.build": (Jet1.build, {"n": 1, "a": _JET.a, "p": _JET.p}, {"n": 0}),
    "jets.Jet1.with_row": (_JET.with_row, {"i": 0, "row": (QC(1),) * 3}, {"i": 0}),
    "jets.RestrictedJet": (RestrictedJet, {"jet": _JET, "i": 0}, {"i": 0}),
    "jets.grid_derivative": (grid_derivative, {"values": np.zeros(_GRID.shape), "grid": _GRID,
                                               "axis": 0}, {"axis": 0}),
    "jets.relation_grid": (relation_grid, {"a": _FIELDS[0], "beta": _FIELDS[1], "n": 1},
                           {"n": 0}),
    "jets.slope_grid": (slope_grid, {"a": _FIELDS[0], "beta": _FIELDS[1], "n": 1, "r": 0,
                                     "s": 1}, {"n": 0, "r": 0, "s": 0}),
    "sampling.exact_points": (exact_points, {"m": 2, "count": 2, "seed": 0},
                              {"m": 1, "count": 0}),
    "sampling.numeric_points": (numeric_points, {"m": 2, "count": 2, "seed": 0},
                                {"m": 1, "count": 0}),
    "sampling.random_qc": (random_qc, {"rng": random.Random(0), "spread": 2}, {"spread": 0}),
    "sampling.random_jet": (random_jet, {"n": 1, "rng": random.Random(0)}, {"n": 0}),
    "sampling.unit_modulus_values": (unit_modulus_values, {"count": 2, "seed": 0},
                                     {"count": 0}),
    "scalars.power": (power, {"base": QC(2), "e": 3, "one": QC(1)}, {"e": 0}),
}

_WALK = walked()
TARGETS = [(name, param) for name in sorted(FIXTURES) for param in _WALK.get(name, [])]
BOUNDED = [(name, param) for name, param in TARGETS if param in FIXTURES[name][2]]
NOT_INTS = (True, 1.5, "1", None)


def _refusal(name: str, param: str, value) -> ContactKitError:
    call, kwargs, _ = FIXTURES[name]
    with pytest.raises(ContactKitError) as err:
        call(**{**kwargs, param: value})
    return err.value


def _names(message: str, param: str) -> bool:
    return re.search(rf"\b{re.escape(param)}\b", message) is not None


def test_every_int_parameter_has_a_fixture():
    """A public int parameter with no fixture fails here, and so does a
    fixture for a callable the walk no longer finds."""
    walk = walked()
    assert walk.keys() - EXEMPT.keys() == FIXTURES.keys()
    assert EXEMPT.keys() <= walk.keys()
    for name, (_, kwargs, bounds) in FIXTURES.items():
        assert set(walk[name]) <= kwargs.keys(), name
        assert bounds.keys() <= set(walk[name]), name


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_call_is_accepted(name):
    """Each fixture is a valid call, so a refusal below is its int's."""
    call, kwargs, _ = FIXTURES[name]
    result = call(**kwargs)
    if inspect.isgenerator(result):
        list(result)


@pytest.mark.parametrize("name, param", TARGETS, ids=[f"{n}:{p}" for n, p in TARGETS])
def test_every_int_parameter_refuses_a_non_int_by_name(name, param):
    """A bool, a float, a string and None are no int, and one below a
    parameter's lower bound is out of range: each is refused by a
    ContactKitError whose message names the parameter and the value."""
    bounds = FIXTURES[name][2]
    values = NOT_INTS + ((bounds[param] - 1,) if param in bounds else ())
    for value in values:
        message = str(_refusal(name, param, value))
        assert _names(message, param), (value, message)
        assert repr(value) in message, (value, message)


_not_int = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                     st.complex_numbers(), st.integers(-3, 40).map(np.int64))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(TARGETS), _not_int)
def test_a_drawn_non_int_is_refused_by_name(target, value):
    """Anything that is not an exact int, a numpy integer in range too."""
    message = str(_refusal(*target, value))
    assert _names(message, target[1]), (value, message)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(BOUNDED), st.integers(1, 2 ** 70))
def test_a_drawn_value_below_the_bound_is_refused_by_name(target, below):
    name, param = target
    least = FIXTURES[name][2][param]
    message = str(_refusal(name, param, least - below))
    assert _names(message, param) and str(least - below) in message, message


# -- calls newly refused ----------------------------------------------------------

_F = Form.dz(3, 0)

NEWLY_REFUSED = [
    (lambda: epow(Z(0), True), VariantError, "exponent k must be an int, got True"),
    (lambda: wedge_power(_F, True), DimensionError, "wedge power n must be an int, got True"),
    (lambda: wedge_power(_F, 1.0), DimensionError, "wedge power n must be an int, got 1.0"),
    (lambda: _F.pq_part(1.0, 0), DimensionError, "p must be an int, got 1.0"),
    (lambda: std_form(True), PreconditionError,
     "dimension parameter n must be an int, got True"),
    (lambda: circle_form(True), PreconditionError, "exponent k must be an int, got True"),
    (lambda: circle_form(1.5), PreconditionError, "exponent k must be an int, got 1.5"),
    (lambda: torus_form(True, 1, 1), PreconditionError, "exponent k must be an int, got True"),
    (lambda: torus_form(1.0, 1, 1), PreconditionError, "exponent k must be an int, got 1.0"),
    (lambda: multi_indices(True, 2), DimensionError, "slot count m must be an int, got True"),
    (lambda: multi_indices(2, 1.0), DimensionError, "max_total must be an int, got 1.0"),
    (lambda: upper_pairs(True), DimensionError, "dimension m must be an int, got True"),
    (lambda: exact_points(2, 1.5), PreconditionError, "count must be an int, got 1.5"),
    (lambda: numeric_points(1.5, 2), DimensionError, "dimension m must be an int, got 1.5"),
    (lambda: Z(0).diff_z(1.5), DimensionError, "coordinate index i must be an int, got 1.5"),
    (lambda: Form(np.int64(3), 1), DimensionError,
     f"dimension m must be an int, got {np.int64(3)!r}"),
    (lambda: LaurentPoly(np.int64(3)), DimensionError,
     f"variable count m must be an int, got {np.int64(3)!r}"),
    (lambda: _GRID.axis(np.int64(0)), DimensionError,
     f"axis k must be an int, got {np.int64(0)!r}"),
    (lambda: LaurentPoly(1, {Monomial((np.int64(2),), (0,)): 1}), VariantError,
     f"exponent of z1 must be an int, got {np.int64(2)!r}"),
    (lambda: CubeGrid(np.int64(1), 9), DimensionError, f"n must be an int, got {np.int64(1)!r}"),
]


@pytest.mark.parametrize("call, error, fragment", NEWLY_REFUSED,
                         ids=[r[2] for r in NEWLY_REFUSED])
def test_a_bool_float_or_numpy_int_is_refused_by_name(call, error, fragment):
    """A bool, a float or a numpy integer where a count, an index or an
    exponent belongs is refused by name, in the parameter's error class."""
    with pytest.raises(ContactKitError) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)


# -- one owner of the int rule ------------------------------------------------------

# where a test of a value against int stays, and why
INT_TESTERS = {
    "errors._count": "the one int rule",
    "scalars.exact": "the exactness lift: an int is an exact scalar",
    "scalars._coerce_part": "the exactness lift: an int is an exact part",
    "scalars.QC.__init__": "the exactness lift's fast path for two int parts",
    "scalars.QC.__pow__": "an operator protocol: NotImplemented for a non-int exponent",
    "coefficients.LaurentPoly.__pow__": "an operator protocol: NotImplemented for a "
                                        "non-int exponent",
    "formats._exponents": "a JSON document reader: a ParseError with the entry's position",
    "formats.form_from_document": "a JSON document reader: a ParseError naming the "
                                  "header key",
}


def _owners(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def in ``source``."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, child.end_lineno, name))
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return spans


def int_testers(src: Path) -> set[str]:
    """``module.function`` for each function of the package that tests a
    value against ``int``; the innermost def owns a line."""
    found = set()
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        spans = _owners(source)
        for line in class_tests(source, {"int"}):
            owner = max((s for s in spans if s[0] <= line <= s[1]), default=(0, 0, "<module>"))
            found.add(f"{path.stem}.{owner[2]}")
    return found


def test_int_testers_are_found():
    source = ("def f(v):\n    return type(v) is int\n\n\nclass C:\n"
              "    def g(self, v):\n        return isinstance(v, (int, str))\n")
    assert _owners(source) == [(1, 2, "f"), (6, 7, "C.g")]


def test_only_errors_count_tests_a_value_against_int():
    """``errors._count`` is the one int rule: every other test of a value
    against ``int`` in the package is on the allowlist with its reason, so a
    new hand-written int check fails here."""
    assert int_testers(SRC) == INT_TESTERS.keys()
