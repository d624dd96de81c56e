"""Lossless file formats and their parse diagnostics."""

import ast
import copy
import functools
import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit import ci
from contactkit.ci import N_FRAMES, ci_solve, demo_flat_section
from contactkit.coefficients import LaurentPoly, Monomial
from contactkit.errors import ContactKitError, ParseError, PreconditionError, VariantError
from contactkit.formats import (
    _columns, _header_int, dump_ci_result, form_from_document, form_to_document,
    load_form, load_section, save_form, save_report, save_section,
    section_from_text, section_to_text,
)
from contactkit.forms import Form
from contactkit.gallery import circle_form, gallery_verify_all, std_form, torus_form
from contactkit.grids import MIN_NODES, CubeGrid, GridSection
from contactkit.scalars import QC
from conftest import traced_peak


def random_laurent_form(m, degree, rng):
    words = sorted(rng.sample(_words(2 * m, degree), rng.randint(1, 3)))
    terms = {}
    for w in words:
        poly = {}
        for _ in range(rng.randint(1, 3)):
            mono = Monomial(tuple(rng.randint(-2, 2) for _ in range(m)),
                            tuple(rng.randint(0, 2) for _ in range(m)))
            poly[mono] = QC(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        terms[w] = LaurentPoly(m, poly)
    return Form(m, degree, terms)


def _words(width, degree):
    if degree == 0:
        return [()]
    out = []
    for first in range(width - degree + 1):
        for rest in _words(width, degree - 1):
            shifted = tuple(first + 1 + r for r in rest)
            if all(s < width for s in shifted):
                out.append((first,) + shifted)
    return out


def test_form_document_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        form = random_laurent_form(3, rng.randint(1, 2), rng)
        doc = json.loads(json.dumps(form_to_document(form)))
        assert form_from_document(doc) == form


def test_form_file_round_trip(tmp_path):
    for form in (std_form(2), torus_form(-2, -1, 3)):
        path = tmp_path / "form.json"
        save_form(form, path)
        assert load_form(path) == form


def test_form_file_is_byte_stable(tmp_path):
    form = torus_form(2, 1, 3)
    save_form(form, tmp_path / "a.json")
    save_form(form, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_decimal_and_ratio_strings_parse_exactly():
    """0.1 must become 1/10, not the nearest binary float."""
    doc = {
        "format": "contactkit-form", "version": 1, "m": 1, "degree": 1,
        "terms": [{"wedge": ["dz1"], "coeff": [
            {"zexp": [0], "zbarexp": [0], "re": "0.1", "im": "-2.5"},
            {"zexp": [1], "zbarexp": [0], "re": "1/3", "im": "0"},
        ]}],
    }
    form = form_from_document(doc)
    coeff = form.coeff((0,))
    assert coeff.terms[Monomial((0,), (0,))] == QC(Fraction(1, 10), Fraction(-5, 2))
    assert coeff.terms[Monomial((1,), (0,))] == QC(Fraction(1, 3))


def test_coefficient_exponents_are_bounded():
    """An exponent past the int-string digit limit is refused by position
    before Fraction expands it; one inside the limit loads and saves."""
    def doc(re_part):
        return {
            "format": "contactkit-form", "version": 1, "m": 1, "degree": 1,
            "terms": [{"wedge": ["dz1"], "coeff": [
                {"zexp": [0], "zbarexp": [0], "re": "1", "im": "0"},
                {"zexp": [1], "zbarexp": [0], "re": re_part, "im": "0"},
            ]}],
        }

    # 1e-4300 passes the exponent bound but its denominator has 4301 digits
    for bad in ("1e-5000", "1E+5000", "1e-1000000", "1e-4300"):
        with pytest.raises(ParseError) as err:
            form_from_document(doc(bad))
        assert "terms[0].coeff[1]" in str(err.value)
    form = form_from_document(doc("1e-4000"))
    assert form.coeff((0,)).terms[Monomial((1,), (0,))] == QC(Fraction(1, 10 ** 4000))
    assert form_from_document(json.loads(json.dumps(form_to_document(form)))) == form


def test_monomial_exponents_past_the_packed_range_are_refused_by_position():
    doc = {
        "format": "contactkit-form", "version": 1, "m": 1, "degree": 1,
        "terms": [{"wedge": ["dz1"], "coeff": [
            {"zexp": [0], "zbarexp": [-2 ** 31], "re": "1", "im": "0"},
        ]}],
    }
    with pytest.raises(ParseError, match=r"terms\[0\]\.coeff: exponent -2147483648 of zbar1 "):
        form_from_document(doc)
    doc["terms"][0]["coeff"][0]["zbarexp"] = [1 - 2 ** 31]
    assert form_from_document(doc).coeff((0,)) == LaurentPoly.zbar(1, 0, 1 - 2 ** 31)


def test_repeated_monomial_in_one_coefficient_is_refused_by_position():
    """A second entry for the same monomial is an error, not an overwrite,
    whatever either value is (zero included)."""
    def doc(first, second):
        return {
            "format": "contactkit-form", "version": 1, "m": 2, "degree": 1,
            "terms": [{"wedge": ["dz1"], "coeff": [
                {"zexp": [1, 0], "zbarexp": [0, 0], "re": first, "im": "0"},
                {"zexp": [0, 1], "zbarexp": [0, 0], "re": "2", "im": "0"},
                {"zexp": [1, 0], "zbarexp": [0, 0], "re": second, "im": "0"},
            ]}],
        }

    for first, second in (("1", "5"), ("1", "1"), ("0", "5"), ("1", "0")):
        with pytest.raises(ParseError, match=r"terms\[0\]\.coeff\[2\]: repeated monomial "
                           r"zexp=\[1, 0\] zbarexp=\[0, 0\]"):
            form_from_document(doc(first, second))
    distinct = doc("1", "5")
    distinct["terms"][0]["coeff"][2]["zbarexp"] = [1, 0]
    assert form_from_document(distinct).coeff((0,)) == (
        LaurentPoly.z(2, 0) + LaurentPoly.z(2, 1) * 2
        + LaurentPoly.z(2, 0) * LaurentPoly.zbar(2, 0) * 5)


def test_expr_form_has_no_document():
    with pytest.raises(VariantError):
        form_to_document(circle_form(-1))


def test_form_parse_errors_carry_positions():
    def base():
        return form_to_document(std_form(1))

    cases = []

    doc = base(); doc["terms"][1]["wedge"] = ["dz9"]
    cases.append((doc, "terms[1]: bad wedge"))
    doc = base(); doc["terms"][0]["wedge"] = ["dz1", "dz2"]
    cases.append((doc, "wedge length"))
    doc = base(); doc["terms"][0]["coeff"][0]["re"] = "sqrt(2)"
    cases.append((doc, "terms[0].coeff[0]"))
    doc = base(); doc["terms"][0]["coeff"][0]["zexp"] = [0, 0, 0, 0]
    cases.append((doc, "exponent length"))
    doc = base(); del doc["degree"]
    cases.append((doc, "malformed form header"))
    cases.append(([1, 2], "must be an object"))

    for doc, needle in cases:
        with pytest.raises(ParseError) as err:
            form_from_document(doc)
        assert needle in str(err.value)


def test_form_parse_rejects_bad_words():
    doc = form_to_document(Form(3, 2, {(0, 1): LaurentPoly.const(3, 1)}))
    doc["terms"][0]["wedge"] = ["dz2", "dz1"]
    with pytest.raises(ParseError) as err:
        form_from_document(doc)
    assert "strictly increasing" in str(err.value)
    doc["terms"][0]["wedge"] = ["dz1", "dz2"]
    doc["terms"].append(dict(doc["terms"][0]))
    with pytest.raises(ParseError) as err:
        form_from_document(doc)
    assert "duplicate" in str(err.value)


def test_form_parse_rejects_non_list_terms():
    doc = form_to_document(std_form(1))
    doc["terms"] = 5
    with pytest.raises(ParseError) as err:
        form_from_document(doc)
    assert "terms" in str(err.value)


def test_form_parse_rejects_string_exponents():
    doc = form_to_document(std_form(1))
    doc["terms"][1]["coeff"][0]["zexp"] = "100"
    with pytest.raises(ParseError) as err:
        form_from_document(doc)
    assert "terms[1].coeff[0]" in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("m", 3.7), ("m", "3"), ("m", True), ("degree", "1"), ("degree", 1.0),
    ("format", "contactkit-section"), ("version", 2), ("version", True),
    ("version", "1"),
])
def test_form_header_fields_are_checked(key, value):
    doc = form_to_document(std_form(1))
    doc[key] = value
    with pytest.raises(ParseError) as err:
        form_from_document(doc)
    assert f"{key}: expected" in str(err.value)


@pytest.mark.parametrize("degree", [7, -1])
def test_form_degree_out_of_range_is_refused_by_name(degree):
    doc = {"format": "contactkit-form", "version": 1, "m": 3, "degree": degree, "terms": []}
    with pytest.raises(ParseError, match=re.escape(f"degree: expected 0..6, got {degree}")):
        form_from_document(doc)


def test_load_form_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "contactkit-form",\n  "m": }')
    with pytest.raises(ParseError) as err:
        load_form(path)
    msg = str(err.value)
    assert "line 2" in msg and str(path) in msg


def messy_section(nodes=5):
    """std_form(1) = z1 dz2 + dz3 on the real slice, a = (0, x1, 1) and
    beta_12 = 1, plus a bump on every a and on beta_13."""
    grid = CubeGrid(1, nodes)
    a = np.zeros(grid.shape + (3,), dtype=complex)
    a[..., 1] = grid.axis(0).reshape(-1, 1, 1)
    a[..., 2] = 1.0
    beta = np.zeros(grid.shape + (3,), dtype=complex)
    beta[..., 0] = 1.0
    idx = np.indices(grid.shape).sum(axis=0)
    bump = np.sin(idx / 3.0) + 1j * np.cos(idx / 7.0)
    a += bump[..., None] / 9
    beta[..., 1] += bump / 11  # beta_13
    return GridSection(grid, a, beta)


def test_messy_section_text_is_pinned():
    """The text every reader-path test starts from (``SECTION_BASE``)."""
    text = section_to_text(messy_section(nodes=5))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ebd6f0d73a2b82fd283790b9880e91a17e0abbfb3fc2e310add4dab0c5181f51")


def _upper_pairs(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def reference_section_to_text(section):
    """The writer as it was before sections were written column-wise: one
    repr per value, one node at a time.  Kept as the writer's oracle."""
    grid = section.grid
    m = grid.m
    lines = [
        "# contactkit sampled section",
        f"n {grid.n}",
        f"nodes {grid.nodes}",
        "bounds " + " ".join(repr(float(b)) for lo_hi in grid.bounds for b in lo_hi),
    ]
    lines.append("columns " + " ".join(_columns(m)))
    pairs = _upper_pairs(m)
    for node in np.ndindex(grid.shape):
        row = [str(k) for k in node]
        for k in range(m):
            v = section.a[node + (k,)]
            row += [repr(float(v.real)), repr(float(v.imag))]
        for c in range(len(pairs)):
            v = section.beta[node + (c,)]
            row += [repr(float(v.real)), repr(float(v.imag))]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def reference_section_from_text(text):
    """The reader as it was before sections were read column-wise: every
    row parsed, checked and stored on its own.  Kept as the reader's
    oracle: same sections, same ParseError messages."""
    header = {}
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("n", "nodes", "bounds", "columns"):
            if parts[0] in header:
                raise ParseError(f"line {lineno}: repeated header key {parts[0]!r}")
            header[parts[0]] = (lineno, parts[1:])
            continue
        rows.append((lineno, parts))
    for key in ("n", "nodes", "bounds"):
        if key not in header:
            raise ParseError(f"bad section header: missing {key!r}")
    n = _header_int(header, "n", 1)
    nodes = _header_int(header, "nodes", MIN_NODES)
    lineno, raw = header["bounds"]
    m = 2 * n + 1
    try:
        flat = [float(b) for b in raw]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bounds: {exc}") from None
    if len(flat) != 2 * m:
        raise ParseError(f"line {lineno}: bounds carry {len(flat)} numbers, expected {2 * m}")
    bounds = tuple(zip(flat[::2], flat[1::2]))
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParseError(f"line {lineno}: bounds: [{lo}, {hi}] is not a finite nonempty interval")
    try:
        grid = CubeGrid(n, nodes, bounds)
    except PreconditionError as exc:
        # finite bounds whose mesh step overflows or underflows
        raise ParseError(f"line {lineno}: bounds: {exc}") from None
    if len(rows) != grid.n_nodes:
        raise ParseError(f"{len(rows)} node rows, expected {grid.n_nodes}")
    columns = _columns(m)
    if "columns" in header and header["columns"][1] != columns:
        raise ParseError(f"line {header['columns'][0]}: columns do not match "
                         f"the n = {n} layout")
    pairs = _upper_pairs(m)
    width = len(columns)
    a = np.zeros(grid.shape + (m,), dtype=complex)
    beta = np.zeros(grid.shape + (len(pairs),), dtype=complex)
    seen = set()
    for lineno, parts in rows:
        if len(parts) != width:
            raise ParseError(f"line {lineno}: {len(parts)} columns, expected {width}")
        try:
            node = tuple(int(p) for p in parts[:m])
            vals = [float(p) for p in parts[m:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"line {lineno}: non-finite value")
        if any(not 0 <= k < nodes for k in node):
            raise ParseError(f"line {lineno}: node index {node} out of range")
        if node in seen:
            raise ParseError(f"line {lineno}: duplicate row for node {node}")
        seen.add(node)
        for k in range(m):
            a[node + (k,)] = complex(vals[2 * k], vals[2 * k + 1])
        off = 2 * m
        for k in range(len(pairs)):
            beta[node + (k,)] = complex(vals[off + 2 * k], vals[off + 2 * k + 1])
    return GridSection(grid, a, beta)


def assert_bit_equal(got, want):
    assert got.grid == want.grid
    for x, y in ((got.a, want.a), (got.beta, want.beta)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_section_writer_matches_reference_on_edge_floats():
    """Signed zero, the smallest subnormal, the largest double and the
    values where repr switches to exponent notation, in a and in beta."""
    section = messy_section(nodes=5)
    a, beta = section.a.copy(), section.beta.copy()
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 1e-07, 1e+16]
    for k, (re, im) in enumerate(zip(edge, edge[1:] + edge[:1])):
        node = (k, 4 - k, k % 2)
        a[node] = complex(re, im)
        beta[node] = complex(im, re)  # all three upper columns
    section = GridSection(section.grid, a, beta)
    text = section_to_text(section)
    assert text == reference_section_to_text(section)
    for value in ("-0.0", "5e-324", "1.7976931348623157e+308", "1e-07", "1e+16"):
        assert f" {value} " in text
    assert_bit_equal(section_from_text(text), reference_section_from_text(text))


def test_section_text_round_trip():
    section = messy_section()
    text = section_to_text(section)
    back = section_from_text(text)
    assert back.grid == section.grid
    assert np.array_equal(back.a, section.a)
    assert np.array_equal(back.beta, section.beta)
    assert section_to_text(back) == text


def test_section_file_round_trip(tmp_path):
    section = messy_section(nodes=5)
    path = tmp_path / "section.txt"
    save_section(section, path)
    back = load_section(path)
    assert np.array_equal(back.a, section.a)
    assert np.array_equal(back.beta, section.beta)


def test_section_parser_skips_comments_and_blanks():
    text = section_to_text(messy_section(nodes=5))
    lines = text.splitlines()
    lines.insert(3, "# a comment in the middle")
    lines.insert(5, "")
    assert np.array_equal(section_from_text("\n".join(lines)).a,
                          messy_section(nodes=5).a)


def test_section_columns_line_is_checked():
    """A columns line must match the layout the writer uses; a missing one
    is still accepted."""
    lines = section_to_text(messy_section(nodes=5)).splitlines()
    assert lines[4].startswith("columns ")
    bogus = lines[:4] + ["columns bogus " + lines[4].split(" ", 2)[2]] + lines[5:]
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(bogus))
    assert str(err.value).startswith("line 5: ")
    missing = lines[:4] + lines[5:]
    assert section_from_text("\n".join(missing)) == messy_section(nodes=5)


def _replace_line(key, new):
    def edit(lines):
        return [new if line.split()[:1] == [key] else line for line in lines]
    return edit


@pytest.mark.parametrize("edit, line", [
    pytest.param(_replace_line("nodes", "nodes 3"), 3, id="too-few-nodes"),
    pytest.param(_replace_line("n", "n 0"), 2, id="n-zero"),
    pytest.param(_replace_line("bounds", "bounds 1.0 0.0 0.0 1.0 0.0 1.0"), 4,
                 id="empty-interval"),
    pytest.param(_replace_line("bounds", "bounds 0.0 inf 0.0 1.0 0.0 1.0"), 4,
                 id="infinite-bound"),
    pytest.param(lambda lines: lines[:5] + ["nodes 7"] + lines[5:], 6,
                 id="repeated-key"),
    pytest.param(lambda lines: lines[:6] + [lines[6].rsplit(" ", 1)[0] + " nan"] + lines[7:],
                 7, id="nan-value"),
    pytest.param(lambda lines: lines[:6] + ["1e0 " + lines[6].split(" ", 1)[1]] + lines[7:],
                 7, id="float-index"),
])
def test_section_header_and_value_errors_name_their_line(edit, line):
    lines = section_to_text(messy_section(nodes=5)).splitlines()
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(edit(lines)))
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("bounds, axis", [
    ("-1e308 1e308 0.0 1.0 0.0 1.0", 0),
    ("0.0 1.0 0.0 1.0 -1.5e308 1.5e308", 2),
    ("0.0 1.0 0.0 5e-324 0.0 1.0", 1),
])
def test_section_bounds_with_an_infinite_or_zero_mesh_step_are_refused(bounds, axis):
    """Finite bounds whose difference overflows give an infinite mesh step,
    a subnormal interval a zero one."""
    lines = _replace_line("bounds", f"bounds {bounds}")(
        section_to_text(messy_section(nodes=5)).splitlines())
    with pytest.raises(ParseError, match=f"^line 4: bounds: axis {axis}: .* "
                                         "must be finite and the step positive$"):
        section_from_text("\n".join(lines))


@pytest.mark.parametrize("bounds, message", [
    ("0.0 1.0 1.0 0.0 0.0 1.0", "axis 1: interval [1.0, 0.0] and mesh step -0.25"),
    ("0.0 1.0 0.0 1.0 0.5 0.5", "axis 2: interval [0.5, 0.5] and mesh step 0.0"),
    ("nan 1.0 0.0 1.0 0.0 1.0", "axis 0: interval [nan, 1.0] and mesh step nan"),
    ("0.0 1.0 -inf 1.0 0.0 1.0", "axis 1: interval [-inf, 1.0] and mesh step inf"),
    ("-1e308 1e308 0.0 1.0 0.0 1.0", "axis 0: interval [-1e+308, 1e+308] and mesh step inf"),
    ("0.0 5e-324 0.0 1.0 0.0 1.0", "axis 0: interval [0.0, 5e-324] and mesh step 0.0"),
])
def test_section_bounds_are_refused_by_the_grid_on_the_bounds_line(bounds, message):
    """The reader has no interval check of its own: CubeGrid's refusal is
    reported on the bounds line, where the reference reader gives its own
    "not a finite nonempty interval" message for the same interval.  Finite
    bounds whose mesh step overflows or underflows pass the reference's
    check, and both readers report the grid's refusal."""
    lines = _replace_line("bounds", f"bounds {bounds}")(
        section_to_text(messy_section(nodes=5)).splitlines())
    text = "\n".join(lines)
    with pytest.raises(ParseError) as err:
        section_from_text(text)
    assert str(err.value) == f"line 4: bounds: {message} must be finite and the step positive"
    _assert_readers_agree(text)


# Fuzzing: mutate one valid input a few times (drop, duplicate or retype a
# field or token).  A parser must either accept the result, in which case
# what it read round-trips, or raise ParseError; any other exception is a
# parser bug.
fuzz = settings(deadline=None, max_examples=150)

JSON_VALUES = [0, -1, 1, 2, 1.5, True, None, "", "x", "dz1", "dzbar2", "1/2",
               [], {}, [0], [0, 0, 0, 0], {"wedge": []}]
FORM_BASES = [
    form_to_document(std_form(1)),
    form_to_document(Form(1, 0, {(): LaurentPoly.const(1, 2)})),
    form_to_document(Form(2, 2, {(0, 3): LaurentPoly.z(2, 1, -1)})),
]


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutate_document(doc, data):
    path = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype"]))
    if op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(JSON_VALUES)))


@fuzz
@given(st.sampled_from(FORM_BASES), st.integers(1, 3), st.data())
def test_form_parser_fuzz(base, n_mutations, data):
    doc = copy.deepcopy(base)
    for _ in range(n_mutations):
        if not doc:
            break
        _mutate_document(doc, data)
    try:
        form = form_from_document(doc)
    except ParseError:
        return
    assert form_from_document(json.loads(json.dumps(form_to_document(form)))) == form


# "1_0", "+3", "-0", "1e0", "infinity", "0x10" and the full-width "３" pin
# which value tokens Python's float accepts.
TOKENS = ["x", "-1", "0", "3", "7", "1.5", "nan", "inf", "1e999", "#", "nodes", "n",
          "1_0", "+3", "-0", "1e0", "infinity", "0x10", "３"]
SECTION_BASE = section_to_text(messy_section(nodes=5)).splitlines()


def _mutated_section_text(n_mutations, data, in_layout=False):
    """SECTION_BASE mutated a few times: a line dropped or repeated, or one
    of its tokens dropped, repeated or retyped.  ``in_layout`` keeps the
    text in the writer's layout: only header lines come and go, and each
    line keeps its first token, a body row its node index and the nodes
    line its count, which fixes the body's rows."""
    lines, head = list(SECTION_BASE), 5
    for _ in range(n_mutations):
        k = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        keep, ops = 0, ["drop line", "duplicate line"]
        if in_layout:
            keep = 3 if k >= head else 2 if tokens[0] == "nodes" else 1
            ops = ops if k < head else []
        ops += ["drop", "duplicate", "retype"] if len(tokens) > keep else []
        op = data.draw(st.sampled_from(ops))
        if op == "drop line":
            del lines[k]
            head -= k < head
        elif op == "duplicate line":
            lines.insert(k, lines[k])
            head += k < head
        else:
            t = data.draw(st.integers(keep, len(tokens) - 1))
            if op == "drop":
                del tokens[t]
            elif op == "duplicate":
                tokens.insert(t, tokens[t])
            else:
                tokens[t] = data.draw(st.sampled_from(TOKENS))
            lines[k] = " ".join(tokens)
    return "\n".join(lines)


def _assert_readers_agree(text):
    try:
        want = reference_section_from_text(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            section_from_text(text)
        # the reader leaves the bounds intervals to CubeGrid, whose message
        # it reports on the same line in place of the reference's own
        bounds = re.fullmatch(r"(line \d+: bounds: )(\[.*\]) is not a finite nonempty interval",
                              str(exc))
        if bounds:
            assert re.fullmatch(re.escape(bounds[1]) + r"axis \d+: interval "
                                + re.escape(bounds[2]) + r" and mesh step .* must be finite "
                                r"and the step positive", str(err.value))
        else:
            assert str(err.value) == str(exc)
        return
    assert_bit_equal(section_from_text(text), want)


@fuzz
@given(st.integers(1, 3), st.data())
def test_section_parser_fuzz(n_mutations, data):
    try:
        section = section_from_text(_mutated_section_text(n_mutations, data))
    except ParseError:
        return
    assert section_from_text(section_to_text(section)) == section


@fuzz
@given(st.integers(1, 3), st.data())
def test_section_reader_matches_reference(n_mutations, data):
    """On every mutated input in the writer's layout the reader and the
    row-by-row reference both return bit-equal sections or both raise the
    same ParseError."""
    _assert_readers_agree(_mutated_section_text(n_mutations, data, in_layout=True))


def test_section_readers_agree_on_every_value_token():
    """Each fuzz token in each value column of two rows: the reader
    accepts, reads and refuses exactly as the row-by-row reference does."""
    lines = list(SECTION_BASE)
    for node in ("1 1 1", "3 3 3"):
        k = next(k for k, line in enumerate(lines) if line.startswith(node + " "))
        for c in range(3, len(lines[k].split())):
            for token in TOKENS:
                row = lines[k].split()
                row[c] = token
                _assert_readers_agree("\n".join(lines[:k] + [" ".join(row)] + lines[k + 1:]))


def test_dump_ci_result_inventory(tmp_path):
    inp, gamma = demo_flat_section(nodes=9)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    paths = dump_ci_result(result, tmp_path / "run")
    assert [p.name for p in paths] == ["meta.json", "input.txt", "output.txt"]
    assert sorted((tmp_path / "run").iterdir()) == sorted(paths)
    meta = json.loads(paths[0].read_text())
    assert meta["frames"] == N_FRAMES
    assert meta["passed"] is True
    assert meta["nodes"] == 9
    assert load_section(paths[1]) == inp
    assert load_section(paths[2]) == result.output


def test_dump_builds_no_frame(tmp_path, monkeypatch):
    """dump_ci_result writes the homotopy's endpoints, not its frames: it
    reads no frame and does not build the result's frame view."""
    inp, gamma = ci.demo_gamma_section(13)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    assert result.passed, result.failure

    def unread(self, k):
        raise AssertionError(f"the dump built frame {k}")

    monkeypatch.setattr(ci.Homotopy, "__getitem__", unread)
    paths = dump_ci_result(result, tmp_path)
    assert len(paths) == 3
    assert "frames" not in vars(result)


def test_save_report(tmp_path):
    path = tmp_path / "report.txt"
    save_report(gallery_verify_all(name_filter="std"), path)
    text = path.read_text()
    assert text.startswith("== gallery identities ==")
    assert "result: OK" in text


# Distinct rows: the writer formats each distinct row once and the reader
# parses each distinct value text once.  The row-by-row reference writer
# and reader above stay the oracles.
VALUE_POOL = [0.0, -0.0, 5e-324, 1e-07, 1e+16, 1.7976931348623157e308]


def _section_from_rows(rows, which, nodes=5):
    """A section whose node k carries the float row rows[which[k]]."""
    grid = CubeGrid(1, nodes)
    table = np.array([rows[k] for k in which], dtype=float).view(complex)
    return GridSection(grid, table[:, :3].reshape(grid.shape + (3,)),
                       table[:, 3:].reshape(grid.shape + (3,)))


@fuzz
@given(st.lists(st.lists(st.sampled_from(VALUE_POOL), min_size=12, max_size=12),
                min_size=1, max_size=4),
       st.data())
def test_section_text_with_repeated_rows_matches_reference(rows, data):
    """Rows that repeat, or differ only by the sign of a zero: the text is
    the reference writer's and both readers read the same bits."""
    rows = rows + [[-v if v == 0.0 else v for v in rows[0]]]  # zeros' signs flipped
    which = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=125, max_size=125))
    section = _section_from_rows(rows, which)
    text = section_to_text(section)
    assert text == reference_section_to_text(section)
    assert_bit_equal(section_from_text(text), reference_section_from_text(text))
    assert_bit_equal(section_from_text(text), section)


def _repeated_row_lines():
    """Section text whose 125 rows carry two value texts, alternating."""
    rows = [[1e-07, -0.0] * 6, [0.5, 0.0] * 6]
    return section_to_text(_section_from_rows(rows, [k % 2 for k in range(125)])).splitlines()


def _with_values(lines, k, edit):
    """lines with the value tokens of line k rejoined by ``edit``."""
    parts = lines[k].split()
    return lines[:k] + [" ".join(parts[:3]) + " " + edit(parts[3:])] + lines[k + 1:]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda vals: "\t".join(vals), id="tabs"),
    pytest.param(lambda vals: "  ".join(vals) + "\t ", id="double-spaces"),
    pytest.param(lambda vals: " \t ".join(vals[:6]) + "\t\t" + " ".join(vals[6:]), id="mixed"),
])
def test_section_readers_agree_on_value_text_whitespace(edit):
    """The same value tokens under other whitespace read as the same row."""
    lines = _repeated_row_lines()
    text = "\n".join(_with_values(_with_values(lines, 9, edit), 40, edit))
    _assert_readers_agree(text)
    assert section_from_text(text) == section_from_text("\n".join(lines))


@pytest.mark.parametrize("token", ["x", "nan", "inf", "1e999", "1_0", "３", "0x10"])
def test_section_readers_agree_on_a_bad_token_in_a_repeated_value_text(token):
    """A bad token in a later copy of a value text, in two copies of it,
    and after a copy in other whitespace: same error or same bits."""
    lines = _repeated_row_lines()

    def bad(vals):
        return " ".join(vals[:4] + [token] + vals[5:])

    second_copy = _with_values(lines, 9, bad)
    _assert_readers_agree("\n".join(second_copy))
    _assert_readers_agree("\n".join(_with_values(second_copy, 11, bad)))
    spaced = _with_values(lines, 7, lambda vals: "\t".join(vals))
    _assert_readers_agree("\n".join(_with_values(spaced, 9, bad)))


@pytest.mark.parametrize("demo", ["flat", "gamma", "holonomic"])
@pytest.mark.parametrize("nodes", [9, 13])
def test_solver_sections_are_written_as_the_reference_writes_them(demo, nodes):
    """The output and every homotopy frame of each demo solve."""
    inp, gamma = getattr(ci, f"demo_{demo}_section")(nodes)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    for section in [result.output, *result.frames]:
        assert section_to_text(section) == reference_section_to_text(section)


def test_section_text_memory_on_the_flat_33_output():
    """Peak traced memory of writing, then of reading, the flat 33-node
    solver output (35,937 rows).  The writer drops its table before it
    builds the text and builds no string per node: 23.4 MB when it built a
    prefix and a line per node and copied the body once more.  The reader
    splits the body a block of lines at a time and takes each block's node
    prefixes lazily: 13.2 MB when it split the whole text and built every
    node's prefix first, under 5 MB now."""
    inp, gamma = demo_flat_section(33)
    section = ci_solve(inp, gamma, 0.5, 1e-3).output
    text, write_peak, _ = traced_peak(section_to_text, section)
    back, read_peak, _ = traced_peak(section_from_text, text)
    assert back == section
    assert write_peak <= 12 * 2 ** 20, f"write: {write_peak / 2 ** 20:.1f} MB peak"
    assert read_peak <= 8 * 2 ** 20, f"read: {read_peak / 2 ** 20:.1f} MB peak"


@pytest.mark.parametrize("demo, nodes", [
    ("flat", 25), ("flat", 33), ("gamma", 25), ("gamma", 33), ("holonomic", 25),
    ("holonomic", 33), ("gamma", 13)])
def test_every_grid_solve_output_reads_back_bit_for_bit(demo, nodes):
    """The seven solver outputs the grid-solve benchmark writes and reads
    back: the read section's ``a`` and ``beta`` have the output's bytes and
    strides."""
    inp, gamma = getattr(ci, f"demo_{demo}_section")(nodes)
    output = ci_solve(inp, gamma, 0.5, 1e-3).output
    back = section_from_text(section_to_text(output))
    for got, want in ((back.a, output.a), (back.beta, output.beta)):
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides


def test_the_writer_takes_row_keys_a_block_at_a_time():
    """The flat 33-node output's 35,937 row keys are taken a block of rows
    at a time, so they are never alive beside the whole table: 8.0 MB peak
    when every key was built at once, under 6 MB now, and the same text."""
    inp, gamma = demo_flat_section(33)
    section = ci_solve(inp, gamma, 0.5, 1e-3).output
    text, write_peak, _ = traced_peak(section_to_text, section)
    assert text == reference_section_to_text(section)
    assert write_peak <= 6 * 2 ** 20, f"write: {write_peak / 2 ** 20:.1f} MB peak"


_DELETE = object()


def _doc_with(path, value, form=None):
    """The document of ``form`` (default std_form(1)) with the entry at
    ``path`` set to ``value``, or deleted."""
    doc = form_to_document(form or std_form(1))
    *inner, last = path
    node = doc
    for key in inner:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _doc_with_repeat(k):
    """std_form(1)'s document with entry 0 of term k's coefficient twice."""
    doc = form_to_document(std_form(1))
    doc["terms"][k]["coeff"].append(dict(doc["terms"][k]["coeff"][0]))
    return doc


def _written(tmp_path, name, text, load):
    path = tmp_path / name
    path.write_text(text)
    return load(path)


def _section_with(k, line):
    """SECTION_BASE with line k (0-based) replaced, or deleted for None."""
    lines = list(SECTION_BASE)
    if line is None:
        del lines[k]
    else:
        lines[k] = line
    return "\n".join(lines) + "\n"


def _row_with(k, c, token):
    """SECTION_BASE row at line k with token c replaced (dropped for None)."""
    tokens = SECTION_BASE[k].split()
    if token is None:
        del tokens[c]
    else:
        tokens[c] = token
    return _section_with(k, " ".join(tokens))


_FORM2 = Form(3, 2, {(0, 1): LaurentPoly.const(3, 1)})

FORMATS_REFUSALS = [
    (lambda tmp: form_to_document(circle_form(-1)), VariantError,
     "only exact-coefficient forms have a file format"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "coeff", 0, "zexp"), "100")),
     ParseError, "terms[0].coeff[0]: exponents must be a list of integers, got '100'"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "coeff", 0, "re"), "1e-5000")),
     ParseError, "terms[0].coeff[0]: exponent in '1e-5000' exceeds"),
    (lambda tmp: form_from_document([1]), ParseError, "form document must be an object"),
    (lambda tmp: form_from_document(_doc_with(("terms",), _DELETE)), ParseError,
     "malformed form header: missing 'terms'"),
    (lambda tmp: form_from_document(_doc_with(("format",), "x")), ParseError,
     "format: expected 'contactkit-form', got 'x'"),
    (lambda tmp: form_from_document(_doc_with(("version",), True)), ParseError,
     "version: expected a JSON integer, got True"),
    (lambda tmp: form_from_document(_doc_with(("version",), 2)), ParseError,
     "version: expected 1, got 2"),
    (lambda tmp: form_from_document(_doc_with(("m",), 0)), ParseError,
     "m: expected a positive integer, got 0"),
    (lambda tmp: form_from_document(_doc_with(("degree",), 7)), ParseError,
     "degree: expected 0..6, got 7"),
    (lambda tmp: form_from_document(_doc_with(("terms",), 5)), ParseError,
     "terms: expected a list of terms, got 5"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "wedge"), ["dz9"])), ParseError,
     "terms[0]: bad wedge: "),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "wedge"), ["dz1", "dz2"])),
     ParseError, "terms[0]: wedge length 2 != degree 1"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "wedge"), ["dz2", "dz1"], _FORM2)),
     ParseError, "terms[0]: wedge indices must be strictly increasing"),
    (lambda tmp: form_from_document(_doc_with(("terms", 1, "wedge"), ["dz2"])), ParseError,
     "terms[1]: duplicate wedge"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "coeff"), 5)), ParseError,
     "terms[0].coeff: expected a list of entries, got 5"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "coeff", 0, "im"), "x")),
     ParseError, "terms[0].coeff[0]: Invalid literal for Fraction: 'x'"),
    (lambda tmp: form_from_document(_doc_with(("terms", 0, "coeff", 0, "zexp"), [1, 0])),
     ParseError, "terms[0].coeff[0]: exponent length != m"),
    (lambda tmp: form_from_document(_doc_with_repeat(0)), ParseError,
     "terms[0].coeff[1]: repeated monomial zexp=[1, 0, 0] zbarexp=[0, 0, 0]"),
    (lambda tmp: form_from_document(
        _doc_with(("terms", 0, "coeff", 0, "zbarexp"), [-2 ** 31, 0, 0])), ParseError,
     "terms[0].coeff: exponent -2147483648 of zbar1"),
    (lambda tmp: _written(tmp, "bad.json", "{", load_form), ParseError,
     "bad.json: line 1 column 2: "),
    (lambda tmp: _written(tmp, "form.json", "[1]", load_form), ParseError,
     "form.json: form document must be an object"),
    (lambda tmp: section_from_text(_section_with(1, "n 0")), ParseError,
     "line 2: n: expected one integer >= 1, got '0'"),
    (lambda tmp: section_from_text(_row_with(7, -1, None)), ParseError,
     "line 8: 14 columns, expected 15"),
    (lambda tmp: section_from_text(_row_with(7, 4, "x")), ParseError,
     "line 8: could not convert string to float: 'x'"),
    (lambda tmp: section_from_text(_row_with(7, 4, "nan")), ParseError,
     "line 8: non-finite value"),
    (lambda tmp: section_from_text(_row_with(7, 4, "1\x85" + SECTION_BASE[7].split()[4])),
     ParseError, "line 8: line boundary '\\x85' other than '\\n'"),
    (lambda tmp: section_from_text(_row_with(7, 0, "9")), ParseError,
     "line 8: expected the row of node (0, 0, 2), starting '0 0 2 '"),
    (lambda tmp: section_from_text(_section_with(8, SECTION_BASE[7])), ParseError,
     "line 9: expected the row of node (0, 0, 3), starting '0 0 3 '"),
    (lambda tmp: section_from_text("\r\n".join(SECTION_BASE)), ParseError,
     "line 1: line boundary '\\r' other than '\\n'"),
    (lambda tmp: section_from_text(_section_with(2, None)), ParseError,
     "bad section header: missing 'nodes'"),
    (lambda tmp: section_from_text(_section_with(3, "bounds 0.0 1.0 0.0 1.0 0.0 x")),
     ParseError, "line 4: bounds: could not convert string to float: 'x'"),
    (lambda tmp: section_from_text(_section_with(3, "bounds 0.0 1.0")), ParseError,
     "line 4: bounds carry 2 numbers, expected 6"),
    (lambda tmp: section_from_text(_section_with(3, "bounds 1.0 0.0 0.0 1.0 0.0 1.0")),
     ParseError, "line 4: bounds: axis 0: interval [1.0, 0.0]"),
    (lambda tmp: section_from_text(_section_with(2, "nodes 100000")), ParseError,
     "line 131: 125 node rows, expected 1000000000000000"),
    (lambda tmp: section_from_text(_section_with(len(SECTION_BASE) - 1, None)), ParseError,
     "line 130: 124 node rows, expected 125"),
    (lambda tmp: section_from_text("\n".join(SECTION_BASE + SECTION_BASE[-1:])), ParseError,
     "line 131: 126 node rows, expected 125"),
    (lambda tmp: section_from_text(_section_with(4, "columns bogus")), ParseError,
     "line 5: columns do not match the n = 1 layout"),
    (lambda tmp: section_from_text(_section_with(0, "n 1")), ParseError,
     "line 2: repeated header key 'n'"),
    (lambda tmp: _written(tmp, "s.txt", _section_with(1, "n 0"), load_section), ParseError,
     "s.txt: line 2: n: expected one integer"),
]


@pytest.mark.parametrize("call, error, fragment", FORMATS_REFUSALS,
                         ids=[r[2] for r in FORMATS_REFUSALS])
def test_every_formats_refusal_is_reached(call, error, fragment, tmp_path):
    """One row per ``raise`` in ``formats.py`` (the two ValueErrors of a
    coefficient part reach the caller as ParseErrors): the malformed input,
    its error class and a fragment of its message."""
    with pytest.raises(ContactKitError) as err:
        call(tmp_path)
    assert type(err.value) is error
    assert fragment in str(err.value)


def _solver_lines(demo, nodes):
    """A demo solver output's text at eps 0.5, delta 1e-3: few distinct
    rows, each repeated."""
    inp, gamma = getattr(ci, f"demo_{demo}_section")(nodes)
    return section_to_text(ci_solve(inp, gamma, 0.5, 1e-3).output).splitlines()


@pytest.mark.parametrize("demo, nodes, distinct", [
    ("flat", 33, 60), ("holonomic", 33, 33), ("gamma", 33, 488), ("gamma", 25, 346),
    ("gamma", 13, 521)])
def test_solver_sections_repeat_few_distinct_rows(demo, nodes, distinct):
    """The distinct value rows of each output that the README quotes."""
    body = _solver_lines(demo, nodes)[5:]
    assert len(body) == nodes ** 3
    assert len({line.split(" ", 3)[3] for line in body}) == distinct


def _shuffled(lines):
    body = lines[5:]
    random.Random(13).shuffle(body)
    return lines[:5] + body


def _with_break_in_row(k, brk, lines):
    head, tail = lines[k].rsplit(" ", 1)
    return lines[:k] + [head + brk + tail] + lines[k + 1:]


def _respelled(k, c, token):
    """An edit that spells index c of the row at line k (0-based) as token."""
    def edit(lines):
        row = lines[k].split(" ")
        row[c] = token
        return lines[:k] + [" ".join(row)] + lines[k + 1:]
    return edit


def _expected_row(line, node):
    prefix = "".join(f"{i} " for i in node)
    return f"line {line}: expected the row of node {node}, starting {prefix!r}"


SECTION_TEXTS = [
    # (id, base lines, edit, line end, refusal): a refusal of None marks a
    # text in the writer's layout, which reads as the reference reads it
    ("as-written", lambda: SECTION_BASE, lambda lines: lines, "\n", None),
    ("repeated-rows", lambda: _solver_lines("flat", 9), lambda lines: lines, "\n", None),
    ("comments-and-blanks-in-header", lambda: SECTION_BASE,
     lambda lines: lines[:2] + ["# note", "", "  "] + lines[2:], "\n", None),
    ("header-keys-in-any-order", lambda: SECTION_BASE,
     lambda lines: lines[:1] + lines[3:5] + lines[1:3] + lines[5:], "\n", None),
    ("no-columns-line", lambda: SECTION_BASE, lambda lines: lines[:4] + lines[5:], "\n", None),
    ("trailing-spaces", lambda: SECTION_BASE,
     lambda lines: lines[:5] + [line + " " for line in lines[5:]], "\n", None),
    ("double-spaced-values", lambda: SECTION_BASE,
     lambda lines: lines[:5] + [line.replace(" ", "  ").replace("  ", " ", 3)
                                for line in lines[5:]], "\n", None),
    ("tabs-among-values", lambda: SECTION_BASE,
     lambda lines: lines[:5] + [line.replace(" ", "\t").replace("\t", " ", 3)
                                for line in lines[5:]], "\n", None),
    ("last-row-without-line-end", lambda: SECTION_BASE,
     lambda lines: [line + "\n" for line in lines[:-1]] + lines[-1:], "", None),
    ("one-value-too-few", lambda: SECTION_BASE,
     lambda lines: lines[:50] + [lines[50].rsplit(" ", 1)[0]] + lines[51:], "\n", None),
    ("a-value-not-a-float", lambda: SECTION_BASE, _respelled(7, 4, "x"), "\n", None),
    ("a-non-finite-value", lambda: SECTION_BASE, _respelled(7, 4, "1e999"), "\n", None),
    # rows off the writer's order or spelling
    ("rows-permuted", lambda: SECTION_BASE,
     lambda lines: lines[:5] + lines[6:7] + lines[5:6] + lines[7:], "\n",
     _expected_row(6, (0, 0, 0))),
    ("flat-13-shuffled", functools.partial(_solver_lines, "flat", 13), _shuffled, "\n",
     _expected_row(6, (0, 0, 0))),
    ("row-missing", lambda: SECTION_BASE, lambda lines: lines[:40] + lines[41:], "\n",
     _expected_row(41, (1, 2, 0))),
    ("row-repeated", lambda: SECTION_BASE,
     lambda lines: lines[:8] + lines[7:8] + lines[9:], "\n", _expected_row(9, (0, 0, 3))),
    ("comment-among-rows", lambda: SECTION_BASE,
     lambda lines: lines[:40] + ["# a comment"] + lines[40:], "\n", _expected_row(41, (1, 2, 0))),
    ("blank-among-rows", lambda: SECTION_BASE,
     lambda lines: lines[:40] + [""] + lines[40:], "\n", _expected_row(41, (1, 2, 0))),
    ("tab-separators", lambda: SECTION_BASE,
     lambda lines: lines[:5] + [line.replace(" ", "\t") for line in lines[5:]], "\n",
     _expected_row(6, (0, 0, 0))),
    ("indented-row", lambda: SECTION_BASE,
     lambda lines: lines[:9] + [" " + lines[9]] + lines[10:], "\n", _expected_row(10, (0, 0, 4))),
    ("index-out-of-range", lambda: SECTION_BASE, _respelled(7, 0, "9"), "\n",
     _expected_row(8, (0, 0, 2))),
    ("index-spelled-01", lambda: SECTION_BASE, _respelled(30, 0, "01"), "\n",
     _expected_row(31, (1, 0, 0))),
    ("index-spelled-+1", lambda: SECTION_BASE, _respelled(10, 1, "+1"), "\n",
     _expected_row(11, (0, 1, 0))),
    ("index-spelled-0_1", lambda: SECTION_BASE, _respelled(6, 2, "0_1"), "\n",
     _expected_row(7, (0, 0, 1))),
    ("index-spelled-1e0", lambda: SECTION_BASE, _respelled(6, 2, "1e0"), "\n",
     _expected_row(7, (0, 0, 1))),
    ("index-spelled-full-width-3", lambda: SECTION_BASE, _respelled(8, 2, "３"), "\n",
     _expected_row(9, (0, 0, 3))),
    # the row count
    ("header-only", lambda: SECTION_BASE, lambda lines: lines[:5], "\n",
     "line 6: 0 node rows, expected 125"),
    ("last-rows-missing", lambda: SECTION_BASE, lambda lines: lines[:-4], "\n",
     "line 127: 121 node rows, expected 125"),
    ("a-row-too-many", lambda: SECTION_BASE, lambda lines: lines + lines[-1:], "\n",
     "line 131: 126 node rows, expected 125"),
    ("trailing-blank-line", lambda: SECTION_BASE, lambda lines: lines + [""], "\n",
     "line 131: 126 node rows, expected 125"),
    ("header-key-after-body", lambda: SECTION_BASE,
     lambda lines: lines[:4] + lines[5:] + lines[4:5], "\n",
     "line 130: 126 node rows, expected 125"),
    # line boundaries other than "\n"
    ("crlf-line-ends", lambda: SECTION_BASE, lambda lines: lines, "\r\n",
     "line 1: line boundary '\\r' other than '\\n'"),
    ("cr-line-ends", lambda: SECTION_BASE, lambda lines: lines, "\r",
     "line 1: line boundary '\\r' other than '\\n'"),
    ("gamma-13-crlf", functools.partial(_solver_lines, "gamma", 13), lambda lines: lines,
     "\r\n", "line 1: line boundary '\\r' other than '\\n'"),
    ("crlf-rows-only", lambda: SECTION_BASE,
     lambda lines: lines[:5] + ["\r\n".join(lines[5:])], "\n",
     "line 6: line boundary '\\r' other than '\\n'"),
    # the comment line ends at the "\x1e" for str.splitlines
    ("record-separator-in-a-comment", lambda: SECTION_BASE,
     lambda lines: [lines[0] + "\x1e" + lines[1]] + lines[1:], "\n",
     "line 1: line boundary '\\x1e' other than '\\n'"),
    ("formfeed-for-one-line-end", lambda: SECTION_BASE,
     lambda lines: lines[:40] + [lines[40] + "\f" + lines[41]] + lines[42:], "\n",
     _expected_row(42, (1, 2, 1))),
] + [
    # a line boundary between two values, which str.split reads as a space
    (f"{name}-inside-a-row", lambda: SECTION_BASE,
     functools.partial(_with_break_in_row, 40, brk), "\n",
     f"line 41: line boundary {brk!r} other than '\\n'")
    for name, brk in (("formfeed", "\f"), ("nel", "\x85"), ("line-separator", "\u2028"))
]


def _assert_read_as_listed(text, refusal):
    if refusal is None:
        _assert_readers_agree(text)
    else:
        with pytest.raises(ParseError) as err:
            section_from_text(text)
        assert str(err.value) == refusal


@pytest.mark.parametrize("base, edit, end, refusal", [r[1:] for r in SECTION_TEXTS],
                         ids=[r[0] for r in SECTION_TEXTS])
def test_the_reader_accepts_the_writers_layout_and_refuses_the_rest(base, edit, end, refusal):
    """A text in the writer's layout reads as the row-by-row reference
    reads it: the same section, or the same ParseError.  Every other text
    is refused at the line that leaves the layout."""
    _assert_read_as_listed(end.join(edit(list(base()))) + end, refusal)


@pytest.mark.parametrize("block", [1, 2, 64, 131, 10 ** 6])
def test_the_reader_does_not_depend_on_its_block_size(block, monkeypatch):
    """Blocks that end at every line, mid-row or past the text: each
    SECTION_TEXTS text still reads, or is refused at the same line, as
    listed."""
    from contactkit import formats
    monkeypatch.setattr(formats, "_TEXT_BLOCK", block)
    for _, base, edit, end, refusal in SECTION_TEXTS:
        _assert_read_as_listed(end.join(edit(list(base()))) + end, refusal)


def test_converted_line_ends_still_load(tmp_path, monkeypatch):
    """A section file whose line ends became "\\r\\n" or "\\r" loads bit for
    bit: ``Path.read_text``'s universal newlines give back "\\n".  The same
    "\\r\\n" text handed to ``section_from_text`` is refused at line 1,
    before any node prefix is made."""
    from contactkit import formats
    section = messy_section(nodes=5)
    path = tmp_path / "section.txt"
    for end in ("\r\n", "\r"):
        path.write_bytes(section_to_text(section).replace("\n", end).encode())
        assert_bit_equal(load_section(path), section)
    crlf = section_to_text(section).replace("\n", "\r\n")
    built = []
    monkeypatch.setattr(formats, "_row_parts", lambda *args: built.append(args))
    with pytest.raises(ParseError, match=r"^line 1: line boundary '\\r' other than '\\n'$"):
        section_from_text(crlf)
    assert built == []


def test_a_header_claiming_more_rows_than_the_body_holds_is_refused_at_once(monkeypatch):
    """A header that claims ``nodes 100000`` (10^15 rows at n = 1) over a
    one-row body is refused by its row count before the reader builds a
    prefix or allocates an array for its rows."""
    from contactkit import formats
    lines = section_to_text(messy_section(nodes=5)).splitlines()
    text = "\n".join("nodes 100000" if line.startswith("nodes ") else line
                     for line in lines[:6]) + "\n"
    built = []

    def no_prefixes(*args):
        built.append(args)
        return [""], []

    monkeypatch.setattr(formats, "_row_parts", no_prefixes)

    def read():
        with pytest.raises(ParseError, match=r"^line 7: 1 node rows, expected 1000000000000000$"):
            section_from_text(text)

    _, peak, _ = traced_peak(read)
    assert built == [] and peak < 2 ** 20


def test_formats_reads_a_section_body_one_way():
    """One body reader: ``formats.py`` calls ``splitlines`` nowhere, and
    ``_value_row``, the one parse of a value text, has one caller."""
    from contactkit import formats
    tree = ast.parse(Path(formats.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "splitlines"]
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_value_row"]
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_value_row"]
    assert len(uses) == 1 and [call.func for call in calls] == uses
