"""Lossless file formats and their parse diagnostics."""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit.ci import N_FRAMES, ci_solve, demo_flat_section
from contactkit.coefficients import LaurentPoly, Monomial
from contactkit.errors import ParseError, VariantError
from contactkit.formats import (
    dump_ci_result, form_from_document, form_to_document, load_form,
    load_section, save_form, save_report, save_section, section_from_text,
    section_to_text,
)
from contactkit.forms import Form
from contactkit.gallery import circle_form, gallery_verify_all, std_form, torus_form
from contactkit.grids import CubeGrid, GridSection
from contactkit.scalars import QC


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


def test_load_form_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "contactkit-form",\n  "m": }')
    with pytest.raises(ParseError) as err:
        load_form(path)
    msg = str(err.value)
    assert "line 2" in msg and str(path) in msg


def messy_section(nodes=5):
    grid = CubeGrid(1, nodes)
    s = GridSection.sample(grid, std_form(1))
    idx = np.indices(grid.shape).sum(axis=0)
    bump = np.sin(idx / 3.0) + 1j * np.cos(idx / 7.0)
    a = s.a + bump[..., None] / 9
    beta = s.beta.copy()
    beta[..., 0, 2] += bump / 11
    beta[..., 2, 0] -= bump / 11
    return GridSection(grid, a, beta)


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


def test_section_parse_errors():
    good = section_to_text(messy_section(nodes=5))
    lines = good.splitlines()

    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(l for l in lines if not l.startswith("nodes")))
    assert "bad section header" in str(err.value)

    with pytest.raises(ParseError) as err:
        section_from_text(good.replace("bounds 0.0 1.0 0.0 1.0 0.0 1.0",
                                       "bounds 0.0 1.0"))
    assert "bounds carry" in str(err.value)

    truncated = lines[:]
    truncated[7] = " ".join(truncated[7].split()[:-1])
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(truncated))
    assert "columns, expected" in str(err.value)

    shifted = lines[:]
    shifted[7] = "9 " + shifted[7].split(" ", 1)[1]
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(shifted))
    assert "out of range" in str(err.value)

    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(lines[:-4]))
    assert "node rows" in str(err.value)


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


def test_section_parse_rejects_duplicate_node_row():
    """A repeated node row standing in for a missing one must not read the
    missing node as zeros."""
    lines = section_to_text(messy_section(nodes=5)).splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("0 0 0 "))
    lines[first + 1] = lines[first]
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(lines))
    assert f"line {first + 2}: duplicate row" in str(err.value)


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
])
def test_section_header_and_value_errors_name_their_line(edit, line):
    lines = section_to_text(messy_section(nodes=5)).splitlines()
    with pytest.raises(ParseError) as err:
        section_from_text("\n".join(edit(lines)))
    assert str(err.value).startswith(f"line {line}: ")


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


TOKENS = ["x", "-1", "0", "3", "7", "1.5", "nan", "inf", "1e999", "#", "nodes", "n"]
SECTION_BASE = section_to_text(messy_section(nodes=5)).splitlines()


@fuzz
@given(st.integers(1, 3), st.data())
def test_section_parser_fuzz(n_mutations, data):
    lines = list(SECTION_BASE)
    for _ in range(n_mutations):
        k = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        t = data.draw(st.integers(0, len(tokens) - 1))
        op = data.draw(st.sampled_from(
            ["drop line", "duplicate line", "drop", "duplicate", "retype"]))
        if op == "drop line":
            del lines[k]
        elif op == "duplicate line":
            lines.insert(k, lines[k])
        else:
            if op == "drop":
                del tokens[t]
            elif op == "duplicate":
                tokens.insert(t, tokens[t])
            else:
                tokens[t] = data.draw(st.sampled_from(TOKENS))
            lines[k] = " ".join(tokens)
    try:
        section = section_from_text("\n".join(lines))
    except ParseError:
        return
    assert section_from_text(section_to_text(section)) == section


def test_dump_ci_result_inventory(tmp_path):
    inp, gamma = demo_flat_section(nodes=9)
    result = ci_solve(inp, gamma, 0.5, 1e-3)
    paths = dump_ci_result(result, tmp_path / "run")
    assert paths[0].name == "meta.json"
    assert len(paths) == 1 + N_FRAMES
    meta = json.loads(paths[0].read_text())
    assert meta["frames"] == N_FRAMES
    assert meta["passed"] is True
    assert meta["nodes"] == 9
    first = load_section(paths[1])
    assert np.array_equal(first.a, result.frames[0].a)
    last = load_section(paths[-1])
    assert np.array_equal(last.a, result.frames[-1].a)
    assert np.array_equal(last.beta, result.frames[-1].beta)


def test_save_report(tmp_path):
    path = tmp_path / "report.txt"
    save_report(gallery_verify_all(name_filter="std"), path)
    text = path.read_text()
    assert text.startswith("== gallery identities ==")
    assert "result: OK" in text
