"""File formats: form documents, sampled-section tables, solver dumps.

Forms travel as JSON with exact rational coefficient parts, so the
Laurent variant round-trips losslessly.  Sampled sections are columnar
text, one node per row, with a header declaring the mesh; float columns
use repr, which round-trips binary-exactly.  A section is written as one
(nodes x columns) table, each distinct row of values formatted once, and
read back in that one layout: one row per node in C order, each starting
with its node index, "\n" line ends.  The body is read a block of lines at
a time, without a Python statement per row and without splitting the
whole text, each distinct value text parsed once; any other text is
refused at the line that leaves the layout.  Solver results dump as a
metadata document plus the input and output sections, the homotopy's two
endpoints.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .ci import CIResult
from .coefficients import LaurentPoly, Monomial
from .errors import ExponentRangeError, ParseError, PreconditionError, VariantError
from .forms import Form, covector_index, covector_name
from .grids import MIN_NODES, CubeGrid, GridSection, upper_pairs
from .reports import VerificationReport
from .scalars import QC

FORMAT_NAME = "contactkit-form"
FORMAT_VERSION = 1


# -- forms ------------------------------------------------------------------


def form_to_document(form: Form) -> dict:
    if form.variant != "laurent":
        raise VariantError("only exact-coefficient forms have a file format")
    terms = []
    for word, coeff in form.sorted_terms():
        entries = []
        for mono, value in coeff.sorted_terms():
            re_s, im_s = value.part_strings()
            entries.append({
                "zexp": list(mono.zexp),
                "zbarexp": list(mono.zbarexp),
                "re": re_s,
                "im": im_s,
            })
        terms.append({
            "wedge": [covector_name(i, form.m) for i in word],
            "coeff": entries,
        })
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "m": form.m,
        "degree": form.degree,
        "terms": terms,
    }


def _exponents(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(e) is int for e in value):
        raise ValueError(f"exponents must be a list of integers, got {value!r}")
    return tuple(value)


_EXPONENT = re.compile(r"[eE]([-+]?\d+)")


def _coefficient_part(raw) -> Fraction:
    """An exact coefficient part.  An exponent past the int-string digit
    limit is refused before Fraction expands it into a huge integer, and a
    part must be writable back as text."""
    text = str(raw)
    exp = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exp and limit and abs(int(exp.group(1))) > limit:
        raise ValueError(f"exponent in {text!r} exceeds {limit} digits")
    value = Fraction(text)
    str(value)  # ValueError when a part has more digits than the limit
    return value


def form_from_document(doc: dict) -> Form:
    if not isinstance(doc, dict):
        raise ParseError("form document must be an object")
    for key in ("format", "version", "m", "degree", "terms"):
        if key not in doc:
            raise ParseError(f"malformed form header: missing {key!r}")
    if doc["format"] != FORMAT_NAME:
        raise ParseError(f"format: expected {FORMAT_NAME!r}, got {doc['format']!r}")
    for key in ("version", "m", "degree"):
        # type() is exact: neither true nor 3.7 passes as a JSON integer
        if type(doc[key]) is not int:
            raise ParseError(f"{key}: expected a JSON integer, got {doc[key]!r}")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"version: expected {FORMAT_VERSION}, got {doc['version']}")
    m, degree, raw_terms = doc["m"], doc["degree"], doc["terms"]
    if m < 1:
        raise ParseError(f"m: expected a positive integer, got {m}")
    if not 0 <= degree <= 2 * m:
        raise ParseError(f"degree: expected 0..{2 * m}, got {degree}")
    if not isinstance(raw_terms, list):
        raise ParseError(f"terms: expected a list of terms, got {raw_terms!r}")
    terms = {}
    for idx, raw in enumerate(raw_terms):
        where = f"terms[{idx}]"
        try:
            word = tuple(covector_index(name, m) for name in raw["wedge"])
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ParseError(f"{where}: bad wedge: {exc}") from None
        if len(word) != degree:
            raise ParseError(f"{where}: wedge length {len(word)} != degree {degree}")
        if any(b <= a for a, b in zip(word, word[1:])):
            raise ParseError(f"{where}: wedge indices must be strictly increasing")
        if word in terms:
            raise ParseError(f"{where}: duplicate wedge")
        raw_coeff = raw.get("coeff", [])
        if not isinstance(raw_coeff, list):
            raise ParseError(f"{where}.coeff: expected a list of entries, got {raw_coeff!r}")
        poly_terms, seen = {}, set()
        for jdx, entry in enumerate(raw_coeff):
            try:
                mono = Monomial(_exponents(entry["zexp"]), _exponents(entry["zbarexp"]))
                value = QC(_coefficient_part(entry["re"]), _coefficient_part(entry["im"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{where}.coeff[{jdx}]: {exc}") from None
            if len(mono.zexp) != m or len(mono.zbarexp) != m:
                raise ParseError(f"{where}.coeff[{jdx}]: exponent length != m")
            if mono in seen:
                raise ParseError(f"{where}.coeff[{jdx}]: repeated monomial "
                                 f"zexp={list(mono.zexp)} zbarexp={list(mono.zbarexp)}")
            seen.add(mono)
            if not value.is_zero:
                poly_terms[mono] = value
        try:
            terms[word] = LaurentPoly(m, poly_terms)
        except ExponentRangeError as exc:
            raise ParseError(f"{where}.coeff: {exc}") from None
    return Form(m, degree, terms)


def save_form(form: Form, path: str | Path) -> None:
    Path(path).write_text(json.dumps(form_to_document(form), indent=2) + "\n")


def load_form(path: str | Path) -> Form:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    try:
        return form_from_document(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- sampled sections -------------------------------------------------------


def _columns(m: int) -> list[str]:
    """Column names of a section row: node index, a, then upper beta."""
    cols = [f"i{k + 1}" for k in range(m)]
    cols += [f"a{k + 1}.{p}" for k in range(m) for p in ("re", "im")]
    return cols + [f"beta{i + 1}{j + 1}.{p}" for i, j in upper_pairs(m) for p in ("re", "im")]


def _row_parts(nodes: int, m: int) -> tuple[list[str], list[str]]:
    """The row prefix "i1 ... im " in two parts, each list in C order: the
    row heads "i1 ... i(m-1) " and the last indices "im ".  Row k's prefix
    is head k // nodes followed by last index k % nodes."""
    heads, lasts = [""], [f"{i} " for i in range(nodes)]
    for _ in range(m - 1):
        heads = list(map("".join, itertools.product(heads, lasts)))
    return heads, lasts


# rows whose bytes keys are alive at once while a section is written
_KEY_BLOCK = 4096
# characters of the body split into lines at once while a section is read
_TEXT_BLOCK = 2 ** 18


def section_to_text(section: GridSection) -> str:
    grid = section.grid
    m = grid.m
    header = [
        "# contactkit sampled section",
        f"n {grid.n}",
        f"nodes {grid.nodes}",
        "bounds " + " ".join(repr(float(b)) for lo_hi in grid.bounds for b in lo_hi),
        "columns " + " ".join(_columns(m)),
    ]
    count = grid.n_nodes
    # a C-ordered table whatever the fields' layout, so it is built once
    table = np.empty((count, m + section.beta.shape[-1]), complex)
    np.concatenate([section.a.reshape(count, m), section.beta.reshape(count, -1)], axis=1,
                   out=table)
    # complex columns viewed as float interleave re and im, as the layout does
    width = table.shape[1] * 2
    rows = table.view(float).view(np.dtype((np.void, width * 8))).ravel()
    unpack = struct.Struct(f"{width}d").unpack  # native doubles, as the table held them
    # one bytes key per row, so -0.0 stays apart from 0.0; the sections
    # written here repeat few distinct rows, and each is formatted once.
    # The keys are taken a block of rows at a time, so only one block's
    # keys are alive beside the table.
    texts: dict[bytes, str] = {}
    row_texts: list[str] = []
    for start in range(0, count, _KEY_BLOCK):
        keys = rows[start:start + _KEY_BLOCK].tolist()
        for key in set(keys).difference(texts):
            texts[key] = " ".join(map(repr, unpack(key))) + "\n"
        row_texts += map(texts.__getitem__, keys)
    # the table and the keys go before the text is built
    del table, rows, keys
    # three shared parts per row, none built per node: its head, its last
    # index and its value text
    heads, lasts = _row_parts(grid.nodes, m)
    rows = zip(itertools.chain.from_iterable(map(itertools.repeat, heads,
                                                 itertools.repeat(grid.nodes))),
               itertools.cycle(lasts), row_texts)
    return "".join(itertools.chain(("\n".join(header) + "\n",),
                                   itertools.chain.from_iterable(rows)))


def _header_int(header, key: str, least: int) -> int:
    lineno, raw = header[key]
    try:
        (value,) = map(int, raw)
    except ValueError:
        value = least - 1
    if value < least:
        raise ParseError(f"line {lineno}: {key}: expected one integer >= {least}, got {' '.join(raw)!r}")
    return value


# every line boundary str.splitlines knows but "\n"
_OTHER_BREAKS = re.compile("[\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_HEADER_KEYS = ("n", "nodes", "bounds", "columns")


def _one_line(text: str) -> str:
    """``text``, or a ValueError when it holds a line boundary other than
    "\\n", which ``str.split`` would read as a space."""
    other = _OTHER_BREAKS.search(text)
    if other:
        raise ValueError(f"line boundary {other[0]!r} other than '\\n'")
    return text


def _value_row(text: str, m: int, width: int) -> list[float]:
    """The values of a row's value text, one finite float per token, when
    the row has ``width`` columns with its m index columns; else a
    ValueError that says what is wrong."""
    tokens = _one_line(text).split()
    if m + len(tokens) != width:
        raise ValueError(f"{m + len(tokens)} columns, expected {width}")
    row = list(map(float, tokens))
    if not all(map(math.isfinite, row)):
        raise ValueError("non-finite value")
    return row


def _read_header(header) -> tuple[CubeGrid, int]:
    """The grid a section header declares and its column count, checked
    against the ``columns`` line."""
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
    try:
        grid = CubeGrid(n, nodes, tuple(zip(flat[::2], flat[1::2])))
    except PreconditionError as exc:
        raise ParseError(f"line {lineno}: bounds: {exc}") from None
    columns = _columns(m)
    if "columns" in header and header["columns"][1] != columns:
        raise ParseError(f"line {header['columns'][0]}: columns do not match "
                         f"the n = {n} layout")
    return grid, len(columns)


def _row_count(text: str, start: int, lineno: int, rows: int) -> ParseError:
    """The refusal of a body, from offset ``start`` and line ``lineno``,
    that has not ``rows`` lines: at the line past the last node's row, or
    past the end of the text."""
    found = text.count("\n", start) + (not text.endswith("\n")) if start < len(text) else 0
    return ParseError(f"line {lineno + min(found, rows)}: {found} node rows, expected {rows}")


def _read_body(text: str, start: int, lineno: int, grid: CubeGrid, width: int) -> GridSection:
    """The body from offset ``start``, line ``lineno`` of the text: one row
    per node in C order, each its node's prefix "i1 ... im " and its value
    text.  It is split a block of ``_TEXT_BLOCK`` characters (ending at a
    "\\n") at a time, each block's lines checked against their nodes'
    prefixes, taken lazily in C order, and its value texts keyed by the row
    of their first copy; then each distinct value text is parsed once, in
    the order of its first row.  No Python statement runs per row, and the
    first line off the layout is refused before any value is parsed."""
    rows, body = grid.n_nodes, start
    # every row but the last ends in "\n" after at least one character, so
    # a header that claims more rows than the text can hold is refused
    # before a prefix is made or an array allocated
    if 2 * rows - 1 > len(text) - start:
        raise _row_count(text, body, lineno, rows)
    prefixes = map("".join, itertools.product(*_row_parts(grid.nodes, grid.m)))
    ids: dict[str, int] = {}  # value text -> the row of its first copy
    first = np.empty(rows, np.intp)
    done = 0
    while start < len(text):
        # a block ends at a "\n", or at the end of the text
        end = text.find("\n", min(start + _TEXT_BLOCK, len(text) - 1))
        end = len(text) if end < 0 else end
        lines = text[start:end].split("\n")
        block = list(itertools.islice(prefixes, len(lines)))
        if not all(map(str.startswith, lines, block)):
            bad = next(k for k, (line, prefix) in enumerate(zip(lines, block))
                       if not line.startswith(prefix))
            node = tuple(map(int, np.unravel_index(done + bad, grid.shape)))
            raise ParseError(f"line {lineno + done + bad}: expected the row of node {node}, "
                             f"starting {block[bad]!r}")
        if len(block) < len(lines):
            raise _row_count(text, body, lineno, rows)
        first[done:done + len(lines)] = np.fromiter(
            map(ids.setdefault, map(str.removeprefix, lines, block), itertools.count(done)),
            np.intp, len(lines))
        start, done = end + 1, done + len(lines)
    if done < rows:
        raise _row_count(text, body, lineno, rows)
    distinct = []
    for value_text, row in ids.items():
        try:
            distinct.append(_value_row(value_text, grid.m, width))
        except ValueError as exc:
            raise ParseError(f"line {lineno + row}: {exc}") from None
    # the first copies' rows increase in the order of the distinct texts
    order = np.empty(rows, dtype=np.intp)
    order[np.fromiter(ids.values(), np.intp, len(ids))] = np.arange(len(ids))
    # node k carries the value row distinct[order[first[k]]], gathered
    # straight into component planes
    planes = np.moveaxis(np.take(np.array(distinct, float).view(complex).T, order[first],
                                 axis=1).reshape((-1,) + grid.shape), 0, -1)
    return GridSection(grid, planes[..., :grid.m], planes[..., grid.m:])


def section_from_text(text: str) -> GridSection:
    """The section ``text`` holds in the writer's layout.  The header is
    read a line at a time: comments and blank lines are skipped, and each
    key may come once, in any order.  The first other line starts the body,
    which ``_read_body`` reads.  A line holding a line boundary other than
    "\\n" is refused at that line."""
    header: dict[str, tuple[int, list[str]]] = {}
    start, lineno = 0, 1
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        try:
            line = _one_line(text[start:end]).strip()
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if line and not line.startswith("#"):
            key = line.split(None, 1)[0] if line[0].isalpha() else None
            if key not in _HEADER_KEYS:
                break
            if key in header:
                raise ParseError(f"line {lineno}: repeated header key {key!r}")
            header[key] = (lineno, line.split()[1:])
        start, lineno = end + 1, lineno + 1
    return _read_body(text, start, lineno, *_read_header(header))


def save_section(section: GridSection, path: str | Path) -> None:
    Path(path).write_text(section_to_text(section))


def load_section(path: str | Path) -> GridSection:
    try:
        return section_from_text(Path(path).read_text())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- solver dumps -----------------------------------------------------------


def dump_ci_result(result: CIResult, outdir: str | Path) -> list[Path]:
    """Write meta.json, input.txt and output.txt: the homotopy is a
    function of its two endpoints and the strips in meta.json, so no frame
    is built or written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta_path, inp_path, out_path = (outdir / name
                                     for name in ("meta.json", "input.txt", "output.txt"))
    meta_path.write_text(json.dumps(result.meta(), indent=2) + "\n")
    save_section(result.input, inp_path)
    save_section(result.output, out_path)
    return [meta_path, inp_path, out_path]


def save_report(report: VerificationReport, path: str | Path) -> None:
    Path(path).write_text(report.to_text() + "\n")
