"""File formats: form documents, sampled-section tables, solver dumps.

Forms travel as JSON with exact rational coefficient parts, so the
Laurent variant round-trips losslessly.  Sampled sections are columnar
text, one node per row, with a header declaring the mesh; float columns
use repr, which round-trips binary-exactly.  A section is written as one
(nodes x columns) table and read row by row in file order, each distinct
row of values formatted or parsed once, and a malformed body is reported
at its first bad line; a body in the writer's own layout is read without a
Python statement per row.  Solver results dump as a metadata document plus
one columnar file per homotopy frame.
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


def _node_prefixes(nodes: int, m: int) -> list[str]:
    """Each node's row prefix "i1 ... im ", in C order: the rows' order."""
    return list(map("".join, itertools.product(*_row_parts(nodes, m))))


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
    values = table.view(float)
    width = values.shape[1]
    # one bytes key per row, so -0.0 stays apart from 0.0; the sections
    # written here repeat few distinct rows, and each is formatted once
    keys = values.view(np.dtype((np.void, width * 8))).ravel().tolist()
    del table, values
    unpack = struct.Struct(f"{width}d").unpack  # native doubles, as the table held them
    texts = {key: " ".join(map(repr, unpack(key))) + "\n" for key in dict.fromkeys(keys)}
    # the keys go before the text is built
    row_texts = list(map(texts.__getitem__, keys))
    del keys
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


def _value_row(text: str, distinct: list) -> tuple[int, int | str]:
    """The token count of a value text and, when its tokens are finite
    floats, the id of its row, appended to ``distinct``; else the error."""
    tokens = text.split()
    try:
        row = list(map(float, tokens))
    except ValueError as exc:
        return len(tokens), str(exc)
    if not all(map(math.isfinite, row)):
        return len(tokens), "non-finite value"
    distinct.append(row)
    return len(tokens), len(distinct) - 1


def _read_rows(body, width: int, m: int, nodes: int):
    """Read the body row by row, in file order: its distinct value rows and
    each node's row.  Each row splits once into its m index tokens and its
    value text, and each distinct value text is parsed once; the first bad
    row raises its ParseError."""
    texts: dict[str, tuple[int, int | str]] = {}  # value text -> _value_row's answer
    distinct: list[list[float]] = []
    which: dict[tuple[int, ...], int] = {}  # node -> the id of its value row
    for lineno, line in body:
        index = line.split(None, m)
        text = index.pop() if len(index) > m else ""
        if text not in texts:
            texts[text] = _value_row(text, distinct)
        count, row = texts[text]
        if len(index) + count != width:
            raise ParseError(f"line {lineno}: {len(index) + count} columns, expected {width}")
        try:
            node = tuple(map(int, index))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if type(row) is str:
            raise ParseError(f"line {lineno}: {row}")
        if min(node) < 0 or max(node) >= nodes:
            raise ParseError(f"line {lineno}: node index {node} out of range")
        if node in which:
            raise ParseError(f"line {lineno}: duplicate row for node {node}")
        which[node] = row
    # nodes ** m rows, all in range and none repeated: every node is present
    flat = np.ravel_multi_index(np.array(list(which), np.intp).T, (nodes,) * m)
    order = np.empty(len(which), dtype=np.intp)
    order[flat] = list(which.values())
    return np.array(distinct, float), order


def _read_header(header, rows: int) -> tuple[CubeGrid, int]:
    """The grid a section header declares and its column count, checked
    against the number of body ``rows`` and the ``columns`` line."""
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
    # checked before allocating: a huge node count must not reach np.empty
    if rows != grid.n_nodes:
        raise ParseError(f"{rows} node rows, expected {grid.n_nodes}")
    columns = _columns(m)
    if "columns" in header and header["columns"][1] != columns:
        raise ParseError(f"line {header['columns'][0]}: columns do not match "
                         f"the n = {n} layout")
    return grid, len(columns)


def _canonical_section(text: str, body: list[str], header) -> GridSection | None:
    """The section of ``text`` when its header is valid and its ``body`` is
    in the writer's index layout (per node in C order, its prefix "i1 ...
    im ", "\\n" line ends) and its values parse, else None.  Each distinct
    value text is parsed once, by the general path's ``_value_row``; no
    Python statement runs per row, and a text with a "\r" is refused first."""
    if "\r" in text:
        return None
    try:
        grid, width = _read_header(header, len(body))
    except ParseError:
        return None
    prefixes = _node_prefixes(grid.nodes, grid.m)
    if not all(map(str.startswith, body, prefixes)):
        return None
    ids: dict[str, int] = {}  # value text -> the row of its first copy
    first = np.fromiter(map(ids.setdefault, map(str.removeprefix, body, prefixes),
                            itertools.count()), np.intp, len(body))
    distinct: list[list[float]] = []
    for value_text in ids:
        count, row = _value_row(value_text, distinct)
        if count != width - grid.m or type(row) is str:
            return None
    # the first copies' rows increase in the order of the distinct texts
    order = np.empty(len(body), dtype=np.intp)
    order[np.fromiter(ids.values(), np.intp, len(ids))] = np.arange(len(ids))
    return _section(grid, np.array(distinct, float), order[first])


def _section(grid: CubeGrid, distinct: np.ndarray, order: np.ndarray) -> GridSection:
    """The section whose node k carries the value row distinct[order[k]],
    gathered straight into component planes."""
    planes = np.moveaxis(np.take(distinct.view(complex).T, order, axis=1).reshape(
        (-1,) + grid.shape), 0, -1)
    return GridSection(grid, planes[..., :grid.m], planes[..., grid.m:])


def section_from_text(text: str) -> GridSection:
    lines = text.splitlines()
    header: dict[str, tuple[int, list[str]]] = {}
    body = []  # (line number, stripped text) per body line
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # header keys begin with a letter, body lines with a node index
        key = line.split(None, 1)[0] if line[0].isalpha() else None
        if key in ("n", "nodes", "bounds", "columns"):
            if key in header:
                raise ParseError(f"line {lineno}: repeated header key {key!r}")
            header[key] = (lineno, line.split()[1:])
            continue
        if not body and (section := _canonical_section(text, lines[lineno - 1:], header)):
            return section
        body.append((lineno, line))
    grid, width = _read_header(header, len(body))
    return _section(grid, *_read_rows(body, width, grid.m, grid.nodes))


def save_section(section: GridSection, path: str | Path) -> None:
    Path(path).write_text(section_to_text(section))


def load_section(path: str | Path) -> GridSection:
    try:
        return section_from_text(Path(path).read_text())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- solver dumps -----------------------------------------------------------


def dump_ci_result(result: CIResult, outdir: str | Path) -> list[Path]:
    """Write meta.json plus frame_0000 ... frame_NNNN columnar files, each
    frame read by index and let go before the next one is built."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    meta_path = outdir / "meta.json"
    meta_path.write_text(json.dumps(result.meta(), indent=2) + "\n")
    written.append(meta_path)
    digits = max(4, int(math.log10(max(1, len(result.frames) - 1))) + 1)
    for k in range(len(result.frames)):
        path = outdir / f"frame_{k:0{digits}d}.txt"
        save_section(result.frames[k], path)
        written.append(path)
    return written


def save_report(report: VerificationReport, path: str | Path) -> None:
    Path(path).write_text(report.to_text() + "\n")
