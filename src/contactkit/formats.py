"""File formats: form documents, sampled-section tables, solver dumps.

Forms travel as JSON with exact rational coefficient parts, so the
Laurent variant round-trips losslessly.  Sampled sections are columnar
text, one node per row, with a header declaring the mesh; float columns
use repr, which round-trips binary-exactly.  Solver results dump as a
metadata document plus one columnar file per homotopy frame.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .ci import CIResult
from .coefficients import LaurentPoly, Monomial
from .errors import ParseError, VariantError
from .forms import Form, covector_index, covector_name
from .grids import MIN_NODES, CubeGrid, GridSection
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
        poly_terms = {}
        for jdx, entry in enumerate(raw_coeff):
            try:
                mono = Monomial(_exponents(entry["zexp"]), _exponents(entry["zbarexp"]))
                value = QC(_coefficient_part(entry["re"]), _coefficient_part(entry["im"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{where}.coeff[{jdx}]: {exc}") from None
            if len(mono.zexp) != m or len(mono.zbarexp) != m:
                raise ParseError(f"{where}.coeff[{jdx}]: exponent length != m")
            if not value.is_zero:
                poly_terms[mono] = value
        terms[word] = LaurentPoly(m, poly_terms)
    try:
        return Form(m, degree, terms)
    except Exception as exc:
        raise ParseError(f"inconsistent form document: {exc}") from None


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


def _upper_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _columns(m: int) -> list[str]:
    """Column names of a section row: node index, a, then upper beta."""
    cols = [f"i{k + 1}" for k in range(m)]
    cols += [f"a{k + 1}.{p}" for k in range(m) for p in ("re", "im")]
    return cols + [f"beta{i + 1}{j + 1}.{p}" for i, j in _upper_pairs(m) for p in ("re", "im")]


def section_to_text(section: GridSection) -> str:
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
        for i, j in pairs:
            v = section.beta[node + (i, j)]
            row += [repr(float(v.real)), repr(float(v.imag))]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _header_int(header, key: str, least: int) -> int:
    lineno, raw = header[key]
    try:
        (value,) = map(int, raw)
    except ValueError:
        value = least - 1
    if value < least:
        raise ParseError(f"line {lineno}: {key}: expected one integer >= {least}, got {' '.join(raw)!r}")
    return value


def section_from_text(text: str) -> GridSection:
    header: dict[str, tuple[int, list[str]]] = {}
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
    grid = CubeGrid(n, nodes, bounds)
    # checked before allocating: a huge node count must not reach np.zeros
    if len(rows) != grid.n_nodes:
        raise ParseError(f"{len(rows)} node rows, expected {grid.n_nodes}")
    columns = _columns(m)
    if "columns" in header and header["columns"][1] != columns:
        raise ParseError(f"line {header['columns'][0]}: columns do not match "
                         f"the n = {n} layout")
    pairs = _upper_pairs(m)
    width = len(columns)
    a = np.zeros(grid.shape + (m,), dtype=complex)
    beta = np.zeros(grid.shape + (m, m), dtype=complex)
    seen: set[tuple[int, ...]] = set()
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
        for (i, j), k in zip(pairs, range(len(pairs))):
            v = complex(vals[off + 2 * k], vals[off + 2 * k + 1])
            beta[node + (i, j)] = v
            beta[node + (j, i)] = -v
    # n_nodes rows, each in range and none repeated: every node is present
    return GridSection(grid, a, beta)


def save_section(section: GridSection, path: str | Path) -> None:
    Path(path).write_text(section_to_text(section))


def load_section(path: str | Path) -> GridSection:
    try:
        return section_from_text(Path(path).read_text())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- solver dumps -----------------------------------------------------------


def dump_ci_result(result: CIResult, outdir: str | Path) -> list[Path]:
    """Write meta.json plus frame_0000 ... frame_NNNN columnar files."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    meta_path = outdir / "meta.json"
    meta_path.write_text(json.dumps(result.meta(), indent=2) + "\n")
    written.append(meta_path)
    digits = max(4, int(math.log10(max(1, len(result.frames) - 1))) + 1)
    for k, frame in enumerate(result.frames):
        path = outdir / f"frame_{k:0{digits}d}.txt"
        save_section(frame, path)
        written.append(path)
    return written


def save_report(report: VerificationReport, path: str | Path) -> None:
    Path(path).write_text(report.to_text() + "\n")
