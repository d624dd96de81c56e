"""Every ``functools`` cache in the package states a finite ``maxsize``, so no
cache can grow a long run's memory without limit."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contactkit"
CACHES = ("lru_cache", "cache")


def cache_sites(tree):
    """Each use of ``functools.lru_cache`` or ``functools.cache`` in
    ``tree``, under any import name: ``(line, name, call)``, with ``call``
    the ``ast.Call`` that configures it, or None for a bare use."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in CACHES)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases:
            name = aliases[node.id]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            name = node.attr
        else:
            continue
        yield node.lineno, name, calls.get(id(node))


def unsized(source: str) -> list[int]:
    """The lines of ``source`` whose cache states no finite int ``maxsize``:
    ``functools.cache``, ``maxsize=None`` and a bare ``lru_cache``, whose
    default size is not written where the cache is."""
    bad = []
    for line, name, call in cache_sites(ast.parse(source)):
        size = None
        if name == "lru_cache" and call is not None:
            size = next((k.value for k in call.keywords if k.arg == "maxsize"),
                        call.args[0] if call.args else None)
        if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
            bad.append(line)
    return bad


@pytest.mark.parametrize("source", [
    "import functools\n@functools.cache\ndef f(x): pass",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass",
    "from functools import lru_cache\n@lru_cache(None)\ndef f(x): pass",
    "from functools import lru_cache as memo\n@memo\ndef f(x): pass",
    "import functools\ng = functools.lru_cache(maxsize=SIZE)(len)",
    "from functools import cache\ng = cache(len)",
])
def test_a_cache_without_a_stated_size_is_found(source):
    assert unsized(source) == [2]


def test_a_bounded_cache_passes():
    assert unsized("import functools\n@functools.lru_cache(maxsize=64)\ndef f(x): pass\n"
                     "from functools import lru_cache\n@lru_cache(8)\ndef g(x): pass") == []


def test_every_cache_in_the_package_is_bounded():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        found[path.name] = len(list(cache_sites(ast.parse(source))))
        assert unsized(source) == [], path.name
    # the detector sees the caches the package has
    assert found["contact.py"] >= 2 and found["coefficients.py"] >= 1 and found["forms.py"] >= 1
