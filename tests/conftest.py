"""Pin the BLAS thread pools to one thread before numpy loads, and draw
the same hypothesis examples on every run.

On a small shared machine a multi-threaded first ``lstsq`` call can take
a second instead of tens of milliseconds, which hides real timing changes
in the acceptance criteria.  ``bench/run.py`` pins the same variables.
With a derandomized profile and no example database, two checkouts run
the same examples, so their tier-1 results compare one to one.

``traced_peak`` is the memory tests' one tracemalloc reading, and
``class_tests`` the structural tests' one search for a test of a value's
class.
"""

import ast
import gc
import os
import sys
import tracemalloc

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "its thread pools")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402  (after the pinning above)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def traced_peak(fn, *args):
    """fn(*args) run under tracemalloc from a collected heap: its result,
    the peak of the memory traced while it ran, and the traced memory it
    still holds after a collection, both in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, peak, held


def _names(node, names) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))


def _called(node, functions) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in functions)


def class_tests(source: str, names) -> list[int]:
    """The lines of ``source`` that test a value's class against one of
    ``names``: an ``isinstance`` or ``issubclass`` whose classes name one,
    or a comparison of an operand that names ``type`` (``type(v)``,
    ``set(map(type, values))``) with an operand that names one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _called(node, ("isinstance", "issubclass")) and len(node.args) == 2:
            found = _names(node.args[1], names)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            types = [o for o in operands if _names(o, {"type"})]
            found = bool(types) and any(_names(o, names) for o in operands if o not in types)
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return sorted(lines)
