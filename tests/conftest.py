"""Pin the BLAS thread pools to one thread before numpy loads, and draw
the same hypothesis examples on every run.

On a small shared machine a multi-threaded first ``lstsq`` call can take
a second instead of tens of milliseconds, which hides real timing changes
in the acceptance criteria.  ``bench/run.py`` pins the same variables.
With a derandomized profile and no example database, two checkouts run
the same examples, so their tier-1 results compare one to one.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "its thread pools")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402  (after the pinning above)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
