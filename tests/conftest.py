"""Pin the BLAS thread pools to one thread before numpy loads.

On a small shared machine a multi-threaded first ``lstsq`` call can take
a second instead of tens of milliseconds, which hides real timing changes
in the acceptance criteria.  ``bench/run.py`` pins the same variables.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "its thread pools")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
