"""The exact benchmark workloads give their pinned seed-1 digests.

``bench/run.py`` hashes the results of each workload's first
``digest_ops`` operations; a change that moves an exact result moves the
digest.  The two exact workloads are pinned here.  ``grid-solve`` is left
out: its float results, and so its digest, depend on numpy's SIMD path.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {"exact-forms": "4cc1bab2b23c843c", "jet-slices": "97fa12e656f5b9ca"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_an_exact_workload_keeps_its_seed_1_digest(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    try:
        from workloads import WORKLOADS

        wl_cls = WORKLOADS[name]
        wl = wl_cls(1, wl_cls.digest_ops)
        digest = hashlib.sha256()
        for k in range(wl.digest_ops):
            inp = wl.input(k)
            result = wl.run(inp)
            assert wl.check(inp, result), f"{name} operation {k}"
            digest.update(wl.digest(inp, result))
        assert digest.hexdigest()[:16] == DIGESTS[name]
    finally:
        sys.modules.pop("workloads", None)
