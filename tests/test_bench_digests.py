"""The exact benchmark workloads give their pinned seed-1 and seed-13 digests.

``bench/run.py`` hashes the results of each workload's first
``digest_ops`` operations; a change that moves an exact result moves the
digest.  The two exact workloads are pinned here on both seeds.
``grid-solve`` is left out: its float results, and so its digest, depend
on numpy's SIMD path.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {"exact-forms": "4cc1bab2b23c843c", "jet-slices": "97fa12e656f5b9ca"}
DIGESTS_SEED_13 = {"exact-forms": "a39446834cc62a3d", "jet-slices": "73270a3ea6dff2d9"}


def workload_digest(name, seed, monkeypatch) -> str:
    """The digest ``bench/run.py`` prints for ``name`` on ``seed``, with
    every operation's own check passing; ``bench/`` is imported read-only."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    try:
        from workloads import WORKLOADS

        wl_cls = WORKLOADS[name]
        wl = wl_cls(seed, wl_cls.digest_ops)
        digest = hashlib.sha256()
        for k in range(wl.digest_ops):
            inp = wl.input(k)
            result = wl.run(inp)
            assert wl.check(inp, result), f"{name} operation {k}"
            digest.update(wl.digest(inp, result))
        return digest.hexdigest()[:16]
    finally:
        sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_an_exact_workload_keeps_its_seed_1_digest(name, monkeypatch):
    assert workload_digest(name, 1, monkeypatch) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS_SEED_13))
def test_an_exact_workload_keeps_its_seed_13_digest(name, monkeypatch):
    assert workload_digest(name, 13, monkeypatch) == DIGESTS_SEED_13[name]
