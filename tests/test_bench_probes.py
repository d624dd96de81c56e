"""The traced benchmark's probes name functions the package still has.

``bench/probes.py`` wraps package functions by name for the traced run of
``bench/run.py``; a probed name that is renamed or deleted would otherwise
fail only ``bench/smoke.py``.
"""

import sys
from pathlib import Path

import contactkit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    """Every name bound in a loaded package module or a probed class."""
    owners = [m for k, m in sys.modules.items() if k.startswith("contactkit") and m is not None]
    owners += [contactkit.QC, contactkit.LaurentPoly, contactkit.Form]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_probe_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    try:
        from probes import PROBES
        from tracer import Tracer

        before = _bindings()
        tracer = Tracer(PROBES)
        try:
            tracer.install()
            for probe in PROBES:
                mod_name, _, cls_name = probe.owner.partition(":")
                owner = sys.modules[mod_name]
                owner = getattr(owner, cls_name) if cls_name else owner
                for attr in probe.attrs:
                    key = (id(owner), attr)
                    assert vars(owner)[attr] is not before[key], f"{probe.owner}.{attr}"
        finally:
            tracer.uninstall()
        assert _bindings() == before
    finally:
        for name in ("probes", "tracer"):
            sys.modules.pop(name, None)
