"""Out-of-package instrumentation for the traced benchmark run.

The tracer wraps public functions of ``contactkit`` from outside the
package.  A function is replaced at every name it is bound under in the
loaded ``contactkit`` modules, because callers look functions up under
their own module's name (``relation_value`` reaches the Pfaffian as
``contactkit.jets.pfaffian_coeffs``, and the solver reaches the relation as
``contactkit.ci.relation_grid``).  The benchmark's own files call the
package through module attributes, so they see the wrappers too.

Three kinds of probe keep the cost proportional to what is needed:

* ``span``: a recorded span (id, parent, name, operation, start, end) kept
  in memory and written as JSONL when the run ends.  Used above the
  scalar and coefficient level.
* ``timed``: call count plus self time, no record.  Used for
  ``LaurentPoly`` methods, which run hundreds of thousands of times.
* ``count``: call count only.  Used for ``QC`` arithmetic, which runs
  millions of times.

Self time of a probe is its duration minus the time covered by the timed
probes and spans nested directly inside it; counted-only calls stay in
their caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One instrumented function.

    ``owner`` is a module name or ``module:Class``; ``attrs`` the attribute
    names that hold the function (aliases such as ``__rmul__`` share one
    probe).  ``namer(args, result)`` may refine the metric name of a call;
    ``size(args, result)`` adds to a per-name quantity (bytes, nodes).
    """

    name: str
    owner: str
    attrs: tuple
    kind: str = "span"
    namer: Callable | None = None
    size: Callable | None = None


class _Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "size")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.size = 0


class Tracer:
    """Installs probes, collects spans and counters, restores on exit."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.op = -1
        # each open frame is [span id, child time in ns]
        self._stack: list[list] = [[None, 0]]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "contactkit" or k.startswith("contactkit.")) and m is not None]
        for probe in self.probes:
            mod_name, _, cls_name = probe.owner.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            originals = {}
            for attr in probe.attrs:
                fn = owner.__dict__[attr] if cls_name else getattr(owner, attr)
                if fn not in originals:
                    originals[fn] = self._wrap(probe, fn)
                self._set(owner, attr, originals[fn])
            if cls_name:
                continue
            # rebind every other module-level name that holds the function
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in originals:
                        self._set(mod, attr, originals[value])
        return self

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- probes ------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, probe: Probe, fn):
        if probe.kind == "count":
            st = self._stat(probe.name)

            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counted

        clock = time.perf_counter_ns
        stack = self._stack
        record = probe.kind == "span"
        namer, size = probe.namer, probe.size

        def timed(*args, **kwargs):
            frame = [None, 0]
            if record:
                self._next_id += 1
                frame[0] = self._next_id
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            dur = end - start
            parent[1] += dur
            name = namer(args, result) if namer else probe.name
            st = self._stat(name)
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - frame[1]
            if size:
                st.size += size(args, result)
            if record:
                self.spans.append((frame[0], parent[0], name, self.op, start, end))
            return result

        return timed

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_ns / 1e9 if st else 0.0

    def total_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total_ns / 1e9 if st else 0.0

    def size(self, name: str) -> int:
        st = self.stats.get(name)
        return st.size if st else 0

    def write_jsonl(self, path) -> None:
        """One line per span, then one line per counter."""
        with open(path, "w") as fh:
            for sid, parent, name, op, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "name": name,
                                     "op": op, "start_ns": start, "end_ns": end}) + "\n")
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({"counter": name, "calls": st.calls,
                                     "self_ns": st.self_ns, "size": st.size}) + "\n")
