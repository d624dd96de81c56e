"""Deterministic verification reports.

Every verifier in the package returns one of these instead of printing.
Rendering is byte-stable: floats go through repr, iteration order is the
insertion order of the checks, and no timestamps or environment data are
included, so equal inputs give equal report text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt_num(x: float) -> str:
    """Render a float deterministically: its repr, the shortest text that
    reads back to the same float."""
    return repr(x)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class VerificationReport:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(passed), detail))
        return bool(passed)

    def add_bound(self, name: str, value: float, bound: float) -> bool:
        """Record ``value <= bound`` with both numbers in the detail."""
        ok = value <= bound
        return self.add(name, ok, f"value={fmt_num(value)} bound={fmt_num(bound)}")

    def merge(self, other: "VerificationReport") -> None:
        self.checks.extend(Check(c.name, c.passed, c.detail) for c in other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        lines.extend(c.line() for c in self.checks)
        verdict = "OK" if self.passed else f"FAILED ({self.n_failed} of {len(self.checks)})"
        lines.append(f"result: {verdict}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        state = "ok" if self.passed else "failed"
        return f"VerificationReport({self.title!r}, {len(self.checks)} checks, {state})"
