"""Deterministic reports and number rendering."""

from contactkit.reports import VerificationReport, fmt_num


def test_report_repr_counts_checks_and_states_the_verdict():
    report = VerificationReport("title")
    assert repr(report) == "VerificationReport('title', 0 checks, ok)"
    report.add("a", True)
    assert repr(report) == "VerificationReport('title', 1 checks, ok)"
    report.add("b", False)
    assert repr(report) == "VerificationReport('title', 2 checks, failed)"


def test_fmt_num_is_the_float_repr():
    """Every caller passes a Python float; its repr reads back exactly."""
    for x in (0.0, -0.0, 1e-09, 0.1 + 0.2, 1.5e300, float("inf")):
        assert fmt_num(x) == repr(x)
        assert float(fmt_num(x)) == x
