"""Command-line entry point.

Subcommands map one-to-one onto the package's verification surfaces:

  verify     contact identity of a single form at seeded sample points
  formal     formal-pair nondegeneracy
  ample      slice classification of random jets, with membership checks
  extend     flat extension off the real slice and its residual orders
  integrate  convex integration on a built-in demo input
  gallery    every catalogued identity
  fit        holomorphic least squares against a sampled form

Forms are given as gallery names (std, circle:k, sigma:t, torus:k,l,m,
prime) or paths to form documents.  Every run is reproducible from its
arguments; reports are printed to stdout and, with --out, written to
files.  Exit status 0 means the underlying verification passed.
"""

from __future__ import annotations

import argparse
import sys
from argparse import Namespace
from pathlib import Path

from .ci import (ci_solve, demo_flat_section, demo_gamma_section,
                 demo_holonomic_section, verify_ci)
from .contact import FormalPair, is_contact_on, is_formal_contact_on
from .errors import ContactKitError, DimensionError, PreconditionError
from .extend import ah_pullback_verify, dbar_defect, extend_form, fit_holomorphic
from .formats import dump_ci_result, load_form, save_report
from .forms import Form, Point, ext_d
from .gallery import covering_map, gallery_verify_all, named_form, rotation_automorphism
from .jets import RestrictedJet, ampleness_slice, relation_value
from .reports import VerificationReport, fmt_num
from .sampling import exact_points, random_jet
from .scalars import QC

DEMOS = {
    "flat": demo_flat_section,
    "holonomic": demo_holonomic_section,
    "gamma": demo_gamma_section,
}


# flag -> add_argument keywords; every subcommand also takes --out
OPTIONS = {
    "form": {"help": "gallery name or form document path"},
    "beta": {"help": "2-form document path or gallery name"},
    "map": {"help": "named pullback map: covering or rotation"},
    "n": {"type": int, "default": 1},
    "grid": {"type": int, "default": 33},
    "eps": {"type": float, "default": 0.5},
    "delta": {"type": float, "default": 1e-3},
    "tol": {"type": float, "default": 1e-9},
    "seed": {"type": int, "default": 0},
    "sweeps": {"type": int, "default": 8},
    "degree": {"type": int, "default": 2},
    "samples": {"type": int, "default": 100},
    "demo": {"choices": sorted(DEMOS), "default": "flat"},
    "out": {"help": "directory for report and dump files"},
    "verbose": {"action": "store_true"},
}


def _resolve_form(spec: str) -> Form:
    if Path(spec).exists():
        return load_form(spec)
    return named_form(spec)


def _resolve_map(spec: str):
    if spec == "covering":
        return covering_map()
    if spec == "rotation":
        return rotation_automorphism()
    raise ContactKitError(f"unknown map {spec!r} (available: covering, rotation)")


def _real_points(m: int, count: int, seed: int) -> list[Point]:
    return [Point(tuple(QC(v.re) for v in p.values))
            for p in exact_points(m, count, seed)]


# -- subcommands ------------------------------------------------------------


def cmd_verify(cfg: Namespace) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    return is_contact_on(alpha, pts, cfg.tol, verbose=cfg.verbose)


def cmd_formal(cfg: Namespace) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    beta = _resolve_form(cfg.beta) if cfg.beta else ext_d(alpha).pq_part(2, 0)
    pair = FormalPair(alpha, beta)
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    return is_formal_contact_on(pair, pts, cfg.tol, verbose=cfg.verbose)


def cmd_ample(cfg: Namespace) -> VerificationReport:
    import random

    if cfg.n < 0:
        raise DimensionError(f"ample needs n >= 0, got {cfg.n}")
    report = VerificationReport("ampleness of the contact relation")
    rng = random.Random(cfg.seed)
    m = 2 * cfg.n + 1
    for i in range(m):
        counts = {"empty": 0, "full": 0, "hyperplane": 0}
        consistent = True
        for _ in range(cfg.samples):
            jet = random_jet(cfg.n, rng)
            slc = ampleness_slice(RestrictedJet(jet, i))
            counts[slc.kind] += 1
            inside = slc.contains(jet.p[i])
            nonzero = not relation_value(jet).is_zero
            if inside != nonzero:
                consistent = False
        report.add(
            f"row {i + 1}: slice membership matches relation values", consistent,
            f"{cfg.samples} jets: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return report


def cmd_extend(cfg: Namespace) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    report = VerificationReport("flat extension off the real slice")
    coeffs = [alpha.coeff((i,)) for i in range(alpha.m)]
    ext = extend_form(coeffs, cfg.degree)
    pts = _real_points(alpha.m, cfg.samples, cfg.seed)
    at_order = dbar_defect(ext, pts, cfg.degree)
    above = dbar_defect(ext, pts, cfg.degree + 1)
    report.add_bound(f"antiholomorphic defect at order {cfg.degree}", at_order, cfg.tol)
    report.add(f"defect at order {cfg.degree + 1} (informational)", True,
               fmt_num(above))
    if cfg.map:
        ah = ah_pullback_verify(_resolve_map(cfg.map), alpha, pts, max(cfg.tol, 1e-8))
        for check in ah.checks:
            report.add(f"pullback under {cfg.map}: {check.name}", check.passed, check.detail)
    return report


def cmd_integrate(cfg: Namespace) -> VerificationReport:
    section, gamma = DEMOS[cfg.demo](cfg.grid)
    result = ci_solve(section, gamma, cfg.eps, cfg.delta, cfg.sweeps)
    # the verifier certifies the homotopy from its two endpoints and builds
    # no frame; the dump writes only the endpoints
    report = verify_ci(result, section, cfg.eps, cfg.delta)
    report.add("solver summary", result.passed,
               f"margin={fmt_num(result.margin)} deviation={fmt_num(result.deviation)} "
               f"rung={result.rung} sweeps={len(result.sweep_frequencies)}")
    if cfg.out:
        dump_ci_result(result, Path(cfg.out) / "result")
    return report


def cmd_gallery(cfg: Namespace) -> VerificationReport:
    return gallery_verify_all(cfg.form, seed=cfg.seed)


def cmd_fit(cfg: Namespace) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    rows = [alpha.covector_at(p) for p in pts]
    fit = fit_holomorphic(pts, rows, cfg.degree)
    report = VerificationReport("holomorphic fit")
    report.add_bound("fit residual", fit.residual, cfg.tol)
    report.add("fit summary", True, fit.summary())
    return report


# name -> (handler, help, flags, run-configuration keys); the flags are
# added in OPTIONS order, and run appends the configuration line
COMMANDS = {
    "verify": (cmd_verify, "check the contact identity of a form",
               "form samples seed tol verbose", "form samples seed tol"),
    "formal": (cmd_formal, "check a formal pair",
               "form beta samples seed tol verbose", "form beta samples seed tol"),
    "ample": (cmd_ample, "classify relation slices of random jets",
              "n samples seed", "n samples seed"),
    "extend": (cmd_extend, "extend real-slice data and measure its residual",
               "form map degree samples seed tol", "form degree samples seed tol"),
    "integrate": (cmd_integrate, "run convex integration on a built-in demo",
                  "grid eps delta sweeps demo", "demo grid eps delta sweeps"),
    "gallery": (cmd_gallery, "verify the catalog of closed-form identities",
                "form seed", "seed"),
    "fit": (cmd_fit, "fit a holomorphic polynomial form to samples",
            "form degree samples seed tol", "form degree samples seed tol"),
}


def run(cfg: Namespace) -> int:
    handler, _, _, config_keys = COMMANDS[cfg.command]
    try:
        if getattr(cfg, "samples", 0) < 0:
            raise PreconditionError(f"--samples must be >= 0, got {cfg.samples}")
        report = handler(cfg)
    except ContactKitError as exc:
        report = VerificationReport(cfg.command)
        report.add("precondition", False, str(exc))
        print(report.to_text())
        return 1
    report.add("run configuration", True,
               " ".join(f"{k}={getattr(cfg, k)}" for k in config_keys.split()))
    print(report.to_text())
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        save_report(report, outdir / f"{cfg.command}_report.txt")
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactkit",
        description="verification tools for complex contact structures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in OPTIONS.items():
            if flag in flags.split() or flag == "out":
                p.add_argument(f"--{flag}", **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
