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
from dataclasses import dataclass, replace
from pathlib import Path

from .ci import (ci_solve, demo_flat_section, demo_gamma_section,
                 demo_holonomic_section, verify_ci)
from .contact import FormalPair, is_contact_on, is_formal_contact_on
from .errors import ContactKitError, DimensionError, PreconditionError
from .extend import dbar_defect, extend_form, fit_holomorphic
from .formats import dump_ci_result, load_form, save_report
from .forms import Form, Point, ext_d
from .gallery import gallery_verify_all, named_form
from .jets import RestrictedJet, ampleness_slice, relation_value
from .reports import VerificationReport, fmt_num
from .sampling import exact_points, random_jet
from .scalars import QC

DEMOS = {
    "flat": demo_flat_section,
    "holonomic": demo_holonomic_section,
    "gamma": demo_gamma_section,
}


@dataclass
class RunConfig:
    command: str
    form: str | None = None
    beta: str | None = None
    map: str | None = None
    n: int = 1
    grid: int = 33
    eps: float = 0.5
    delta: float = 1e-3
    tol: float = 1e-9
    seed: int = 0
    sweeps: int = 8
    out: str | None = None
    degree: int = 2
    samples: int = 100
    demo: str = "flat"
    verbose: bool = False


def _resolve_form(spec: str) -> Form:
    if Path(spec).exists():
        return load_form(spec)
    return named_form(spec)


def _resolve_map(spec: str):
    from .gallery import covering_map, rotation_automorphism

    if spec == "covering":
        return covering_map()
    if spec == "rotation":
        return rotation_automorphism()
    raise ContactKitError(f"unknown map {spec!r} (available: covering, rotation)")


def _config_line(report: VerificationReport, cfg: RunConfig, keys: list[str]) -> None:
    detail = " ".join(f"{k}={getattr(cfg, k)}" for k in keys)
    report.add("run configuration", True, detail)


def _real_points(m: int, count: int, seed: int) -> list[Point]:
    return [Point(tuple(QC(v.re) for v in p.values))
            for p in exact_points(m, count, seed)]


# -- subcommands ------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    report = is_contact_on(alpha, pts, cfg.tol, verbose=cfg.verbose)
    _config_line(report, cfg, ["form", "samples", "seed", "tol"])
    return report


def cmd_formal(cfg: RunConfig) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    beta = _resolve_form(cfg.beta) if cfg.beta else ext_d(alpha).pq_part(2, 0)
    pair = FormalPair(alpha, beta)
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    report = is_formal_contact_on(pair, pts, cfg.tol, verbose=cfg.verbose)
    _config_line(report, cfg, ["form", "beta", "samples", "seed", "tol"])
    return report


def cmd_ample(cfg: RunConfig) -> VerificationReport:
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
    _config_line(report, cfg, ["n", "samples", "seed"])
    return report


def cmd_extend(cfg: RunConfig) -> VerificationReport:
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
        from .extend import ah_pullback_verify

        ah = ah_pullback_verify(_resolve_map(cfg.map), alpha, pts, max(cfg.tol, 1e-8))
        detail = (f"max dbar a={fmt_num(ah.max_dbar_a)} max b={fmt_num(ah.max_b)} "
                  f"max db={fmt_num(ah.max_db)}")
        if ah.precondition_note:
            detail += f"; {ah.precondition_note}"
        report.add(f"pullback under {cfg.map} stays asymptotically holomorphic",
                   ah.passed, detail)
    _config_line(report, cfg, ["form", "degree", "samples", "seed", "tol"])
    return report


def cmd_integrate(cfg: RunConfig) -> tuple[VerificationReport, object]:
    section, gamma = DEMOS[cfg.demo](cfg.grid)
    result = ci_solve(section, gamma, cfg.eps, cfg.delta, cfg.sweeps)
    if cfg.out:
        # the verifier and the dump read the same frames: build them once
        result = replace(result, frames=list(result.frames))
    report = verify_ci(result, section, cfg.eps, cfg.delta)
    report.add("solver summary", result.passed,
               f"margin={fmt_num(result.margin)} deviation={fmt_num(result.deviation)} "
               f"rung={result.rung} sweeps={len(result.sweep_frequencies)}")
    _config_line(report, cfg, ["demo", "grid", "eps", "delta", "sweeps"])
    return report, result


def cmd_gallery(cfg: RunConfig) -> VerificationReport:
    report = gallery_verify_all(cfg.form, seed=cfg.seed)
    _config_line(report, cfg, ["seed"])
    return report


def cmd_fit(cfg: RunConfig) -> VerificationReport:
    alpha = _resolve_form(cfg.form or "std")
    pts = exact_points(alpha.m, cfg.samples, cfg.seed)
    rows = [alpha.covector_at(p) for p in pts]
    fit = fit_holomorphic(pts, rows, cfg.degree)
    report = VerificationReport("holomorphic fit")
    report.add_bound("fit residual", fit.residual, cfg.tol)
    report.add("fit summary", True, fit.summary())
    _config_line(report, cfg, ["form", "degree", "samples", "seed", "tol"])
    return report


def run(cfg: RunConfig) -> int:
    try:
        if cfg.samples < 0:
            raise PreconditionError(f"--samples must be >= 0, got {cfg.samples}")
        result = None
        if cfg.command == "integrate":
            report, result = cmd_integrate(cfg)
        else:
            report = {
                "verify": cmd_verify,
                "formal": cmd_formal,
                "ample": cmd_ample,
                "extend": cmd_extend,
                "gallery": cmd_gallery,
                "fit": cmd_fit,
            }[cfg.command](cfg)
    except ContactKitError as exc:
        report = VerificationReport(cfg.command)
        report.add("precondition", False, str(exc))
        print(report.to_text())
        return 1
    print(report.to_text())
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        save_report(report, outdir / f"{cfg.command}_report.txt")
        if result is not None:
            dump_ci_result(result, outdir / "frames")
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactkit",
        description="verification tools for complex contact structures")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig("_")

    # flag -> add_argument keywords; every subcommand also takes --out
    options = {
        "form": {"help": "gallery name or form document path"},
        "beta": {"help": "2-form document path or gallery name"},
        "map": {"help": "named pullback map: covering or rotation"},
        "n": {"type": int, "default": defaults.n},
        "grid": {"type": int, "default": defaults.grid},
        "eps": {"type": float, "default": defaults.eps},
        "delta": {"type": float, "default": defaults.delta},
        "tol": {"type": float, "default": defaults.tol},
        "seed": {"type": int, "default": defaults.seed},
        "sweeps": {"type": int, "default": defaults.sweeps},
        "degree": {"type": int, "default": defaults.degree},
        "samples": {"type": int, "default": defaults.samples},
        "demo": {"choices": sorted(DEMOS), "default": defaults.demo},
        "out": {"help": "directory for report and dump files"},
        "verbose": {"action": "store_true"},
    }

    def add(name: str, help_text: str, flags: list[str]) -> None:
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            if flag in flags or flag == "out":
                p.add_argument(f"--{flag}", **keywords)

    add("verify", "check the contact identity of a form",
        ["form", "samples", "seed", "tol", "verbose"])
    add("formal", "check a formal pair", ["form", "beta", "samples", "seed", "tol", "verbose"])
    add("ample", "classify relation slices of random jets", ["n", "samples", "seed"])
    add("extend", "extend real-slice data and measure its residual",
        ["form", "map", "degree", "samples", "seed", "tol"])
    add("integrate", "run convex integration on a built-in demo",
        ["grid", "eps", "delta", "sweeps", "demo"])
    add("gallery", "verify the catalog of closed-form identities", ["form", "seed"])
    add("fit", "fit a holomorphic polynomial form to samples",
        ["form", "degree", "samples", "seed", "tol"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    fields = {k: v for k, v in vars(args).items() if v is not None}
    cfg = RunConfig(**fields)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
