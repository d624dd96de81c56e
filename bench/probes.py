"""The probes of the traced run and the per-layer metrics built from them.

Layers are the package's modules.  ``QC`` arithmetic is counted only,
``LaurentPoly`` methods are counted and timed without span records, and
every public function above them records a span.  Self time excludes the
time of nested timed probes and spans, so ``ci.ci_solve.self_s`` excludes
its ``jets`` children and ``contact.pfaffian_coeffs.self_s`` includes the
``QC`` arithmetic it performs.
"""

from __future__ import annotations

import random
import statistics
import time

from tracer import Probe

QC = "contactkit.scalars:QC"
POLY = "contactkit.coefficients:LaurentPoly"


PROBES = [
    Probe("scalars.mul", QC, ("__mul__", "__rmul__"), "count"),
    Probe("scalars.add", QC, ("__add__", "__radd__", "__sub__", "__rsub__"), "count"),
    Probe("scalars.inv", QC, ("inverse",), "count"),
    # LaurentPoly subtraction delegates to __add__, which counts it
    Probe("coefficients.mul", POLY, ("__mul__", "__rmul__"), "timed"),
    Probe("coefficients.add", POLY, ("__add__", "__radd__"), "timed"),
    Probe("coefficients.substitute", POLY, ("substitute",), "timed"),
    Probe("coefficients.eval", POLY, ("eval",), "timed"),
    Probe("coefficients.diff", POLY, ("diff_z", "diff_zbar"), "timed"),
    Probe("forms.wedge", "contactkit.forms", ("wedge",)),
    Probe("forms.ext_d", "contactkit.forms", ("ext_d",)),
    Probe("forms.pullback", "contactkit.forms", ("pullback",)),
    Probe("forms.eq", "contactkit.forms:Form", ("__eq__",)),
    Probe("contact.pfaffian_coeffs", "contactkit.contact", ("pfaffian_coeffs",)),
    Probe("contact.relation_coefficient", "contactkit.contact", ("relation_coefficient",)),
    Probe("contact.contact_defect", "contactkit.contact", ("contact_defect",)),
    Probe("jets.relation_value", "contactkit.jets", ("relation_value",),
          namer=lambda a, r: f"jets.relation_value.n{a[0].n}"),
    Probe("jets.ampleness_slice", "contactkit.jets", ("ampleness_slice",),
          namer=lambda a, r: f"jets.ampleness_slice.n{a[0].jet.n}"),
    Probe("jets.relation_grid", "contactkit.jets", ("relation_grid",),
          size=lambda a, r: r.size),
    Probe("jets.grid_jacobian", "contactkit.jets", ("grid_jacobian",)),
    Probe("jets.holonomy_defect", "contactkit.jets", ("holonomy_defect",)),
    Probe("ci.ci_solve", "contactkit.ci", ("ci_solve",)),
    Probe("ci.verify_ci", "contactkit.ci", ("verify_ci",)),
    Probe("ci.loop_for_target", "contactkit.ci", ("loop_for_target",)),
    Probe("formats.write", "contactkit.formats", ("section_to_text",),
          size=lambda a, r: len(r)),
    Probe("formats.read", "contactkit.formats", ("section_from_text",),
          size=lambda a, r: len(a[0])),
    Probe("extend.fit", "contactkit.extend", ("fit_holomorphic",),
          namer=lambda a, r: "extend.fit_exact" if r.exact else "extend.fit_float"),
    Probe("sampling", "contactkit.sampling", ("random_qc",), "timed"),
    Probe("sampling", "contactkit.sampling",
          ("random_jet", "exact_points", "numeric_points", "unit_modulus_values")),
]

CI_COUNTS = ("ci.rungs.attempted", "ci.rungs.useful", "ci.passes.attempted",
             "ci.passes.acted", "ci.refusals")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, layer_stats: dict) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Counts and self times are totals over the traced operations (reported
    as ``trace.ops``); a layer that was never called reads 0.
    """
    out: dict = {}
    for name in ("scalars.mul", "scalars.add", "scalars.inv"):
        out[f"{name}.calls"] = (tr.calls(name), "count")
    for name in ("coefficients.mul", "coefficients.add", "coefficients.substitute",
                 "coefficients.eval", "coefficients.diff", "forms.wedge", "forms.ext_d",
                 "forms.pullback", "forms.eq", "contact.pfaffian_coeffs",
                 "contact.relation_coefficient", "contact.contact_defect"):
        out[f"{name}.calls"] = (tr.calls(name), "count")
        out[f"{name}.self_s"] = (tr.self_s(name), "s")
    for fn in ("relation_value", "ampleness_slice"):
        names = [f"jets.{fn}.n{n}" for n in (1, 2, 3)]
        out[f"jets.{fn}.calls"] = (sum(tr.calls(x) for x in names), "count")
        for n, x in zip((1, 2, 3), names):
            out[f"jets.{fn}.n{n}.us"] = (1e6 * _ratio(tr.total_s(x), tr.calls(x)), "us")
    out["jets.relation_grid.calls"] = (tr.calls("jets.relation_grid"), "count")
    out["jets.relation_grid.self_s"] = (tr.self_s("jets.relation_grid"), "s")
    out["jets.relation_grid.ns_per_node"] = (
        1e9 * _ratio(tr.self_s("jets.relation_grid"), tr.size("jets.relation_grid")), "ns")
    for name in ("jets.grid_jacobian", "jets.holonomy_defect"):
        out[f"{name}.calls"] = (tr.calls(name), "count")
        out[f"{name}.self_s"] = (tr.self_s(name), "s")
    for name in ("ci.ci_solve", "ci.verify_ci", "ci.loop_for_target"):
        out[f"{name}.self_s"] = (tr.self_s(name), "s")
    for name in CI_COUNTS:
        out[name] = (layer_stats.get(name, 0), "count")
    out["ci.rung_yield"] = (_ratio(layer_stats.get("ci.rungs.useful", 0),
                                   layer_stats.get("ci.rungs.attempted", 0)), "ratio")
    out["ci.pass_yield"] = (_ratio(layer_stats.get("ci.passes.acted", 0),
                                   layer_stats.get("ci.passes.attempted", 0)), "ratio")
    for name in ("formats.write", "formats.read"):
        secs, size = tr.self_s(name), tr.size(name)
        out[f"{name}.self_s"] = (secs, "s")
        out[f"{name}.bytes"] = (size, "B")
        out[f"{name}.mb_s"] = (_ratio(size / 1e6, secs), "MB/s")
    out["extend.fit_exact.self_s"] = (tr.self_s("extend.fit_exact"), "s")
    out["extend.fit_float.self_s"] = (tr.self_s("extend.fit_float"), "s")
    out["sampling.self_s"] = (tr.self_s("sampling"), "s")
    return out


def scalar_kernel(seed: int, calibrate, ref_ns: float, n_pairs: int = 4000,
                  repeats: int = 15) -> tuple:
    """ns per ``QC`` multiply and add over operand pairs drawn from the
    exact-forms and jet-slices inputs of this seed.

    Each timed pass is bracketed by calibration probes and scaled like the
    operations of an end-to-end run (``run.Loop``); the median pass counts,
    less the empty loop's.
    """
    from contactkit.forms import Form
    from workloads import ExactForms, JetSlices

    pool = []
    for inp in ExactForms(seed, 60).inputs:
        for form in inp[1]:
            if isinstance(form, Form):
                for coeff in form.terms.values():
                    pool.extend(coeff.terms.values())
    for jet, _, probe, _ in JetSlices(seed, 30).inputs:
        pool.extend(jet.a)
        pool.extend(v for row in jet.p for v in row)
        pool.extend(probe)
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(n_pairs)]

    def empty():
        for x, y in pairs:
            pass

    def mul():
        for x, y in pairs:
            x * y

    def add():
        for x, y in pairs:
            x + y

    timed = {body: [] for body in (empty, mul, add)}
    before = calibrate()
    for _ in range(repeats):
        for body, runs in timed.items():
            t0 = time.perf_counter_ns()
            body()
            dt = time.perf_counter_ns() - t0
            after = calibrate()
            runs.append((dt, (before + after) / 2))
            before = after
    def per_pair(body) -> float:
        return statistics.median(t * ref_ns / p for t, p in timed[body]) / n_pairs

    base = per_pair(empty)
    return (per_pair(mul) - base, "ns"), (per_pair(add) - base, "ns")
