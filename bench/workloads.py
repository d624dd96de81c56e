"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload owns a deterministic input stream: input ``k`` depends only
on the seed and ``k``, so two runs with one seed perform the same
operations in the same order.  Inputs for the expected length of a run are
generated during set-up; the stream extends itself from the same random
generator if a run outlasts them.

Library calls go through module attributes (``forms.wedge``, not a bare
``wedge``) so the traced run's wrappers see every call this file makes.

* ``exact-forms``: exact Laurent forms and polynomial maps on C^3 (shapes
  from a fixed stream, coefficients from the seed), one identity per
  operation (d d = 0, Leibniz, graded commutativity, pullback
  functoriality, contact scaling, exact degree-1 fit).  Time goes to
  ``scalars``, ``coefficients`` and ``forms``; ``jets`` and ``ci`` are
  never called.
* ``jet-slices``: exact jets at n = 1, 2, 3 in equal numbers; slice
  classification, membership against ``relation_value`` and the row's
  loop.  Time goes to ``contact.pfaffian_coeffs`` and ``scalars``;
  ``coefficients`` and ``forms`` are never called.
* ``grid-solve``: the solver demos at 25 and 33 nodes plus one coarse
  13-node ``gamma`` input per cycle, each solved, written, read back,
  verified and fitted.  Time goes to numpy; almost no ``QC`` arithmetic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
import time
from itertools import combinations

import numpy as np

from contactkit import ci, contact, extend, formats, forms, jets, sampling
from contactkit.coefficients import LaurentPoly, Monomial
from contactkit.errors import PreconditionError
from contactkit.scalars import QC

M = 3  # exact-forms lives on C^3, the n = 1 contact dimension
LOOP_DELTA = 1e-3
CI_EPS, CI_DELTA = 0.5, 1e-3
FIT_SAMPLES, FIT_DEGREE = 200, 2


class Workload:
    """Base class: a seeded input stream plus run / check / digest hooks.

    ``nominal_rate`` is the quiet baseline throughput in operations per
    second on the reference machine.  It sizes runs (a run of ``seconds``
    performs ``seconds * nominal_rate`` operations, in whole cycles), so it
    is a constant of the benchmark, not a measurement.
    """

    name = ""
    cycle_len = 1
    nominal_rate = 1.0
    digest_ops = 1

    def __init__(self, seed: int, n_ops: int):
        self.rng = random.Random(seed)
        self.inputs: list = []
        self.ensure(n_ops)

    def ensure(self, n_ops: int) -> None:
        while len(self.inputs) < n_ops:
            self.inputs.append(self.generate(len(self.inputs)))

    def input(self, k: int):
        self.ensure(k + 1)
        return self.inputs[k]

    def generate(self, k: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> bool:
        raise NotImplementedError

    def digest(self, inp, result) -> bytes:
        raise NotImplementedError

    def observe(self, inp, result, stats: dict) -> None:
        """Add per-operation layer counts to ``stats`` (optional)."""

    def interpreter_seconds(self, latency: float) -> float:
        """The part of the last operation's latency that ran as Python
        bytecode, and so slows down with the calibration probe; all of it
        unless the workload says otherwise."""
        return latency


# -- exact-forms ---------------------------------------------------------------


# The shapes of the exact-forms inputs (degrees, words, exponents, map
# structure) come from this fixed stream and the seed draws only their
# exact coefficients, so every seed runs the same mix of shapes.  Pullback
# cost is heavy-tailed in the shape: with shapes drawn from the seed, the
# tail latency spread by 30 % and throughput by 8 % between seeds.
SHAPE_SEED = 20181030


def _coeff(shape, value, allow_negative=False, max_exp=2) -> LaurentPoly:
    low = -max_exp if allow_negative else 0
    mono = Monomial(tuple(shape.randint(low, max_exp) for _ in range(M)),
                    tuple(shape.randint(0, 1) for _ in range(M)))
    c = sampling.random_qc(value)
    return LaurentPoly(M, {mono: c if not c.is_zero else QC(1)})


def _form(shape, value, degree, n_terms=3, allow_negative=False, max_exp=2) -> forms.Form:
    words = list(combinations(range(2 * M), degree))
    terms = {}
    for _ in range(shape.randint(1, n_terms)):
        w = words[shape.randrange(len(words))]
        c = _coeff(shape, value, allow_negative, max_exp)
        terms[w] = terms.get(w, LaurentPoly.zero(M)) + c
    return forms.Form(M, degree, terms)


def _poly_map(shape, value) -> forms.PolyMap:
    """Affine or single-monomial components, so compositions stay Laurent."""
    comps = []
    for _ in range(M):
        scale = QC(value.randint(1, 3), value.randint(-2, 2))
        if shape.random() < 0.5:
            j = shape.randrange(2 * M)
            base = LaurentPoly.z(M, j) if j < M else LaurentPoly.zbar(M, j - M)
            c = base * scale + QC(value.randint(-2, 2), value.randint(-2, 2))
        else:
            zexp, zbexp = [0] * M, [0] * M
            for s in shape.sample(range(2 * M), 2):
                if s < M:
                    zexp[s] += 1
                else:
                    zbexp[s - M] += 1
            c = LaurentPoly(M, {Monomial(tuple(zexp), tuple(zbexp)): scale})
        comps.append(c)
    return forms.PolyMap(M, comps)


def _degree1_form(value) -> forms.Form:
    terms = {}
    for i in range(M):
        p = LaurentPoly.const(M, sampling.random_qc(value))
        for j in range(M):
            p = p + LaurentPoly.z(M, j) * sampling.random_qc(value)
        terms[(i,)] = p
    return forms.Form(M, 1, terms)


class ExactForms(Workload):
    name = "exact-forms"
    kinds = ("dd", "leibniz", "graded", "pullback", "scaling", "fit")
    cycle_len = len(kinds)
    nominal_rate = 250.0
    digest_ops = 240

    def __init__(self, seed, n_ops):
        self.shapes = random.Random(SHAPE_SEED)
        super().__init__(seed, n_ops)

    def generate(self, k):
        shape, value = self.shapes, self.rng
        kind = self.kinds[k % self.cycle_len]
        if kind == "dd":
            return kind, (_form(shape, value, shape.choice([1, 2]), allow_negative=True),)
        if kind == "leibniz":
            p = shape.choice([0, 1, 2])
            return kind, (p, _form(shape, value, p), _form(shape, value, shape.choice([1, 2])))
        if kind == "graded":
            p, q = shape.choice([1, 1, 2]), shape.choice([1, 2])
            return kind, (p * q, _form(shape, value, p), _form(shape, value, q))
        if kind == "pullback":
            return kind, (_poly_map(shape, value), _poly_map(shape, value),
                          _form(shape, value, shape.choice([1, 2]), max_exp=1))
        if kind == "scaling":
            alpha = forms.Form(M, 1, {
                (0,): LaurentPoly.const(M, sampling.random_qc(value)),
                (1,): LaurentPoly.z(M, 0) * sampling.random_qc(value) + QC(1),
                (2,): LaurentPoly.const(M, QC(1)),
            })
            f = LaurentPoly.z(M, shape.randrange(M)) * sampling.random_qc(value) \
                + sampling.random_qc(value)
            return kind, (alpha, f)
        # fit: 8 exact points determine the 4 monomials of degree <= 1
        return kind, (_degree1_form(value),
                      sampling.exact_points(M, 8, seed=value.randrange(2 ** 31)))

    def run(self, inp):
        """Both sides of the operation's identity."""
        kind, data = inp
        wedge, ext_d = forms.wedge, forms.ext_d
        if kind == "dd":
            (w,) = data
            return ext_d(ext_d(w)), forms.Form.zero(M, w.degree + 2)
        if kind == "leibniz":
            p, a, b = data
            tail = wedge(a, ext_d(b))
            return ext_d(wedge(a, b)), wedge(ext_d(a), b) + (-tail if p % 2 else tail)
        if kind == "graded":
            pq, a, b = data
            rhs = wedge(b, a)
            return wedge(a, b), (-rhs if pq % 2 else rhs)
        if kind == "pullback":
            F, G, w = data
            return forms.pullback(G.compose(F), w), forms.pullback(F, forms.pullback(G, w))
        if kind == "scaling":
            alpha, f = data
            scaled = wedge(forms.Form.scalar(M, f), alpha)
            return (contact.contact_defect(scaled),
                    wedge(forms.Form.scalar(M, f * f), contact.contact_defect(alpha)))
        alpha, pts = data
        rows = [alpha.covector_at(p) for p in pts]
        return extend.fit_holomorphic(pts, rows, 1), alpha

    def check(self, inp, result):
        lhs, rhs = result
        if inp[0] == "fit":
            # exact recovery; the reported float residual is not 0.0 even then
            return lhs.exact and lhs.rank == lhs.n_monomials and lhs.form == rhs
        return lhs == rhs

    def digest(self, inp, result):
        lhs = result[0]
        shown = lhs.form if inp[0] == "fit" else lhs
        return f"{inp[0]}:{shown!r}\n".encode()


# -- jet-slices ----------------------------------------------------------------


class JetSlices(Workload):
    name = "jet-slices"
    cycle_len = 3  # one jet each at n = 1, 2, 3
    nominal_rate = 60.0
    digest_ops = 60

    def generate(self, k):
        rng = self.rng
        n = 1 + k % 3
        m = 2 * n + 1
        jet = sampling.random_jet(n, rng)
        i = rng.randrange(m)
        probe = tuple(sampling.random_qc(rng) for _ in range(m))
        target = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))
        return jet, i, probe, target

    def run(self, inp):
        jet, i, probe, target = inp
        slc = jets.ampleness_slice(jets.RestrictedJet(jet, i))
        values = (jets.relation_value(jet), jets.relation_value(jet.with_row(i, probe)))
        loop = ci.loop_for_target(slc, target, LOOP_DELTA) if slc.kind != "empty" else None
        return slc, values, loop

    def check(self, inp, result):
        jet, i, probe, target = inp
        slc, values, loop = result
        for row, hv in zip((jet.p[i], probe), values):
            # the affine decomposition must reproduce h exactly
            if slc.h_of_row(row) != hv or slc.contains(row) == hv.is_zero:
                return False
        if slc.kind == "empty":
            try:
                ci.loop_for_target(slc, target, LOOP_DELTA)
            except PreconditionError:
                return loop is None
            return False
        mean = loop.mean_quadrature(64)
        if max(abs(g - t) for g, t in zip(mean, target)) > 1e-10:
            return False
        if slc.kind == "hyperplane":
            return abs(loop.min_affine_margin(slc.w, slc.c, k=72) - LOOP_DELTA) <= 1e-10
        return True

    def digest(self, inp, result):
        slc, values, _ = result
        return f"{slc.kind}:{slc.w!r}:{slc.c!r}:{values!r}\n".encode()


# -- grid-solve ----------------------------------------------------------------

_REFUSAL_NOTE = re.compile(r"rung \d+ \(freq \d+\): margin \S+ at node \(\d+, \d+, \d+\)")


class GridSolve(Workload):
    name = "grid-solve"
    # 25 and 33 nodes for each demo, plus the coarse gamma input that the
    # frequency ladder cannot solve (it refuses at 9, 13 and 17 nodes)
    cases = (("flat", 25), ("flat", 33), ("gamma", 25), ("gamma", 33),
             ("holonomic", 25), ("holonomic", 33), ("gamma", 13))
    cycle_len = len(cases)
    nominal_rate = 0.75
    digest_ops = len(cases)

    def __init__(self, seed, n_ops):
        demos = {"flat": ci.demo_flat_section, "gamma": ci.demo_gamma_section,
                 "holonomic": ci.demo_holonomic_section}
        self.sections = {case: demos[case[0]](case[1]) for case in self.cases}
        self.order: list = []
        self.text_seconds = 0.0
        super().__init__(seed, n_ops)

    def generate(self, k):
        if k % self.cycle_len == 0:
            self.order = self.rng.sample(self.cases, self.cycle_len)
        case = self.order[k % self.cycle_len]
        grid = self.sections[case][0].grid
        picks = self.rng.sample(range(grid.n_nodes), FIT_SAMPLES)
        nodes = [tuple(int(v) for v in np.unravel_index(p, grid.shape)) for p in picks]
        return case, nodes

    def run(self, inp):
        case, nodes = inp
        section, gamma = self.sections[case]
        self.text_seconds = 0.0
        res = ci.ci_solve(section, gamma, CI_EPS, CI_DELTA)
        t0 = time.perf_counter()
        text = formats.section_to_text(res.output)
        back = formats.section_from_text(text)
        self.text_seconds = time.perf_counter() - t0
        report = ci.verify_ci(dataclasses.replace(res, output=back), section,
                              CI_EPS, CI_DELTA)
        grid = back.grid
        pts = [forms.Point([complex(c, 0.0) for c in grid.node_coords(nd)]) for nd in nodes]
        rows = [tuple(back.a[nd]) for nd in nodes]
        fit = extend.fit_holomorphic(pts, rows, FIT_DEGREE)
        return res, back, report, fit

    def check(self, inp, result):
        case, _ = inp
        res, back, report, fit = result
        if back != res.output:  # the text round trip must be bit-exact
            return False
        if res.passed:
            ok = report.passed
        else:
            # an honest refusal: named rung and node, and the verifier agrees
            ok = not report.passed and bool(_REFUSAL_NOTE.search(res.failure))
        fit_ok = (not fit.exact and fit.full_rank and math.isfinite(fit.residual)
                  and (case[0] != "holonomic" or fit.residual <= 1e-9))
        return ok and fit_ok

    def digest(self, inp, result):
        res, back, report, fit = result
        h = hashlib.sha256(back.a.tobytes())
        h.update(back.beta.tobytes())
        h.update(repr(res.meta()).encode())
        h.update(report.to_text().encode())
        h.update(fit.summary().encode())
        return f"{inp[0]}:{h.hexdigest()}\n".encode()

    def interpreter_seconds(self, latency):
        # the section text round trip is pure Python; the solver, verifier
        # and fit spend their time in numpy, which neighbours slow far less
        return self.text_seconds

    def observe(self, inp, result, stats):
        res = result[0]
        sweeps = res.sweep_frequencies
        if res.passed:
            attempted = res.rung + 1 if sweeps else 0
            stats["ci.rungs.useful"] += 1 if sweeps else 0
        else:
            attempted = res.rung
            stats["ci.refusals"] += 1
        stats["ci.rungs.attempted"] += attempted
        stats["ci.passes.attempted"] += sum(len(s) for s in sweeps)
        stats["ci.passes.acted"] += sum(1 for s in sweeps for f in s if f)


WORKLOADS = {w.name: w for w in (ExactForms, JetSlices, GridSolve)}
