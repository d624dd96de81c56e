"""Smoke test of the benchmark itself, on one cycle of each workload.

    python3 bench/smoke.py

Checks that every metric ``BENCHMARK.json`` names is printed, with its
unit, in both modes; that a result corrupted here is counted as failed, so
the checks are live; and that without the package sources the benchmark
exits with an error and prints no result.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import run

SEED = 7


def _corrupt_form(k, result):
    from contactkit.coefficients import LaurentPoly
    from contactkit.forms import Form

    if k:
        return result
    lhs, rhs = result
    extra = Form(rhs.m, rhs.degree, {tuple(range(rhs.degree)): LaurentPoly.const(rhs.m, 1)})
    return lhs, rhs + extra


def _corrupt_jet(k, result):
    from contactkit.scalars import QC

    if k:
        return result
    slc, values, loop = result
    return slc, (values[0] + QC(1), values[1]), loop


def _corrupt_grid(k, result):
    if k:
        return result
    res, back, report, fit = result
    bad = back.copy()
    bad.a[(0,) * (bad.a.ndim - 1) + (0,)] += 1e-12
    return res, bad, report, fit


CORRUPT = {"exact-forms": _corrupt_form, "jet-slices": _corrupt_jet,
           "grid-solve": _corrupt_grid}


def _printed(mode, *args, **kwargs) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.report(*mode(*args, **kwargs))
    return result, buf.getvalue()


def _check_metrics(declared: list, result: dict, text: str, where: str) -> list[str]:
    problems = []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} missing or not in {m['unit']}")
        elif not re.search(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$",
                           text, re.MULTILINE):
            problems.append(f"{where}: {m['name']} not printed with its unit")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def _check_empty_checkout() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    where = run.BENCH_DIR / "out" / "empty-checkout"
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, where / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", where)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "jet-slices",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=where, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark must exit non-zero and print nothing"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_package()
    from workloads import WORKLOADS

    problems = _check_empty_checkout()
    for name, wl_cls in WORKLOADS.items():
        args = run.parse_args(["--workload", name, "--seed", str(SEED), "--seconds", "1"])
        n_ops = wl_cls.cycle_len

        result, text = _printed(run.end_to_end, args, n_ops=n_ops)
        problems += _check_metrics(bench["end_to_end"], result, text, f"{name} trace 0")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} clean operations failed")

        result, text = _printed(run.end_to_end, args, corrupt=CORRUPT[name], n_ops=n_ops)
        if result["failed"] != 1 or result["metrics"]["ok_op_share"]["value"] >= 1.0 \
                or f"failed_op_share = {1 / n_ops!r}" not in text:
            problems.append(f"{name}: the corrupted result was not counted as failed")

        result, text = _printed(run.traced, args, n_ops=n_ops)
        problems += _check_metrics(bench["per_layer"], result, text, f"{name} trace 1")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} traced operations failed")
        print(f"{name}: checked", flush=True)

    for line in problems:
        print(f"FAIL {line}")
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
