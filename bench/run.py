"""contactkit benchmark: one seeded, closed-loop workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload exact-forms --seed 1 --seconds 15 --trace 0

One process, one caller: the next operation starts only after the previous
one has finished and passed its check.  A run performs the operations that
take ``--seconds`` at the workload's baseline rate, in whole cycles, so
every run of a workload measures the same amount of work.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs a
third of that work three times (warm-up, traced with out-of-package probes
installed, untraced), prints the per-layer metrics from the traced pass
and writes its spans to ``bench/out/`` as JSONL.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the float lstsq fit would otherwise use every
# core of a shared machine.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
PREFILL_SECONDS = 1.0
DEADLINE_FACTOR = 6
# The calibration probe's time on the reference machine (2-CPU x86_64
# sandbox, Python 3.11.7) when no neighbour is busy: the unit in which the
# interpreter-bound workloads state their times.
PROBE_REF_NS = 850_000


def _import_package() -> None:
    if not (SRC / "contactkit" / "__init__.py").is_file():
        print(f"error: no contactkit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import contactkit

    if Path(contactkit.__file__).resolve().parent != SRC / "contactkit":
        print(f"error: imported contactkit from {contactkit.__file__}", file=sys.stderr)
        raise SystemExit(2)


def run_ops(wl_cls, seconds: float) -> int:
    """Operations in a run: ``seconds`` at the baseline rate, whole cycles."""
    cycles = math.ceil(wl_cls.nominal_rate * seconds / wl_cls.cycle_len)
    return max(1, cycles) * wl_cls.cycle_len


class Calibrator:
    """A fixed probe of stdlib ``Fraction`` arithmetic over a 2 MB pool.

    On a shared machine other tenants slow the interpreter by up to 2x, for
    anything from a fraction of a second to whole runs, through the core
    they share and its caches.  The probe runs no package code, so its time
    changes only with the machine; it allocates like exact arithmetic and
    reads scattered objects, so it slows down when the package's exact
    arithmetic does.
    """

    def __init__(self):
        rng = random.Random(0)
        pool = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                for _ in range(20000)]
        self.pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(250)]

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        for x, y in self.pairs:
            x * y + x
        return time.perf_counter_ns() - t0


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Runs operations one at a time, checking each before the next.

    A calibration probe runs before the first operation and after each.
    The part of each operation that runs as Python bytecode (all of it,
    except in ``grid-solve``) is scaled by ``PROBE_REF_NS / probe``, where
    ``probe`` is the mean of the probes on its two sides, and CPU time in
    the same proportion: timings are then stated at the probe speed of a
    quiet reference machine, whatever the neighbours' load.  Numpy work is
    slowed far less than the probe, so it is not scaled.
    """

    def __init__(self, wl, corrupt=None, tracer=None):
        self.wl = wl
        self.corrupt = corrupt
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.interpreted: list[float] = []
        self.probes: list[int] = []
        self.calibrate = Calibrator()
        self.failed = 0
        self.layer_stats: Counter = Counter()
        self._digest = hashlib.sha256()
        self.digested = 0

    def step(self, k: int) -> None:
        wl = self.wl
        inp = wl.input(k)
        if self.tracer is not None:
            self.tracer.op = k
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = wl.run(inp)
            shown = self.corrupt(k, result) if self.corrupt else result
            ok = wl.check(inp, shown)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, result = False, None
        self.latencies.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        self.interpreted.append(wl.interpreter_seconds(self.latencies[-1]))
        if not ok:
            self.failed += 1
            print(f"check failed: {wl.name} operation {k}", file=sys.stderr)
        if result is not None:
            if k < wl.digest_ops:
                self._digest.update(wl.digest(inp, result))
                self.digested += 1
            wl.observe(inp, result, self.layer_stats)

    def run(self, n_ops: int, deadline_s: float = math.inf) -> None:
        """Whole cycles until ``n_ops`` are done or the deadline passes."""
        t_end = time.perf_counter() + deadline_s
        self.probes.append(self.calibrate())
        k = 0
        while k < n_ops and time.perf_counter() < t_end:
            for _ in range(self.wl.cycle_len):
                self.step(k)
                self.probes.append(self.calibrate())
                k += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def scaled(self) -> tuple[list[float], list[float]]:
        """Latencies and CPU times at the reference probe speed."""
        lat, cpu = [], []
        for k, (a, b) in enumerate(zip(self.probes, self.probes[1:])):
            t, py = self.latencies[k], self.interpreted[k]
            s = t - py + py * 2 * PROBE_REF_NS / (a + b)
            lat.append(s)
            cpu.append(self.cpu[k] * s / t)
        return lat, cpu

    def probe_summary(self) -> str:
        q = statistics.quantiles(self.probes, n=20)
        return (f"calibration probe us: min {min(self.probes) / 1e3:.1f} p5 {q[0] / 1e3:.1f} "
                f"median {q[9] / 1e3:.1f} p95 {q[18] / 1e3:.1f}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, beyond): the highest percentile that still has
    ten samples beyond it; the maximum when there are fewer samples."""
    lat = sorted(latencies)
    n = len(lat)
    idx = max(0, n - 11)
    return lat[idx], 100.0 * (idx + 1) / n, n - 1 - idx


# -- set-up time -----------------------------------------------------------------


def setup_probe(args) -> None:
    """Child-process mode: import, generate the inputs, report the clock."""
    _import_package()
    from workloads import WORKLOADS

    wl_cls = WORKLOADS[args.workload]
    wl_cls(args.seed, run_ops(wl_cls, PREFILL_SECONDS))
    print(f"READY {time.monotonic_ns()}", flush=True)


def measure_setup(args) -> list[float]:
    """Process start through import and input generation, in fresh
    interpreters (the monotonic clock is shared between processes)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append((int(ready[-1].split()[1]) - t0) / 1e9)
    return samples


# -- the two modes -----------------------------------------------------------------


def end_to_end(args, corrupt=None, n_ops=None) -> tuple[dict, int, int, list[str]]:
    from workloads import WORKLOADS

    setups = measure_setup(args)
    wl_cls = WORKLOADS[args.workload]
    wl = wl_cls(args.seed, run_ops(wl_cls, PREFILL_SECONDS))
    loop = Loop(wl, corrupt)
    loop.run(n_ops or run_ops(wl_cls, args.seconds), DEADLINE_FACTOR * args.seconds)

    lat, cpu = loop.scaled()
    tail_s, pct, beyond = tail(lat)
    failed_share = loop.failed / loop.attempted
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "cpu_ms_per_op": (1e3 * statistics.fmean(cpu), "ms"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "ok_op_share": (1.0 - failed_share, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"operations {loop.attempted}: {loop.wall:.3f} s measured, "
        f"{sum(lat):.3f} s after the machine-noise correction",
        loop.probe_summary(),
        f"failed_op_share = {failed_share!r} ratio ({loop.failed} of {loop.attempted})",
        f"latency_tail_ms is p{pct:.2f} of {len(lat)} samples, {beyond} beyond it",
        f"setup_s samples {[round(s, 4) for s in setups]}",
        f"digest {wl.name} first {loop.digested} ops: {loop.digest()}",
    ]
    return metrics, loop.attempted, loop.failed, notes


def traced(args, n_ops=None) -> tuple[dict, int, int, list[str]]:
    import probes
    import workloads
    from tracer import Tracer

    wl_cls = workloads.WORKLOADS[args.workload]
    n_ops = n_ops or run_ops(wl_cls, args.seconds / 3)
    tracer = Tracer(probes.PROBES)
    with tracer:
        wl = wl_cls(args.seed, n_ops)
    deadline = DEADLINE_FACTOR * args.seconds / 3
    # warm-up pass first, so neither timed pass pays first-call costs
    warm = Loop(wl)
    warm.run(n_ops, deadline)
    loop = Loop(wl, tracer=tracer)
    with tracer:
        loop.run(n_ops, deadline)
    plain = Loop(wl)
    plain.run(n_ops, deadline)
    if warm.attempted == loop.attempted == plain.attempted \
            and not warm.digest() == loop.digest() == plain.digest():
        print("check failed: traced and untraced outputs differ", file=sys.stderr)
        loop.failed += 1

    metrics = probes.layer_metrics(tracer, loop.layer_stats)
    metrics["scalars.mul.ns"], metrics["scalars.add.ns"] = \
        probes.scalar_kernel(args.seed, Calibrator(), PROBE_REF_NS)
    overhead = statistics.fmean(plain.scaled()[0]) / statistics.fmean(loop.scaled()[0])
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.ops"] = (loop.attempted, "count")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(path)
    notes = [
        f"traced operations {loop.attempted}: {loop.wall:.3f} s traced, "
        f"{plain.wall:.3f} s untraced (before the machine-noise correction)",
        f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}",
        f"digest {wl.name} first {loop.digested} ops: {loop.digest()}",
    ]
    passes = (warm, loop, plain)
    return (metrics, sum(p.attempted for p in passes), sum(p.failed for p in passes), notes)


def machine() -> str:
    return (f"{platform.machine()} {os.cpu_count()} CPU, Python "
            f"{platform.python_version()}, numpy {sys.modules['numpy'].__version__}")


def report(metrics: dict, attempted: int, failed: int, notes: list[str]) -> dict:
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact-forms", "jet-slices", "grid-solve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    _import_package()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} on {machine()}")
    mode = traced if args.trace else end_to_end
    report(*mode(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
