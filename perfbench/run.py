"""
Pipeline benchmark for cuspfem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is one in-process call of the CLI entry point
``cuspfem.experiments.main(argv)`` writing its table to a file; the pass
time runs until the table is written.  After the set-up probes and one
discarded warm-up pass, passes repeat for about S seconds (at least
MIN_PASSES).  Every pass's table is checked against perfbench/reference.json.

Every reported time is measured against a yardstick that runs in turn
with the program: perfbench/seed_cuspfem is a frozen copy of the package
as it was when the benchmark was written.  A pass of the copy on the same
arguments runs before each program pass (with --trace 1, each pair of an
untraced and a traced pass) and after the last, and each set-up probe has
a probe of the copy before and after it.  A time divided by the mean of
the two copy times around it says how much slower or faster the program
is than the seed on the same host at the same moment; multiplied by the
copy's median time on the 2-CPU sandbox the benchmark was written on
(Workload.seed_pass_s, SEED_SETUP_S) it is reported in seconds.  The
host is shared, and its speed drifts by tens of percent over minutes (one
6-minute stretch took the seed's sweep pass from 0.82 s to 1.24 s); the
copy runs the same instructions, so the drift cancels.  The raw
wall-clock figures are printed too.  perfbench/seed_cuspfem must stay as
it is: it is the yardstick, not the program.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports per-layer self times and
exact counters, the traced pass time and the tracing overhead; the spans
go to .perfbench-out/ as JSON lines.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_pass, load_reference, roundoff_report
from setup_probe import warm_up
from tracer import COUNTERS, LAYER_SPANS, Tracer, pass_metrics, traced
from workloads import OUT_DIR, RATE_CHECK, ROOT, WORKLOADS, import_cuspfem, import_seed

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_PASSES = 3  # rounds at least; the median of three drops one outlier
SEED_SETUP_S = 0.65  # the seed copy's set-up probe, as seed_pass_s


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_thread_budget(workers: int) -> tuple[int, int]:
    """One BLAS thread per worker, so workers x BLAS threads <= nproc on
    every workload.  Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    blas = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc, blas


def environment(nproc: int, blas: int, args, wl) -> dict:
    import numpy
    import scipy

    def openblas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    observed = {}
    site = Path(numpy.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                observed[Path(lib).name] = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": openblas(numpy), "scipy": openblas(scipy)},
        "blas_threads_env": blas,
        "blas_threads_observed": observed,
        "workers": wl.workers,
    }


def relative(times: list[float], seed: list[float], per_round: int = 1) -> list[float]:
    """Each time over the mean of the seed-copy times around it: times[i]
    ran in round r = i // per_round, between seed[r] and seed[r + 1]."""
    return [t / (0.5 * (seed[i // per_round] + seed[i // per_round + 1])) for i, t in enumerate(times)]


def measure_setup(out: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_REPS fresh-process probes of the program, and
    the same relative to the seed copy's probes before and after each."""

    def probe(package: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), package, str(out)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe of {package} failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    times, seed = [], [probe("seed_cuspfem")]
    for _ in range(SETUP_REPS):
        times.append(probe("cuspfem"))
        seed.append(probe("seed_cuspfem"))
    return times, relative(times, seed)


def summary(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"median {xs[0]:.6g}, n=1"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {statistics.median(xs):.6g}, q1 {q1:.6g}, q3 {q3:.6g}, min {min(xs):.6g}, max {max(xs):.6g}, n={len(xs)}"


def trace_metrics(tracer, wl, ref: dict, run_s: float, factors: dict, problems: list[str]) -> dict:
    """Per-layer metrics over the traced passes: medians of times, each
    pass's scaled by factors[pass], and counters that must repeat exactly.
    Appends what fails to `problems`."""
    required = set(LAYER_SPANS) | {"experiments.case"}
    if wl.method == "fem":
        required.discard("assembly.deltas")
    per_pass, gaps, missing = [], [], set()
    for i in sorted({s["pass"] for s in tracer.spans}):
        m, counts = pass_metrics([s for s in tracer.spans if s["pass"] == i], wl.workers)
        missing |= required - set(counts)
        for key in m:
            if key.endswith("_s"):
                m[key] *= factors[i]
        accounted = sum(m[f"{name}_s"] for name in LAYER_SPANS) + m["experiments.driver_self_s"]
        gaps.append(abs(accounted - m["trace.run_s"]))
        per_pass.append(m)
    problems += [f"traced layer {name} recorded no spans" for name in sorted(missing)]
    metrics = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        if key in COUNTERS:
            expected = ref["workloads"][wl.name]["counters"][key]
            if set(vals) != {expected}:
                problems.append(f"counter {key}: passes gave {vals}, reference {expected}")
            metrics[key] = vals[0]
        else:
            metrics[key] = statistics.median(vals)
    if metrics["assembly.dofs"] != wl.dofs():
        problems.append(f"assembly.dofs {metrics['assembly.dofs']} != sum of 2Nk-1 = {wl.dofs()}")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
    print(f"tracing overhead {metrics['trace.overhead_s']:+.6g} s")
    if wl.workers == 1:
        # one thread: layer self times plus experiments.driver_self_s tile each pass
        print(f"self times + driver_self_s miss the traced pass time by at most {max(gaps):.3g} s")
        if max(gaps) > max(abs(metrics["trace.overhead_s"]), 1e-6):
            problems.append("per-layer self times do not account for the traced pass time")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    nproc, blas = set_thread_budget(wl.workers)
    experiments = import_cuspfem()
    env = environment(nproc, blas, args, wl)
    print("env: " + json.dumps(env), flush=True)
    ref = load_reference()
    OUT_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp_name:
        tmp = Path(tmp_name)
        setup_raw, setup_rel = measure_setup(tmp / "setup.csv")
        warm_up(experiments.main, tmp / "setup.csv")

        table = tmp / "table.csv"
        argv_cli = wl.argv(args.seed, table)
        tracer = Tracer()
        checks = []

        def one_pass(traced_pass: bool) -> float:
            table.unlink(missing_ok=True)
            if traced_pass:
                with traced(tracer, experiments):
                    t0 = time.perf_counter()
                    rc = tracer.run_pass(experiments.main, argv_cli, len(checks))
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                rc = experiments.main(argv_cli)
                dt = time.perf_counter() - t0
            text = table.read_text() if table.exists() else ""
            checks.append(check_pass(wl, args.seed, rc, text, ref))
            return dt

        # discarded: first touch of the large arrays and the order-k caches
        one_pass(False)
        # the program's own peak: the seed copy has not run in this process yet
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        seed_experiments = import_seed()
        warm_up(seed_experiments.main, tmp / "setup.csv")
        seed_table = tmp / "seed.csv"
        argv_seed = wl.argv(args.seed, seed_table)

        def seed_pass() -> float:
            t0 = time.perf_counter()
            rc = seed_experiments.main(argv_seed)
            dt = time.perf_counter() - t0
            if rc != 0:
                sys.exit(f"perfbench: the seed copy exited with {rc}")
            return dt

        seed_pass()  # discarded, as the program's first pass
        # one round: a program pass (with --trace 1 an untraced and a traced
        # one), then a seed pass
        kinds = (False, True) if args.trace else (False,)
        order, walls, seed = [], [], [seed_pass()]
        start = time.perf_counter()
        while True:
            rounds = len(seed) - 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_PASSES and elapsed + elapsed / rounds > args.seconds:
                break
            for kind in kinds:
                order.append(kind)
                walls.append(one_pass(kind))
            seed.append(seed_pass())

        rate_table = tmp / "rates.csv"
        rc = experiments.main(RATE_CHECK.argv(0, rate_table))
        text = rate_table.read_text() if rate_table.exists() else ""
        checks.append(check_pass(RATE_CHECK, 0, rc, text, ref))

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = sorted({p for c in checks for p in c.problems})
    norm = [wl.seed_pass_s * r for r in relative(walls, seed, len(kinds))]
    times = {kind: [t for t, k in zip(norm, order) if k == kind] for kind in kinds}
    raw = [t for t, k in zip(walls, order) if not k]
    run_s = statistics.median(times[False])
    setup = [SEED_SETUP_S * r for r in setup_rel]

    print(f"workload {wl.name}: {' '.join(argv_cli[:-2])}")
    print(f"pass seconds (untraced, wall clock): {summary(raw)}")
    print(f"seed copy pass seconds (wall clock): {summary(seed)}")
    print(f"pass seconds (untraced, at seed speed {wl.seed_pass_s} s): {summary(times[False])}")
    print(f"setup seconds (wall clock): {summary(setup_raw)}")
    print(f"setup seconds (at seed speed {SEED_SETUP_S} s): {summary(setup)}")
    print("round-off-dominated pairs (ROADMAP item 2), held to ceilings, not in err_ratio_max:")
    for line in roundoff_report(wl, ref) or ["none"]:
        print(f"  {line}")

    if args.trace:
        print(f"pass seconds (traced, at seed speed): {summary(times[True])}")
        # tracer pass 0 is the discarded warm-up pass
        factors = {j + 1: n / w for j, (n, w) in enumerate(zip(norm, walls))}
        metrics = trace_metrics(tracer, wl, ref, run_s, factors, problems)
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        units = {k: ("count" if k in COUNTERS else "s") for k in metrics}
        units.update({"assembly.bytes_computed": "B", "assembly.residual_max": "ratio", "experiments.pool_busy_frac": "frac"})
    else:
        metrics = {
            "run_s": run_s,
            "dofs_per_s": wl.dofs() / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "err_ratio_max": max(c.err_ratio_max for c in checks),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {"run_s": "s", "dofs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "err_ratio_max": "ratio", "ok_frac": "frac"}

    for name, value in metrics.items():
        print(f"{name} = {value:.10g} {units[name]}")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
