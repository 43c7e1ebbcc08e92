"""
Set-up probe: run in a fresh process, it imports a package and solves one
tiny SDFEM case through its CLI, which fills the basis and quadrature
caches and scipy's lazy imports.  It prints the seconds this took; every
CLI invocation pays this cost.

    python3 perfbench/setup_probe.py cuspfem|seed_cuspfem OUT_CSV

`cuspfem` is the package in the checkout's src/, `seed_cuspfem` the frozen
copy of it that the benchmark measures against (see run.py).
"""

import sys
import time

WARM_UP = [
    "solve", "--eps", "1e-4", "--lambda", "0.25", "--n", "32", "--k", "2",
    "--method", "sdfem", "--delta-policy", "theorem-capped",
]


def warm_up(main, out) -> None:
    rc = main(WARM_UP + ["--out", str(out)])
    if rc != 0:
        sys.exit(f"perfbench: warm-up case exited with {rc}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    from workloads import import_cuspfem, import_seed

    warm_up((import_seed() if sys.argv[1] == "seed_cuspfem" else import_cuspfem()).main, sys.argv[2])
    print(repr(time.perf_counter() - t0))
