"""
Workload definitions and the import bootstrap shared by the benchmark
scripts.

Every workload is one call of the public CLI entry point
``cuspfem.experiments.main(argv)``; all use lambda = 0.25.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

LAMBDA = 0.25
# the eps-sweep verb's default grid, written out so the seed can reorder it
SWEEP_EPS = (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "eps-sweep" or "converge"
    method: str
    eps: tuple[float, ...]
    n: tuple[int, ...]
    k: tuple[int, ...]
    # median wall seconds of one pass of the frozen seed copy on a 2-CPU
    # sandbox (Intel Xeon); turns pass times relative to it into seconds
    seed_pass_s: float = math.nan  # nan: not timed
    workers: int = 1
    delta_policy: str = "standard"  # the CLI default
    shuffle: bool = False  # the seed reorders eps and k (N must stay ascending)

    def lists(self, seed: int) -> tuple[list[float], list[int]]:
        eps, k = list(self.eps), list(self.k)
        if self.shuffle:
            rng = random.Random(seed)
            rng.shuffle(eps)
            rng.shuffle(k)
        return eps, k

    def argv(self, seed: int, out: Path) -> list[str]:
        eps, k = self.lists(seed)
        argv = [
            self.verb,
            "--lambda", repr(LAMBDA),
            "--method", self.method,
            "--eps", ",".join(repr(e) for e in eps),
            "--n", ",".join(str(n) for n in self.n),
            "--k", ",".join(str(v) for v in k),
            "--workers", str(self.workers),
        ]
        if self.delta_policy != "standard":
            argv += ["--delta-policy", self.delta_policy]
        return argv + ["--out", str(out)]

    def cases(self) -> list[tuple[float, int, int]]:
        return [(e, n, k) for e in self.eps for k in self.k for n in self.n]

    def dofs(self) -> int:
        """Solved unknowns per pass: 2Nk - 1 per case after eliminating
        the two Dirichlet nodes."""
        return sum(2 * n * k - 1 for _, n, k in self.cases())


def case_key(eps: float, n: int, k: int) -> str:
    return f"eps={eps!r},N={n},k={k}"


WORKLOADS = {
    w.name: w
    for w in (
        # per-case fixed costs; the only workload that reaches gamma_estimate
        Workload(
            "sweep",
            verb="eps-sweep", method="sdfem", eps=SWEEP_EPS, n=(512, 1024), k=(1, 2, 3, 4),
            delta_policy="theorem-capped", shuffle=True, seed_pass_s=1.1,
        ),
        # assembly and solve dominate, no SD terms or deltas; errors sit on
        # the round-off floor and rise with N
        Workload(
            "p8-fine",
            verb="converge", method="fem", eps=(1e-10,), n=(8192, 16384, 32768), k=(8,),
            seed_pass_s=2.8,
        ),
    )
}

# run once, untimed, at the end of every run: the rates of its converge
# table must stay inside the windows stored in reference.json
RATE_CHECK = Workload(
    "p1-rates",
    verb="converge", method="sdfem", eps=(1e-10,), n=(16384, 32768, 65536, 131072), k=(1,),
)


def import_cuspfem():
    """Import cuspfem from this checkout's ``src`` and nowhere else; exit
    non-zero when the checkout holds no package source."""
    if not (SRC / "cuspfem" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cuspfem'}")
    sys.path.insert(0, str(SRC))
    import cuspfem.experiments

    if Path(cuspfem.experiments.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported cuspfem from {cuspfem.experiments.__file__}, not {SRC}")
    return cuspfem.experiments


def import_seed():
    """Import the frozen copy of the package that ships with the benchmark."""
    import seed_cuspfem.experiments

    return seed_cuspfem.experiments
