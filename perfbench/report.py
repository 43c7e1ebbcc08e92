"""
Run every workload untraced and traced and print all metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Exits non-zero when a run fails or reports correct=false.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    results, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            print(f"{name} --trace {trace}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                results.setdefault(metric, {})[name] = v
    names = list(WORKLOADS)
    print(f"\n{'metric':28s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, by_wl in results.items():
        unit = next(iter(by_wl.values()))["unit"]
        cells = (f"{by_wl[n]['value']:14.6g}" if n in by_wl else f"{'-':>14s}" for n in names)
        print(f"{metric:28s} {unit:6s} " + " ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
