"""
Regenerate perfbench/reference.json from the package in this checkout.

    python3 perfbench/make_reference.py

For every workload it runs one pass through the CLI and one traced pass,
and stores per (case, norm) pair the error, the error of the exact
solution's interpolant in the same norm (interpolate + error_norms, same
stabilization profile and quadrature as the CLI), the round-off flag and
the ceiling, plus the exact counters, the expected converge columns and
the rate windows of the untimed rate check.

Round-off threshold: a pair is round-off-dominated when its error exceeds
ROUNDOFF_THRESHOLD times the interpolant's.  At 10x, the sweep pairs
(eps=1, N=1024, k=3) and (eps=1e-4, N=1024, k=4), whose SD errors are 2.6x
and 2.4x the interpolant's, counted as discretization-dominated, yet only
reordering the assembly sums (einsum with optimize=True) moved them by
+82% and +34%.  The pairs that are clearly discretization-dominated sit at
or below 1.41x, and the same reordering moved none of them by more than
6.3%.  So the threshold is 2x.
"""

from __future__ import annotations

import json
import tempfile

from workloads import OUT_DIR, RATE_CHECK, REFERENCE, WORKLOADS, case_key, import_cuspfem

ROUNDOFF_THRESHOLD = 2.0
CEILING_FACTOR = 10.0
# seed rates: l2 ~2.0, energy ~1.0, sd ~1.5
P1_RATE_WINDOWS = {"l2_rate": [1.85, 2.15], "energy_rate": [0.95, 1.10], "sd_rate": [1.40, 1.60]}


def interpolant_errors(wl, eps, n, k) -> dict:
    from cuspfem import MeshParams, build_mesh, compute_deltas, interpolate, error_norms
    from cuspfem.problem import make_problem
    from workloads import LAMBDA

    prob = make_problem("sun-stynes-example", eps, LAMBDA)
    mesh = build_mesh(MeshParams(eps, n, k, LAMBDA))
    stab = compute_deltas(mesh, eps, 1.0, wl.delta_policy, prob, k) if wl.method == "sdfem" else None
    report = error_norms(interpolate(prob, mesh, k), prob, mesh, stab)
    return {"l2": float(report.l2), "energy": float(report.energy), "sd": float(report.sd)}


def main() -> None:
    experiments = import_cuspfem()
    from checks import parse_table
    from tracer import COUNTERS, Tracer, pass_metrics, traced

    OUT_DIR.mkdir(exist_ok=True)
    ref = {"roundoff_threshold": ROUNDOFF_THRESHOLD, "ceiling_factor": CEILING_FACTOR, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        table = f"{tmp}/table.csv"
        for wl in (*WORKLOADS.values(), RATE_CHECK):
            argv = wl.argv(0, table)
            if experiments.main(argv) != 0:
                raise SystemExit(f"{wl.name}: CLI pass failed")
            with open(table) as fh:
                text = fh.read()
            if wl.verb == "converge":
                ref["converge_columns"] = text.splitlines()[0].split(",")
            values, problems = parse_table(wl, 0, text, ref.get("converge_columns"))
            if problems:
                raise SystemExit(f"{wl.name}: {problems}")
            cases = {}
            for eps, n, k in wl.cases():
                key = case_key(eps, n, k)
                interp = interpolant_errors(wl, eps, n, k)
                cases[key] = {
                    norm: {
                        "error": err,
                        "interp": interp[norm],
                        "roundoff": err > ROUNDOFF_THRESHOLD * interp[norm],
                        "ceiling": CEILING_FACTOR * err,
                    }
                    for norm, err in values[key].items()
                    if norm in interp
                }
            tracer = Tracer()
            with traced(tracer, experiments):
                tracer.run_pass(experiments.main, argv, 0)
            metrics, _ = pass_metrics(tracer.spans, wl.workers)
            entry = {"cases": cases, "counters": {c: metrics[c] for c in COUNTERS}}
            if wl is RATE_CHECK:
                entry["rate_windows"] = P1_RATE_WINDOWS
            ref["workloads"][wl.name] = entry
            flagged = sum(p["roundoff"] for pairs in cases.values() for p in pairs.values())
            print(f"{wl.name}: {len(cases)} cases, {flagged} round-off-dominated pairs")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
