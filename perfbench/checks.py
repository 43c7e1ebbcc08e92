"""
Correctness checks of one pass's table against perfbench/reference.json.

Each (case, norm) pair in the reference carries the seed error, the error
of the exact solution's interpolant in the same norm, a round-off flag and
a ceiling.  A pair is round-off-dominated when the seed error exceeds
`roundoff_threshold` times the interpolant's error (make_reference.py says
how the threshold was chosen).  Every pair must stay at or below its
ceiling; only pairs that are not round-off-dominated enter err_ratio_max.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from workloads import REFERENCE, Workload, case_key

NORMS = ("l2", "energy", "sd")
RATES = tuple(f"{n}_rate" for n in NORMS)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse_table(wl: Workload, seed: int, text: str, columns: list[str]) -> tuple[dict, list[str]]:
    """Errors per case key and norm from a CLI table, plus the problems
    found in its shape.  A failed case maps to None."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}, ["no table written"]
    header, body = rows[0], rows[1:]
    problems = []
    values = {}
    if wl.verb == "eps-sweep":
        eps_order, k_order = wl.lists(seed)
        expected = ["eps"] + [f"k{k}_n{n}" for k in k_order for n in wl.n]
        if header != expected:
            return {}, [f"columns {header} != {expected}"]
        if [float(r[0]) for r in body] != eps_order:
            problems.append(f"eps rows {[r[0] for r in body]} != {eps_order}")
        for r in body:
            for name, cell in zip(header[1:], r[1:]):
                k, n = (int(p[1:]) for p in name.split("_"))
                v = float(cell) if cell else math.nan
                values[case_key(float(r[0]), n, k)] = {"sd": v} if math.isfinite(v) else None
        return values, problems
    if header != columns:
        return {}, [f"columns {header} != {columns}"]
    if len(body) != len(wl.cases()):
        problems.append(f"{len(body)} rows, expected {len(wl.cases())}")
    for r in body:
        row = dict(zip(header, r))
        key = case_key(float(row["eps"]), int(row["N"]), int(row["k"]))
        if row["error"] or row["residual_ok"] != "True" or row["mesh_ok"] != "True":
            values[key] = None
            problems.append(f"{key}: error={row['error']!r} residual_ok={row['residual_ok']} mesh_ok={row['mesh_ok']}")
            continue
        values[key] = {n: float(row[n]) for n in NORMS}
        values[key].update({r: float(row[r]) for r in RATES if row[r]})
    return values, problems


@dataclass
class PassCheck:
    attempted: int
    failed: int
    err_ratio_max: float
    problems: list[str]


def check_pass(wl: Workload, seed: int, rc: int, text: str, ref: dict) -> PassCheck:
    wref = ref["workloads"][wl.name]
    values, problems = parse_table(wl, seed, text, ref["converge_columns"])
    attempted = len(wl.cases())
    failed = sum(1 for key in wref["cases"] if values.get(key) is None)
    if rc != 0:
        problems.append(f"exit code {rc}")
        if failed == 0:
            failed = attempted
    ratios = []
    for key, pairs in wref["cases"].items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key}: missing or failed")
            continue
        for norm, pair in pairs.items():
            v = got[norm]
            if not v <= pair["ceiling"]:
                problems.append(f"{key} {norm}: {v:.6g} above ceiling {pair['ceiling']:.6g}")
            if not pair["roundoff"]:
                ratios.append(v / pair["error"])
        for rate, (lo, hi) in wref.get("rate_windows", {}).items():
            if rate in got and not lo <= got[rate] <= hi:
                problems.append(f"{key} {rate}: {got[rate]:.4f} outside [{lo}, {hi}]")
    # a workload whose every pair is round-off-dominated has nothing to
    # compare against its seed value; 1.0 then means "no pair got worse
    # than its reference", which the ceilings above enforce
    err_ratio_max = max(ratios) if ratios else 1.0
    return PassCheck(attempted, failed, err_ratio_max, problems)


def roundoff_report(wl: Workload, ref: dict) -> list[str]:
    """One line per round-off-dominated (case, norm) pair of the workload."""
    lines = []
    for key, pairs in ref["workloads"][wl.name]["cases"].items():
        for norm, p in pairs.items():
            if p["roundoff"]:
                lines.append(
                    f"{key} {norm}: seed error {p['error']:.3g} vs interpolant {p['interp']:.3g} "
                    f"({p['error'] / p['interp']:.3g}x), ceiling {p['ceiling']:.3g}"
                )
    return lines
