"""
Span tracer for the benchmark's traced passes.

Spans are recorded from outside the package: `traced` swaps the functions
that `cuspfem.experiments` looks up at call time for timing wrappers and
puts the originals back on exit.  A span holds its name, start, end,
parent, case id and thread id, plus exact counters read from the call's
arguments and result.  Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import case_key

ROOT = "experiments.main"
CASE = "experiments.case"


def _assembly_counts(a: dict, system) -> dict:
    mesh, k = a["mesh"], a["k"]
    q = a["quad_points"] or k + 3  # the default documented by assemble_galerkin/assemble_sdfem
    nel = mesh.n_intervals
    local = 8 * nel * ((k + 1) ** 2 + (k + 1))  # float64 element matrices and load vectors
    return {
        "assembly.quad_evals": nel * q,
        "assembly.bytes_computed": local + system.bands.nbytes + system.rhs.nbytes,
    }


def _norms_counts(a: dict, report) -> dict:
    return {"norms.quad_evals": a["mesh"].n_intervals * a["quad"].points * a["quad"].panels}


# name looked up in cuspfem.experiments -> (span name, counters(arguments, result))
WRAPPED = {
    "make_problem": ("problem.make", None),
    "build_mesh": ("mesh.build", lambda a, mesh: {"mesh.intervals": mesh.n_intervals}),
    "validate_mesh": ("mesh.validate", None),
    "compute_deltas": (
        "assembly.deltas",
        lambda a, stab: {"assembly.deltas_capped": int(stab.caps_applied.sum())},
    ),
    "assemble_galerkin": ("assembly.assemble", _assembly_counts),
    "assemble_sdfem": ("assembly.assemble", _assembly_counts),
    "solve_banded": (
        "assembly.solve",
        lambda a, fn: {"assembly.dofs": a["system"].dimension, "assembly.residual_max": fn.residual},
    ),
    "error_norms": ("norms.error", _norms_counts),
    "emit": ("experiments.emit", None),
    # the per-case unit of work that the thread pool maps over
    "_run_case": (CASE, None),
}

LAYER_SPANS = (
    "problem.make",
    "mesh.build",
    "mesh.validate",
    "assembly.deltas",
    "assembly.assemble",
    "assembly.solve",
    "norms.error",
    "experiments.emit",
)
COUNTERS = (
    "mesh.intervals",
    "assembly.deltas_capped",
    "assembly.quad_evals",
    "assembly.bytes_computed",
    "assembly.dofs",
    "norms.quad_evals",
)


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Keeps finished spans in memory; spans on worker threads hang off the
    root span of the pass that started them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._pass = None
        self._t0 = time.perf_counter()

    def run_pass(self, main, argv, index: int):
        self._pass = index
        self._root = None
        return self._call(ROOT, main, None, (argv,), {}, None)

    def _call(self, name, fn, sig, args, kwargs, counters):
        stack = self._local.__dict__.setdefault("stack", [])
        parent, case = stack[-1] if stack else (self._root, None)
        sid = next(self._ids)
        if parent is None:
            self._root = sid
        if name == CASE:
            a = _bound(sig, args, kwargs)
            case = case_key(a["eps"], a["n"], a["k"])
        stack.append((sid, case))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {
            "name": name,
            "id": sid,
            "parent": parent,
            "start": start - self._t0,
            "end": end - self._t0,
            "case": case,
            "thread": threading.get_ident(),
            "pass": self._pass,
        }
        if counters is not None:
            span.update(counters(_bound(sig, args, kwargs), result))
        self.spans.append(span)
        return result

    def wrap(self, name, fn, counters):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, sig, args, kwargs, counters)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


@contextmanager
def traced(tracer: Tracer, experiments):
    """Route the CLI's calls through `tracer` while the block runs.  A name
    that `cuspfem.experiments` no longer has raises AttributeError here."""
    originals = {}
    try:
        for attr, (name, counters) in WRAPPED.items():
            fn = getattr(experiments, attr)
            originals[attr] = fn
            setattr(experiments, attr, tracer.wrap(name, fn, counters))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(experiments, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def pass_metrics(spans: list[dict], workers: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass and the span count per name.
    Self time is a span's duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    selfs = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        selfs[s["id"]] = s["end"] - s["start"] - _covered(kids)
    (root,) = [s for s in spans if s["name"] == ROOT]
    wall = root["end"] - root["start"]
    m = {f"{name}_s": 0.0 for name in LAYER_SPANS}
    m.update({name: 0 for name in COUNTERS})
    m["assembly.residual_max"] = 0.0
    m["experiments.driver_self_s"] = 0.0
    busy = 0.0
    counts = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
        if s["name"] in LAYER_SPANS:
            m[f"{s['name']}_s"] += selfs[s["id"]]
        else:  # the root and the per-case glue
            m["experiments.driver_self_s"] += selfs[s["id"]]
        if s["name"] == CASE:
            busy += s["end"] - s["start"]
        for key in COUNTERS:
            m[key] += s.get(key, 0)
        m["assembly.residual_max"] = max(m["assembly.residual_max"], s.get("assembly.residual_max", 0.0))
    m["experiments.pool_busy_frac"] = busy / (workers * wall)
    m["trace.run_s"] = wall
    return m, dict(counts)
