"""
The benchmark's span tracer (perfbench/tracer.py) times the CLI by swapping
names in the `cuspfem.experiments` namespace.  These tests run it over two
tiny sweeps, so that renaming a patched name or one of its parameters fails
here and not only in traced benchmark runs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import cuspfem.experiments as experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the theorem-capped SDFEM sweep reaches the deltas; the FEM converge does not
ARGVS = (
    ["eps-sweep", "--method", "sdfem", "--delta-policy", "theorem-capped", "--lambda", "0.25",
     "--eps", "1,1e-8", "--n", "16", "--k", "1,2"],
    ["converge", "--lambda", "0.25", "--eps", "1e-6", "--n", "16,32", "--k", "2"],
)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_traced_passes_record_every_span_and_counter(tracer, tmp_path):
    originals = {attr: getattr(experiments, attr) for attr in tracer.WRAPPED}
    t = tracer.Tracer()
    with tracer.traced(t, experiments):
        for index, argv in enumerate(ARGVS):
            argv = [*argv, "--out", str(tmp_path / "t.csv")]
            assert t.run_pass(experiments.main, argv, index) == 0
    assert {attr: getattr(experiments, attr) for attr in tracer.WRAPPED} == originals

    names = {s["name"] for s in t.spans}
    assert set(tracer.LAYER_SPANS) | {tracer.CASE, tracer.ROOT} <= names
    assert set(tracer.COUNTERS) <= {key for s in t.spans for key in s}
    cases = [s["case"] for s in t.spans if s["name"] == tracer.CASE]
    assert len(cases) == 2 * 1 * 2 + 1 * 2 * 1
    for index, distinct_eps in enumerate((2, 1)):
        spans = [s for s in t.spans if s["pass"] == index]
        metrics, counts = tracer.pass_metrics(spans, workers=1)
        assert metrics["assembly.dofs"] > 0 and metrics["assembly.residual_max"] < 1e-10
        # one Problem per eps, made by the driver before the cases
        (root,) = [s["id"] for s in spans if s["name"] == tracer.ROOT]
        makes = [s for s in spans if s["name"] == "problem.make"]
        assert counts["problem.make"] == len(makes) == distinct_eps
        assert all(s["parent"] == root for s in makes)


@pytest.mark.parametrize("k", range(1, 9))
def test_assembled_bands_keep_the_size_that_bytes_computed_counts(k):
    # assembly.bytes_computed adds system.bands.nbytes: (2k+1) rows of n,
    # the band rows of the (3k+1, n) LU storage
    mesh = experiments.build_mesh(experiments.MeshParams(1e-6, 16, k, 0.25))
    prob = experiments.make_problem("sun-stynes-example", 1e-6, 0.25)
    for system in (
        experiments.assemble_galerkin(prob, mesh, k),
        experiments.assemble_sdfem(prob, mesh, k, stab=experiments.compute_deltas(mesh, 1e-6)),
    ):
        n = system.dimension
        assert system.bands.shape == (2 * k + 1, n)
        assert system.bands.nbytes == (2 * k + 1) * n * 8
