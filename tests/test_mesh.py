from __future__ import annotations

import dataclasses
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, getcontext

import numpy as np
import pytest
from helpers import loop_mesh_nodes

from cuspfem import (
    Mesh,
    MeshConstructionError,
    MeshParams,
    build_mesh,
    compute_big_k,
    compute_sigma,
    mesh_header,
    save_mesh,
    validate_mesh,
)
from cuspfem.mesh import _BIG_K_SNAP, _node_checks, _node_set

getcontext().prec = 60


def sigma_oracle_eps_branch(eps_exp: int, lam: Decimal, k: int) -> float:
    """sigma = 10^(-j (1 - lam/(k+1)) / 2) in 60-digit decimal arithmetic."""
    e = Decimal(eps_exp) * (1 - lam / (k + 1)) / 2
    return float(Decimal(10) ** (-e))


class TestSigma:
    def test_eps_one(self):
        res = compute_sigma(MeshParams(1.0, 64, 1, 0.5))
        assert res.value == 1.0
        assert res.branch == "eps"

    def test_layer_case_against_decimal(self):
        res = compute_sigma(MeshParams(1e-10, 1024, 2, 0.005))
        expect = sigma_oracle_eps_branch(10, Decimal("0.005"), 2)
        assert res.branch == "eps"
        assert res.value == pytest.approx(expect, rel=1e-13)
        assert res.value == pytest.approx(1.0194e-5, rel=1e-4)

    def test_moderate_case_against_decimal(self):
        res = compute_sigma(MeshParams(1e-4, 64, 2, 0.25))
        expect = sigma_oracle_eps_branch(4, Decimal("0.25"), 2)
        assert res.value == pytest.approx(expect, rel=1e-13)
        assert res.value == pytest.approx(1.4678e-2, rel=1e-4)

    def test_n_branch_takes_over_for_tiny_eps(self):
        res = compute_sigma(MeshParams(1e-30, 8, 1, 0.0))
        assert res.branch == "n"
        assert res.value == pytest.approx(8.0 ** -3, rel=1e-14)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = MeshParams(
                10.0 ** rng.uniform(-50, 0),
                int(rng.integers(4, 4096)),
                int(rng.integers(1, 9)),
                float(rng.uniform(0.0, 2.0)),
            )
            value = compute_sigma(p).value
            assert 0.0 < value <= 1.0


class TestBigK:
    def test_sigma_one(self):
        assert compute_big_k(1.0) == 1

    def test_spec_values(self):
        assert compute_big_k(compute_sigma(MeshParams(1e-10, 1024, 2, 0.005)).value) == 5
        assert compute_big_k(compute_sigma(MeshParams(1e-4, 64, 2, 0.25)).value) == 2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_big_k(0.0)
        with pytest.raises(ValueError):
            compute_big_k(1.5)
        with pytest.raises(ValueError):
            compute_big_k(-0.1)

    def test_bracketing_property(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            sigma = 10.0 ** rng.uniform(-49.9, 0.0)
            big_k = compute_big_k(sigma)
            assert 0.1 * sigma <= 10.0 ** (-big_k) < sigma * (1 + 1e-12)

    def test_exact_power_of_ten(self):
        # snap guard keeps sigma = 10^-j on the K = j + 1 side
        for j in range(1, 20):
            assert compute_big_k(10.0 ** (-j)) == j + 1

    def test_snap_lets_10_to_the_minus_k_sit_just_below_sigma_over_10(self):
        # sigma just above 10^-2 snaps to K = 3, so 10^-K < sigma/10, but
        # by less than the snap's factor 10^-1e-9
        sigma = 1e-2 * (1 + 1.6e-9)
        big_k = compute_big_k(sigma)
        assert big_k == 3 and 10.0**-big_k < 0.1 * sigma
        assert 10.0**-big_k >= 0.1 * sigma * 10.0**-_BIG_K_SNAP


class TestBuildMesh:
    def test_hand_example_eps_one(self):
        mesh = build_mesh(MeshParams(1.0, 10, 1, 0.5))
        right = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.28, 0.46, 0.64, 0.82, 1.0]
        assert mesh.big_k == 1
        assert mesh.nodes[10:] == pytest.approx(right, abs=1e-15)
        assert mesh.n_intervals == 20

    def test_even_split_lengths(self):
        # K = 2, N = 12 divisible by K + 1: every decade gets 4 intervals
        mesh = build_mesh(MeshParams(1e-4, 12, 2, 0.25))
        assert mesh.big_k == 2
        h = mesh.lengths[12:]
        assert h[:4] == pytest.approx(np.full(4, 0.01 / 4), rel=1e-13)
        assert h[4:8] == pytest.approx(np.full(4, (0.1 - 0.01) / 4), rel=1e-13)
        assert h[8:] == pytest.approx(np.full(4, 0.9 / 4), rel=1e-13)

    def test_remainder_goes_to_outer_decades(self):
        # N = 13 = 3 * 4 + 1: innermost two decades get 4 parts, outer gets 5
        mesh = build_mesh(MeshParams(1e-4, 13, 2, 0.25))
        h = mesh.lengths[13:]
        assert h[:4] == pytest.approx(np.full(4, 0.01 / 4), rel=1e-13)
        assert h[4:8] == pytest.approx(np.full(4, 0.09 / 4), rel=1e-13)
        assert h[8:] == pytest.approx(np.full(5, 0.9 / 5), rel=1e-13)

    def test_structure_invariants(self):
        mesh = build_mesh(MeshParams(1e-10, 512, 1, 0.005))
        n = mesh.params.n_half
        assert mesh.nodes.shape == (2 * n + 1,)
        assert mesh.nodes[0] == -1.0 and mesh.nodes[-1] == 1.0
        assert mesh.nodes[n] == 0.0
        assert np.all(np.diff(mesh.nodes) > 0)
        # bitwise mirror symmetry
        assert np.array_equal(mesh.nodes, -mesh.nodes[::-1])
        assert np.array_equal(mesh.lengths, np.diff(mesh.nodes))
        assert float(np.sum(mesh.lengths)) == pytest.approx(2.0, abs=1e-12)
        assert np.max(mesh.lengths) <= (mesh.big_k + 1) / n * (1 + 1e-12)

    def test_n_branch_first_node_bound(self):
        mesh = build_mesh(MeshParams(1e-30, 8, 1, 0.0))
        assert mesh.sigma_branch == "n"
        k = mesh.params.order
        bound = (mesh.big_k + 1) * mesh.params.n_half ** (-2 * (k + 1))
        first = mesh.nodes[mesh.params.n_half + 1]
        assert first <= bound * (1 + 1e-12)

    def test_too_coarse_raises_with_minimum(self):
        # N-branch floor caps K near (2k+1) log10 N, so k must outrun N
        params = MeshParams(1e-40, 4, 8, 0.005)
        big_k = compute_big_k(compute_sigma(params).value)
        assert params.n_half < big_k + 1
        with pytest.raises(MeshConstructionError) as err:
            build_mesh(params)
        assert str(big_k + 1) in str(err.value)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MeshParams(0.0, 8, 1, 0.5)
        with pytest.raises(ValueError):
            MeshParams(2.0, 8, 1, 0.5)
        with pytest.raises(ValueError):
            MeshParams(1e-4, 0, 1, 0.5)
        with pytest.raises(ValueError):
            MeshParams(1e-4, 8, 0, 0.5)
        with pytest.raises(ValueError):
            MeshParams(1e-4, 8, 1, -0.5)
        # at eps = 1 sigma is 1 for any lambda, so only this check stops lambda > k + 1
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, k \+ 1\] = \[0, 2\], got 2.5"):
            MeshParams(1.0, 8, 1, 2.5)
        MeshParams(1.0, 8, 1, 2.0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_nodes_match_the_decade_loop(self, k):
        # K + 1 does not divide 7, 100 or 513 for most K, so the decades'
        # part counts differ; a mesh too coarse for its K is skipped
        for eps in 10.0 ** -np.arange(15.0):
            for lam in (0.005, 0.25, 1.0, 2.0):
                for n_half in (7, 100, 513, 1024):
                    params = MeshParams(eps, n_half, k, lam)
                    try:
                        nodes = build_mesh(params).nodes
                    except MeshConstructionError:
                        continue
                    assert np.array_equal(nodes, loop_mesh_nodes(params)), params


def _moved(mesh: Mesh, i: int, x: float) -> Mesh:
    """`mesh` with node i moved to x."""
    nodes = mesh.nodes.copy()
    nodes[i] = x
    return dataclasses.replace(mesh, nodes=nodes)


# on eps 1e-8, N 16, k 2, lambda 0.25: K = 4, (K+1)/N = 0.3125, and the
# outermost decade's elements are 0.225 long; node 16 of 33 is 0
BROKEN_MESHES = {
    "interval count 32 != 2N = 34": lambda m: dataclasses.replace(
        m, params=dataclasses.replace(m.params, n_half=17)
    ),
    "nodes not strictly increasing": lambda m: _moved(m, 5, m.nodes[4]),
    "endpoints differ from -1, 1": lambda m: dataclasses.replace(m, nodes=m.nodes * 0.5),
    "0 is not the central node": lambda m: _moved(m, 16, 0.5 * m.nodes[17]),
    "max interval length 0.4 exceeds (K+1)/N = 0.3125": lambda m: _moved(m, -2, 0.6),
    # eps 1e-30, lambda 0 puts sigma on the N branch, 16^-5, with K = 7,
    # while the nodes keep K = 4: x_1 = 1e-4 / 3
    "x_1 = 3.33": lambda m: dataclasses.replace(
        m, params=dataclasses.replace(m.params, eps=1e-30, lam=0.0)
    ),
    # too few intervals for the decades, on either branch: sigma = 4^-5
    # gives K = 4 (N = K would divide the x_1 bound by zero), and
    # sigma = 1e-5 on the eps branch gives K = 6
    "N = 4 < K + 1 = 5": lambda m: dataclasses.replace(m, params=MeshParams(1e-30, 4, 2, 0.0)),
    "N = 2 < K + 1 = 7": lambda m: dataclasses.replace(m, params=MeshParams(1e-10, 2, 8, 0.0)),
    # this raised IndexError: the endpoint check read nodes[0]
    "interval count 0 != 2N = 32": lambda m: dataclasses.replace(m, nodes=np.empty(0)),
}


class TestValidateMesh:
    @pytest.mark.parametrize("message", list(BROKEN_MESHES))
    def test_each_violation_reported(self, message):
        mesh = build_mesh(MeshParams(1e-8, 16, 2, 0.25))
        assert validate_mesh(mesh).violations == ()
        violations = validate_mesh(BROKEN_MESHES[message](mesh)).violations
        assert any(v.startswith(message) for v in violations), violations

    def test_clean_meshes_pass(self):
        for eps, n, k, lam in [(1.0, 10, 1, 0.5), (1e-10, 512, 2, 0.005), (1e-30, 64, 3, 0.25)]:
            mesh = build_mesh(MeshParams(eps, n, k, lam))
            diag = validate_mesh(mesh)
            assert diag.ok, diag.violations
            assert mesh.n_intervals == 2 * n

    def test_displaced_node_flagged(self):
        good = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        nodes = good.nodes.copy()
        nodes[40] += 0.3 * (nodes[41] - nodes[40])
        diag = validate_mesh(Mesh(params=good.params, nodes=nodes))
        assert not diag.ok
        assert len(diag.violations) >= 1

    def test_random_tuples(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 40:
            params = MeshParams(
                10.0 ** rng.uniform(-50, 0),
                int(rng.integers(4, 2048)),
                int(rng.integers(1, 9)),
                float(rng.uniform(0.0, 2.0)),
            )
            big_k = compute_big_k(compute_sigma(params).value)
            if params.n_half < big_k + 1:
                continue
            diag = validate_mesh(build_mesh(params))
            assert diag.ok, (params, diag.violations)
            done += 1

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_small_mesh_validates(self, k):
        # the random tuples above miss small N on the N branch, where
        # x_1 = 10^-K / floor(N/(K+1)) is largest against its bound when
        # K + 1 does not divide N (N 46, k 1, eps <= 1e-10 is one case)
        for eps in 10.0 ** -np.arange(15.0):
            for lam in (0.0, 0.25):
                for n_half in range(2, 65):
                    params = MeshParams(eps, n_half, k, lam)
                    if n_half < compute_big_k(compute_sigma(params).value) + 1:
                        continue
                    diag = validate_mesh(build_mesh(params))
                    assert diag.ok, (params, diag.violations)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestDerivedFields:
    """A mesh is its params and nodes; sigma, its branch, K and the
    lengths are derived from them and cannot be given."""

    def test_init_fields_are_params_and_nodes(self):
        names = [f.name for f in dataclasses.fields(Mesh) if f.init]
        assert names == ["params", "nodes"]

    @pytest.mark.parametrize("name", ["sigma", "sigma_branch", "big_k", "lengths"])
    def test_replace_rejects_a_derived_field(self, name):
        mesh = build_mesh(MeshParams(1e-8, 16, 2, 0.25))
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(mesh, **{name: getattr(mesh, name)})


class TestSharedNodeSets:
    """Meshes of equal (N, K) share one cached node array, and the checks
    that read only the nodes run once, when the array is made."""

    def test_cached_meshes_match_a_construction_without_the_cache(self):
        previous, shared = None, 0
        for n_half in (16, 64, 256, 1024, 4096):
            for eps in 10.0 ** -np.arange(15.0):
                for k in range(1, 9):
                    for lam in (0.25, 1.0):
                        params = MeshParams(eps, n_half, k, lam)
                        try:
                            mesh = build_mesh(params)
                        except MeshConstructionError:
                            continue
                        nodes = loop_mesh_nodes(params)
                        fresh = dataclasses.replace(mesh, nodes=nodes)
                        assert _bits(mesh.nodes) == _bits(fresh.nodes), params
                        assert _bits(mesh.lengths) == _bits(np.diff(nodes)), params
                        sigma = compute_sigma(params)
                        assert (mesh.sigma, mesh.sigma_branch) == sigma, params
                        assert mesh.big_k == compute_big_k(sigma.value), params
                        assert validate_mesh(mesh) == validate_mesh(fresh), params
                        if previous is not None and (n_half, mesh.big_k) == previous[0]:
                            # the set built last is still cached
                            assert mesh.nodes is previous[1].nodes
                            shared += 1
                        previous = ((n_half, mesh.big_k), mesh)
        assert shared > 500

    def test_each_call_returns_its_own_mesh(self):
        first = build_mesh(MeshParams(1e-8, 64, 1, 0.25))
        second = build_mesh(MeshParams(2e-8, 64, 2, 0.25))
        assert first.big_k == second.big_k
        assert second.nodes is first.nodes
        assert (first.params.eps, first.params.order) == (1e-8, 1)
        assert first.sigma != second.sigma
        assert not (first.nodes.flags.writeable or first.lengths.flags.writeable)

    def test_a_set_is_made_with_its_verdicts_and_never_changes(self):
        _node_set.cache_clear()
        mesh = build_mesh(MeshParams(1e-6, 40, 2, 0.25))
        shared = mesh._shared
        nodes = mesh.nodes.copy()
        assert shared.checks == _node_checks(nodes, 40, mesh.big_k)
        for name, value in (("checks", ()), ("nodes", nodes)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(shared, name, value)
        assert validate_mesh(mesh).ok and mesh._shared is shared

    def test_moved_node_of_a_cached_set_is_reported(self):
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        assert validate_mesh(mesh).ok
        nodes = mesh.nodes.copy()
        nodes[40] += 0.3 * (nodes[41] - nodes[40])
        moved = Mesh(mesh.params, nodes)
        spread = [v for v in validate_mesh(moved).violations if "not equidistant" in v]
        assert len(spread) == 1, validate_mesh(moved).violations
        # the set's own nodes with another N are checked in full
        recount = dataclasses.replace(mesh, params=dataclasses.replace(mesh.params, n_half=33))
        assert validate_mesh(recount).violations[0] == "interval count 64 != 2N = 66"
        assert validate_mesh(build_mesh(MeshParams(1e-6, 32, 1, 0.25))).ok

    def test_sets_beyond_the_bound_are_freed(self):
        # N = 65536: a set is 2N + 1 doubles, 1 MB; eps 10^-j gives K = j + 1
        # at k 1, lambda 0 (sigma = sqrt(eps)), up to K = 10
        n_half, bound = 65536, _node_set.cache_info().maxsize
        set_bytes = (2 * n_half + 1) * 8
        tracemalloc.start()
        try:
            for j in range(bound + 4):
                assert build_mesh(MeshParams(10.0 ** -(2 * j), n_half, 1, 0.0)).big_k == j + 1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (bound - 1) * set_bytes < held <= bound * set_bytes + 64 * 1024


    def test_threads_sharing_sets_get_the_full_verdicts(self):
        # 4 threads on 2 CPUs build and validate 240 meshes of 12 (N, K)
        # sets, more than the cache holds, switching threads every
        # microsecond; every set's verdicts equal those of a full check
        cases = [
            MeshParams(10.0 ** -(2 * j), n_half, k, 0.0)
            for j in range(6) for n_half in (64, 96) for k in (1, 2)
        ] * 10

        def verdicts(params):
            mesh = build_mesh(params)
            nodes = mesh.nodes.copy()
            fresh = dataclasses.replace(mesh, nodes=nodes)
            return validate_mesh(mesh), validate_mesh(fresh)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(verdicts, params) for params in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 240
        for shared, fresh in results:
            assert shared == fresh and shared.ok


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mesh = build_mesh(MeshParams(1e-8, 48, 2, 0.25))
        path = tmp_path / "mesh.csv"
        save_mesh(mesh, path)
        nodes = np.array([float(line) for line in path.read_text().splitlines()])
        assert np.array_equal(nodes, mesh.nodes)
        header = json.loads((tmp_path / "mesh.csv.json").read_text())
        assert header == mesh_header(mesh)
        assert header["K"] == mesh.big_k
        assert header["sigma"] == mesh.sigma
        assert header["N"] == 48

    def test_header_fields(self):
        mesh = build_mesh(MeshParams(1e-4, 16, 1, 0.25))
        header = mesh_header(mesh)
        assert set(header) == {"eps", "N", "k", "lambda", "sigma", "K"}
