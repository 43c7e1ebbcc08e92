from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from helpers import (
    no_exact_problem,
    patch_problem,
    uniform_error_norms,
    whole_mesh_norms,
    zero_stab,
)

import cuspfem.assembly
from cuspfem import (
    DiscreteFunction,
    MeshParams,
    Problem,
    QuadSpec,
    StabilizationProfile,
    assemble_sdfem,
    assemble_galerkin,
    build_mesh,
    compute_deltas,
    error_norms,
    global_nodes,
    interpolate,
    make_test_problem,
    sd_distance,
    solve_banded,
)
from cuspfem.assembly import _blocks, _element_tables, _windows
from cuspfem.norms import ErrorReport, _panel_counts


def constant_one_problem(eps: float) -> Problem:
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Problem(
        eps=eps,
        coeff_b=one,
        coeff_c=one,
        rhs_f=one,
        exact=one,
        exact_dx=zero,
    )


def zero_exact_problem(eps: float) -> Problem:
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Problem(
        eps=eps,
        coeff_b=one,
        coeff_c=one,
        rhs_f=zero,
        exact=zero,
        exact_dx=zero,
    )


class TestInterpolate:
    def test_nodal_values_match_exact(self):
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 32, 2, 0.25))
        fn = interpolate(prob, mesh, 2)
        nodes = global_nodes(mesh, 2, "uniform")
        assert np.array_equal(fn.coefficients[1:-1], prob.exact(nodes[1:-1]))
        assert fn.coefficients[0] == 0.0 and fn.coefficients[-1] == 0.0

    def test_reproduces_in_space_function(self):
        prob = patch_problem(eps=1.0, degree=2)
        mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
        fn = interpolate(prob, mesh, 2)
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, 50)
        assert fn(x) == pytest.approx(1.0 - x ** 2, abs=1e-13)

    def test_sup_error_decreases_with_refinement(self):
        prob = make_test_problem(1e-6, 0.25)
        xs = np.linspace(-1.0, 1.0, 4001)
        sups = []
        for n in (64, 128):
            mesh = build_mesh(MeshParams(1e-6, n, 2, 0.25))
            fn = interpolate(prob, mesh, 2)
            sups.append(float(np.max(np.abs(fn(xs) - prob.exact(xs)))))
        assert sups[1] < sups[0]

    def test_requires_exact(self):
        prob = make_test_problem(1e-6, 0.25)
        bare = Problem(
            eps=prob.eps,
            coeff_b=prob.coeff_b,
            coeff_c=prob.coeff_c,
            rhs_f=prob.rhs_f,
        )
        mesh = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        with pytest.raises(ValueError):
            interpolate(bare, mesh, 1)


class TestErrorNorms:
    def test_constant_difference_probe(self):
        # u = 1, u_h = 0: l2 = energy = sqrt(2), ||x e'|| = 0
        eps = 1e-6
        prob = constant_one_problem(eps)
        mesh = build_mesh(MeshParams(eps, 16, 1, 1.0))
        zero_fn = DiscreteFunction(mesh, 1, "uniform", np.zeros(mesh.n_intervals + 1))
        rep = error_norms(zero_fn, prob, mesh)
        assert rep.l2 == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert rep.energy == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert rep.sd == rep.energy
        assert rep.weighted_xdp == pytest.approx(0.0, abs=1e-12)

    def test_requires_exact(self):
        mesh = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        zero_fn = DiscreteFunction(mesh, 1, "uniform", np.zeros(mesh.n_intervals + 1))
        with pytest.raises(ValueError, match="error_norms needs a problem with exact solution"):
            error_norms(zero_fn, no_exact_problem(), mesh)

    def test_in_space_solution_measures_zero(self):
        prob = patch_problem(eps=1.0, degree=2)
        mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
        fn = interpolate(prob, mesh, 2)
        rep = error_norms(fn, prob, mesh, stab=compute_deltas(mesh, 1.0))
        for value in (rep.l2, rep.energy, rep.sd, rep.weighted_xdp):
            assert value <= 1e-12

    def test_norm_ordering(self):
        eps = 1e-10
        prob = make_test_problem(eps, 0.005)
        mesh = build_mesh(MeshParams(eps, 128, 1, 0.005))
        stab = compute_deltas(mesh, eps)
        fn = solve_banded(assemble_sdfem(prob, mesh, 1, stab=stab))
        rep = error_norms(fn, prob, mesh, stab=stab)
        assert rep.sd >= rep.energy >= rep.l2 > 0.0

    @pytest.mark.parametrize("eps", [1e-10, 1e-14])
    def test_panel_refinement_stable(self, eps):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, 2, 0.25))
        stab = compute_deltas(mesh, eps)
        fn = solve_banded(assemble_sdfem(prob, mesh, 2, stab=stab))
        r1 = error_norms(fn, prob, mesh, stab=stab)
        r2 = error_norms(fn, prob, mesh, stab=stab, quad=QuadSpec(5, 32))
        for name in ("l2", "energy", "sd", "weighted_xdp"):
            a, b = getattr(r1, name), getattr(r2, name)
            assert abs(a - b) <= 1e-3 * b

    def test_mesh_mismatch_rejected(self):
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        other = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        fn = interpolate(prob, mesh, 1)
        with pytest.raises(ValueError):
            error_norms(fn, prob, other)


def mismatched_profiles(mesh) -> list[StabilizationProfile]:
    """A 1-entry profile and one built on twice the mesh's N; neither fits."""
    eps = mesh.params.eps
    finer = build_mesh(MeshParams(eps, 2 * mesh.params.n_half, mesh.params.order, mesh.params.lam))
    return [
        StabilizationProfile(np.array([1e-3]), np.zeros(1, dtype=bool)),
        compute_deltas(finer, eps),
    ]


class TestProfileSize:
    # eps 1e-6, N 16, k 2, Galerkin: a 1-entry profile used to broadcast
    # silently and an N = 32 one to fail inside numpy
    def setup_method(self):
        self.prob = make_test_problem(1e-6, 0.25)
        self.mesh = build_mesh(MeshParams(1e-6, 16, 2, 0.25))
        self.fn = solve_banded(assemble_galerkin(self.prob, self.mesh, 2))

    @pytest.mark.parametrize("which", [0, 1], ids=["one-entry", "finer-mesh"])
    def test_error_norms_rejects_mismatch(self, which):
        stab = mismatched_profiles(self.mesh)[which]
        with pytest.raises(ValueError, match="stabilization profile does not match the mesh"):
            error_norms(self.fn, self.prob, self.mesh, stab=stab)

    @pytest.mark.parametrize("which", [0, 1], ids=["one-entry", "finer-mesh"])
    def test_sd_distance_rejects_mismatch(self, which):
        stab = mismatched_profiles(self.mesh)[which]
        with pytest.raises(ValueError, match="stabilization profile does not match the mesh"):
            sd_distance(interpolate(self.prob, self.mesh, 2), self.fn, self.prob, stab)


class TestSdDistance:
    def test_identical_functions_zero(self):
        prob = make_test_problem(1e-8, 0.25)
        mesh = build_mesh(MeshParams(1e-8, 32, 2, 0.25))
        fn = interpolate(prob, mesh, 2)
        stab = compute_deltas(mesh, 1e-8)
        assert sd_distance(fn, fn, prob, stab) == 0.0

    def test_zero_deltas_equal_energy_distance(self):
        eps = 1e-8
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 32, 2, 0.25))
        a = interpolate(prob, mesh, 2)
        b = solve_banded(assemble_galerkin(prob, mesh, 2))
        dist = sd_distance(a, b, prob, zero_stab(mesh))
        diff = DiscreteFunction(mesh, 2, "uniform", a.coefficients - b.coefficients)
        ref = error_norms(diff, zero_exact_problem(eps), mesh).energy
        assert dist == pytest.approx(ref, rel=1e-12)

    def test_supercloseness_beats_plain_error(self):
        # distance(interpolant, solution) is far below the error itself
        eps = 1e-10
        prob = make_test_problem(eps, 0.005)
        mesh = build_mesh(MeshParams(eps, 512, 1, 0.005))
        stab = compute_deltas(mesh, eps)
        fn = solve_banded(assemble_sdfem(prob, mesh, 1, stab=stab))
        close = sd_distance(interpolate(prob, mesh, 1), fn, prob, stab)
        rep = error_norms(fn, prob, mesh, stab=stab)
        assert close < 0.2 * rep.sd

    def test_mismatches_rejected(self):
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        other = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        stab = compute_deltas(mesh, 1e-6)
        a = interpolate(prob, mesh, 1)
        with pytest.raises(ValueError):
            sd_distance(a, interpolate(prob, other, 1), prob, stab)
        with pytest.raises(ValueError):
            sd_distance(a, interpolate(prob, mesh, 2), prob, stab)

    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(points=2)
        with pytest.raises(ValueError):
            QuadSpec(panels=0)


def solved(method: str, k: int, eps: float, lam: float, n: int):
    prob = make_test_problem(eps, lam)
    mesh = build_mesh(MeshParams(eps, n, k, lam))
    if method == "galerkin":
        return prob, mesh, None, solve_banded(assemble_galerkin(prob, mesh, k))
    stab = compute_deltas(mesh, eps)
    return prob, mesh, stab, solve_banded(assemble_sdfem(prob, mesh, k, stab=stab))


def gate_cases():
    """Galerkin and SDFEM, k 1..8, five eps and four lambda (all <= k + 1)
    at N = 8, plus N = 32 where the inner elements are thinnest."""
    for method, k, eps, lam in itertools.product(
        ("galerkin", "sdfem"), range(1, 9), (1.0, 1e-3, 1e-6, 1e-10, 1e-14), (0.005, 0.25, 1.0, 1.9)
    ):
        yield method, k, eps, lam, 8
        if eps <= 1e-10 and lam <= 0.25:
            yield method, k, eps, lam, 32


class TestLayerGradedQuadrature:
    def test_accuracy_against_uniform_reference(self):
        # each norm within max(1e-3 ref, 2 |old - ref|) of a 16-point x
        # 64-panel reference, old being the former uniform 5 x 8 rule;
        # errors below 1e-9 are left out, there e is rounding noise
        failures, gated = [], 0
        for case in gate_cases():
            prob, mesh, stab, fn = solved(*case)
            ref = uniform_error_norms(fn, prob, stab, 16, 64)
            if ref[1] < 1e-9:
                continue
            gated += 1
            old = uniform_error_norms(fn, prob, stab, 5, 8)
            rep = error_norms(fn, prob, mesh, stab)
            new = np.array([rep.l2, rep.energy, rep.sd, rep.weighted_xdp])
            if np.any(np.abs(new - ref) > np.maximum(1e-3 * ref, 2 * np.abs(old - ref))):
                failures.append(case)
        assert failures == []
        assert gated >= 300

    def test_points_raised_to_k_plus_3(self):
        prob, mesh, stab, fn = solved("sdfem", 4, 1e-6, 0.25, 16)
        assert error_norms(fn, prob, mesh, stab, QuadSpec(3, 1)) == error_norms(
            fn, prob, mesh, stab, QuadSpec(7, 1)
        )

    @pytest.mark.parametrize("eps", [1.0, 1e-6, 1e-14])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_fine_mesh_one_panel_per_element(self, eps, k):
        # above lambda = 0.5 the elements next to 0 may keep more: the mesh
        # there can be uniform and coarser than sqrt(eps)
        mesh = build_mesh(MeshParams(eps, 512, k, 0.25))
        assert np.all(_panel_counts(mesh, eps, 8) == 1)

    @pytest.mark.parametrize("cap", [3, 8])
    def test_coarse_mesh_reaches_cap_next_to_zero(self, cap):
        # N = 8 at eps 1e-10 puts whole decades in one element:
        # [-1e-2, -1e-3] is 9 times as long as its distance from 0
        eps = 1e-10
        mesh = build_mesh(MeshParams(eps, 8, 2, 0.25))
        counts = _panel_counts(mesh, eps, cap)
        assert mesh.nodes[4] == -1e-2 and mesh.nodes[5] == -1e-3
        assert counts.max() == cap
        assert counts[4] == counts[-5] == cap
        # [-1e-5, 0] touches 0 and is twice half the layer scale sqrt(eps)
        assert counts[7] == counts[8] == 2

    def test_sd_distance_uses_the_error_norm_panels(self):
        eps = 1e-10
        prob, mesh, stab, fn = solved("sdfem", 3, eps, 0.25, 32)
        assert len(np.unique(_panel_counts(mesh, eps, 8))) > 2
        interp = interpolate(prob, mesh, 3)
        diff = DiscreteFunction(mesh, 3, "uniform", interp.coefficients - fn.coefficients)
        zero = lambda x: np.zeros_like(x)
        zero_exact = Problem(eps, prob.coeff_b, prob.coeff_c, prob.rhs_f, exact=zero, exact_dx=zero)
        assert sd_distance(interp, fn, prob, stab) == error_norms(diff, zero_exact, mesh, stab).sd


def masked_grouping_norms(fn, problem, stab, quad, minus=None) -> ErrorReport:
    """The norms' former grouping, the bit-for-bit reference of the current
    one: each block's panel counts from np.unique, and each count's elements
    gathered by a boolean mask even when they are the whole block."""
    k = fn.order
    windows = _windows(fn.coefficients, k)
    subtrahend = None if minus is None else _windows(minus.coefficients, k)
    sums, sd = np.zeros(3), 0.0
    for block in _blocks(fn.mesh):
        local = windows[block.span].T
        if minus is not None:
            local = local - subtrahend[block.span].T
        counts = _panel_counts(block, problem.eps, quad.panels)
        for p in np.unique(counts):
            g = counts == p
            tables = _element_tables(k, fn.family, max(quad.points, k + 3), int(p))
            h, u, xq = block.lengths[g], local[:, g], block.at(tables.rule.points, g)
            err, derr = tables.V.T @ u, (tables.D1.T @ u) / h
            if minus is None:
                err, derr = problem.exact(xq) - err, problem.exact_dx(xq) - derr
            wq = tables.rule.weights[:, None] * h
            sums += [np.sum(wq * err * err), np.sum(wq * derr * derr), np.sum(wq * (xq * derr) ** 2)]
            if stab is not None:
                sd += np.sum(stab.deltas[block.span][g] * wq * (problem.coeff_a(xq) * derr) ** 2)
    l2, h1, xdp = sums
    return ErrorReport(*np.sqrt([l2, problem.eps * h1 + l2, problem.eps * h1 + l2 + sd, xdp]))


def assert_grouping_matches_reference(prob, mesh, stab, fn, distance_stab, quad=QuadSpec()):
    """error_norms (profile `stab`) and sd_distance of the interpolant and fn
    (profile `distance_stab`) equal the masked grouping bit for bit."""
    assert error_norms(fn, prob, mesh, stab, quad) == masked_grouping_norms(fn, prob, stab, quad)
    interp = interpolate(prob, mesh, fn.order)
    ref = masked_grouping_norms(interp, prob, distance_stab, quad, minus=fn).sd
    assert sd_distance(interp, fn, prob, distance_stab, quad) == ref


class TestGroupingReference:
    # A block whose elements share one panel count is used in place, not
    # gathered by a mask; the matrix products and sums see the same values
    # in the same order, so the norms are those of the masked grouping
    @pytest.mark.parametrize("eps", [1.0, 1e-10])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    def test_fine_mesh_blocks_of_one_count(self, method, k, eps):
        prob, mesh, stab, fn = solved(method, k, eps, 0.25, 1024)
        assert mesh.n_intervals > cuspfem.assembly.BLOCK_ELEMENTS
        assert np.all(_panel_counts(mesh, eps, QuadSpec().panels) == 1)
        assert_grouping_matches_reference(prob, mesh, stab, fn, compute_deltas(mesh, eps))


class TestBlockedSums:
    # The norms walk the mesh in blocks and group each block's elements by
    # panel count, so they add the same terms as a whole-mesh pass in
    # another order.  Eight-element blocks split the panel groups of these
    # coarse meshes (panel counts 1, 2, 3, 5 and 6).
    @pytest.mark.parametrize("n_half", [16, 32])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("method", ["fem", "sdfem"])
    def test_matches_the_whole_mesh_pass(self, monkeypatch, method, k, n_half):
        eps = 1e-8
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
        capped = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
        if method == "fem":
            stab, fn = None, solve_banded(assemble_galerkin(prob, mesh, k))
        else:
            stab, fn = capped, solve_banded(assemble_sdfem(prob, mesh, k, stab=capped))
        interp = interpolate(prob, mesh, k)
        diff = DiscreteFunction(mesh, k, "uniform", interp.coefficients - fn.coefficients)
        quad = QuadSpec()
        ref = whole_mesh_norms(fn, prob, stab, quad)
        ref_distance = whole_mesh_norms(diff, prob, capped, quad, exact=False)[2]
        panel_counts = np.unique(_panel_counts(mesh, eps, quad.panels)).size
        assert panel_counts >= 3
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 8)
        cuspfem.assembly._element_tables.cache_clear()
        rep = error_norms(fn, prob, mesh, stab, quad)
        # one set of reference tables per panel count, not per block
        assert cuspfem.assembly._element_tables.cache_info().misses == panel_counts
        new = np.array([rep.l2, rep.energy, rep.sd, rep.weighted_xdp])
        assert np.all(np.abs(new - ref) <= 1e-13 * ref)
        distance = sd_distance(interp, fn, prob, capped, quad)
        assert abs(distance - ref_distance) <= 1e-13 * ref_distance
        # blocks of several counts keep the mask: bit for bit the former grouping
        assert_grouping_matches_reference(prob, mesh, stab, fn, capped, quad)
