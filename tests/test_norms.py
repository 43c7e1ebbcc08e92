from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import patch_problem, zero_stab

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
