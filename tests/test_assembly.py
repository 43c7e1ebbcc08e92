from __future__ import annotations

import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from helpers import (
    bands_to_dense,
    discrete_l2,
    einsum_reference_assembly,
    near_zero_coefficient_problem,
    patch_problem,
    reference_assembly,
    weak_form_on_exact,
    zero_stab,
)

from cuspfem import (
    AssemblyError,
    DiscreteFunction,
    LinearSystem,
    MeshParams,
    Problem,
    SolverError,
    StabilizationProfile,
    apply_system,
    assemble_galerkin,
    assemble_sdfem,
    build_mesh,
    compute_deltas,
    error_norms,
    estimate_c_inv,
    interpolate,
    make_test_problem,
    sd_distance,
    solve_banded,
)
from cuspfem.assembly import BLOCK_ELEMENTS, _element_tables


def zero_function(mesh, k, family="uniform"):
    return DiscreteFunction(mesh, k, family, np.zeros(mesh.n_intervals * k + 1))


def random_member(mesh, k, rng, family="uniform"):
    coef = np.zeros(mesh.n_intervals * k + 1)
    coef[1:-1] = rng.standard_normal(coef.size - 2)
    return DiscreteFunction(mesh, k, family, coef)


class TestComputeDeltas:
    def test_standard_formula(self):
        for eps in (1.0, 1e-6):
            mesh = build_mesh(MeshParams(eps, 32, 1, 0.25))
            stab = compute_deltas(mesh, eps)
            h = mesh.lengths
            assert np.array_equal(stab.deltas, np.minimum(h * h / eps, h))
            assert not stab.caps_applied.any()
        # scalar sanity: convection-dominated element gets h, diffusive h^2/eps
        assert min(0.01 ** 2 / 1.0, 0.01) == 1e-4
        assert min(0.01 ** 2 / 1e-6, 0.01) == 0.01

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="stabilization parameters must be nonnegative"):
            StabilizationProfile(np.array([0.1, -1e-3]), np.zeros(2, dtype=bool))

    def test_c0_scaling(self):
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        base = compute_deltas(mesh, 1e-6)
        scaled = compute_deltas(mesh, 1e-6, c0=0.3)
        assert np.allclose(scaled.deltas, 0.3 * base.deltas, rtol=1e-15)

    def test_theorem_caps_k1(self):
        eps, lam = 1e-6, 0.25
        prob = make_test_problem(eps, lam)
        mesh = build_mesh(MeshParams(eps, 64, 1, lam))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=1)
        h = mesh.lengths
        # gamma = 0.75, ||c||_inf = 2 lam = 0.5 -> global cap 1.5
        assert np.all(stab.deltas <= 1.5 * (1 + 1e-12))
        assert np.all(stab.deltas <= (mesh.big_k + 1) / 64 * (1 + 1e-12))
        assert np.all(stab.deltas <= h * h / eps * (1 + 1e-12))
        standard = compute_deltas(mesh, eps).deltas
        assert np.all(stab.deltas <= standard * (1 + 1e-12))
        assert np.array_equal(stab.caps_applied, stab.deltas < standard)

    def test_theorem_caps_k2_use_inverse_constant(self):
        eps, lam = 1e-6, 0.25
        prob = make_test_problem(eps, lam)
        mesh = build_mesh(MeshParams(eps, 64, 2, lam))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=2)
        h = mesh.lengths
        assert np.all(stab.deltas <= h * h / (2.0 * eps * 12.0) * (1 + 1e-12))

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_theorem_caps_are_the_exact_minimum(self, k, eps):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
        h = mesh.lengths
        if k == 1:
            cap = np.minimum(h * h / eps, (mesh.big_k + 1) / 64)
        else:
            c_inv = estimate_c_inv(k)
            cap = h * h / (2.0 * eps * c_inv * c_inv)
        standard = compute_deltas(mesh, eps).deltas
        expected = np.minimum(np.minimum(standard, prob.delta_cap), cap)
        assert np.array_equal(stab.deltas, expected)
        assert np.array_equal(stab.caps_applied, expected < standard)

    def test_cap_constant_kept_per_problem_object(self):
        # an unhashable evaluator is fine, and the constant goes with its Problem
        @dataclasses.dataclass
        class Reaction:
            lam: float

            def __call__(self, x):
                return self.lam * (1.0 + x * x * x)

        eps = 1e-6
        base = make_test_problem(eps, 0.25)
        prob = Problem(eps, base.coeff_b, Reaction(0.25), base.rhs_f)
        mesh = build_mesh(MeshParams(eps, 64, 1, 0.25))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=1)
        assert "_delta_cap" in vars(prob)
        fresh = compute_deltas(mesh, eps, policy="theorem-capped", problem=base, k=1)
        assert np.array_equal(stab.deltas, fresh.deltas)
        # nothing outside the Problem keeps it alive
        ref = weakref.ref(prob)
        del prob
        gc.collect()
        assert ref() is None

    def test_validation(self):
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        with pytest.raises(ValueError):
            compute_deltas(mesh, 1e-6, c0=0.0)
        with pytest.raises(ValueError):
            compute_deltas(mesh, 1e-6, c0=math.nan)
        with pytest.raises(ValueError):
            compute_deltas(mesh, 1e-6, c0=math.inf)
        with pytest.raises(ValueError):
            compute_deltas(mesh, 1e-6, policy="aggressive")
        with pytest.raises(ValueError):
            compute_deltas(mesh, 1e-6, policy="theorem-capped")


class TestSystemStructure:
    @pytest.mark.parametrize("k,n", [(1, 8), (2, 8), (3, 16), (4, 6)])
    def test_dimension_and_bandwidth(self, k, n):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, n, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        assert system.dimension == 2 * n * k - 1
        assert system.order == k
        assert system.bands.shape == (2 * k + 1, 2 * n * k - 1)
        assert system.rhs.shape == (2 * n * k - 1,)

    def test_quadrature_minimum_enforced(self):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 3, 0.25))
        with pytest.raises(ValueError):
            assemble_galerkin(prob, mesh, 3, quad_points=3)

    def test_pure_diffusion_is_symmetric_with_zero_rhs(self):
        prob = near_zero_coefficient_problem(1.0)
        mesh = build_mesh(MeshParams(1.0, 12, 2, 1.0))
        system = assemble_galerkin(prob, mesh, 2)
        dense = bands_to_dense(system)
        assert np.max(np.abs(dense - dense.T)) <= 1e-13 * np.max(np.abs(dense))
        assert np.array_equal(system.rhs, np.zeros_like(system.rhs))

    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_apply_system_matches_dense(self, k, method):
        # assembly's Fortran-ordered bands, and a C-ordered copy of them
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        if method == "galerkin":
            system = assemble_galerkin(prob, mesh, k)
        else:
            system = assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, 1e-4))
        c_ordered = dataclasses.replace(system, bands=np.ascontiguousarray(system.bands))
        assert c_ordered.bands.flags.c_contiguous and not c_ordered.bands.flags.f_contiguous
        dense = bands_to_dense(system)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.standard_normal(system.dimension)
            for sys_ in (system, c_ordered):
                assert apply_system(sys_, v) == pytest.approx(dense @ v, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("wrong", ["n+3", "n-1", "column"])
    def test_apply_system_rejects_x_of_another_shape(self, wrong):
        # dgbmv alone would use a longer x truncated and fail on a shorter one
        mesh = build_mesh(MeshParams(1e-4, 8, 2, 0.25))
        system = assemble_galerkin(make_test_problem(1e-4, 0.25), mesh, 2)
        n = system.dimension
        x = np.ones({"n+3": (n + 3,), "n-1": (n - 1,), "column": (n, 1)}[wrong])
        message = f"x has shape {x.shape}; the system needs {n} entries"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_system(system, x)

    def test_sdfem_requires_matching_profile(self):
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        other = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        with pytest.raises(ValueError):
            assemble_sdfem(prob, mesh, 1)
        with pytest.raises(ValueError):
            assemble_sdfem(prob, mesh, 1, stab=compute_deltas(other, 1e-6))


class TestPinnedArithmetic:
    # The band matrix only preconditions the solve's refinement step, so
    # its sums may be ordered for speed: one matrix product per block for
    # every term but diffusion, then (eps/h) S_ref.  The assembly must still
    # match that order bit for bit, so an unintended change of arithmetic
    # shows; diffusion summed into the product, for example, raised the
    # unrefined error at eps 1e-6, k 8, N 16384 from 7.2e-8 to 9.4e-7 and
    # needed a second step.
    #
    # Assembly runs in blocks of BLOCK_ELEMENTS elements.  A mesh with 2N not
    # a multiple of the block size (full blocks and a partial last one) pins
    # the block offsets too.
    CASES = [(k, 32, (1.0, 1e-3, 1e-10)) for k in range(1, 9)] + [
        (k, BLOCK_ELEMENTS + 253, (1e-10,)) for k in (1, 4, 8)
    ]
    IDS = [str(k) for k in range(1, 9)] + [f"{k}-multi-block" for k in (1, 4, 8)]

    @staticmethod
    def systems(k, n_half, eps_values, family):
        for eps in eps_values:
            prob = make_test_problem(eps, 0.25)
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
            yield prob, mesh, assemble_galerkin(prob, mesh, k, family), None
            yield prob, mesh, assemble_sdfem(prob, mesh, k, family, stab=stab), stab.deltas

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k, n_half, eps_values", CASES, ids=IDS)
    def test_bands_and_rhs_match_reference(self, k, n_half, eps_values, family):
        for prob, mesh, system, deltas in self.systems(k, n_half, eps_values, family):
            bands, rhs = reference_assembly(prob, mesh, k, family, deltas)
            assert np.array_equal(system.bands, bands)
            assert np.array_equal(system.rhs, rhs)

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k, n_half, eps_values", CASES, ids=IDS)
    def test_bands_and_rhs_near_einsum_order(self, k, n_half, eps_values, family):
        # each entry sums at most 5(k+3) + 3 terms (five families of q = k+3
        # points, diffusion, two elements), so each order is within
        # gamma_m = m u times the sum of the terms' magnitudes
        tol = 2 * (5 * (k + 3) + 3) * 2.0 ** -53
        for prob, mesh, system, deltas in self.systems(k, n_half, eps_values, family):
            bands, rhs = einsum_reference_assembly(prob, mesh, k, family, deltas)
            mag_bands, mag_rhs = einsum_reference_assembly(
                prob, mesh, k, family, deltas, magnitudes=True
            )
            assert np.all(np.abs(system.bands - bands) <= tol * mag_bands)
            assert np.all(np.abs(system.rhs - rhs) <= tol * mag_rhs)


class TestPolynomialReproduction:
    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("degree,k", [(2, 2), (3, 3), (2, 3)])
    def test_galerkin_reproduces_in_space_solutions(self, degree, k, family):
        prob = patch_problem(eps=1.0, degree=degree)
        mesh = build_mesh(MeshParams(1.0, 16, k, 1.0))
        fn = solve_banded(assemble_galerkin(prob, mesh, k, family))
        rep = error_norms(fn, prob, mesh)
        assert rep.energy <= 1e-10
        assert rep.l2 <= 1e-10

    @pytest.mark.parametrize("degree,k", [(2, 2), (3, 3)])
    def test_sdfem_reproduces_in_space_solutions(self, degree, k):
        # exact polynomial satisfies the strong equation, so the extra
        # streamline terms are consistent and the solution is unchanged
        prob = patch_problem(eps=1.0, degree=degree)
        mesh = build_mesh(MeshParams(1.0, 16, k, 1.0))
        stab = compute_deltas(mesh, 1.0)
        fn = solve_banded(assemble_sdfem(prob, mesh, k, stab=stab))
        rep = error_norms(fn, prob, mesh)
        assert rep.energy <= 1e-10

    @pytest.mark.parametrize("n_half", [64, 1100])  # 1100: full blocks and a partial one
    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_zero_deltas_reduce_to_galerkin_bitwise(self, k, family, n_half):
        # zero deltas take the SD path, whose zero weights add nothing
        for eps in (1.0, 1e-3, 1e-8):
            prob = make_test_problem(eps, 0.25)
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            plain = assemble_galerkin(prob, mesh, k, family)
            stabbed = assemble_sdfem(prob, mesh, k, family, stab=zero_stab(mesh))
            assert plain.bands.tobytes() == stabbed.bands.tobytes()
            assert plain.rhs.tobytes() == stabbed.rhs.tobytes()
            a, b = solve_banded(plain), solve_banded(stabbed)
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
            assert a.residual == b.residual

    @pytest.mark.parametrize("panels", [1, 8])
    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    def test_k1_second_derivatives_are_positive_zero(self, family, panels):
        # so at k = 1 the D1_i D2_j columns of the SD form are zero, and the
        # -eps v'' term of the refinement residual may be skipped
        for q in range(2, 13):
            tables = _element_tables(1, family, q, panels)
            m = tables.rule.points.size
            assert tables.D2.shape == (2, m) and tables.matrix.shape == (4, 5 * m)
            assert not np.any(tables.D2) and not np.any(np.signbit(tables.D2))
            assert not np.any(tables.matrix[:, 4 * m :])

    def test_k1_families_identical(self):
        prob = make_test_problem(1e-8, 0.25)
        mesh = build_mesh(MeshParams(1e-8, 64, 1, 0.25))
        a = solve_banded(assemble_galerkin(prob, mesh, 1, "uniform"))
        b = solve_banded(assemble_galerkin(prob, mesh, 1, "gauss-lobatto"))
        assert np.array_equal(a.coefficients, b.coefficients)


class TestSolver:
    def test_recovers_known_vector(self):
        prob = near_zero_coefficient_problem(1.0)
        mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
        system = assemble_galerkin(prob, mesh, 2)
        rng = np.random.default_rng(12)
        v = rng.standard_normal(system.dimension)
        forced = LinearSystem(system.bands, apply_system(system, v), mesh, 2, "uniform", prob)
        fn = solve_banded(forced)
        assert fn.coefficients[1:-1] == pytest.approx(v, rel=1e-12, abs=1e-12)
        assert fn.coefficients[0] == 0.0 and fn.coefficients[-1] == 0.0

    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_manufactured_rhs_recovered_after_the_step(self, k, method):
        # rhs = A v for the band matrix A: the step's residual applies the
        # element operator, which A approximates to rounding, so it must
        # leave the LU solution at v
        eps = 1e-4
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
        if method == "galerkin":
            system = assemble_galerkin(prob, mesh, k)
        else:
            system = assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, eps))
        v = np.random.default_rng(k).standard_normal(system.dimension)
        fn = solve_banded(dataclasses.replace(system, rhs=apply_system(system, v)))
        assert np.max(np.abs(fn.coefficients[1:-1] - v)) <= 1e-10

    def test_residual_recorded_and_small(self):
        prob = make_test_problem(1e-10, 0.005)
        mesh = build_mesh(MeshParams(1e-10, 128, 2, 0.005))
        fn = solve_banded(assemble_galerkin(prob, mesh, 2))
        assert fn.residual <= 1e-10

    def test_singular_system_raises(self):
        prob = make_test_problem(1e-4, 0.25)
        for k in (1, 2):
            mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
            n = 2 * 8 * k - 1
            bands = np.zeros((2 * k + 1, n))
            with pytest.raises(SolverError, match="singular"):
                solve_banded(LinearSystem(bands, np.ones(n), mesh, k, "uniform", prob))

    def test_bands_that_disagree_with_the_element_operator_miss_the_contract(self):
        # the refinement step corrects towards the element operator's
        # solution, which these bands miss by a relative 7.5e-8
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 16, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        scaled = dataclasses.replace(system, bands=np.asfortranarray(system.bands * (1 + 1e-6)))
        with pytest.raises(SolverError, match="residual contract violated"):
            solve_banded(scaled)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_solution_is_a_solver_error(self, k):
        # nonsingular, but the solution 1e10 / 1e-300 overflows to inf
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        n = 2 * 8 * k - 1
        bands = np.zeros((2 * k + 1, n), order="F")
        bands[k] = 1e-300
        system = LinearSystem(bands, np.full(n, 1e10), mesh, k, "uniform", prob)
        with pytest.raises(SolverError, match="banded LU produced non-finite values"):
            solve_banded(system)

    def test_non_finite_refinement_step_is_a_solver_error(self, monkeypatch):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        monkeypatch.setattr(
            "cuspfem.assembly._element_residual", lambda s, c: np.full(s.dimension, np.nan)
        )
        with pytest.raises(SolverError, match="the refinement step produced non-finite values"):
            solve_banded(system)

    def test_non_finite_residual_misses_the_contract(self, monkeypatch):
        # A = tridiag(-1, 3, -2) and x = [1, X, X] give b = [3 - 2X, X - 1, 2X]:
        # x and b are finite, but A x forms 3X, which overflows, so the
        # relative residual would be inf / inf = nan, and nan > tol is False
        X = 6e307
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 2, 1, 0.25))
        bands = np.asfortranarray([[0.0, -2.0, -2.0], [3.0, 3.0, 3.0], [-1.0, -1.0, 0.0]])
        system = LinearSystem(bands, np.array([3 - 2 * X, X - 1, 2 * X]), mesh, 1, "uniform", prob)
        monkeypatch.setattr(
            "cuspfem.assembly._element_residual", lambda s, c: np.zeros(s.dimension)
        )
        with pytest.raises(SolverError, match="residual contract violated: .* not finite"):
            solve_banded(system)

    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_scipy_solve_banded_bitwise(self, k, method, monkeypatch):
        eps = 1e-6
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
        if method == "galerkin":
            system = assemble_galerkin(prob, mesh, k)
        else:
            system = assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, eps))
        bands, rhs = system.bands.copy(), system.rhs.copy()
        fn = solve_banded(system)
        # before the refinement step: LAPACK dgbsv on scipy's band storage,
        # for every k (scipy.linalg.solve_banded takes dgtsv for k = 1)
        ab = np.zeros((3 * k + 1, rhs.size))
        ab[k:] = bands
        sol = lapack.dgbsv(k, k, ab, rhs)[2]
        # a zero residual makes the refinement step zero, so the solve
        # returns its LU solution
        with monkeypatch.context() as m:
            m.setattr("cuspfem.assembly._element_residual", lambda s, c: np.zeros(s.dimension))
            assert np.array_equal(solve_banded(system).coefficients[1:-1], sol)
        if k >= 2:
            assert np.array_equal(sol, scipy.linalg.solve_banded((k, k), bands, rhs))
        # the recorded residual is the band matrix's, at the refined solution
        x = fn.coefficients[1:-1]
        res = np.max(np.abs(apply_system(system, x) - rhs))
        abs_system = LinearSystem(np.abs(bands), rhs, mesh, k, "uniform", prob)
        norm_a = np.max(apply_system(abs_system, np.ones(rhs.size)))
        assert fn.residual == res / (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        # the solve works on its own copy
        assert np.array_equal(system.bands, bands) and np.array_equal(system.rhs, rhs)

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_rhs_is_a_solver_error(self, k):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        rhs = system.rhs.copy()
        rhs[5] = np.nan
        with pytest.raises(SolverError):
            solve_banded(LinearSystem(system.bands, rhs, mesh, k, "uniform", prob))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_band_entry_is_a_solver_error(self, value):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 1, 0.25))
        system = assemble_galerkin(prob, mesh, 1)
        bands = system.bands.copy()
        bands[1, 3] = value
        with pytest.raises(SolverError):
            solve_banded(LinearSystem(bands, system.rhs, mesh, 1, "uniform", prob))

    def test_nan_rhs_detected_at_assembly(self):
        # f hides a NaN window too narrow for the 257-point validation grid
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.3) < 5e-3, np.nan, 1.0)

        prob = Problem(
            eps=1.0,
            coeff_b=lambda x: np.ones_like(x),
            coeff_c=lambda x: np.ones_like(x),
            rhs_f=f,
        )
        mesh = build_mesh(MeshParams(1.0, 128, 1, 1.0))
        with pytest.raises(AssemblyError, match="element"):
            assemble_galerkin(prob, mesh, 1)

    def test_nan_beyond_first_block_names_the_global_element(self):
        mesh = build_mesh(MeshParams(1.0, BLOCK_ELEMENTS, 1, 1.0))
        e = BLOCK_ELEMENTS + BLOCK_ELEMENTS // 2  # in the second block
        x_nan = mesh.nodes[e] + 0.5 * mesh.lengths[e]

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - x_nan) < 0.3 * mesh.lengths[e], np.nan, 1.0)

        prob = Problem(
            eps=1.0,
            coeff_b=lambda x: np.ones_like(x),
            coeff_c=lambda x: np.ones_like(x),
            rhs_f=f,
        )
        with pytest.raises(AssemblyError) as info:
            assemble_galerkin(prob, mesh, 1)
        m = re.search(r"element (\d+) \(x in \[(\S+), (\S+)\]\)", str(info.value))
        assert m is not None and int(m[1]) == e
        assert float(m[2]) <= x_nan <= float(m[3])

    def test_coefficient_vector_of_the_wrong_length_rejected(self):
        mesh = build_mesh(MeshParams(1.0, 8, 2, 1.0))  # 16 elements, 33 nodes
        with pytest.raises(ValueError, match="has length 32, expected 33"):
            DiscreteFunction(mesh, 2, "uniform", np.zeros(32))

    def test_evaluate_solution(self):
        prob = patch_problem(eps=1.0, degree=2)
        mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
        fn = solve_banded(assemble_galerkin(prob, mesh, 2))
        xs = np.linspace(-1.0, 1.0, 101)
        assert fn(xs) == pytest.approx(1.0 - xs ** 2, abs=1e-11)
        assert fn(xs, d=1) == pytest.approx(-2.0 * xs, abs=1e-9)
        assert fn(0.5) == pytest.approx(0.75, abs=1e-11)

    def test_evaluate_keeps_the_shape_of_x(self):
        prob = patch_problem(eps=1.0, degree=2)
        mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
        fn = solve_banded(assemble_galerkin(prob, mesh, 2))
        grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        for d in (0, 1, 2):
            assert np.ndim(fn(0.5, d)) == 0
            assert fn(0.5, d) == fn(np.array([0.5]), d)[0]
            assert np.array_equal(fn(grid, d), fn(grid.ravel(), d).reshape(3, 4))

    @pytest.mark.parametrize(
        "x, d",
        [(1.5, 0), (-1.0 - 1e-12, 0), (np.nan, 0), ([0.0, 1.5], 1), (0.5, -1), (0.5, 3)],
        ids=["right-of-domain", "left-of-domain", "nan", "one-outside", "d-negative", "d-3"],
    )
    def test_evaluate_rejects_what_it_cannot_serve(self, x, d):
        # u_h lives on [-1, 1] and the basis tables hold d = 0, 1, 2 only
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 16, 2, 0.25))
        fn = solve_banded(assemble_galerkin(prob, mesh, 2))
        with pytest.raises(ValueError):
            fn(x, d=d)
        assert np.all(np.isfinite(fn([-1.0, 1.0], d=2)))


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes it allocated beyond what it started with."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    # tracemalloc counts the bytes numpy allocates, so these bounds do not
    # depend on how malloc returns memory to the system
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_solve_holds_one_band_copy(self, k):
        # LAPACK's (3k+1, n) band storage, the solution, the refinement
        # step's residual and the int32 pivots: the band copy plus 2.5
        # n-vectors, within a bound of 3.  The step's per-block temporaries
        # may add a constant, but nothing beyond these may grow with N
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        beyond = []
        for n_half in (2048, 8192):
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            system = assemble_galerkin(prob, mesh, k)
            n = system.dimension
            _, peak = traced_peak(solve_banded, system)
            beyond.append(peak - (3 * k + 1) * n * 8 - 2 * n * 8 - n * 4)
        assert beyond[1] <= beyond[0] + 64 * 1024

    @pytest.mark.parametrize("k, n_half", [(1, 4096), (8, 1024)])
    def test_apply_system_allocates_only_its_result(self, k, n_half):
        # assembly returns Fortran-ordered bands, which dgbmv reads in place:
        # the product allocates its n-vector result and no band copy or buffer
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
        x = np.random.default_rng(k).standard_normal(2 * n_half * k - 1)
        for system in (
            assemble_galerkin(prob, mesh, k),
            assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, eps)),
        ):
            assert system.bands.flags.f_contiguous
            _, peak = traced_peak(apply_system, system, x)
            assert peak <= x.nbytes + 16 * 1024

    def test_assembly_memory_beyond_the_system_does_not_grow_with_n(self):
        eps, k = 1e-10, 8
        prob = make_test_problem(eps, 0.25)
        for assemble in (assemble_galerkin, assemble_sdfem):
            extra = []
            for n_half in (BLOCK_ELEMENTS, 4 * BLOCK_ELEMENTS):
                mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
                kwargs = {"stab": compute_deltas(mesh, eps)} if assemble is assemble_sdfem else {}
                system, peak = traced_peak(assemble, prob, mesh, k, **kwargs)
                extra.append(peak - system.bands.nbytes - system.rhs.nbytes)
            assert extra[1] <= extra[0] + 64 * 1024

    def test_mesh_peak_is_near_its_output(self):
        # nodes and lengths are 16 bytes an interval; the decades go straight
        # into one array, which the mirrored nodes and the lengths outlive
        n_half = 65536
        mesh, peak = traced_peak(build_mesh, MeshParams(1e-10, n_half, 1, 0.25))
        assert mesh.nodes.nbytes + mesh.lengths.nbytes <= 16 * 2 * n_half + 16
        assert peak <= 22 * 2 * n_half

    @pytest.mark.parametrize("k", [1, 8])
    def test_error_norms_memory_does_not_grow_with_n(self, k):
        # the norms hold one block's samples and panel counts at a time
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        peaks = []
        for n_half in (1024, 4096):
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
            _, peak = traced_peak(error_norms, interpolate(prob, mesh, k), prob, mesh, stab)
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 64 * 1024

    @pytest.mark.parametrize("k, n_halves", [(8, (1024, 4096)), (1, (1024, 16384))])
    def test_sd_distance_memory_does_not_grow_with_n(self, k, n_halves):
        # the difference of the two functions is taken one block at a time
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        peaks = []
        for n_half in n_halves:
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
            interp = interpolate(prob, mesh, k)
            half = DiscreteFunction(mesh, k, "uniform", 0.5 * interp.coefficients)
            _, peak = traced_peak(sd_distance, interp, half, prob, stab)
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 64 * 1024


class TestGalerkinOrthogonality:
    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    def test_error_orthogonal_to_test_space(self, eps):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        solve_banded(system)
        weak = weak_form_on_exact(prob, mesh, 2, "uniform", 7, 16)
        residual = weak - system.rhs
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(system.dimension)
            coef = np.zeros(system.dimension + 2)
            coef[1:-1] = v
            vfn = DiscreteFunction(mesh, 2, "uniform", coef)
            assert abs(residual @ v) <= 1e-8 * discrete_l2(vfn)


class TestQuadratureStability:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-8])
    def test_doubling_points_barely_moves_solution(self, k, eps):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
        f1 = solve_banded(assemble_galerkin(prob, mesh, k, quad_points=k + 3))
        f2 = solve_banded(assemble_galerkin(prob, mesh, k, quad_points=2 * (k + 3)))
        assert sd_distance(f1, f2, prob, zero_stab(mesh)) <= 1e-8


class TestCoercivity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_sd_form_bounded_below(self, k):
        eps, lam = 1e-6, 0.25
        prob = make_test_problem(eps, lam)
        mesh = build_mesh(MeshParams(eps, 64, k, lam))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
        system = assemble_sdfem(prob, mesh, k, stab=stab)
        # gamma = 0.75 -> lower bound 0.5 * min(gamma, 1) = 0.375
        rng = np.random.default_rng(9)
        zero = zero_function(mesh, k)
        for _ in range(20):
            vfn = random_member(mesh, k, rng)
            quad = float(vfn.coefficients[1:-1] @ apply_system(system, vfn.coefficients[1:-1]))
            assert quad >= 0.375 * sd_distance(vfn, zero, prob, stab) ** 2
