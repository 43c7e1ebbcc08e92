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
    counting_problem,
    discrete_l2,
    einsum_reference_assembly,
    loop_add_local,
    lu_storage,
    near_zero_coefficient_problem,
    patch_problem,
    reference_assembly,
    sliding_windows,
    weak_form_on_exact,
    zero_stab,
)

import cuspfem.assembly
import cuspfem.mesh
from cuspfem import (
    AssemblyError,
    DiscreteFunction,
    LinearSystem,
    MeshParams,
    Problem,
    SolverError,
    StabilizationProfile,
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
from cuspfem.assembly import (
    BLOCK_ELEMENTS,
    MAX_STEPS,
    STEP_TOL,
    _add_local,
    _assemble_block,
    _blocks,
    _contract,
    _element_residual,
    _element_tables,
    _windows,
)


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

    @pytest.mark.parametrize("c0", [1.0, 0.3, 0.05])
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_standard_takes_the_inverse_inequality_cap_from_k_2(self, k, eps, c0):
        # delta = min(c0 min(h^2/eps, h), h^2/(eps c_inv^2)), with k from the
        # mesh when it is not passed; caps_applied marks where the cap bites
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
        h, c_inv = mesh.lengths, estimate_c_inv(k)
        uncapped = c0 * np.minimum(h * h / eps, h)
        cap = h * h / (eps * c_inv * c_inv)
        stab = compute_deltas(mesh, eps, c0)
        np.testing.assert_allclose(stab.deltas, np.minimum(uncapped, cap), rtol=1e-15, atol=0)
        assert np.array_equal(stab.caps_applied, cap < uncapped * (1 - 1e-14))
        if eps == 1.0:  # h^2/eps < h everywhere: the cap bites on every element or none
            assert stab.caps_applied.all() == (c0 * c_inv * c_inv > 1.0)
        explicit = compute_deltas(mesh, eps, c0, "standard", None, k)
        assert np.array_equal(explicit.deltas, stab.deltas)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="stabilization parameters must be nonnegative"):
            StabilizationProfile(np.array([0.1, -1e-3]), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("deltas", [[np.nan, -1e-3, 0.1], [-np.inf]])
    def test_negative_delta_rejected_next_to_nan_and_at_infinity(self, deltas):
        with pytest.raises(ValueError, match="stabilization parameters must be nonnegative"):
            StabilizationProfile(np.array(deltas), np.zeros(len(deltas), dtype=bool))

    @pytest.mark.parametrize("deltas", [[], [0.0, -0.0], [np.nan, 0.1], [np.inf]])
    def test_sign_check_passes_what_is_not_below_zero(self, deltas):
        # the sign check lets NaN and -0.0 through, as `deltas < 0` does
        StabilizationProfile(np.array(deltas, dtype=float), np.zeros(len(deltas), dtype=bool))

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

    @pytest.mark.parametrize("eps", [1.0, 1e-6, 1e-10])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_in_place_arithmetic_matches_the_formulas_bitwise(self, k, eps):
        # compute_deltas works in place; these are its formulas as expressions
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 1000, k, 0.25))
        h = mesh.lengths
        for c0 in (1.0, 0.3):
            uncapped = c0 * np.minimum(h * h / eps, h)
            # standard: for k >= 2 the cap h^2/(eps c_inv^2) is the factor
            # min(1, 1/(c0 c_inv^2)) on the h^2/eps branch
            scale = 1.0 if k == 1 else min(1.0, 1.0 / (c0 * estimate_c_inv(k) ** 2))
            standard = c0 * np.minimum(h * h / eps * scale, h)
            standard_caps = h * h / eps * scale < h if scale < 1.0 else np.zeros(h.size, bool)
            if k >= 2:
                c_inv = estimate_c_inv(k)
                cap = h * h / (2.0 * eps * c_inv * c_inv)
            else:
                cap = np.minimum(h * h / eps, (mesh.big_k + 1) / mesh.params.n_half)
            capped = np.minimum(uncapped, np.minimum(cap, prob.delta_cap))
            stab = compute_deltas(mesh, eps, c0)
            assert np.array_equal(stab.deltas, standard)
            assert np.array_equal(stab.caps_applied, standard_caps)
            stab = compute_deltas(mesh, eps, c0, "theorem-capped", prob, k)
            assert np.array_equal(stab.deltas, capped)
            assert np.array_equal(stab.caps_applied, capped < uncapped)

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
        # the constant is known as soon as the Problem is made
        assert prob.delta_cap == base.delta_cap
        mesh = build_mesh(MeshParams(eps, 64, 1, 0.25))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=1)
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

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_storage_of_another_shape_is_rejected(self, k):
        # only (3k+1, n) LU storage; (2k+1, n) band rows alone are rejected
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        n = 2 * 8 * k - 1
        for shape in [(2 * k + 1, n), (3 * k, n), (3 * k + 2, n), (3 * k + 1, n + 1)]:
            with pytest.raises(ValueError, match="storage shape"):
                LinearSystem(np.zeros(shape, order="F"), np.ones(n), mesh, k, "uniform", prob)
        LinearSystem(np.zeros((3 * k + 1, n), order="F"), np.ones(n), mesh, k, "uniform", prob)

    @pytest.mark.parametrize("k", [1, 8])
    def test_lu_storage_must_be_fortran_ordered(self, k):
        # LAPACK would factor a copy of C-ordered LU storage, and the solve
        # would then mark the untouched original consumed
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        assert system.storage.shape[0] == 3 * k + 1 and system.storage.flags.f_contiguous
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            dataclasses.replace(system, storage=np.ascontiguousarray(system.storage))

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
    def test_element_residual_matches_dense(self, k, method):
        # the refinement residual's element operator is the band matrix,
        # up to rounding in the order of its sums
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        if method == "galerkin":
            system = assemble_galerkin(prob, mesh, k)
        else:
            system = assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, 1e-4))
        dense = bands_to_dense(system)
        norm_a, norm_b = np.abs(dense).sum(axis=1).max(), np.max(np.abs(system.rhs))
        rng = np.random.default_rng(4)
        for _ in range(5):
            coeffs = np.zeros(system.dimension + 2)
            coeffs[1:-1] = rng.standard_normal(system.dimension)
            r = _element_residual(system, coeffs)
            gap = np.max(np.abs(r - (system.rhs - dense @ coeffs[1:-1])))
            assert gap <= 1e-13 * (norm_a * np.max(np.abs(coeffs)) + norm_b)

    def test_element_residual_on_the_smallest_system(self):
        # N = 2, k = 1 gives n = 3, one interior node per element
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 2, 1, 0.25))
        system = assemble_galerkin(prob, mesh, 1)
        coeffs = np.array([0.0, 1.0, -2.0, 3.0, 0.0])
        assert system.dimension == 3
        expected = system.rhs - bands_to_dense(system) @ coeffs[1:-1]
        assert _element_residual(system, coeffs) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_sdfem_requires_matching_profile(self):
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 32, 1, 0.25))
        other = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        with pytest.raises(ValueError):
            assemble_sdfem(prob, mesh, 1)
        with pytest.raises(ValueError):
            assemble_sdfem(prob, mesh, 1, stab=compute_deltas(other, 1e-6))


class TestBlockScatter:
    # blocks of 3 elements put block boundaries inside the 8-element mesh,
    # and the last block's row k on the last vertex
    @pytest.mark.parametrize("k", range(1, 9))
    def test_add_local_and_windows_match_their_references(self, k, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 3)
        mesh = build_mesh(MeshParams(1e-4, 4, k, 0.25))
        rng = np.random.default_rng(k)
        coeffs = rng.standard_normal(mesh.n_intervals * k + 1)
        loc = rng.standard_normal((k + 1, mesh.n_intervals))
        vec = rng.standard_normal(coeffs.size)
        ref = vec.copy()
        spans = []
        for block in _blocks(mesh, coeffs, k):
            spans.append(block.span)
            assert np.array_equal(block.local, sliding_windows(coeffs, k)[block.span].T)
            _add_local(vec, loc[:, block.span], block.span, k)
            loop_add_local(ref, loc[:, block.span], block.span, k)
        assert [b.stop - b.start for b in spans] == [3, 3, 2]
        assert np.array_equal(vec, ref)
        for c in (coeffs, coeffs[::2]):  # contiguous and strided
            windows = _windows(c, k)
            assert np.array_equal(windows, sliding_windows(c, k))
            assert not windows.flags.writeable

    @pytest.mark.parametrize("k", range(1, 9))
    def test_assembly_and_residual_match_the_row_by_row_scatter(self, k, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 3)
        eps = 1e-4
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 4, k, 0.25))
        stab = compute_deltas(mesh, eps)
        coeffs = np.random.default_rng(k).standard_normal(mesh.n_intervals * k + 1)

        def run():
            system = assemble_sdfem(prob, mesh, k, stab=stab)
            return system.bands.copy(), system.rhs, _element_residual(system, coeffs)

        blocked = run()
        monkeypatch.setattr(cuspfem.assembly, "_add_local", loop_add_local)
        for new, ref in zip(blocked, run()):
            assert np.array_equal(new, ref)


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
        rhs = bands_to_dense(system) @ v
        forced = LinearSystem(lu_storage(system.bands), rhs, mesh, 2, "uniform", prob)
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
        fn = solve_banded(dataclasses.replace(system, rhs=bands_to_dense(system) @ v))
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
            storage = lu_storage(np.zeros((2 * k + 1, n)))
            with pytest.raises(SolverError, match="singular"):
                solve_banded(LinearSystem(storage, np.ones(n), mesh, k, "uniform", prob))

    def test_bands_that_disagree_with_the_element_operator_miss_the_contract(self):
        # the refinement corrects towards the element operator's solution,
        # which it reaches from these bands in a few steps; the contract on
        # the LU solution's residual b - A_elem x_0 = b 1e-6 / (1 + 1e-6)
        # sees them miss it by a relative 7.45e-8
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 16, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        scaled = dataclasses.replace(system, storage=lu_storage(system.bands * (1 + 1e-6)))
        with pytest.raises(SolverError, match=r"relative residual 7\.4\d\de-08 > 1e-10"):
            solve_banded(scaled)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_solution_is_a_solver_error(self, k):
        # nonsingular, but the solution 1e10 / 1e-300 overflows to inf
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        n = 2 * 8 * k - 1
        storage = np.zeros((3 * k + 1, n), order="F")
        storage[2 * k] = 1e-300
        system = LinearSystem(storage, np.full(n, 1e10), mesh, k, "uniform", prob)
        with pytest.raises(SolverError, match="banded LU produced non-finite values"):
            solve_banded(system)

    @pytest.mark.parametrize("first_nan", [1, 2])
    def test_non_finite_residual_is_a_solver_error(self, first_nan, monkeypatch):
        # a NaN residual of the LU solution misses its contract; one of a
        # refined solution makes the next step NaN.  STEP_TOL < 0 lets no
        # step stop the refinement
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        calls = []

        def residual(s, c):
            calls.append(None)
            r = _element_residual(s, c)
            return np.full_like(r, np.nan) if len(calls) >= first_nan else r

        monkeypatch.setattr("cuspfem.assembly._element_residual", residual)
        monkeypatch.setattr("cuspfem.assembly.STEP_TOL", -1.0)
        message = {
            1: "residual contract violated: max |Ax - b| = nan is not finite",
            2: "the refinement step produced non-finite values",
        }[first_nan]
        with pytest.raises(SolverError, match=re.escape(message)):
            solve_banded(system)
        assert len(calls) == first_nan

    def test_non_finite_residual_misses_the_contract(self, monkeypatch):
        # A = tridiag(-1, 3, -2) and x = [1, X, X] give b = [3 - 2X, X - 1, 2X]:
        # x and b are finite, but A x forms 3X, which overflows, so the
        # relative residual would be inf / inf = nan, and nan > tol is False.
        # The residual here is the band matrix's, densified before the solve
        # factors it
        X = 6e307
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 2, 1, 0.25))
        bands = [[0.0, -2.0, -2.0], [3.0, 3.0, 3.0], [-1.0, -1.0, 0.0]]
        rhs = np.array([3 - 2 * X, X - 1, 2 * X])
        system = LinearSystem(lu_storage(bands), rhs, mesh, 1, "uniform", prob)
        dense = bands_to_dense(system)

        def band_residual(s, c):
            with np.errstate(over="ignore"):  # the overflow is the point
                return s.rhs - dense @ c[1:-1]

        monkeypatch.setattr("cuspfem.assembly._element_residual", band_residual)
        with pytest.raises(SolverError, match="residual contract violated: .* not finite"):
            solve_banded(system)

    @pytest.mark.parametrize("scale", [1e-17, 0.25])
    def test_contract_scale_does_not_overflow(self, scale, monkeypatch):
        # A = tridiag(-1, 2, -1) and b = [X, 0, X] give x = [X, X, X]:
        # ||A|| ||x|| = 4X overflows, though A x, x and b are finite.  A
        # residual of b scale, at the LU solution and after each step (of
        # relative size scale), is a relative (X scale) / (4X + X) = scale / 5:
        # 2e-18 is recorded, and 0.05 misses the contract
        X = 6e307
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 2, 1, 0.25))
        bands = [[0.0, -1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]]
        system = LinearSystem(lu_storage(bands), np.array([X, 0.0, X]), mesh, 1, "uniform", prob)
        monkeypatch.setattr("cuspfem.assembly._element_residual", lambda s, c: s.rhs * scale)
        if scale < 1e-10:
            assert solve_banded(system).residual == pytest.approx(scale / 5, rel=1e-12)
        else:
            with pytest.raises(SolverError, match="relative residual 5.000e-02"):
                solve_banded(system)

    @pytest.mark.parametrize(
        "rule, step_tol, ratio, taken",
        [("small-step", STEP_TOL, 1.0, 1), ("stalled", -1.0, 1.0, 2), ("max-steps", -1.0, 0.25, 5)],
    )
    def test_refinement_stopping_rule(self, rule, step_tol, ratio, taken, monkeypatch):
        # a residual of b c_i at the i-th call makes step i about c_i x, so
        # the relative steps are c_i: 1e-12 is small enough, and with
        # STEP_TOL < 0 the loop stops where a step fails to halve, or after
        # MAX_STEPS steps that each shrink 4x
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        sizes = []

        def residual(s, c):
            sizes.append(1e-12 * ratio ** len(sizes))
            return s.rhs * sizes[-1]

        monkeypatch.setattr("cuspfem.assembly._element_residual", residual)
        monkeypatch.setattr("cuspfem.assembly.STEP_TOL", step_tol)
        fn = solve_banded(system)
        assert len(fn.steps) == taken and len(sizes) == taken + 1
        assert fn.steps == pytest.approx(sizes[:-1], rel=1e-9)
        assert taken <= MAX_STEPS == 5

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
    def test_assembled_systems_pass_the_lu_solutions_contract(self, k, monkeypatch):
        # the contract on the LU solution's residual catches bands that are
        # not the element operator; on assembled systems it reads at most
        # 2.9e-16 (eps 1 .. 1e-14, N 16 .. 16384), far below RESIDUAL_TOL
        rels = []

        def contract(*args):
            rels.append(_contract(*args))
            return rels[-1]

        monkeypatch.setattr("cuspfem.assembly._contract", contract)
        for eps in (1.0, 1e-4, 1e-14):
            prob = make_test_problem(eps, 0.25)
            mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
            stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
            for system in (
                assemble_galerkin(prob, mesh, k),
                assemble_sdfem(prob, mesh, k, stab=stab),
            ):
                rels.clear()
                fn = solve_banded(system)
                assert len(rels) == 2 and rels[1] == fn.residual
                assert rels[0] <= 1e-14, (eps, rels)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_scaled_storage_misses_the_contract(self, k):
        # LU storage scaled by 1.5 leaves x_0 = A^-1 b / 1.5, 2/3 of the
        # element operator's solution, so r_0 = b / 3; the refinement would
        # reach b / 729 in its five steps
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 16, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        storage = system.storage
        assert storage.shape == (3 * k + 1, system.dimension)
        storage *= 1.5
        with pytest.raises(SolverError, match="residual contract violated"):
            solve_banded(system)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_solve_consumes_its_system(self, k):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 16, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        copied = dataclasses.replace(system, storage=lu_storage(system.bands))
        sharing = dataclasses.replace(system, rhs=system.rhs * 2)
        first = solve_banded(system)
        consumed = "solve_banded consumed this system: its bands hold LU factors"
        # a system that shares the storage is consumed with it
        for solved in (system, sharing):
            with pytest.raises(ValueError, match=consumed):
                solve_banded(solved)
        assert np.array_equal(solve_banded(copied).coefficients, first.coefficients)
        with pytest.raises(ValueError, match=consumed):
            solve_banded(copied)

    @pytest.mark.parametrize("k", [1, 8])
    def test_singular_system_is_consumed(self, k):
        # dgbsv overwrites the storage before it reports a zero pivot
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        system.storage[:] = 0.0
        with pytest.raises(SolverError, match="singular"):
            solve_banded(system)
        with pytest.raises(ValueError, match="consumed"):
            solve_banded(system)

    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_scipy_solve_banded_bitwise(self, k, method, monkeypatch):
        eps = 1e-6
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, k, 0.25))

        def assemble():
            if method == "galerkin":
                return assemble_galerkin(prob, mesh, k)
            return assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, eps))

        system = assemble()
        bands, rhs = system.bands.copy(), system.rhs.copy()
        # each row summed in column order, as dlangb does
        norm_a = np.cumsum(np.abs(bands_to_dense(system)), axis=1)[:, -1].max()
        fn = solve_banded(system)
        # before the refinement step: LAPACK dgbsv on scipy's band storage,
        # for every k (scipy.linalg.solve_banded takes dgtsv for k = 1)
        ab = np.zeros((3 * k + 1, rhs.size))
        ab[k:] = bands
        sol = lapack.dgbsv(k, k, ab, rhs)[2]
        # a zero residual makes the refinement step zero, so the solve
        # returns its LU solution; the first solve consumed the system
        with monkeypatch.context() as m:
            m.setattr("cuspfem.assembly._element_residual", lambda s, c: np.zeros(s.dimension))
            assert np.array_equal(solve_banded(assemble()).coefficients[1:-1], sol)
        if k >= 2:
            assert np.array_equal(sol, scipy.linalg.solve_banded((k, k), bands, rhs))
        # the recorded residual is the element operator's at the refined
        # solution
        x = fn.coefficients[1:-1]
        r = _element_residual(system, fn.coefficients)
        res, x_max, b_max = np.max(np.abs(r)), np.max(np.abs(x)), np.max(np.abs(rhs))
        scale = max(x_max, b_max)
        assert fn.residual == res / scale / (norm_a * (x_max / scale) + b_max / scale)
        assert fn.residual <= 1e-15
        # the right-hand side survives; the bands hold LU factors
        assert np.array_equal(system.rhs, rhs)
        assert not np.array_equal(system.bands, bands)

    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_rhs_is_a_solver_error(self, k):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, k, 0.25))
        system = assemble_galerkin(prob, mesh, k)
        rhs = system.rhs.copy()
        rhs[5] = np.nan
        with pytest.raises(SolverError):
            solve_banded(LinearSystem(lu_storage(system.bands), rhs, mesh, k, "uniform", prob))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_band_entry_is_a_solver_error(self, value):
        prob = make_test_problem(1e-4, 0.25)
        mesh = build_mesh(MeshParams(1e-4, 8, 1, 0.25))
        system = assemble_galerkin(prob, mesh, 1)
        bands = system.bands.copy()
        bands[1, 3] = value
        with pytest.raises(SolverError):
            solve_banded(LinearSystem(lu_storage(bands), system.rhs, mesh, 1, "uniform", prob))

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


class TestSampleHandover:
    # assembly hands its a and c samples to the system, and the refinement
    # residual applies them over assembly's blocks
    @pytest.mark.parametrize("method", ["galerkin", "sdfem"])
    def test_solve_evaluates_no_coefficient(self, method, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 16)
        eps, k, calls = 1e-6, 4, []
        prob = counting_problem(calls, eps)
        mesh = build_mesh(MeshParams(eps, 32, k, 0.25))
        if method == "galerkin":
            system = assemble_galerkin(prob, mesh, k)
        else:
            system = assemble_sdfem(prob, mesh, k, stab=compute_deltas(mesh, eps))
        assert {"b", "c", "f"} <= set(calls) and len(system.samples) == 4
        calls.clear()
        solve_banded(system)
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_system_made_without_samples_samples_the_problem(self, k, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 5)
        eps = 1e-6
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 8, k, 0.25))
        stab = compute_deltas(mesh, eps)
        coeffs = np.random.default_rng(k).standard_normal(mesh.n_intervals * k + 1)
        for assembled in (assemble_galerkin(prob, mesh, k), assemble_sdfem(prob, mesh, k, stab=stab)):
            storage = np.asfortranarray(assembled.storage.copy())
            made = LinearSystem(storage, assembled.rhs, mesh, k, "uniform", prob, 0, assembled.deltas)
            assert len(made.samples) == len(assembled.samples) == 4
            for new, ref in zip(made.samples, assembled.samples):
                assert new[0] == ref[0]
                assert np.array_equal(new[1], ref[1]) and np.array_equal(new[2], ref[2])
            assert np.array_equal(_element_residual(made, coeffs), _element_residual(assembled, coeffs))
            new, ref = solve_banded(made), solve_banded(assembled)
            assert np.array_equal(new.coefficients, ref.coefficients)
            assert (new.residual, new.steps) == (ref.residual, ref.steps)

    @pytest.mark.parametrize("k", [1, 4])
    def test_residual_walks_the_blocks_of_assembly(self, k, monkeypatch):
        # assembled in blocks of 3 and solved under the default, a system
        # gives the bits of one assembled and solved wholly in blocks of 3
        eps = 1e-6
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 8, k, 0.25))
        stab = compute_deltas(mesh, eps)
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 3)
        mixed, whole = (assemble_sdfem(prob, mesh, k, stab=stab) for _ in range(2))
        assert [s.stop - s.start for s, _, _ in mixed.samples] == [3, 3, 3, 3, 3, 1]
        ref = solve_banded(whole)
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", BLOCK_ELEMENTS)
        new = solve_banded(mixed)
        assert np.array_equal(new.coefficients, ref.coefficients)
        assert (new.residual, new.steps) == (ref.residual, ref.steps)

    def test_samples_that_do_not_fit_are_rejected(self, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 3)
        k = 2
        prob = make_test_problem(1e-6, 0.25)
        mesh = build_mesh(MeshParams(1e-6, 4, k, 0.25))  # 8 elements: 3, 3, 2
        system = assemble_galerkin(prob, mesh, k)
        (s0, a0, c0), (s1, a1, c1), last = system.samples
        untiled = [
            (last,),  # does not start at 0
            ((s0, a0, c0), (s1, a1, c1)),  # ends short of the mesh
            ((s0, a0, c0), (s0, a0, c0), (s1, a1, c1), last),  # overlaps
            ((slice(0, 8, 2), a0, c0), (s1, a1, c1), last),  # strided
            (*system.samples, (slice(8, 9), a0[:, :1], c0[:, :1])),  # beyond the mesh
        ]
        for samples in untiled:
            with pytest.raises(ValueError, match="do not tile"):
                dataclasses.replace(system, samples=samples)
        for a, c in [(a0[:-1], c0), (a0, c0[1:]), (a0[:, :2], c0[:, :2])]:
            with pytest.raises(ValueError, match="are not"):
                dataclasses.replace(system, samples=((s0, a, c), (s1, a1, c1), last))
        with pytest.raises(ValueError, match=r"are not \(6, 3\) arrays"):
            dataclasses.replace(system, quad_points=k + 4)  # its samples are of k + 3 points
        assert len(dataclasses.replace(system, quad_points=k + 4, samples=()).samples) == 3


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


def recording_tables(tables, peaks: list):
    """`tables` whose matrix and load tables append to `peaks` the peak bytes
    that tracemalloc has traced whenever they multiply."""

    class Recording(np.ndarray):
        def __matmul__(self, other):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return np.asarray(self) @ other

    return tables._replace(matrix=tables.matrix.view(Recording), load=tables.load.view(Recording))


class TestWorkingMemory:
    # tracemalloc counts the bytes numpy allocates, so these bounds do not
    # depend on how malloc returns memory to the system
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_solve_holds_no_band_copy(self, k):
        # the LU overwrites assembly's storage; the solve holds the solution,
        # one refinement residual at a time and the int32 pivots, 2.5
        # n-vectors.  The residual's per-block temporaries may add a
        # constant, but nothing beyond these may grow with N
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        beyond = []
        for n_half in (2048, 8192):
            mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
            system = assemble_galerkin(prob, mesh, k)
            n = system.dimension
            _, peak = traced_peak(solve_banded, system)
            beyond.append(peak - 2 * n * 8 - n * 4)
        assert beyond[1] <= beyond[0] + 64 * 1024

    @pytest.mark.parametrize("k, n_half", [(1, 4096), (8, 1024)])
    def test_element_residual_allocates_its_result_and_block_temporaries(self, k, n_half):
        # the residual's one n-vector is its result; the rest are per-block
        # arrays of at most BLOCK_ELEMENTS columns, the same at 4N as at N
        eps = 1e-10
        prob = make_test_problem(eps, 0.25)
        for assemble in (assemble_galerkin, assemble_sdfem):
            beyond = []
            for n in (n_half, 4 * n_half):
                mesh = build_mesh(MeshParams(eps, n, k, 0.25))
                kwargs = {"stab": compute_deltas(mesh, eps)} if assemble is assemble_sdfem else {}
                system = assemble(prob, mesh, k, **kwargs)
                coeffs = np.zeros(system.dimension + 2)
                coeffs[1:-1] = np.random.default_rng(k).standard_normal(system.dimension)
                _element_residual(system, coeffs)  # the element tables are cached
                r, peak = traced_peak(_element_residual, system, coeffs)
                beyond.append(peak - r.base.nbytes)
            assert beyond[0] <= 12 * (k + 3) * BLOCK_ELEMENTS * 8 + 256 * 1024
            assert beyond[1] <= beyond[0] + 64 * 1024

    def test_assembly_memory_beyond_the_system_does_not_grow_with_n(self):
        eps, k = 1e-10, 8
        prob = make_test_problem(eps, 0.25)
        for assemble in (assemble_galerkin, assemble_sdfem):
            extra = []
            for n_half in (BLOCK_ELEMENTS, 4 * BLOCK_ELEMENTS):
                mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
                kwargs = {"stab": compute_deltas(mesh, eps)} if assemble is assemble_sdfem else {}
                system, peak = traced_peak(assemble, prob, mesh, k, **kwargs)
                # the arrays that hold the bands (LU storage), rhs and samples
                held = system.bands.base.nbytes + system.rhs.base.nbytes
                held += sum(a.nbytes + c.nbytes for _, a, c in system.samples)
                extra.append(peak - held)
            assert extra[1] <= extra[0] + 64 * 1024

    # One SDFEM block of 8192 elements at k = 4: its arrays of q = k + 3
    # rows, 458 KB each, dwarf numpy's 64 KB ufunc buffers.  A stacked copy
    # of the weights would add 7 such arrays before assembly's first table
    # product and 2 before the residual's
    @pytest.fixture
    def sdfem_block(self, monkeypatch):
        monkeypatch.setattr(cuspfem.assembly, "BLOCK_ELEMENTS", 8192)
        eps, k = 1e-6, 4
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 4096, k, 0.25))
        return prob, mesh, compute_deltas(mesh, eps)

    def test_sdfem_block_weights_are_its_only_copy(self, sdfem_block):
        # before its first product a block holds a, c and f, delta w a / h,
        # the 5 + 2 terms of weights and one temporary
        prob, mesh, stab = sdfem_block
        k, rows = 4, 8 * mesh.n_intervals  # bytes of one row of a block array
        peaks = []
        tables = recording_tables(_element_tables(k, "uniform", k + 3), peaks)
        bands = np.zeros((2 * k + 1, mesh.n_intervals * k + 1), order="F")
        rhs = np.zeros(mesh.n_intervals * k + 1)
        (block,) = _blocks(mesh)
        traced_peak(_assemble_block, prob, block, k, tables, stab.deltas, bands, rhs)
        assert len(peaks) == 2
        assert peaks[0] <= 12 * (k + 3) * rows + 256 * 1024

    def test_sdfem_residual_weights_are_its_only_copy(self, sdfem_block, monkeypatch):
        # the residual holds its n-vector, the block's differences (k rows),
        # v', the strong residual, its two halves of weights and one
        # temporary; a and c are the system's samples, and the SD terms are
        # formed in place
        prob, mesh, stab = sdfem_block
        k, rows = 4, 8 * mesh.n_intervals
        system = assemble_sdfem(prob, mesh, k, stab=stab)
        coeffs = np.zeros(system.dimension + 2)
        coeffs[1:-1] = np.random.default_rng(4).standard_normal(system.dimension)
        peaks = []
        monkeypatch.setattr(
            cuspfem.assembly,
            "_element_tables",
            lambda *key: recording_tables(_element_tables(*key), peaks),
        )
        traced_peak(_element_residual, system, coeffs)
        assert len(peaks) == 1
        assert peaks[0] <= coeffs.nbytes + (k + 5 * (k + 3)) * rows + 256 * 1024

    @pytest.mark.parametrize("n_half", [4096, 16384])
    def test_case_peaks_at_its_storage_and_four_vectors(self, n_half):
        # one case holds assembly's (3k+1, n+2) LU storage, the rhs, the
        # samples of a and c (k+3 points an element each), the solve's 2.5
        # n-vectors (coefficients, residual, int32 pivots) and the per-block
        # temporaries of assembly and the element residual
        eps, k = 1e-10, 8
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, n_half, k, 0.25))
        stab = compute_deltas(mesh, eps)
        n = 2 * n_half * k - 1
        samples = 2 * (k + 3) * 2 * n_half * 8
        bound = (3 * k + 1) * (n + 2) * 8 + (n + 2) * 8 + samples + 4 * n * 8 + 1024 * 1024
        for assemble in (
            lambda: assemble_galerkin(prob, mesh, k),
            lambda: assemble_sdfem(prob, mesh, k, stab=stab),
        ):
            _, peak = traced_peak(lambda: solve_banded(assemble()))
            assert peak <= bound

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("policy, per_interval", [("standard", 9), ("theorem-capped", 17)])
    def test_deltas_peak_is_near_their_output(self, policy, per_interval, k):
        # deltas and caps_applied are 9 bytes an interval, and theorem-capped
        # holds the standard values too; a fresh problem's gamma estimate
        # runs before the cap array exists, and the sign check takes no
        # array (see below), so nothing beyond these grows with N
        eps = 1e-6
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 65536, k, 0.25))
        _, peak = traced_peak(compute_deltas, mesh, eps, 1.0, policy, prob, k)
        assert peak <= per_interval * mesh.n_intervals + 16 * 1024

    def test_profile_sign_check_allocates_no_array(self):
        # the check is one reduction over the deltas, not a bool an interval.
        # Python's own objects for a profile take about 1.2 KB whatever n is
        # (more on a first call in the process), so the bound is on the
        # growth from n = 1 to n = 131072, which a bool mask would make 128 KB
        peaks = []
        for n in (1, 131072):
            deltas, caps = np.full(n, 0.5), np.zeros(n, dtype=bool)
            peaks.append(traced_peak(StabilizationProfile, deltas, caps)[1])
        assert peaks[1] - peaks[0] <= 1024

    def test_mesh_peak_is_near_its_output(self):
        # nodes and lengths are 16 bytes an interval; the decades are written
        # straight into the nodes, so little else is ever held with them.
        # Validation's masks and mirrored copy would add 4.5 bytes an interval.
        # An empty node-set cache makes the call build its arrays
        n_half = 65536
        cuspfem.mesh._node_set.cache_clear()
        mesh, peak = traced_peak(build_mesh, MeshParams(1e-10, n_half, 1, 0.25))
        assert mesh.nodes.nbytes + mesh.lengths.nbytes <= 16 * 2 * n_half + 16
        assert peak <= 17 * 2 * n_half

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
        dense = bands_to_dense(system)
        for _ in range(20):
            vfn = random_member(mesh, k, rng)
            quad = float(vfn.coefficients[1:-1] @ (dense @ vfn.coefficients[1:-1]))
            assert quad >= 0.375 * sd_distance(vfn, zero, prob, stab) ** 2
