"""
End-to-end acceptance gates for the toolkit: golden error values, rate and
supercloseness slopes, scaled-ratio stability, exact mesh-index recovery on
a large parameter grid, structural property suites, and eps-robustness.
Each test is one pass/fail gate; run with -v for the per-gate lines.
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_FLOOR, getcontext
from fractions import Fraction

import numpy as np
import pytest
from helpers import bands_to_dense, patch_problem, weak_form_on_exact, zero_stab, discrete_l2

from cuspfem import (
    DiscreteFunction,
    MeshParams,
    QuadSpec,
    SweepConfig,
    assemble_galerkin,
    assemble_sdfem,
    build_mesh,
    compute_big_k,
    compute_deltas,
    compute_sigma,
    error_norms,
    interpolate,
    make_test_problem,
    ratio_table,
    run_convergence,
    sd_distance,
    solve_banded,
    validate_mesh,
)
from cuspfem.assembly import STEP_TOL

getcontext().prec = 60


def lsq_slope(n_list, errors) -> float:
    """Least-squares slope s of log2(error) = const - s * log2(N)."""
    coef = np.polyfit(np.log2(np.asarray(n_list, dtype=float)), np.log2(errors), 1)
    return -float(coef[0])


def two_sig_digits(x: float) -> str:
    return f"{x:.1e}"


def test_01_galerkin_energy_goldens():
    """P1/P2 energy errors at eps = 1e-10, lambda = 0.005 match the
    reference values at N = 512 and 1024."""
    rows = run_convergence(
        SweepConfig(lam=0.005, eps_list=(1e-10,), n_list=(512, 1024), k_list=(1, 2))
    )
    got = {(r.order, r.n_half): r.energy for r in rows}
    reference = {
        (1, 512): 3.97e-05,
        (1, 1024): 1.98e-05,
        (2, 512): 1.10e-06,
        (2, 1024): 2.73e-07,
    }
    for key, ref in reference.items():
        assert got[key] == pytest.approx(ref, rel=0.10), key
        assert two_sig_digits(got[key]) == two_sig_digits(ref), key


def test_02_sdfem_rates_and_goldens():
    """SDFEM P1 at eps = 1e-10, lambda = 0.005: SD-norm rate ~1, L2 rate ~2,
    with the N = 512 errors matching the reference values."""
    rows = run_convergence(
        SweepConfig(
            lam=0.005,
            eps_list=(1e-10,),
            n_list=(256, 512, 1024, 2048),
            k_list=(1,),
            method="sdfem",
        )
    )
    for row in rows[:3]:
        assert 0.95 <= row.sd_rate <= 1.10, (row.n_half, row.sd_rate)
        assert 1.95 <= row.l2_rate <= 2.15, (row.n_half, row.l2_rate)
    at_512 = rows[1]
    assert at_512.sd == pytest.approx(4.10e-05, rel=0.10)
    assert at_512.l2 == pytest.approx(1.38e-06, rel=0.10)


def test_03_energy_slopes_reach_order():
    """Energy-norm convergence slope over N = 128..1024 reaches k - 0.15
    for k = 1, 2, 3 at eps = 1e-10, lambda = 0.005."""
    n_list = (128, 256, 512, 1024)
    rows = run_convergence(
        SweepConfig(lam=0.005, eps_list=(1e-10,), n_list=n_list, k_list=(1, 2, 3))
    )
    for k in (1, 2, 3):
        errs = [r.energy for r in rows if r.order == k]
        slope = lsq_slope(n_list, errs)
        assert slope >= k - 0.15, (k, slope)


def test_04_supercloseness_slope():
    """SD-distance between the interpolant and the SDFEM solution decays
    with slope >= 1.4 for k = 1 (one full order above the error itself)."""
    eps, lam = 1e-10, 0.005
    prob = make_test_problem(eps, lam)
    n_list = (128, 256, 512, 1024)
    dists = []
    for n in n_list:
        mesh = build_mesh(MeshParams(eps, n, 1, lam))
        stab = compute_deltas(mesh, eps)
        fn = solve_banded(assemble_sdfem(prob, mesh, 1, stab=stab))
        dists.append(sd_distance(interpolate(prob, mesh, 1), fn, prob, stab))
    slope = lsq_slope(n_list, dists)
    assert slope >= 1.4, (slope, dists)


def test_05_scaled_ratio_plateau():
    """Energy * 100 * (N/(K+1))^k settles in [8.0, 8.9] at eps = 1e-14,
    k = 2, lambda = 0.25, with <= 5% movement from N = 2048 to 4096."""
    table = ratio_table(
        run_convergence(SweepConfig(lam=0.25, eps_list=(1e-14,), n_list=(2048, 4096), k_list=(2,)))
    )
    ratios = {row[1]: row[5] for row in table.rows}
    assert 8.0 <= ratios[4096] <= 8.9, ratios
    assert abs(ratios[4096] - ratios[2048]) <= 0.05 * ratios[2048], ratios


def test_06_mesh_index_grid_integer_exact():
    """K = floor(1 - log10 sigma) recomputed in exact rational/60-digit
    arithmetic agrees with the float pipeline for k = 2, lambda in
    {1/4, 1/200}, N = 2^3..2^12, eps = 10^0..10^-50 (1020 cases)."""
    log10_2 = Decimal(2).ln() / Decimal(10).ln()
    checked = 0
    for lam_float, lam_frac in ((0.25, Fraction(1, 4)), (0.005, Fraction(1, 200))):
        for m in range(3, 13):
            n = 2 ** m
            exp_n = 5 * m * log10_2  # -log10 of N^-(2k+1), k = 2
            for j in range(0, 51):
                exp_eps = Fraction(j) * (1 - lam_frac / 3) / 2
                if Decimal(exp_eps.numerator) / Decimal(exp_eps.denominator) <= exp_n:
                    exact = math.floor(1 + exp_eps)
                else:
                    exact = int((1 + exp_n).to_integral_value(rounding=ROUND_FLOOR))
                params = MeshParams(10.0 ** (-j), n, 2, lam_float)
                got = compute_big_k(compute_sigma(params).value)
                assert got == exact, (lam_float, n, j, got, exact)
                checked += 1
    assert checked == 2 * 10 * 51


def test_07a_random_mesh_tuples_validate():
    """200 random admissible (eps, N, k, lambda) tuples produce meshes that
    pass every structural validation check."""
    rng = np.random.default_rng(2024)
    done = 0
    while done < 200:
        params = MeshParams(
            10.0 ** rng.uniform(-50, 0),
            int(rng.integers(4, 4097)),
            int(rng.integers(1, 9)),
            float(rng.uniform(0.0, 2.0)),
        )
        if params.n_half < compute_big_k(compute_sigma(params).value) + 1:
            continue
        diag = validate_mesh(build_mesh(params))
        assert diag.ok, (params, diag.violations)
        done += 1


def test_07b_zero_stabilization_is_galerkin():
    """SDFEM assembly with all deltas = 0 yields the Galerkin system
    bit for bit."""
    for eps, n, k in ((1e-8, 64, 2), (1e-12, 32, 1)):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, n, k, 0.25))
        plain = assemble_galerkin(prob, mesh, k)
        stabbed = assemble_sdfem(prob, mesh, k, stab=zero_stab(mesh))
        assert plain.bands.tobytes() == stabbed.bands.tobytes()
        assert plain.rhs.tobytes() == stabbed.rhs.tobytes()


def test_07c_polynomial_patch():
    """Both discretizations reproduce an in-space polynomial solution to
    1e-10 in the energy norm."""
    prob = patch_problem(eps=1.0, degree=2)
    mesh = build_mesh(MeshParams(1.0, 16, 2, 1.0))
    fem = solve_banded(assemble_galerkin(prob, mesh, 2))
    assert error_norms(fem, prob, mesh).energy <= 1e-10
    sdfem = solve_banded(assemble_sdfem(prob, mesh, 2, stab=compute_deltas(mesh, 1.0)))
    assert error_norms(sdfem, prob, mesh).energy <= 1e-10


def test_07d_sd_form_coercive_on_random_vectors():
    """v^T A v >= 0.5 min(gamma, 1) ||v||_SD^2 for 100 random discrete
    functions under the theorem-capped deltas (gamma = 0.75)."""
    eps, lam = 1e-6, 0.25
    prob = make_test_problem(eps, lam)
    rng = np.random.default_rng(99)
    for k in (1, 2):
        mesh = build_mesh(MeshParams(eps, 64, k, lam))
        stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
        system = assemble_sdfem(prob, mesh, k, stab=stab)
        zero = DiscreteFunction(mesh, k, "uniform", np.zeros(mesh.n_intervals * k + 1))
        dense = bands_to_dense(system)
        for _ in range(50):
            coef = np.zeros(system.dimension + 2)
            coef[1:-1] = rng.standard_normal(system.dimension)
            vfn = DiscreteFunction(mesh, k, "uniform", coef)
            quad = float(coef[1:-1] @ (dense @ coef[1:-1]))
            assert quad >= 0.375 * sd_distance(vfn, zero, prob, stab) ** 2


def test_07e_quadrature_refinement_gates():
    """Doubling assembly quadrature moves the solution by <= 1e-8 in the
    energy norm; 4x error-quadrature panels move reported norms <= 0.1%."""
    for k in (1, 2, 3, 4):
        for eps in (1.0, 1e-8):
            prob = make_test_problem(eps, 0.25)
            mesh = build_mesh(MeshParams(eps, 64, k, 0.25))
            f1 = solve_banded(assemble_galerkin(prob, mesh, k, quad_points=k + 3))
            f2 = solve_banded(assemble_galerkin(prob, mesh, k, quad_points=2 * (k + 3)))
            assert sd_distance(f1, f2, prob, zero_stab(mesh)) <= 1e-8, (k, eps)
    for eps in (1e-10, 1e-14):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, 2, 0.25))
        stab = compute_deltas(mesh, eps)
        fn = solve_banded(assemble_sdfem(prob, mesh, 2, stab=stab))
        coarse = error_norms(fn, prob, mesh, stab=stab)
        fine = error_norms(fn, prob, mesh, stab=stab, quad=QuadSpec(5, 32))
        for name in ("l2", "energy", "sd", "weighted_xdp"):
            a, b = getattr(coarse, name), getattr(fine, name)
            assert abs(a - b) <= 1e-3 * b, (eps, name)


def test_07f_galerkin_orthogonality():
    """|B(u - u_N, v_N)| <= 1e-8 ||v_N|| for 20 random test functions, the
    exact-solution side integrated with an independent high-order rule."""
    for eps in (1e-2, 1e-6):
        prob = make_test_problem(eps, 0.25)
        mesh = build_mesh(MeshParams(eps, 64, 2, 0.25))
        system = assemble_galerkin(prob, mesh, 2)
        solve_banded(system)
        residual = weak_form_on_exact(prob, mesh, 2, "uniform", 7, 16) - system.rhs
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(system.dimension)
            coef = np.zeros(system.dimension + 2)
            coef[1:-1] = v
            vfn = DiscreteFunction(mesh, 2, "uniform", coef)
            assert abs(residual @ v) <= 1e-8 * discrete_l2(vfn)


def test_08_eps_robustness():
    """P1 at N = 512 solves cleanly for eps from 1 down to 1e-14; the
    energy errors track the reference column (a bump at eps = 1e-2, then
    strict decay) with no blow-up at any grid point."""
    eps_list = (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
    reference = (9.71e-4, 1.38e-3, 6.45e-4, 2.69e-4, 1.06e-4, 3.97e-5, 1.47e-5, 7.48e-6)
    rows = run_convergence(
        SweepConfig(lam=0.005, eps_list=eps_list, n_list=(512,), k_list=(1,))
    )
    assert all(r.error is None and r.residual_ok and r.mesh_ok for r in rows)
    energies = [r.energy for r in rows]
    assert all(math.isfinite(e) and e > 0 for e in energies)
    for got, ref in zip(energies, reference):
        assert got == pytest.approx(ref, rel=0.10), (energies, reference)
    for prev, cur in zip(energies[1:], energies[2:]):
        assert cur < prev, energies


def _solution_and_interpolant_errors(eps, k, lam, method, n):
    """SD-norm errors (the energy norm for Galerkin) of the discrete
    solution and of the exact solution's interpolant, `method` one of
    "fem", "standard", "theorem-capped"."""
    prob = make_test_problem(eps, lam)
    mesh = build_mesh(MeshParams(eps, n, k, lam))
    if method == "fem":
        stab, system = None, assemble_galerkin(prob, mesh, k)
    else:
        stab = compute_deltas(mesh, eps, 1.0, method, prob, k)
        system = assemble_sdfem(prob, mesh, k, stab=stab)
    own = error_norms(solve_banded(system), prob, mesh, stab).sd
    return own, error_norms(interpolate(prob, mesh, k), prob, mesh, stab).sd


def test_09_no_round_off_floor_across_the_range():
    """Over eps 1 .. 1e-14, k 1 .. 8, lambda from 0.005 to k + 1, Galerkin
    and both SD delta policies, N 32 .. 256, no error stalls far above
    the interpolant's: a case is flagged when E(2N) > 1.05 E(N) while
    E(N) > 10x the interpolant's error, or when E(N) > 1e3x the
    interpolant's error and E(N) > 1e-12.  No case may be flagged; standard
    deltas at k = 8 and eps = 1e-2 were, 600x to 7e4x above the interpolant,
    until they took the inverse-inequality cap."""
    n_list = (32, 64, 128, 256)
    flagged = set()
    for eps in (1.0, 1e-2, 1e-6, 1e-10, 1e-14):
        for k in (1, 2, 4, 8):
            for lam in (0.005, 0.25, 1.0, k + 1.0):
                for method in ("fem", "standard", "theorem-capped"):
                    errors = [_solution_and_interpolant_errors(eps, k, lam, method, n) for n in n_list]
                    for i, (e, interp) in enumerate(errors):
                        stalls = i + 1 < len(errors) and errors[i + 1][0] > 1.05 * e
                        if (stalls and e > 10 * interp) or (e > 1e3 * interp and e > 1e-12):
                            flagged.add((eps, k, lam, method, n_list[i]))
    assert not flagged, sorted(flagged)


def test_10_large_n_errors_reach_the_interpolant():
    """Galerkin at k 4 and 8, eps 1e-6 and 1e-10, N 8192 and 16384: the
    energy error is at most 2x the interpolant's.  The one exception,
    k 4, eps 1e-10, N 8192 (6.0x), is still pre-asymptotic: a second
    refinement step or twice the assembly quadrature points leave its
    error as it is, and at N 16384 it is 0.96x; it must stay within 10x."""
    for k in (4, 8):
        for eps in (1e-6, 1e-10):
            for n in (8192, 16384):
                own, interp = _solution_and_interpolant_errors(eps, k, 0.25, "fem", n)
                bound = 10.0 if (k, eps, n) == (4, 1e-10, 8192) else 2.0
                assert own <= bound * interp, (k, eps, n, own, interp)


def test_11_standard_deltas_reach_the_interpolant_at_moderate_eps():
    """Standard SDFEM deltas at eps 1e-1 .. 1e-3, k 4 and 8, N 64 .. 1024:
    the SD-norm error is at most 1.5x the interpolant's.  Without the cap
    h^2/(eps c_inv^2) it was up to 3e4x (eps 1e-2, k 8, N 256), and the
    rows reported a clean residual; with it the worst case is 0.96x."""
    for eps in (1e-1, 1e-2, 3e-3, 1e-3):
        for k in (4, 8):
            for n in (64, 128, 256, 512, 1024):
                own, interp = _solution_and_interpolant_errors(eps, k, 0.25, "standard", n)
                assert own <= 1.5 * interp, (eps, k, n, own, interp)


def test_12_refinement_leaves_no_solve_floor_at_eps_1():
    """Galerkin at eps 1, k 8, N 2048 .. 16384: the L2 error is at most
    2e-13 at every N (so at most 1e-12 at N 8192).  One refinement step
    left 1.6e-13, 2.5e-12, 5.7e-11 and 9.4e-10, rising with N under a
    clean residual; each further step shrinks about as the square of the
    last, so the solve records its relative step sizes and stops once the
    last one's square is below STEP_TOL."""
    eps, k = 1.0, 8
    prob = make_test_problem(eps, 0.25)
    for n in (2048, 4096, 8192, 16384):
        mesh = build_mesh(MeshParams(eps, n, k, 0.25))
        fn = solve_banded(assemble_galerkin(prob, mesh, k))
        l2 = error_norms(fn, prob, mesh).l2
        assert l2 <= 2e-13, (n, l2, fn.steps)
        assert len(fn.steps) == 2 and fn.steps[1] ** 2 <= STEP_TOL < fn.steps[0] ** 2, fn.steps


def test_12b_sweep_size_case_takes_one_refinement_step():
    """Theorem-capped SDFEM at eps 1e-2, k 4, N 1024, the benchmark sweep's
    largest kind of case: its first step is already below the stopping
    rule, so the solve takes exactly one."""
    eps, k = 1e-2, 4
    prob = make_test_problem(eps, 0.25)
    mesh = build_mesh(MeshParams(eps, 1024, k, 0.25))
    stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
    fn = solve_banded(assemble_sdfem(prob, mesh, k, stab=stab))
    assert len(fn.steps) == 1 and 0.0 < fn.steps[0] ** 2 <= STEP_TOL, fn.steps
