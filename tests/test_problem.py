from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from helpers import near_zero_coefficient_problem, noncoercive_problem, run_python

import cuspfem.problem
from cuspfem import (
    Problem,
    gamma_estimate,
    make_problem,
    make_test_problem,
    problem_names,
    register_problem,
)

EPS_GRID = [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14]


def fd_second(u, x, h):
    return (-u(x - 2 * h) + 16 * u(x - h) - 30 * u(x) + 16 * u(x + h) - u(x + 2 * h)) / (12 * h * h)


def fd_first(u, x, h):
    return (u(x - 2 * h) - 8 * u(x - h) + 8 * u(x + h) - u(x + 2 * h)) / (12 * h)


class TestManufacturedSolution:
    @pytest.mark.parametrize("eps", EPS_GRID)
    @pytest.mark.parametrize("lam", [0.25, 0.005, 1.5])
    def test_boundary_values_exact_zero(self, eps, lam):
        prob = make_test_problem(eps, lam)
        assert prob.solution(1.0)[0] == 0.0
        assert prob.solution(-1.0)[0] == 0.0

    def test_boundary_values_exact_zero_for_arrays(self):
        # numpy's vectorised ** may round differently from the scalar one
        lams = [0.005, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.9]
        nonzero = []
        for eps in np.geomspace(1e-14, 1.0, 57):
            for lam in lams:
                u = make_test_problem(eps, lam).solution(np.linspace(-1.0, 1.0, 1001))[0]
                nonzero += [(eps, lam, end) for end in (0, -1) if u[end] != 0.0]
        assert nonzero == []

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_center_value(self, eps):
        lam = 0.25
        prob = make_test_problem(eps, lam)
        assert prob.solution(0.0)[0] == eps ** (lam / 2) - (1 + eps) ** (lam / 2)

    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
    def test_exact_derivatives_match_finite_differences(self, eps):
        prob = make_test_problem(eps, 0.25)
        u = lambda x: prob.solution(x)[0]
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 20)
        h = 0.01 * (np.sqrt(eps) + np.abs(x))
        assert prob.solution(x)[1] == pytest.approx(fd_first(u, x, h), rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
    @pytest.mark.parametrize("lam", [0.25, 0.005])
    def test_rhs_consistent_with_operator(self, eps, lam):
        # f must equal -eps u'' + a u' + c u with u'' taken by differences
        prob = make_test_problem(eps, lam)
        u = lambda x: prob.solution(x)[0]
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, 20)
        h = 0.01 * (np.sqrt(eps) + np.abs(x))
        f_fd = (
            -eps * fd_second(u, x, h)
            + prob.coeff_a(x) * fd_first(u, x, h)
            + prob.coeff_c(x) * u(x)
        )
        assert prob.rhs_f(x) == pytest.approx(f_fd, rel=1e-5, abs=1e-8)

    def test_coefficient_structure(self):
        prob = make_test_problem(1e-6, 0.25)
        x = np.linspace(-1.0, 1.0, 101)
        assert np.array_equal(prob.coeff_a(x), -(x * (1 + x * x)))
        assert prob.coeff_b(x) == pytest.approx(1 + x * x, abs=1e-15)
        assert prob.coeff_c(x) == pytest.approx(0.25 * (1 + x ** 3), abs=1e-15)

    def test_lambda_bar_is_ratio_at_origin(self):
        for lam in (0.25, 0.005, 1.5):
            prob = make_test_problem(1e-8, lam)
            a_prime_0 = fd_first(prob.coeff_a, np.array([0.0]), np.array([1e-5]))[0]
            assert prob.lambda_bar == lam
            assert prob.coeff_c(0.0) / abs(a_prime_0) == pytest.approx(lam, rel=1e-8)

    def test_drift_and_lambda_bar_follow_from_b_and_c(self):
        prob = Problem(
            eps=1e-4,
            coeff_b=lambda x: 2.0 + x * x,
            coeff_c=lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
            rhs_f=lambda x: np.zeros_like(x),
        )
        x = np.linspace(-1.0, 1.0, 101)
        assert np.array_equal(prob.coeff_a(x), -(x * (2.0 + x * x)))
        assert prob.lambda_bar == 1.5

    def test_derived_data_is_not_a_field(self):
        # a' follows from b, so a closed form that disagrees cannot be given
        derived = {"coeff_a", "lambda_bar", "coeff_a_dx", "exact_dxx", "name"}
        assert not {f.name for f in fields(Problem)} & derived
        assert [f.name for f in fields(Problem)] == ["eps", "coeff_b", "coeff_c", "rhs_f", "solution"]

    @pytest.mark.parametrize("name", ["exact", "exact_dx"])
    def test_separate_exact_evaluators_are_not_fields(self, name):
        # u and u' are one evaluator of the pair, so half of it cannot be
        # registered, and a one-array evaluator cannot pass as the pair
        with pytest.raises(TypeError, match=name):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: np.ones_like(x),
                rhs_f=lambda x: np.zeros_like(x),
                **{name: lambda x: np.zeros_like(x)},
            )


def closed_form_terms(eps, lam, x):
    """
    The terms of u, u', u'', c and f, each with every power of
    w = x^2 + eps taken by its own `**`; f's terms are -eps u'', a u' and
    c u split over the terms of u'', u' and u.  Keys name the Problem
    evaluators, except "u" and "du", the pair that `solution` returns, and
    "ddu": u'' has none.
    """
    w = x * x + eps
    e1 = 1.0 + eps
    u = [w ** (lam / 2), -(e1 ** (lam / 2)), x * w ** ((lam - 1) / 2), -x * e1 ** ((lam - 1) / 2)]
    du = [
        lam * x * w ** ((lam - 2) / 2),
        w ** ((lam - 1) / 2),
        -(e1 ** ((lam - 1) / 2)),
        (lam - 1) * x * x * w ** ((lam - 3) / 2),
    ]
    ddu = [
        lam * w ** ((lam - 2) / 2),
        lam * (lam - 2) * x * x * w ** ((lam - 4) / 2),
        3 * (lam - 1) * x * w ** ((lam - 3) / 2),
        (lam - 1) * (lam - 3) * x ** 3 * w ** ((lam - 5) / 2),
    ]
    c = [lam, lam * x ** 3]
    a = -x * (1 + x * x)
    f = [-eps * t for t in ddu] + [a * t for t in du] + [ci * t for ci in c for t in u]
    return {"u": u, "du": du, "ddu": ddu, "coeff_c": c, "rhs_f": f}


class TestManufacturedClosedForms:
    # rounding is bounded by the size of the terms, not of their sum, which
    # cancels near x = +-1 and vanishes identically for u'' at lam = 3
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("lam", [0.005, 0.25, 1.0, 1.5, 3.0, 8.9])
    def test_evaluators_match_closed_forms(self, eps, lam):
        rng = np.random.default_rng(5)
        tiny = np.geomspace(1e-9, 1e-1, 17)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 64), [0.0, -1.0, 1.0], tiny, -tiny])
        prob = make_test_problem(eps, lam)
        terms_by_name = closed_form_terms(eps, lam, x)
        del terms_by_name["ddu"]  # u'' enters through rhs_f
        values = dict(zip(("u", "du"), prob.solution(x)), coeff_c=prob.coeff_c(x), rhs_f=prob.rhs_f(x))
        for name, terms in terms_by_name.items():
            terms = np.broadcast_arrays(*terms)
            value = values[name]
            assert value.shape == x.shape, name
            scale = np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(value - np.sum(terms, axis=0)) <= 1e-12 * scale), name


class TestProblemValidation:
    def test_eps_must_lie_in_0_1(self):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\], got 0.0"):
            Problem(
                eps=0.0,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: np.ones_like(x),
                rhs_f=lambda x: np.zeros_like(x),
            )

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: x - 0.5,
                coeff_c=lambda x: np.ones_like(x),
                rhs_f=lambda x: np.zeros_like(x),
            )

    def test_c_must_be_nonnegative_and_positive_at_origin(self):
        with pytest.raises(ValueError):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: x * 1.0,
                rhs_f=lambda x: np.zeros_like(x),
            )
        with pytest.raises(ValueError):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: x * x,
                rhs_f=lambda x: np.zeros_like(x),
            )

    @pytest.mark.parametrize("name", ["coeff_b", "coeff_c"])
    def test_nan_coefficient_rejected(self, name):
        # NaN at x = 0.5, a point of the validation grid, fails the sign checks
        data = {
            "coeff_b": lambda x: np.ones_like(x),
            "coeff_c": lambda x: np.ones_like(x),
            name: lambda x: np.where(x == 0.5, np.nan, 1.0),
        }
        message = {"coeff_b": "b must be positive", "coeff_c": "need c >= 0"}[name]
        with pytest.raises(ValueError, match=message):
            Problem(eps=1e-4, rhs_f=lambda x: np.zeros_like(x), **data)

    def test_eps_range(self):
        for eps in (0.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                make_test_problem(eps, 0.25)


class TestGammaEstimate:
    def test_reference_problem_quarter(self):
        assert gamma_estimate(make_test_problem(1e-8, 0.25)) == pytest.approx(0.75, abs=1e-6)

    def test_reference_problem_small_lambda(self):
        assert gamma_estimate(make_test_problem(1e-8, 0.005)) == pytest.approx(0.505, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.005, 0.25, 1.0, 1.4, 1.5, 3.0, 8.9])
    def test_differenced_a_prime_matches_closed_form(self, lam):
        # c - a'/2 = lam (1 + x^3) + (1 + 3 x^2)/2 has its minimum lam + 1/2
        # at x = 0 or 2 at x = -1; the local maximum at -1/lam lies between
        gamma = gamma_estimate(make_test_problem(1e-8, lam))
        assert gamma == pytest.approx(min(lam + 0.5, 2.0), rel=1e-7)

    @pytest.mark.parametrize("lam", [1.5, 3.0, 8.9])
    def test_recentred_a_prime_exact_for_cubic_drift(self, lam):
        # the minimum 2 sits at x = -1, where the stencil is recentred; with
        # the a''' term it is exact for a = -x - x^3 up to the rounding of
        # the five samples of a (|gamma - 2| = 1.8e-12 at lam 3 and 8.9)
        assert gamma_estimate(make_test_problem(1e-8, lam)) == pytest.approx(2.0, rel=1e-12)

    def test_constant_coefficient_toy(self):
        prob = Problem(
            eps=1e-4,
            coeff_b=lambda x: np.ones_like(x),
            coeff_c=lambda x: np.ones_like(x),
            rhs_f=lambda x: np.zeros_like(x),
        )
        assert gamma_estimate(prob) == pytest.approx(1.5, abs=1e-12)

    # off-grid minima of the 2001-point grid, the last one in its final cell
    @pytest.mark.parametrize("x0", [0.3337, -0.71234, 0.99951])
    def test_refines_off_grid_minimum(self, x0):
        prob = Problem(
            eps=1e-4,
            coeff_b=lambda x: np.ones_like(x),
            coeff_c=lambda x: 1.0 + (x - x0) ** 2,
            rhs_f=lambda x: np.zeros_like(x),
        )
        assert gamma_estimate(prob) == pytest.approx(1.5, abs=1e-12)

    def test_import_leaves_scipy_optimize_out(self, tmp_path):
        # gamma_estimate needs no optimiser, so the CLI does not pay its
        # import; and a tiny theorem-capped SDFEM solve reaches dsygvd (c_inv)
        # and dgbsv, which cuspfem._lapack takes from scipy's LAPACK
        # extension module alone, so the scipy.linalg namespace, what it
        # pulls in and scipy's BLAS module stay unloaded too; the error norms group elements without
        # np.unique, which would import numpy.ma; cases run on the calling
        # thread, and only the verbs that read or write JSON import json
        heavy = [
            "scipy.optimize", "scipy.linalg", "numpy.f2py", "numpy.testing", "charset_normalizer",
            "numpy.ma", "concurrent.futures", "logging", "json", "scipy.linalg._fblas",
        ]
        argv = [
            "solve", "--eps", "1e-4", "--lambda", "0.25", "--n", "32", "--k", "2",
            "--method", "sdfem", "--delta-policy", "theorem-capped",
            "--out", str(tmp_path / "solve.csv"),
        ]
        code = (
            "import sys, cuspfem.experiments\n"
            f"assert cuspfem.experiments.main({argv!r}) == 0\n"
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        assert run_python(code).splitlines()[-1] == "[]"
        assert (tmp_path / "solve.csv").exists()

    def test_nan_off_the_validation_grid_raises(self):
        # c is NaN on (5e-4, 1.5e-3): no point of the 257-point validation
        # grid (0 and 1/128 are its nearest), but x = 0.001 of gamma's grid,
        # so making the Problem fails on its gamma estimate
        with pytest.raises(ValueError, match="coercivity condition violated: .* nan"):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: np.where((x > 5e-4) & (x < 1.5e-3), np.nan, 1.0),
                rhs_f=lambda x: np.zeros_like(x),
            )

    def test_noncoercive_problem_raises(self):
        with pytest.raises(ValueError, match="coercivity"):
            noncoercive_problem()


class TestDeltaCap:
    @pytest.fixture
    def estimates(self, monkeypatch):
        """The problems that gamma_estimate runs on, in call order."""
        calls, estimate = [], cuspfem.problem.gamma_estimate

        def counted(problem, *args, **kwargs):
            calls.append(problem)
            return estimate(problem, *args, **kwargs)

        monkeypatch.setattr(cuspfem.problem, "gamma_estimate", counted)
        return calls

    def test_matches_gamma_over_twice_c_inf_squared(self):
        # c = lam (1 + x^3) peaks at 2 lam at x = 1; gamma = lam + 1/2 at lam 0.25
        cap = make_test_problem(1e-6, 0.25).delta_cap
        assert cap == pytest.approx(0.75 / (2.0 * 0.5 * 0.5), rel=1e-7)

    def test_estimated_once_per_object(self, estimates):
        prob = make_test_problem(1e-6, 0.25)
        assert prob.delta_cap == prob.delta_cap
        assert len(estimates) == 1
        make_test_problem(1e-6, 0.25).delta_cap
        assert len(estimates) == 2

    def test_failed_estimate_is_not_kept(self, estimates):
        # a noncoercive Problem is never made, so each attempt estimates
        # gamma and fails again
        for _ in range(2):
            with pytest.raises(ValueError, match="coercivity"):
                noncoercive_problem()
        assert len(estimates) == 2

    def test_near_zero_coefficients_give_a_finite_cap(self):
        # 2 ||c||^2 underflows to 0 at ||c|| = 1e-280; gamma = 1.5e-280
        assert near_zero_coefficient_problem().delta_cap == pytest.approx(7.5e279, rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_c_off_the_other_grids_raises(self, value):
        # x = 1/2048 is a point of the 4097-point grid for ||c||_inf only
        with pytest.raises(ValueError, match="c must be finite"):
            Problem(
                eps=1e-4,
                coeff_b=lambda x: np.ones_like(x),
                coeff_c=lambda x: np.where(x == 1.0 / 2048, value, 1.0),
                rhs_f=lambda x: np.zeros_like(x),
            )

    def test_leaves_eq_hash_and_repr_alone(self):
        prob = make_test_problem(1e-6, 0.25)
        before = (repr(prob), hash(prob))
        prob.delta_cap
        assert (repr(prob), hash(prob)) == before
        assert "delta_cap" not in {f.name for f in fields(prob)}


class TestLayerBoundProfile:
    @pytest.mark.parametrize("i", [0, 1, 2])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_derivatives_dominated_by_profile(self, i, eps):
        prob = make_test_problem(eps, 0.25)
        x = np.concatenate([np.linspace(-1, 1, 2001), np.geomspace(1e-14, 1, 200)])
        if i < 2:
            value = prob.solution(x)[i]
        else:
            value = np.sum(np.broadcast_arrays(*closed_form_terms(eps, 0.25, x)["ddu"]), axis=0)
        # |u^(i)(x)| <= C (1 + (sqrt(eps) + |x|)^(lam - i))
        bound = 1.0 + (np.sqrt(eps) + np.abs(x)) ** (prob.lambda_bar - i)
        assert np.max(np.abs(value) / bound) <= 16.0


class TestRegistry:
    def test_default_entry(self):
        assert "sun-stynes-example" in problem_names()
        prob = make_problem("sun-stynes-example", 1e-8, 0.25)
        assert prob.has_exact
        assert prob.eps == 1e-8

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="sun-stynes-example"):
            make_problem("nope", 1e-8, 0.25)

    def test_register_and_reject_duplicates(self):
        def factory(eps, lam):
            return make_test_problem(eps, lam)

        register_problem("registry-probe", factory)
        assert "registry-probe" in problem_names()
        prob = make_problem("registry-probe", 1e-4, 0.25)
        assert prob.lambda_bar == 0.25
        with pytest.raises(ValueError):
            register_problem("registry-probe", factory)
