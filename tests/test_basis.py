from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from helpers import loop_diff_matrix

import cuspfem.basis
from cuspfem import ReferenceBasis, estimate_c_inv, gauss_rule, reference_nodes


class TestReferenceNodes:
    def test_k1_uniform(self):
        assert np.array_equal(reference_nodes(1, "uniform"), [0.0, 1.0])

    def test_k2_uniform(self):
        assert np.array_equal(reference_nodes(2, "uniform"), [0.0, 0.5, 1.0])

    def test_k3_lobatto_closed_form(self):
        # interior Gauss-Lobatto nodes for k = 3 sit at +-1/sqrt(5) on [-1, 1]
        s = 1.0 / math.sqrt(5.0)
        expect = np.array([0.0, (1 - s) / 2, (1 + s) / 2, 1.0])
        got = reference_nodes(3, "gauss-lobatto")
        assert got == pytest.approx(expect, abs=1e-14)

    def test_k1_families_coincide(self):
        assert np.array_equal(reference_nodes(1, "uniform"), reference_nodes(1, "gauss-lobatto"))

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_sorted_endpoints_symmetric(self, k, family):
        t = reference_nodes(k, family)
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)
        assert t + t[::-1] == pytest.approx(np.ones(k + 1), abs=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            reference_nodes(0, "uniform")
        with pytest.raises(ValueError):
            reference_nodes(9, "uniform")
        with pytest.raises(ValueError):
            reference_nodes(2, "chebyshev")


class TestEvalBasis:
    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_kronecker_at_nodes(self, k, family):
        basis = ReferenceBasis(k, family)
        V, _, _ = basis.tables(basis.nodes)
        assert np.allclose(V, np.eye(k + 1), atol=1e-12)

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_partition_of_unity(self, k, family):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.0, 1.0, 40)
        V, D1, _ = ReferenceBasis(k, family).tables(t)
        assert V.sum(axis=0) == pytest.approx(np.ones(40), abs=1e-12)
        assert D1.sum(axis=0) == pytest.approx(np.zeros(40), abs=1e-10)

    def test_k2_midpoint_hat(self):
        # quadratic bump 4t(1-t) at t = 0.25
        vals = ReferenceBasis(2).tables(0.25)[0][:, 0]
        assert vals[1] == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_diff_matrix_matches_entrywise_formula(self, k, family):
        assert np.array_equal(ReferenceBasis(k, family)._diff, loop_diff_matrix(k, family))

    @pytest.mark.parametrize("family", ["uniform", "gauss-lobatto"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
    def test_derivatives_match_finite_differences(self, k, family):
        basis = ReferenceBasis(k, family)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.05, 0.95, 100)
        step = 1e-6
        Vp, D1p, _ = basis.tables(t + step)
        Vm, D1m, _ = basis.tables(t - step)
        _, D1, D2 = basis.tables(t)
        assert D1 == pytest.approx((Vp - Vm) / (2 * step), abs=1e-5 * 4 ** k)
        assert D2 == pytest.approx((D1p - D1m) / (2 * step), abs=1e-4 * 4 ** k)

    def test_polynomial_reproduction(self):
        # degree-k data is reproduced exactly by the nodal basis
        k = 4
        basis = ReferenceBasis(k, "gauss-lobatto")
        coef = np.polynomial.polynomial.Polynomial([0.3, -1.2, 0.5, 2.0, -0.7])
        t = np.linspace(0.0, 1.0, 33)
        V, D1, D2 = basis.tables(t)
        nodal = coef(basis.nodes)
        assert nodal @ V == pytest.approx(coef(t), abs=1e-12)
        assert nodal @ D1 == pytest.approx(coef.deriv(1)(t), abs=1e-10)
        assert nodal @ D2 == pytest.approx(coef.deriv(2)(t), abs=1e-9)


class TestGaussRule:
    def test_q1_midpoint(self):
        rule = gauss_rule(1)
        assert rule.points == pytest.approx([0.5], abs=1e-15)
        assert rule.weights == pytest.approx([1.0], abs=1e-15)

    def test_q2_closed_form(self):
        rule = gauss_rule(2)
        off = 1.0 / (2.0 * math.sqrt(3.0))
        assert rule.points == pytest.approx([0.5 - off, 0.5 + off], abs=1e-15)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_q2_integrates_cubic(self):
        rule = gauss_rule(2)
        assert float(rule.weights @ rule.points ** 3) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("q", range(1, 8))
    def test_exactness_to_degree_2q_minus_1(self, q):
        rule = gauss_rule(q)
        assert np.all(rule.weights > 0)
        for m in range(2 * q):
            exact = 1.0 / (m + 1)
            assert float(rule.weights @ rule.points ** m) == pytest.approx(exact, rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gauss_rule(0)


class TestInverseEstimate:
    def test_k1_zero(self):
        # the 1 x 1 eigenproblem 0 = lambda * 1 gives +0.0
        assert math.copysign(1.0, estimate_c_inv(1)) == 1.0 and estimate_c_inv(1) == 0.0

    def test_k2_closed_form(self):
        assert estimate_c_inv(2) == pytest.approx(math.sqrt(12.0), rel=1e-10)

    def test_k2_matches_grid_search(self):
        # maximize ||p''|| / ||p'|| over p = alpha t + beta t^2 directly
        alphas = np.linspace(-3.0, 1.0, 4001)
        num = 4.0                                  # ||p''||^2 with beta = 1
        den = alphas ** 2 + 2.0 * alphas + 4.0 / 3.0
        best = math.sqrt(np.max(num / den))
        assert estimate_c_inv(2) == pytest.approx(best, rel=1e-6)

    def test_rejects_order_0(self):
        with pytest.raises(ValueError, match="polynomial order must be >= 1, got 0"):
            estimate_c_inv(0)

    def test_monotone_in_k(self):
        vals = [estimate_c_inv(k) for k in range(1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_scipy_eigh_bitwise(self, k):
        # the forms int p'' q'' and int p' q' on t^i, t^j, entry by entry;
        # estimate_c_inv makes eigh's LAPACK call (dsygvd) itself
        A, B = np.zeros((k, k)), np.zeros((k, k))
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i > 1 and j > 1:
                    A[i - 1, j - 1] = i * (i - 1) * j * (j - 1) / (i + j - 3.0)
                B[i - 1, j - 1] = i * j / (i + j - 1.0)
        ev = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert estimate_c_inv(k) == float(np.sqrt(max(ev[-1], 0.0)))

    def test_lapack_failure_raises(self, monkeypatch):
        # info n + i: the leading minor of order i of B is not positive definite
        def failing(a, b, **kwargs):
            return np.zeros(len(a)), a, len(a) + 1

        monkeypatch.setattr(cuspfem.basis, "lapack", SimpleNamespace(dsygvd=failing))
        estimate_c_inv.cache_clear()
        with pytest.raises(ValueError, match="LAPACK dsygvd info 4"):
            estimate_c_inv(3)
