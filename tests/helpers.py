"""Shared construction helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import cuspfem.assembly
from cuspfem import (
    DiscreteFunction,
    Problem,
    StabilizationProfile,
    gauss_rule,
    make_test_problem,
)
from cuspfem.assembly import BLOCK_ELEMENTS, _ref_basis
from cuspfem.basis import _barycentric_weights, reference_nodes
from cuspfem.mesh import _decade_bounds, _decade_parts, compute_big_k, compute_sigma
from cuspfem.norms import _panel_counts


def patch_problem(eps: float = 1.0, degree: int = 2) -> Problem:
    """
    Problem with a = -x, c = 1 whose exact solution is a polynomial of the
    given degree vanishing at +-1, with f synthesized in closed form.
    Degree 2: u = 1 - x^2.  Degree 3: u = x - x^3.
    """
    if degree == 2:
        u = lambda x: 1.0 - x * x
        du = lambda x: -2.0 * x
        ddu = lambda x: -2.0 + 0.0 * x
    elif degree == 3:
        u = lambda x: x - x ** 3
        du = lambda x: 1.0 - 3.0 * x * x
        ddu = lambda x: -6.0 * x
    else:
        raise ValueError(f"unsupported patch degree {degree}")
    return Problem(
        eps=eps,
        coeff_b=lambda x: np.ones_like(x),
        coeff_c=lambda x: np.ones_like(x),
        rhs_f=lambda x: -eps * ddu(x) - x * du(x) + u(x),
        exact=u,
        exact_dx=du,
    )


def near_zero_coefficient_problem(eps: float = 1.0) -> Problem:
    """
    Effectively pure-diffusion data: b and c are positive but so small
    (1e-280) that convection and reaction are negligible, f = 0.  Used to
    probe the eps-weighted stiffness part of the assembled matrix.
    """
    tiny = 1e-280
    return Problem(
        eps=eps,
        coeff_b=lambda x: np.full_like(x, tiny),
        coeff_c=lambda x: np.full_like(x, tiny),
        rhs_f=lambda x: np.zeros_like(x),
    )


def noncoercive_problem(eps: float = 1e-4, lam: float = 0.25) -> Problem:
    """Valid data whose min(c - a'/2) is negative: b + x b' = (1 - 5 x^2) /
    (1 + 5 x^2)^2 dips below -2c near x = 1.  `lam` is ignored, so the
    function is also a registry factory."""
    return Problem(
        eps=eps,
        coeff_b=lambda x: 1.0 / (1 + 5 * x * x),
        coeff_c=lambda x: np.full_like(np.asarray(x, dtype=float), 0.01),
        rhs_f=lambda x: np.zeros_like(x),
    )


def nan_load_problem(eps: float = 1e-6, lam: float = 0.25) -> Problem:
    """The manufactured problem with f = NaN on (0.2, 0.3), so that assembly
    fails with a message holding commas; also a registry factory."""
    base = make_test_problem(eps, lam)
    f = base.rhs_f
    return replace(base, rhs_f=lambda x: np.where((x > 0.2) & (x < 0.3), np.nan, f(x)))


def no_exact_problem(eps: float = 1e-6, lam: float = 0.25) -> Problem:
    """The manufactured problem's data without its exact solution; also a
    registry factory."""
    return replace(make_test_problem(eps, lam), exact=None, exact_dx=None)


# numpy's MemoryError text for an array that does not fit
OOM_TEXT = "Unable to allocate 5.00 GiB for an array with shape (5, 134217729) and data type float64"


def starve_assembly(monkeypatch, max_columns: int = 0) -> None:
    """Make assembly raise numpy's MemoryError, as a case too large for
    memory does, for every system with more than `max_columns` band columns
    (2 N k + 1 before the boundary rows are dropped)."""
    block = cuspfem.assembly._assemble_block

    def starved(problem, blk, k, tables, deltas, bands, rhs):
        if bands.shape[1] > max_columns:
            raise MemoryError(OOM_TEXT)
        block(problem, blk, k, tables, deltas, bands, rhs)

    monkeypatch.setattr(cuspfem.assembly, "_assemble_block", starved)


def loop_diff_matrix(k: int, family: str) -> np.ndarray:
    """Nodal differentiation matrix entry by entry: D[i, j] = (w_j / w_i) /
    (t_i - t_j) off the diagonal, then minus the row sum on it."""
    nodes = reference_nodes(k, family)
    w = _barycentric_weights(nodes)
    D = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, :])
    return D


def loop_mesh_nodes(params) -> np.ndarray:
    """Mesh nodes decade by decade: 0, then each decade's inner nodes
    lo + j (hi - lo) / m for j = 1 .. m-1 and its end point hi, mirrored
    across 0.  `build_mesh` placed its nodes this way before each decade
    became one arange from its start."""
    big_k = compute_big_k(compute_sigma(params).value)
    bounds, parts = _decade_bounds(big_k), _decade_parts(params.n_half, big_k)
    half = [np.array([0.0])]
    for d in range(big_k + 1):
        lo, hi, m = bounds[d], bounds[d + 1], parts[d]
        half.append(lo + np.arange(1, m) * ((hi - lo) / m))
        half.append(np.array([hi]))
    right = np.concatenate(half)
    return np.concatenate((-right[:0:-1], right))


def zero_stab(mesh) -> StabilizationProfile:
    n = mesh.n_intervals
    return StabilizationProfile(np.zeros(n), np.zeros(n, dtype=bool))


def bands_to_dense(system) -> np.ndarray:
    k, n = system.order, system.dimension
    dense = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - k), min(n, j + k + 1)):
            dense[i, j] = system.bands[k + i - j, j]
    return dense


def discrete_l2(fn: DiscreteFunction) -> float:
    """L2 norm of a discrete function by exact per-element Gauss quadrature."""
    rule = gauss_rule(fn.order + 1)
    V, _, _ = _ref_basis(fn.order, fn.family).tables(rule.points)
    k = fn.order
    nel = fn.mesh.n_intervals
    idx = np.arange(nel)[:, None] * k + np.arange(k + 1)[None, :]
    vals = fn.coefficients[idx] @ V
    return float(np.sqrt(np.sum(rule.weights[None, :] * fn.mesh.lengths[:, None] * vals ** 2)))


def uniform_composite_rule(mesh, points: int, panels: int):
    """`points` Gauss points on each of `panels` equal panels of every
    element: reference points, and physical points and weights of shape
    (nel, points * panels)."""
    rule = gauss_rule(points)
    pts = (np.arange(panels)[:, None] / panels + rule.points[None, :] / panels).ravel()
    wts = np.tile(rule.weights / panels, panels)
    h = mesh.lengths
    xq = mesh.nodes[:-1, None] + h[:, None] * pts[None, :]
    wq = wts[None, :] * h[:, None]
    return pts, xq, wq


def uniform_error_norms(fn: DiscreteFunction, problem: Problem, stab, points: int, panels: int) -> np.ndarray:
    """
    (l2, energy, sd, weighted_xdp) of u - fn with the same rule on every
    element, independent of the layer-graded rule in cuspfem.norms.
    """
    pts, xq, wq = uniform_composite_rule(fn.mesh, points, panels)
    V, D1, _ = _ref_basis(fn.order, fn.family).tables(pts)
    k, h = fn.order, fn.mesh.lengths
    coef = fn.coefficients[np.arange(h.size)[:, None] * k + np.arange(k + 1)[None, :]]
    err = problem.exact(xq) - coef @ V
    derr = problem.exact_dx(xq) - (coef @ D1) / h[:, None]
    l2 = np.sum(wq * err * err)
    h1 = problem.eps * np.sum(wq * derr * derr)
    sd = 0.0 if stab is None else np.sum(stab.deltas[:, None] * wq * (problem.coeff_a(xq) * derr) ** 2)
    return np.sqrt([l2, h1 + l2, h1 + l2 + sd, np.sum(wq * (xq * derr) ** 2)])


def whole_mesh_norms(fn: DiscreteFunction, problem: Problem, stab, quad, exact: bool = True) -> np.ndarray:
    """
    (l2, energy, sd, weighted_xdp) of u - fn (exact True) or of fn, with
    the layer-graded rule of cuspfem.norms, each panel count's elements
    integrated over the whole mesh in one (nel_g, npts) pass.  The norms
    used this order before they walked the mesh in blocks.
    """
    mesh, k = fn.mesh, fn.order
    rule = gauss_rule(max(quad.points, k + 3))
    basis = _ref_basis(k, fn.family)
    counts = _panel_counts(mesh, problem.eps, quad.panels)
    l2s = h1s = sds = xdps = 0.0
    for p in np.unique(counts):
        el = np.flatnonzero(counts == p)
        pts = ((np.arange(p)[:, None] + rule.points[None, :]) / p).ravel()
        V, D1, _ = basis.tables(pts)
        h = mesh.lengths[el, None]
        xq = mesh.nodes[el, None] + h * pts[None, :]
        wq = np.tile(rule.weights / p, p)[None, :] * h
        coef = fn.coefficients[el[:, None] * k + np.arange(k + 1)[None, :]]
        err, derr = coef @ V, (coef @ D1) / h
        if exact:
            err = problem.exact(xq) - err
            derr = problem.exact_dx(xq) - derr
        l2s += np.sum(wq * err * err)
        h1s += np.sum(wq * derr * derr)
        xdps += np.sum(wq * (xq * derr) ** 2)
        if stab is not None:
            sds += np.sum(stab.deltas[el, None] * wq * (problem.coeff_a(xq) * derr) ** 2)
    h1s *= problem.eps
    return np.sqrt([l2s, h1s + l2s, h1s + l2s + sds, xdps])


def weak_form_on_exact(problem: Problem, mesh, k: int, family: str, points: int, panels: int):
    """
    Vector g with g[i] = B(u, phi_i) = (eps u', phi_i') + (a u', phi_i)
    + (c u, phi_i), integrated with a composite Gauss rule, boundary rows
    dropped.  Independent of the assembly code path.
    """
    pts, xq, wq = uniform_composite_rule(mesh, points, panels)
    V, D1, _ = _ref_basis(k, family).tables(pts)
    h = mesh.lengths
    up = problem.exact_dx(xq)
    integrand_dphi = problem.eps * up * wq / h[:, None]       # pairs with phi_i'
    integrand_phi = (problem.coeff_a(xq) * up + problem.coeff_c(xq) * problem.exact(xq)) * wq
    loc = integrand_dphi @ D1.T + integrand_phi @ V.T          # (nel, k+1)
    g = np.zeros(mesh.n_intervals * k + 1)
    for ii in range(k + 1):
        np.add.at(g, np.arange(mesh.n_intervals) * k + ii, loc[:, ii])
    return g[1:-1]


def _scatter(loc, rhs_loc, k: int):
    """Bands and rhs, boundary rows dropped, from local matrices loc
    (k+1, k+1, nel) and local vectors rhs_loc (k+1, nel); each entry takes
    at most two element contributions, so the order of the scatter does not
    change a bit."""
    nel = loc.shape[2]
    first = np.arange(nel) * k
    bands = np.zeros((2 * k + 1, nel * k + 1))
    rhs = np.zeros(nel * k + 1)
    for ii in range(k + 1):
        rhs[first + ii] += rhs_loc[ii]
        for jj in range(k + 1):
            bands[k + ii - jj, first + jj] += loc[ii, jj]
    return bands[:, 1:-1], rhs[1:-1]


def reference_assembly(problem: Problem, mesh, k: int, family: str, deltas=None):
    """
    Bands and rhs of the Galerkin (deltas None) or SDFEM system in the
    assembly's arithmetic: one product of the reference tables V_i D1_j and
    V_i V_j (for SDFEM also D1_i D1_j, D1_i V_j and D1_i D2_j, which is
    zero at k = 1), stacked along the Gauss points, with the matching
    per-point weights; then (eps/h) S_ref with S_ref = D1 diag(w) D1^T
    added for diffusion.  The load is one product of V (for SDFEM
    [V | D1]) with its weights.  BLAS may round a product's columns
    differently for another column count, so the products take
    BLOCK_ELEMENTS elements at a time, as the assembly does.
    """
    q = k + 3
    rule = gauss_rule(q)
    V, D1, D2 = _ref_basis(k, family).tables(rule.points)
    h = mesh.lengths
    xq = mesh.nodes[None, :-1] + rule.points[:, None] * h[None, :]  # (q, nel)
    aq, cq, fq = problem.coeff_a(xq), problem.coeff_c(xq), problem.rhs_f(xq)
    w, eps = rule.weights[:, None], problem.eps
    pairs = [(V, D1), (V, V)]
    weights = [w * aq, (w * h) * cq]
    load_tables, load_weights = [V], [(w * h) * fq]
    if deltas is not None:
        dwa = weights[0] * (deltas / h)
        pairs += [(D1, D1), (D1, V), (D1, D2)]
        weights += [dwa * aq, dwa * (h * cq), dwa * (-eps / h)]
        load_tables.append(D1)
        load_weights.append(dwa * (h * fq))
    table = np.hstack([(T[:, None, :] * S[None, :, :]).reshape(-1, q) for T, S in pairs])
    weights, load_table, load_weights = np.vstack(weights), np.hstack(load_tables), np.vstack(load_weights)
    s_ref = (D1 * rule.weights) @ D1.T
    loc = np.empty((k + 1, k + 1, h.size))
    rhs_loc = np.empty((k + 1, h.size))
    for e0 in range(0, h.size, BLOCK_ELEMENTS):
        b = slice(e0, e0 + BLOCK_ELEMENTS)
        loc[:, :, b] = (table @ weights[:, b]).reshape(k + 1, k + 1, -1)
        loc[:, :, b] += s_ref[:, :, None] * (eps / h[b])
        rhs_loc[:, b] = load_table @ load_weights[:, b]
    return _scatter(loc, rhs_loc, k)


def einsum_reference_assembly(
    problem: Problem, mesh, k: int, family: str, deltas=None, magnitudes: bool = False
):
    """
    Bands and rhs as `reference_assembly`, from per-term einsums in
    (element, point) layout: each local entry adds (w T_i) S_j over the
    Gauss points in ascending order.  The assembly used this order before
    its matrix became a preconditioner.  With `magnitudes`, every table
    and sample is replaced by its absolute value and every term is added,
    which gives the sum of the terms' magnitudes that bounds the rounding
    error of either order.
    """
    rule = gauss_rule(k + 3)
    V, D1, D2 = _ref_basis(k, family).tables(rule.points)
    h = mesh.lengths
    xq = mesh.nodes[:-1, None] + h[:, None] * rule.points[None, :]
    aq, cq, fq = problem.coeff_a(xq), problem.coeff_c(xq), problem.rhs_f(xq)
    sign = 1.0
    if magnitudes:
        V, D1, D2, aq, cq, fq = map(np.abs, (V, D1, D2, aq, cq, fq))
        sign = -1.0
    wq = rule.weights[None, :] * h[:, None]
    eps = problem.eps
    loc = eps * np.einsum("eq,iq,jq->ije", wq / (h * h)[:, None], D1, D1)
    loc += np.einsum("eq,iq,jq->ije", wq * aq / h[:, None], V, D1)
    loc += np.einsum("eq,iq,jq->ije", wq * cq, V, V)
    rhs_loc = np.einsum("eq,iq->ie", wq * fq, V)
    if deltas is not None and np.any(deltas != 0.0):
        hq = h[:, None, None]
        test = aq[:, None, :] * D1[None, :, :] / hq
        trial = test + cq[:, None, :] * V[None, :, :]
        if k >= 2:
            trial = trial - sign * eps * D2[None, :, :] / (hq * hq)
        dw = deltas[:, None] * wq
        loc += np.einsum("eq,eiq,ejq->ije", dw, test, trial)
        rhs_loc += np.einsum("eq,eq,eiq->ie", dw, fq, test)
    return _scatter(loc, rhs_loc, k)
