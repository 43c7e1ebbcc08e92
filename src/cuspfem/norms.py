"""
Interpolation into the discrete space and error measurement in the L2,
weighted energy, SD, and ||x e'|| norms, plus the SD-norm distance between
two discrete functions (the supercloseness quantity).

The solution obeys |u^(i)(x)| <= C (|x| + sqrt(eps))^(lambda_bar - i), so
it is smooth on any panel that is short next to |x| + sqrt(eps); errors are
integrated with a composite rule that cuts each element into that many
equal panels (capped), with at least k + 3 Gauss points per panel so the
polynomial part of e^2 (degree 2k + 2) is integrated exactly.  The sums
walk the assembly's element blocks, grouped by panel count within each
block, so their working memory is one block whatever N is.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .assembly import DiscreteFunction, StabilizationProfile, _blocks, _check_profile, _element_tables
from .assembly import _windows, global_nodes
from .mesh import Mesh
from .problem import Problem


@dataclass(frozen=True)
class QuadSpec:
    """Composite error quadrature: `points` Gauss points per panel, raised
    to k + 3, and at most `panels` equal panels on any element (see
    `_panel_counts`)."""

    points: int = 5
    panels: int = 8

    def __post_init__(self):
        if self.points < 3:
            raise ValueError(f"need at least 3 points per panel, got {self.points}")
        if self.panels < 1:
            raise ValueError(f"need at least 1 panel, got {self.panels}")


@dataclass(frozen=True)
class ErrorReport:
    """
    Error norms of e = u - u_h: l2, energy = (eps |e|_1^2 + l2^2)^(1/2),
    sd = (energy^2 + sum_i delta_i ||a e'||_i^2)^(1/2) (equals energy when
    no stabilization profile is given), and weighted_xdp = ||x e'||.
    """

    l2: float
    energy: float
    sd: float
    weighted_xdp: float


NORM_NAMES = tuple(f.name for f in fields(ErrorReport))


def interpolate(problem: Problem, mesh: Mesh, k: int, family: str = "uniform") -> DiscreteFunction:
    """Lagrange interpolant of the exact solution at all global nodes,
    boundary values forced to the exact (homogeneous) boundary data."""
    if not problem.has_exact:
        raise ValueError("interpolation needs a problem with exact solution")
    coeffs = problem.exact(global_nodes(mesh, k, family))
    coeffs[0] = 0.0
    coeffs[-1] = 0.0
    return DiscreteFunction(mesh, k, family, coeffs)


def _panel_counts(mesh, eps: float, cap: int) -> np.ndarray:
    """Equal panels per element of a Mesh or a block: enough that each
    spans at most half the layer scale d + sqrt(eps), d the element's
    distance from x = 0, and at most `cap`."""
    dist = np.maximum(np.maximum(mesh.nodes[:-1], -mesh.nodes[1:]), 0.0)
    return np.minimum(cap, np.ceil(mesh.lengths / (0.5 * (dist + np.sqrt(eps))))).astype(int)


def _integrate_norms(fn, problem, stab, quad, minus=None) -> ErrorReport:
    """Norms of e = u - fn, or of fn - minus when `minus` is given, block by
    block and by panel count within each block; only four running sums and
    one block's coefficient differences are kept."""
    k = fn.order
    if stab is not None:
        _check_profile(stab, fn.mesh)
    windows = _windows(fn.coefficients, k)
    subtrahend = None if minus is None else _windows(minus.coefficients, k)
    sums, sd = np.zeros(3), 0.0  # integrals of e^2, e'^2 and (x e')^2; the SD term
    for block in _blocks(fn.mesh):
        local = windows[block.span].T
        if minus is not None:
            local = local - subtrahend[block.span].T
        counts = _panel_counts(block, problem.eps, quad.panels)
        # the counts run from 1 to quad.panels: bincount's nonzero bins are
        # their distinct values, ascending; a block of one count is used in
        # place, without masked copies
        values = np.flatnonzero(np.bincount(counts))
        for p in values:
            g = slice(None) if values.size == 1 else counts == p
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


def error_norms(
    u_h: DiscreteFunction,
    problem: Problem,
    mesh: Mesh,
    stab: Optional[StabilizationProfile] = None,
    quad: QuadSpec = QuadSpec(),
) -> ErrorReport:
    """
    Measure u - u_h against the registered exact solution with the
    layer-graded composite rule.  e' uses the closed-form exact derivative.
    """
    if not problem.has_exact:
        raise ValueError("error_norms needs a problem with exact solution")
    if mesh is not u_h.mesh and not np.array_equal(mesh.nodes, u_h.mesh.nodes):
        raise ValueError("mesh does not match the discrete function")
    return _integrate_norms(u_h, problem, stab, quad)


def sd_distance(
    a_fn: DiscreteFunction,
    b_fn: DiscreteFunction,
    problem: Problem,
    stab: StabilizationProfile,
    quad: QuadSpec = QuadSpec(),
) -> float:
    """
    SD-norm of a_fn - b_fn.  The difference is piecewise polynomial, so the
    rule is exact in the polynomial factors; a(x) still needs quadrature.
    """
    if a_fn.order != b_fn.order or a_fn.family != b_fn.family:
        raise ValueError("discrete functions differ in order or node family")
    if a_fn.mesh is not b_fn.mesh and not np.array_equal(a_fn.mesh.nodes, b_fn.mesh.nodes):
        raise ValueError("discrete functions live on different meshes")
    return _integrate_norms(a_fn, problem, stab, quad, minus=b_fn).sd
