"""
Interpolation into the discrete space and error measurement in the L2,
weighted energy, SD, and ||x e'|| norms, plus the SD-norm distance between
two discrete functions (the supercloseness quantity).

The exact solution's derivatives vary sharply inside the elements next to
x = 0 even though 0 is a mesh node, so errors are integrated with a
composite rule: several equal panels per element, Gauss points per panel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .assembly import DiscreteFunction, StabilizationProfile, _check_profile, _ref_basis, global_nodes
from .basis import gauss_rule
from .mesh import Mesh
from .problem import Problem


@dataclass(frozen=True)
class QuadSpec:
    """Composite error quadrature: `points` Gauss points on each of
    `panels` equal panels per element."""

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


def _composite_points(mesh: Mesh, quad: QuadSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference points of the composite rule, and its physical points and
    weights on every element; the latter two have shape (nel, npts)."""
    rule = gauss_rule(quad.points)
    offsets = np.arange(quad.panels)[:, None] / quad.panels
    pts = (offsets + rule.points[None, :] / quad.panels).ravel()
    wts = np.tile(rule.weights / quad.panels, quad.panels)
    h = mesh.lengths
    xq = mesh.nodes[:-1, None] + h[:, None] * pts[None, :]
    wq = wts[None, :] * h[:, None]
    return pts, xq, wq


def _element_tables(fn: DiscreteFunction, pts: np.ndarray):
    """Values and first derivatives of fn at the reference points `pts`
    inside every element; shapes (nel, npts)."""
    V, D1, _ = _ref_basis(fn.order, fn.family).tables(pts)
    k = fn.order
    nel = fn.mesh.n_intervals
    idx = np.arange(nel)[:, None] * k + np.arange(k + 1)[None, :]
    coef = fn.coefficients[idx]  # (nel, k+1)
    vals = coef @ V
    ders = (coef @ D1) / fn.mesh.lengths[:, None]
    return vals, ders


def _integrate_norms(
    eps: float,
    err: np.ndarray,
    derr: np.ndarray,
    xq: np.ndarray,
    aq: np.ndarray,
    wq: np.ndarray,
    stab: Optional[StabilizationProfile],
) -> ErrorReport:
    l2_el = np.sum(wq * err * err, axis=1)
    h1_el = np.sum(wq * derr * derr, axis=1)
    xdp_el = np.sum(wq * (xq * derr) ** 2, axis=1)
    if stab is not None:
        sd_el = stab.deltas * np.sum(wq * (aq * derr) ** 2, axis=1)
    else:
        sd_el = np.zeros(l2_el.size)
    l2s, h1s, sds, xdps = (float(np.sum(v)) for v in (l2_el, h1_el, sd_el, xdp_el))
    return ErrorReport(
        l2=np.sqrt(l2s),
        energy=np.sqrt(eps * h1s + l2s),
        sd=np.sqrt(eps * h1s + l2s + sds),
        weighted_xdp=np.sqrt(xdps),
    )


def error_norms(
    u_h: DiscreteFunction,
    problem: Problem,
    mesh: Mesh,
    stab: Optional[StabilizationProfile] = None,
    quad: QuadSpec = QuadSpec(),
) -> ErrorReport:
    """
    Measure u - u_h against the registered exact solution, elementwise with
    the composite rule.  e' uses the closed-form exact derivative.
    """
    if not problem.has_exact:
        raise ValueError("error_norms needs a problem with exact solution")
    if mesh is not u_h.mesh and not np.array_equal(mesh.nodes, u_h.mesh.nodes):
        raise ValueError("mesh does not match the discrete function")
    if stab is not None:
        _check_profile(stab, mesh)
    pts, xq, wq = _composite_points(mesh, quad)
    vals, ders = _element_tables(u_h, pts)
    err = problem.exact(xq) - vals
    derr = problem.exact_dx(xq) - ders
    aq = problem.coeff_a(xq) if stab is not None else xq
    return _integrate_norms(problem.eps, err, derr, xq, aq, wq, stab)


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
    mesh = a_fn.mesh
    _check_profile(stab, mesh)
    diff = DiscreteFunction(
        mesh, a_fn.order, a_fn.family, a_fn.coefficients - b_fn.coefficients
    )
    pts, xq, wq = _composite_points(mesh, quad)
    vals, ders = _element_tables(diff, pts)
    aq = problem.coeff_a(xq)
    return _integrate_norms(problem.eps, vals, ders, xq, aq, wq, stab).sd
