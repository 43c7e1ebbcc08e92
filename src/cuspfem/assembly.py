"""
Banded assembly of the Galerkin and streamline-diffusion (SDFEM) systems
over a layer-adapted mesh with order-k Lagrange elements, homogeneous
Dirichlet elimination, and the banded solve.

Global node numbering is left to right (element e owns nodes e*k .. e*k+k),
so the matrix bandwidth is k.  Assembly, the refinement residual and the
error norms walk the elements in blocks of BLOCK_ELEMENTS (`_blocks`), so
one block's samples and local matrices stay in cache.
A block's local matrices are one matrix product of stacked reference
tables with stacked per-point weights, plus (eps/h) S_ref for diffusion.

The band matrix only preconditions the solve.  Its entries carry rounding
that, for k >= 4 at large N, left the plain LU solution up to 2.4e5 times
the interpolant's error.  So banded LU with partial pivoting (convection
dominance can destroy diagonal dominance; LAPACK dgbsv on one
Fortran-ordered copy of the bands) is followed by one step of
fixed-precision iterative refinement: its residual applies the element
operator block by block, with derivatives taken from each element's nodal
values minus its first, and its correction reuses the LU factors.  The
residual contract's ||A||_inf (dlangb) and A x (dgbmv) read the bands in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import blas, lapack

from .basis import QuadratureRule, ReferenceBasis, gauss_rule, estimate_c_inv
from .mesh import Mesh
from .problem import Problem


@functools.lru_cache(maxsize=None)
def _ref_basis(k: int, family: str) -> ReferenceBasis:
    return ReferenceBasis(k, family)

DELTA_POLICIES = ("standard", "theorem-capped")

RESIDUAL_TOL = 1e-10

# elements per block (assembly, residual, norms); at k = 8 its local
# matrices take 0.7 MB, and 1024 measured fastest at N = 32768 among 128 .. 2048
BLOCK_ELEMENTS = 1024


class AssemblyError(RuntimeError):
    """Raised when coefficient evaluation breaks down during assembly."""


class SolverError(RuntimeError):
    """Raised when the banded solve fails or misses the residual contract."""


@dataclass(frozen=True)
class StabilizationProfile:
    """Per-interval SDFEM parameters delta_i >= 0."""

    deltas: np.ndarray
    caps_applied: np.ndarray  # True where a theorem cap reduced the standard value

    def __post_init__(self):
        self.deltas.setflags(write=False)
        self.caps_applied.setflags(write=False)
        if np.any(self.deltas < 0.0):
            raise ValueError("stabilization parameters must be nonnegative")


def compute_deltas(
    mesh: Mesh,
    eps: float,
    c0: float = 1.0,
    policy: str = "standard",
    problem: Optional[Problem] = None,
    k: Optional[int] = None,
) -> StabilizationProfile:
    """
    Standard policy: delta_i = c0 * min(h_i^2/eps, h_i).

    Theorem-capped additionally clamps by gamma/(2 ||c||_inf^2) for every k,
    by h_i^2/(2 eps c_inv^2) for k >= 2, and by (K+1)/N for k = 1; these are
    the constraints under which coercivity and the supercloseness bound are
    proved.  Needs `problem` and `k`; the first cap is `problem.delta_cap`,
    which each Problem object estimates once.
    """
    if not 0.0 < c0 < np.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    if policy not in DELTA_POLICIES:
        raise ValueError(f"unknown delta policy {policy!r}; expected one of {DELTA_POLICIES}")
    h = mesh.lengths
    deltas = c0 * np.minimum(h * h / eps, h)
    if policy == "standard":
        return StabilizationProfile(deltas, np.zeros(h.size, dtype=bool))
    if problem is None or k is None:
        raise ValueError("theorem-capped policy needs problem and k")
    if k >= 2:
        c_inv = estimate_c_inv(k)
        cap = h * h / (2.0 * eps * c_inv * c_inv)
    else:
        cap = np.minimum(h * h / eps, (mesh.big_k + 1) / mesh.params.n_half)
    capped = np.minimum(deltas, np.minimum(cap, problem.delta_cap))
    return StabilizationProfile(capped, capped < deltas)


def _check_profile(stab: StabilizationProfile, mesh: Mesh) -> None:
    if stab.deltas.size != mesh.n_intervals:
        raise ValueError("stabilization profile does not match the mesh")


@dataclass(frozen=True)
class LinearSystem:
    """
    Banded system after Dirichlet elimination: dimension 2Nk-1, half-bandwidth k.
    `bands` is LAPACK band storage, bands[k + i - j, j] = A[i, j], in Fortran
    order from assembly; other layouts work, but each BLAS/LAPACK call copies them.
    `problem`, `quad_points` (0: k + 3, the assembly default) and `deltas`
    (None for Galerkin) define the element operator that `solve_banded`'s
    refinement step applies.
    """

    bands: np.ndarray
    rhs: np.ndarray
    mesh: Mesh
    order: int
    family: str
    problem: Problem
    quad_points: int = 0
    deltas: Optional[np.ndarray] = None

    def __post_init__(self):
        self.bands.setflags(write=False)
        self.rhs.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class DiscreteFunction:
    """
    Piecewise polynomial of order k over a mesh, stored as global nodal
    coefficients (length 2Nk+1, boundary entries exactly 0 for solutions).
    """

    mesh: Mesh
    order: int
    family: str
    coefficients: np.ndarray
    residual: float = float("nan")

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        expected = self.mesh.n_intervals * self.order + 1
        if self.coefficients.size != expected:
            raise ValueError(
                f"coefficient vector has length {self.coefficients.size}, expected {expected}"
            )

    def evaluate(self, x, d: int = 0) -> np.ndarray:
        """Evaluate the d-th derivative (d in {0, 1, 2}) at points x in [-1, 1],
        in the shape of x."""
        if d not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {d}")
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        nodes, h, k = self.mesh.nodes, self.mesh.lengths, self.order
        if not np.all((x >= nodes[0]) & (x <= nodes[-1])):
            raise ValueError("evaluation points must lie in [-1, 1]")
        e = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, h.size - 1)
        t = (x - nodes[e]) / h[e]
        tab = _ref_basis(k, self.family).tables(t)[d]  # (k+1, npts)
        vals = np.sum(_windows(self.coefficients, k)[e] * tab.T, axis=1)
        # [()] makes a scalar of the 0-d result for a scalar x
        return (vals / h[e] ** d).reshape(shape)[()]

    __call__ = evaluate


def global_nodes(mesh: Mesh, k: int, family: str) -> np.ndarray:
    """Coordinates of all 2Nk+1 global Lagrange nodes, left to right."""
    ref = _ref_basis(k, family).nodes
    blocks = mesh.nodes[:-1, None] + mesh.lengths[:, None] * ref[None, :]
    out = np.empty(mesh.n_intervals * k + 1)
    out[:-1] = blocks[:, :k].ravel()
    out[-1] = mesh.nodes[-1]
    return out


class _ElementTables(NamedTuple):
    """Reference-element data of one (k, family, q, panels) on the q-point
    Gauss rule on each of `panels` equal panels of [0, 1], m points in all."""

    rule: QuadratureRule
    V: np.ndarray  # basis values, (k+1, m); D1, D2 the derivatives
    D1: np.ndarray
    D2: np.ndarray
    s_ref: np.ndarray  # D1 diag(w) D1^T, the diffusion block up to eps/h
    load: np.ndarray  # [V | D1], (k+1, 2m): per-point weights to local vectors
    # ((k+1)^2, 5m), row i*(k+1) + j for test function i and trial function
    # j: m columns each of V_i D1_j and V_i V_j (Galerkin), then D1_i D1_j,
    # D1_i V_j and D1_i D2_j (SDFEM); D1_i D2_j is zero at k = 1
    matrix: np.ndarray


@functools.lru_cache(maxsize=None)
def _element_tables(k: int, family: str, q: int, panels: int = 1) -> _ElementTables:
    gauss = gauss_rule(q)
    points = ((np.arange(panels)[:, None] + gauss.points[None, :]) / panels).ravel()
    rule = QuadratureRule(points, np.tile(gauss.weights / panels, panels))
    V, D1, D2 = _ref_basis(k, family).tables(points)
    pairs = [(V, D1), (V, V), (D1, D1), (D1, V), (D1, D2)]
    products = [(T[:, None, :] * S[None, :, :]).reshape(-1, points.size) for T, S in pairs]
    tables = _ElementTables(
        rule, V, D1, D2, (D1 * rule.weights) @ D1.T, np.hstack([V, D1]), np.hstack(products)
    )
    for table in tables[1:]:
        table.setflags(write=False)
    return tables


def _windows(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Row e is element e's k+1 nodal coefficients: a read-only strided view."""
    return np.lib.stride_tricks.sliding_window_view(coeffs, k + 1)[::k]


class _Block(NamedTuple):
    """One step of `_blocks`: the elements in `span`, their lengths, their
    nel_b + 1 end points (named as on a Mesh), and their coefficient
    windows (k+1, nel_b)."""

    span: slice
    lengths: np.ndarray
    nodes: np.ndarray
    local: Optional[np.ndarray]

    def at(self, t: np.ndarray, g=slice(None)) -> np.ndarray:
        """Coordinates (t.size, nel_g) of the reference points t on the elements g."""
        return self.nodes[:-1][g] + t[:, None] * self.lengths[g]


def _blocks(mesh: Mesh, coeffs: Optional[np.ndarray] = None, k: int = 1):
    """Walk the elements in blocks of BLOCK_ELEMENTS (read at each call),
    with the windows of the nodal coefficients `coeffs` when given."""
    windows = None if coeffs is None else _windows(coeffs, k)
    for e0 in range(0, mesh.n_intervals, BLOCK_ELEMENTS):
        b = slice(e0, min(e0 + BLOCK_ELEMENTS, mesh.n_intervals))
        local = None if windows is None else windows[b].T
        yield _Block(b, mesh.lengths[b], mesh.nodes[b.start : b.stop + 1], local)


def _block_samples(problem: Problem, block: _Block, points: np.ndarray, load: bool):
    """a, c, and f when `load`, at the block's (q, nel_b) quadrature points;
    a non-finite sample is an AssemblyError that names the global element."""
    xq = block.at(points)
    samples = [problem.coeff_a(xq), problem.coeff_c(xq)]
    if load:
        samples.append(problem.rhs_f(xq))
    finite = np.logical_and.reduce([np.isfinite(s) for s in samples])
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        raise AssemblyError(
            f"non-finite coefficient or rhs value in element {block.span.start + i} "
            f"(x in [{block.nodes[i]:.6g}, {block.nodes[i + 1]:.6g}])"
        )
    return samples


def _add_local(vec: np.ndarray, loc: np.ndarray, span: slice, k: int) -> None:
    """Add local vectors loc (k+1, nel_b) of the elements in `span` into the
    global vector; row i of element e is global entry e*k + i."""
    for i in range(k + 1):
        vec[span.start * k + i : span.stop * k + i : k] += loc[i]


def _assemble_block(problem, block, k, tables, deltas, bands, rhs) -> None:
    """Add the block's elements into the full-mesh bands and rhs."""
    h, e0 = block.lengths, block.span.start
    aq, cq, fq = _block_samples(problem, block, tables.rule.points, load=True)
    w, eps = tables.rule.weights[:, None], problem.eps

    # per-point weights, q rows a term, in the order of the matrix table's
    # columns (Galerkin takes the first two terms)
    weights = [w * aq, w * h * cq]
    load = [w * h * fq]
    if deltas is not None:
        dwa = weights[0] * (deltas[block.span] / h)  # delta w a / h
        weights += [dwa * aq, dwa * (h * cq), dwa * (-eps / h)]
        load.append(dwa * (h * fq))
    # one product for all terms but diffusion, which is added afterwards as
    # (eps/h) S_ref: summed into the product it rounds each small term
    # against the large diffusion entry, and the unrefined error at eps
    # 1e-6, k 8, N 16384 rose from 7.2e-8 to 9.4e-7
    weights, load = np.vstack(weights), np.vstack(load)
    loc = (tables.matrix[:, : len(weights)] @ weights).reshape(k + 1, k + 1, h.size)
    loc += tables.s_ref[:, :, None] * (eps / h)
    rhs_loc = tables.load[:, : len(load)] @ load

    # element e's local column jj is global column e*k + jj, and its local
    # row ii sits on band row k + ii - jj; every entry takes at most two
    # element contributions, so the order of the scatter changes no bit
    for jj in range(k + 1):
        bands[k - jj : 2 * k + 1 - jj, e0 * k + jj : (e0 + h.size) * k + jj : k] += loc[:, jj, :]
    _add_local(rhs, rhs_loc, block.span, k)


def _assemble(
    problem: Problem,
    mesh: Mesh,
    k: int,
    family: str,
    quad_points: int,
    deltas: Optional[np.ndarray],
) -> LinearSystem:
    if quad_points < k + 1:
        raise ValueError(f"need quad_points >= k+1 = {k + 1}, got {quad_points}")
    tables = _element_tables(k, family, quad_points)
    nel = mesh.n_intervals
    bands = np.zeros((2 * k + 1, nel * k + 1), order="F")
    rhs = np.zeros(nel * k + 1)
    for block in _blocks(mesh):
        _assemble_block(problem, block, k, tables, deltas, bands, rhs)

    # homogeneous Dirichlet: drop first and last row/column; in diagonal
    # ordered storage that is a column slice (still Fortran-contiguous); the
    # slots of eliminated rows keep their values, and no reader looks there
    return LinearSystem(
        bands[:, 1:-1], rhs[1:-1], mesh, k, family, problem, quad_points, deltas
    )


def assemble_galerkin(
    problem: Problem, mesh: Mesh, k: int, family: str = "uniform", quad_points: int = 0
) -> LinearSystem:
    """
    Assemble B(v, w) = (eps v', w') + (a v', w) + (c v, w) and rhs (f, w)
    with per-element Gauss quadrature (default k+3 points).
    """
    return _assemble(problem, mesh, k, family, quad_points or k + 3, None)


def assemble_sdfem(
    problem: Problem,
    mesh: Mesh,
    k: int,
    family: str = "uniform",
    quad_points: int = 0,
    stab: Optional[StabilizationProfile] = None,
) -> LinearSystem:
    """
    Galerkin plus the streamline-diffusion terms
    sum_i delta_i (-eps v'' + a v' + c v, a w')_i on the matrix and
    sum_i delta_i (f, a w')_i on the right-hand side.
    """
    if stab is None:
        raise ValueError("assemble_sdfem needs a StabilizationProfile")
    _check_profile(stab, mesh)
    return _assemble(problem, mesh, k, family, quad_points or k + 3, stab.deltas)


def apply_system(system: LinearSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the eliminated (interior) matrix (BLAS dgbmv)."""
    n, k, x = system.dimension, system.order, np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}; the system needs {n} entries")
    return blas.dgbmv(n, n, k, k, 1.0, system.bands, x)


def _element_residual(system: LinearSystem, coeffs: np.ndarray) -> np.ndarray:
    """
    rhs - A_elem x for the nodal coefficients `coeffs` (x is coeffs[1:-1]),
    with the Galerkin operator, plus the SD terms when the system has
    deltas, applied element by element in BLOCK_ELEMENTS blocks from a and
    c at the assembly points.  v' and v'' come from each
    element's nodal values minus its first, so a nearly constant v loses
    no digits to the differencing.
    """
    k, problem, deltas, mesh = system.order, system.problem, system.deltas, system.mesh
    tables = _element_tables(k, system.family, system.quad_points or k + 3)
    V, D1, D2 = tables.V, tables.D1, tables.D2
    eps, w = problem.eps, tables.rule.weights[:, None]
    ax = np.zeros(coeffs.size)
    for block in _blocks(mesh, coeffs, k):
        h, u = block.lengths, block.local
        aq, cq = _block_samples(problem, block, tables.rule.points, load=False)
        du = u[1:] - u[:1]
        dv = (D1[1:].T @ du) / h  # v' at the points, (q, nel_b)
        strong = aq * dv + cq * (V.T @ u)
        with_v, with_d1 = w * h * strong, w * eps * dv
        if deltas is not None:
            if k >= 2:  # D2 is zero at k = 1, and this product is 15-25 % of the pass
                strong -= eps * (D2[1:].T @ du) / (h * h)
            with_d1 += w * (deltas[block.span] * aq) * strong
        _add_local(ax, tables.load @ np.vstack([with_v, with_d1]), block.span, k)
    # the two boundary entries collect rows that Dirichlet elimination drops
    r = ax[1:-1]
    np.subtract(system.rhs, r, out=r)
    return r


def solve_banded(system: LinearSystem) -> DiscreteFunction:
    """
    Solve with the band matrix as a preconditioner: banded LU, then one
    step of fixed-precision iterative refinement whose residual applies
    the element operator (`_element_residual`) and whose correction
    reuses the LU factors (dgbtrs).  Then verify the residual contract
    ||Ax - b|| / (||A|| ||x|| + ||b||) <= 1e-10 (inf norms, A the band
    matrix) at the refined x; the achieved residual is recorded on the
    returned function.
    """
    k, n, bands, rhs = system.order, system.dimension, system.bands, system.rhs
    norm_a = lapack.dlangb("I", k, k, bands)
    norm_b = np.max(np.abs(rhs), initial=0.0)
    if not (np.isfinite(norm_a) and np.isfinite(norm_b)):
        raise SolverError("banded LU failed: array must not contain infs or NaNs")
    # dgbsv (banded LU with partial pivoting) on one Fortran-ordered copy of
    # the bands, k extra rows for the fill-in, and in place on the interior
    # of the nodal coefficients, whose boundary entries stay 0
    ab = np.zeros((3 * k + 1, n), order="F")
    ab[k:] = bands
    coeffs = np.zeros(n + 2)
    sol = coeffs[1:-1]
    sol[:] = rhs
    lu, piv, _, info = lapack.dgbsv(k, k, ab, sol, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SolverError("banded LU failed: singular matrix")
    if not np.all(np.isfinite(sol)):
        raise SolverError("banded LU produced non-finite values (singular system?)")
    step = _element_residual(system, coeffs)
    lapack.dgbtrs(lu, k, k, step, piv, overwrite_b=1)
    sol += step
    del ab, lu, piv, step  # freed before the contract's temporaries
    if not np.all(np.isfinite(sol)):
        raise SolverError("the refinement step produced non-finite values")
    res = apply_system(system, sol)
    res -= rhs
    res = np.max(np.abs(res, out=res))
    if not np.isfinite(res):
        raise SolverError(f"residual contract violated: max |Ax - b| = {res} is not finite")
    scale = norm_a * np.max(np.abs(sol), initial=0.0) + norm_b
    rel = res / scale if scale else 0.0
    if rel > RESIDUAL_TOL:
        raise SolverError(
            f"residual contract violated: relative residual {rel:.3e} > {RESIDUAL_TOL}; "
            "the system is likely ill-conditioned"
        )
    return DiscreteFunction(system.mesh, system.order, system.family, coeffs, rel)
