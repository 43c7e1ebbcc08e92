"""
Banded assembly of the Galerkin and streamline-diffusion (SDFEM) systems
over a layer-adapted mesh with order-k Lagrange elements, homogeneous
Dirichlet elimination, and the banded solve.

Global node numbering is left to right (element e owns nodes e*k .. e*k+k),
so the matrix bandwidth is k.  Assembly walks the elements in blocks of
BLOCK_ELEMENTS, so one block's samples and local matrices stay in cache;
each entry keeps its ascending quadrature sum, so the bits do not depend
on the block size.  Convection dominance can destroy diagonal dominance,
hence banded LU with partial pivoting for the solve: LAPACK dgbsv (dgtsv
for k = 1) on one Fortran-ordered copy of the bands.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .basis import ReferenceBasis, gauss_rule, estimate_c_inv
from .mesh import Mesh
from .problem import Problem, gamma_estimate


@functools.lru_cache(maxsize=None)
def _ref_basis(k: int, family: str) -> ReferenceBasis:
    return ReferenceBasis(k, family)

DELTA_POLICIES = ("standard", "theorem-capped")

RESIDUAL_TOL = 1e-10

# elements per assembly block; at k = 8 its local matrices take 0.7 MB, and
# 1024 measured fastest at N = 32768 among 128 .. 2048
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
    proved.  Needs `problem` (for gamma and ||c||_inf) and `k`.
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
    gamma = gamma_estimate(problem)
    c_inf = float(np.max(problem.coeff_c(np.linspace(-1.0, 1.0, 4097))))
    cap = np.full(h.size, gamma / (2.0 * c_inf * c_inf))
    if k >= 2:
        c_inv = estimate_c_inv(k)
        cap = np.minimum(cap, h * h / (2.0 * eps * c_inv * c_inv))
    else:
        cap = np.minimum(cap, np.minimum(h * h / eps, (mesh.big_k + 1) / mesh.params.n_half))
    capped = np.minimum(deltas, cap)
    return StabilizationProfile(capped, capped < deltas)


def _check_profile(stab: StabilizationProfile, mesh: Mesh) -> None:
    if stab.deltas.size != mesh.n_intervals:
        raise ValueError("stabilization profile does not match the mesh")


@dataclass(frozen=True)
class LinearSystem:
    """
    Banded system after Dirichlet elimination: dimension 2Nk-1, half-bandwidth k.
    `bands` is diagonal-ordered storage, bands[k + i - j, j] = A[i, j].
    """

    bands: np.ndarray
    rhs: np.ndarray
    mesh: Mesh
    order: int
    family: str

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
        idx = e[:, None] * k + np.arange(k + 1)[None, :]
        vals = np.sum(self.coefficients[idx] * tab.T, axis=1)
        # [()] makes a scalar of the 0-d result for a scalar x
        return (vals / h[e] ** d if d else vals).reshape(shape)[()]

    __call__ = evaluate


def global_nodes(mesh: Mesh, k: int, family: str) -> np.ndarray:
    """Coordinates of all 2Nk+1 global Lagrange nodes, left to right."""
    ref = _ref_basis(k, family).nodes
    blocks = mesh.nodes[:-1, None] + mesh.lengths[:, None] * ref[None, :]
    out = np.empty(mesh.n_intervals * k + 1)
    out[:-1] = blocks[:, :k].ravel()
    out[-1] = mesh.nodes[-1]
    return out


def _assemble_block(problem, mesh, k, rule, tables, deltas, e0, bands, rhs) -> None:
    """Add elements e0 .. e0 + BLOCK_ELEMENTS - 1 (or to the last element)
    into the full-mesh bands and rhs."""
    V, D1, D2 = tables  # (k+1, q) each
    e1 = min(e0 + BLOCK_ELEMENTS, mesh.n_intervals)
    h = mesh.lengths[e0:e1]
    xq = mesh.nodes[None, e0:e1] + rule.points[:, None] * h[None, :]  # (q, nel_b)
    aq, cq, fq = problem.coeff_a(xq), problem.coeff_c(xq), problem.rhs_f(xq)
    finite = np.isfinite(aq) & np.isfinite(cq) & np.isfinite(fq)
    if not finite.all():
        e = e0 + int(np.argmin(finite.all(axis=0)))
        raise AssemblyError(
            f"non-finite coefficient or rhs value in element {e} "
            f"(x in [{mesh.nodes[e]:.6g}, {mesh.nodes[e + 1]:.6g}])"
        )
    wq = rule.weights[:, None] * h[None, :]  # (q, nel_b)
    eps = problem.eps

    # local Galerkin blocks (k+1, k+1, nel_b) with the element axis innermost,
    # so each einsum streams over elements; the unoptimised einsum adds
    # (w T_i) S_j over q in ascending order, the order the pin test fixes
    loc = eps * np.einsum("qe,iq,jq->ije", wq / (h * h)[None, :], D1, D1)
    loc += np.einsum("qe,iq,jq->ije", wq * aq / h[None, :], V, D1)
    loc += np.einsum("qe,iq,jq->ije", wq * cq, V, V)
    # the load vector's two-operand sum changes bits unless it reads
    # (nel_b, q)-contiguous samples
    rhs_loc = np.einsum("eq,iq->ei", np.ascontiguousarray((wq * fq).T), V)

    if deltas is not None:
        test = aq[None, :, :] * D1[:, :, None] / h[None, None, :]  # (k+1, q, nel_b)
        trial = test + cq[None, :, :] * V[:, :, None]
        if k >= 2:  # -eps v'' vanishes identically for k = 1
            trial = trial - eps * D2[:, :, None] / (h * h)[None, None, :]
        dw = deltas[None, e0:e1] * wq
        loc += np.einsum("qe,iqe,jqe->ije", dw, test, trial)
        rhs_loc += np.einsum("eq,eq,eiq->ei", dw.T, fq.T, test.transpose(2, 0, 1))

    # element e's local column jj is global column e*k + jj, and its local
    # row ii sits on band row k + ii - jj; every entry takes at most two
    # element contributions, so the order of the scatter changes no bit
    for jj in range(k + 1):
        bands[k - jj : 2 * k + 1 - jj, e0 * k + jj : e1 * k + jj : k] += loc[:, jj, :]
    rhs[e0 * k : e1 * k] += rhs_loc[:, :k].ravel()
    rhs[e0 * k + k : e1 * k + 1 : k] += rhs_loc[:, k]


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
    rule = gauss_rule(quad_points)
    tables = _ref_basis(k, family).tables(rule.points)
    if deltas is not None and not np.any(deltas != 0.0):
        deltas = None
    nel = mesh.n_intervals
    bands = np.zeros((2 * k + 1, nel * k + 1))
    rhs = np.zeros(nel * k + 1)
    for e0 in range(0, nel, BLOCK_ELEMENTS):
        _assemble_block(problem, mesh, k, rule, tables, deltas, e0, bands, rhs)

    # homogeneous Dirichlet: drop first and last row/column; in diagonal
    # ordered storage that is a column slice; the slots that referenced the
    # eliminated rows keep their values, and no reader looks outside the matrix
    return LinearSystem(bands[:, 1:-1], rhs[1:-1], mesh, k, family)


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


def _band_matvec(bands: np.ndarray, k: int, x: Optional[np.ndarray] = None) -> np.ndarray:
    """A x, or the absolute row sums of A when x is None."""
    n = bands.shape[1]
    y = np.zeros(n)
    for o in range(-k, k + 1):
        lo, hi = max(o, 0), n + min(o, 0)  # the rows i with 0 <= i - o < n
        diag = bands[k + o, lo - o : hi - o]
        y[lo:hi] += np.abs(diag) if x is None else diag * x[lo - o : hi - o]
    return y


def apply_system(system: LinearSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the eliminated (interior) matrix."""
    return _band_matvec(system.bands, system.order, np.asarray(x, dtype=float))


def solve_banded(system: LinearSystem) -> DiscreteFunction:
    """
    Solve by banded LU with partial pivoting and verify the residual
    contract ||Ax - b|| / (||A|| ||x|| + ||b||) <= 1e-10 (inf norms); the
    achieved residual is recorded on the returned function.
    """
    k, bands, rhs = system.order, system.bands, system.rhs
    norm_a = np.max(_band_matvec(bands, k))
    norm_b = np.max(np.abs(rhs), initial=0.0)
    if not (np.isfinite(norm_a) and np.isfinite(norm_b)):
        raise SolverError("banded LU failed: array must not contain infs or NaNs")
    if k == 1:  # the tridiagonal routine, as scipy.linalg.solve_banded picks
        sol, info = lapack.dgtsv(bands[2, :-1], bands[1], bands[0, 1:], rhs)[3:]
    else:  # dgbsv's storage: k extra rows above the bands for the LU fill-in
        ab = np.zeros((3 * k + 1, rhs.size), order="F")
        ab[k:] = bands
        sol, info = lapack.dgbsv(k, k, ab, rhs, overwrite_ab=1)[2:]
        del ab  # the LU factors, freed before the residual's temporaries
    if info > 0:
        raise SolverError("banded LU failed: singular matrix")
    if not np.all(np.isfinite(sol)):
        raise SolverError("banded LU produced non-finite values (singular system?)")
    res = np.max(np.abs(apply_system(system, sol) - rhs))
    scale = norm_a * np.max(np.abs(sol), initial=0.0) + norm_b
    rel = res / scale if scale else 0.0
    if rel > RESIDUAL_TOL:
        raise SolverError(
            f"residual contract violated: relative residual {rel:.3e} > {RESIDUAL_TOL}; "
            "the system is likely ill-conditioned"
        )
    coeffs = np.zeros(system.dimension + 2)
    coeffs[1:-1] = sol
    return DiscreteFunction(system.mesh, system.order, system.family, coeffs, rel)
