"""
Banded assembly of the Galerkin and streamline-diffusion (SDFEM) systems
over a layer-adapted mesh with order-k Lagrange elements, homogeneous
Dirichlet elimination, and the banded solve.

Global node numbering is left to right (element e owns nodes e*k .. e*k+k),
so the matrix bandwidth is k.  Assembly and the error norms walk the
elements in blocks of BLOCK_ELEMENTS (`_blocks`), so one block's samples
and local matrices stay in cache; the refinement residual walks
assembly's blocks again, with the a and c samples assembly kept.
A block's local matrices are one matrix product of stacked reference
tables with stacked per-point weights, plus (eps/h) S_ref for diffusion.

The band matrix only preconditions the solve.  Its entries carry rounding
that, for k >= 4 at large N, left the plain LU solution up to 2.4e5 times
the interpolant's error.  So banded LU with partial pivoting (convection
dominance can destroy diagonal dominance; LAPACK dgbsv) is followed by
fixed-precision iterative refinement until a stopping rule holds: each
step's residual applies the assembled element operator (the system's
samples of a and c) block by block, with derivatives taken from each
element's nodal values minus its first, and its correction reuses the LU
factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._lapack import lapack
from .basis import QuadratureRule, ReferenceBasis, gauss_rule, estimate_c_inv
from .mesh import Mesh
from .problem import Problem


@functools.lru_cache(maxsize=None)
def _ref_basis(k: int, family: str) -> ReferenceBasis:
    return ReferenceBasis(k, family)

DELTA_POLICIES = ("standard", "theorem-capped")

RESIDUAL_TOL = 1e-10

# refinement stops once dx_i^2 <= STEP_TOL, dx_i = ||dx_i|| / ||x|| (inf norms):
# the steps shrink about quadratically, so dx_i^2 estimates the error left,
# here within ten ulps (dx_i <= 3.2e-8); or once a step fails to halve the
# one before; or after MAX_STEPS steps, as in LAPACK's xGBRFS
STEP_TOL = 1e-15
MAX_STEPS = 5

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
    caps_applied: np.ndarray  # True where a cap reduced c0 min(h^2/eps, h)

    def __post_init__(self):
        self.deltas.setflags(write=False)
        self.caps_applied.setflags(write=False)
        # a reduction, not a bool per interval; fmin skips NaN, as < does
        if np.fmin.reduce(self.deltas, initial=0.0) < 0.0:
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
    Standard policy: delta_i = c0 min(h_i^2/eps, h_i), and for k >= 2 at most
    h_i^2/(eps c_inv^2), the inverse-inequality cap without which the SD form
    of order k is not coercive.

    Theorem-capped instead clamps c0 min(h_i^2/eps, h_i) by
    gamma/(2 ||c||_inf^2) (`problem.delta_cap`) for every k, by
    h_i^2/(2 eps c_inv^2) for k >= 2, and by (K+1)/N for k = 1; these are
    the constraints under which coercivity and the supercloseness bound are
    proved, so it needs `problem`.  k defaults to the mesh's order.
    """
    if not 0.0 < c0 < np.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    if policy not in DELTA_POLICIES:
        raise ValueError(f"unknown delta policy {policy!r}; expected one of {DELTA_POLICIES}")
    k = mesh.params.order if k is None else k
    # each formula's operations in its order, in place: one array of
    # working memory beyond the output
    h = mesh.lengths
    deltas = h * h
    deltas /= eps
    if policy == "standard":
        # min(c0 h^2/eps, c0 h, h^2/(eps c_inv^2)) = c0 min(scale h^2/eps, h)
        # with scale = min(1, 1/(c0 c_inv^2)): the cap needs no array
        caps = np.zeros(h.size, dtype=bool)
        scale = 1.0 if k == 1 else min(1.0, 1.0 / (c0 * estimate_c_inv(k) ** 2))
        if scale < 1.0:
            deltas *= scale
            np.less(deltas, h, out=caps)
        np.minimum(deltas, h, out=deltas)
        deltas *= c0
        return StabilizationProfile(deltas, caps)
    if problem is None:
        raise ValueError("theorem-capped policy needs a problem")
    np.minimum(deltas, h, out=deltas)
    deltas *= c0
    cap = h * h
    if k >= 2:
        c_inv = estimate_c_inv(k)
        cap /= 2.0 * eps * c_inv * c_inv
    else:
        cap /= eps
        np.minimum(cap, (mesh.big_k + 1) / mesh.params.n_half, out=cap)
    np.minimum(cap, problem.delta_cap, out=cap)
    np.minimum(deltas, cap, out=cap)
    return StabilizationProfile(cap, cap < deltas)


def _check_profile(stab: StabilizationProfile, mesh: Mesh) -> None:
    if stab.deltas.size != mesh.n_intervals:
        raise ValueError("stabilization profile does not match the mesh")


@dataclass(frozen=True)
class LinearSystem:
    """
    Banded system after Dirichlet elimination: dimension n = 2Nk-1,
    half-bandwidth k.  `storage` is Fortran-ordered (3k+1, n) LAPACK LU
    storage: k zero rows for the LU's fill-in above the 2k+1 rows `bands`,
    storage[2k + i - j, j] = A[i, j]; another shape or layout is a
    ValueError (LAPACK would factor a copy and leave the storage looking
    consumed).  `solve_banded` factors it in place, which consumes the
    system: the storage then holds LU factors and is read-only, and a
    second solve is a ValueError.
    `problem`, `quad_points` (0: k + 3, the assembly default) and `deltas`
    (None for Galerkin) define the element operator that `solve_banded`'s
    refinement applies, from `samples`: one (span, a, c) per assembly
    block, a and c at the span's (q, nel_b) quadrature points.  Assembly
    hands over the arrays it sampled; a system made without them samples
    the problem here (`_block_samples`).  Spans that do not tile the mesh,
    or arrays of another shape, are a ValueError.  A `replace` that
    changes `problem`, `mesh`, `order` or `quad_points` must pass
    `samples=()`.
    """

    storage: np.ndarray
    rhs: np.ndarray
    mesh: Mesh
    order: int
    family: str
    problem: Problem
    quad_points: int = 0
    deltas: Optional[np.ndarray] = None
    samples: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        shape, expected = self.storage.shape, (3 * self.order + 1, self.rhs.size)
        if shape != expected:
            raise ValueError(f"storage shape {shape} is not {expected}")
        if not self.storage.flags.f_contiguous:
            raise ValueError("LU storage must be Fortran-contiguous")
        self.rhs.setflags(write=False)
        q, nel = self.quad_points or self.order + 3, self.mesh.n_intervals
        if not self.samples:
            points = _element_tables(self.order, self.family, q).rule.points
            blocks = _blocks(self.mesh)
            samples = tuple((b.span, *_block_samples(self.problem, b, points, False)) for b in blocks)
            object.__setattr__(self, "samples", samples)
        e0 = 0
        for span, aq, cq in self.samples:
            if span.start != e0 or span.step is not None or not e0 < span.stop <= nel:
                raise ValueError(f"sample spans do not tile the mesh's {nel} elements")
            expected = (q, span.stop - e0)
            if not aq.shape == cq.shape == expected:
                raise ValueError(f"samples of elements {e0}..{span.stop} are not {expected} arrays")
            e0 = span.stop
        if e0 != nel:
            raise ValueError(f"sample spans do not tile the mesh's {nel} elements")

    @property
    def bands(self) -> np.ndarray:
        """The (2k+1, n) band rows of `storage`, read-only."""
        bands = self.storage[self.order :]
        bands.setflags(write=False)
        return bands

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
    steps: tuple = ()  # ||dx_i|| / ||x|| of each refinement step of a solve

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
    step = coeffs.strides[0]
    return np.lib.stride_tricks.as_strided(
        coeffs, ((coeffs.size - 1) // k, k + 1), (k * step, step), writeable=False
    )


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
    global vector; row i of element e is global entry e*k + i.  Rows 0..k-1
    are one slice add and row k another, which sums each entry's (at most
    two) terms in the order of a row-by-row scatter."""
    head = vec[span.start * k : span.stop * k].reshape(-1, k)
    head += loc[:k].T
    vec[span.start * k + k : span.stop * k + k : k] += loc[k]


def _assemble_block(problem, block, k, tables, deltas, bands, rhs) -> tuple:
    """Add the block's elements into the full-mesh bands and rhs; return
    the block's span, a and c samples (an entry of LinearSystem.samples)."""
    h, e0 = block.lengths, block.span.start
    aq, cq, fq = _block_samples(problem, block, tables.rule.points, load=True)
    w, eps = tables.rule.weights[:, None], problem.eps

    # per-point weights, q rows a term, in the order of the matrix table's
    # columns (Galerkin takes the first two terms), written in place
    terms = 2 if deltas is None else 5
    weights = np.empty((terms, w.size, h.size))
    load = np.empty((terms // 2, w.size, h.size))
    np.multiply(w, aq, out=weights[0])
    np.multiply(w * h, cq, out=weights[1])
    np.multiply(w * h, fq, out=load[0])
    if deltas is not None:
        dwa = weights[0] * (deltas[block.span] / h)  # delta w a / h
        np.multiply(dwa, aq, out=weights[2])
        np.multiply(dwa, h * cq, out=weights[3])
        np.multiply(dwa, -eps / h, out=weights[4])
        np.multiply(dwa, h * fq, out=load[1])
    weights, load = weights.reshape(-1, h.size), load.reshape(-1, h.size)
    # one product for all terms but diffusion, which is added afterwards as
    # (eps/h) S_ref: summed into the product it rounds each small term
    # against the large diffusion entry, and the unrefined error at eps
    # 1e-6, k 8, N 16384 rose from 7.2e-8 to 9.4e-7
    loc = (tables.matrix[:, : len(weights)] @ weights).reshape(k + 1, k + 1, h.size)
    loc += tables.s_ref[:, :, None] * (eps / h)
    rhs_loc = tables.load[:, : len(load)] @ load

    # element e's local column jj is global column e*k + jj, and its local
    # row ii sits on band row k + ii - jj; every entry takes at most two
    # element contributions, so the order of the scatter changes no bit
    for jj in range(k + 1):
        bands[k - jj : 2 * k + 1 - jj, e0 * k + jj : (e0 + h.size) * k + jj : k] += loc[:, jj, :]
    _add_local(rhs, rhs_loc, block.span, k)
    return block.span, aq, cq


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
    storage = np.zeros((3 * k + 1, nel * k + 1), order="F")  # LU storage (see LinearSystem)
    bands, rhs = storage[k:], np.zeros(nel * k + 1)
    # a loop: before Python 3.12 a comprehension's own frame would be the
    # one an out-of-memory message names
    samples = []
    for block in _blocks(mesh):
        samples.append(_assemble_block(problem, block, k, tables, deltas, bands, rhs))

    # homogeneous Dirichlet: drop first and last row/column; in diagonal
    # ordered storage that is a column slice; the slots of eliminated rows
    # keep their values, and no reader looks there
    return LinearSystem(
        storage[:, 1:-1], rhs[1:-1], mesh, k, family, problem, quad_points, deltas, tuple(samples)
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


def _element_residual(system: LinearSystem, coeffs: np.ndarray) -> np.ndarray:
    """
    rhs - A_elem x for the nodal coefficients `coeffs` (x is coeffs[1:-1]),
    with the Galerkin operator, plus the SD terms when the system has
    deltas, applied element by element over the spans of the system's
    samples, from their a and c: the problem is not evaluated.  The SD
    weight (delta a) w is formed on each call.  v' and v'' come from each
    element's nodal values minus its first, so a nearly constant v loses
    no digits to the differencing.
    """
    k, deltas, lengths = system.order, system.deltas, system.mesh.lengths
    tables = _element_tables(k, system.family, system.quad_points or k + 3)
    V, D1, D2 = tables.V, tables.D1, tables.D2
    eps, w = system.problem.eps, tables.rule.weights[:, None]
    ax, windows = np.zeros(coeffs.size), _windows(coeffs, k)
    for span, aq, cq in system.samples:
        h, u = lengths[span], windows[span].T
        du = u[1:] - u[:1]
        dv = (D1[1:].T @ du) / h  # v' at the points, (q, nel_b)
        strong = aq * dv + cq * (V.T @ u)
        # the weights of V and of D1, in the halves of one array
        stacked = np.empty((2, *strong.shape))
        np.multiply(w * h, strong, out=stacked[0])
        with_d1 = np.multiply(w * eps, dv, out=stacked[1])
        if deltas is not None:
            # eps v'' / h^2, then the SD weight w (delta a) strong, each
            # formed in place in dv, which is spent
            if k >= 2:  # D2 is zero at k = 1, and this product is 15-25 % of the pass
                np.matmul(D2[1:].T, du, out=dv)
                dv *= eps
                dv /= h * h
                strong -= dv
            np.multiply(deltas[span], aq, out=dv)
            dv *= w
            dv *= strong
            with_d1 += dv
        _add_local(ax, tables.load @ stacked.reshape(-1, h.size), span, k)
    # the two boundary entries collect rows that Dirichlet elimination drops
    r = ax[1:-1]
    np.subtract(system.rhs, r, out=r)
    return r


def _max_abs(v: np.ndarray) -> float:
    """||v||_inf without an array of |v|; nan if v holds a NaN."""
    return max(v.max(), -v.min())


def _contract(r: np.ndarray, x_max: float, norm_a: float, norm_b: float) -> float:
    """The relative residual ||r|| / (||A|| ||x|| + ||b||) (inf norms); a
    SolverError where it is not finite or exceeds RESIDUAL_TOL."""
    res = _max_abs(r)
    if not np.isfinite(res):
        raise SolverError(f"residual contract violated: max |Ax - b| = {res} is not finite")
    # ||A|| ||x|| + ||b|| can overflow where the ratio cannot, so both
    # terms are divided by the larger of ||x|| and ||b|| first
    scale = max(x_max, norm_b)
    rel = res / scale / (norm_a * (x_max / scale) + norm_b / scale) if scale else 0.0
    if rel > RESIDUAL_TOL:
        raise SolverError(
            f"residual contract violated: relative residual {rel:.3e} > {RESIDUAL_TOL}; "
            "the system is likely ill-conditioned"
        )
    return rel


def solve_banded(system: LinearSystem) -> DiscreteFunction:
    """
    Solve with the band matrix as a preconditioner: banded LU in place on
    the system's storage (dgbsv), which consumes the system, then
    fixed-precision iterative refinement x += LU^-1 r, r = b - A_elem x for
    the element operator (`_element_residual`; dgbtrs), to the stopping
    rule at STEP_TOL.  The residual contract ||r|| / (||A|| ||x|| + ||b||)
    <= 1e-10 (inf norms, A the band matrix) must hold for the LU solution,
    or the bands are not the element operator, and for the returned x; the
    function records that value and each step's ||dx|| / ||x||.
    """
    k, rhs, ab = system.order, system.rhs, system.storage
    if not ab.flags.writeable:
        raise ValueError("solve_banded consumed this system: its bands hold LU factors")
    norm_a = lapack.dlangb("I", k, 2 * k, ab)  # the fill rows are still zero
    norm_b = _max_abs(rhs)
    if not (np.isfinite(norm_a) and np.isfinite(norm_b)):
        raise SolverError("banded LU failed: array must not contain infs or NaNs")
    # dgbsv (banded LU with partial pivoting) in place on the storage and
    # on the interior of the nodal coefficients, whose boundary entries stay 0
    coeffs = np.zeros(rhs.size + 2)
    x = coeffs[1:-1]
    x[:] = rhs
    lu, piv, _, info = lapack.dgbsv(k, k, ab, x, overwrite_ab=1, overwrite_b=1)
    ab.setflags(write=False)
    if info > 0:
        raise SolverError("banded LU failed: singular matrix")
    # ||x||, nan where x holds a NaN: a finite check without a bool array
    x_max = _max_abs(x)
    if not np.isfinite(x_max):
        raise SolverError("banded LU produced non-finite values (singular system?)")
    r = _element_residual(system, coeffs)
    _contract(r, x_max, norm_a, norm_b)
    steps = []
    for i in range(MAX_STEPS):
        lapack.dgbtrs(lu, k, k, r, piv, overwrite_b=1)  # r becomes the step dx
        x += r
        x_max = _max_abs(x)
        if not np.isfinite(x_max):
            raise SolverError("the refinement step produced non-finite values")
        steps.append(_max_abs(r) / x_max if x_max else 0.0)
        del r  # freed before the next residual
        r = _element_residual(system, coeffs)
        if steps[i] ** 2 <= STEP_TOL or (i and steps[i] > steps[i - 1] / 2):
            break
    rel = _contract(r, x_max, norm_a, norm_b)
    return DiscreteFunction(system.mesh, k, system.family, coeffs, rel, tuple(steps))
