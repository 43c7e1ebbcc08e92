"""
Piecewise-equidistant layer-adapted meshes on [-1, 1] for problems with an
interior cusp-type layer at x = 0.

The half-interval (0, 1] is split into decade subintervals
(0, 10^-K], (10^-K, 10^-K+1], ..., (10^-1, 1], where K is tied to the
layer width sigma by 10^-1 sigma <= 10^-K < sigma.  Each decade is divided
into equal parts so that the half-mesh has exactly N intervals, and the
result is mirrored across 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class MeshConstructionError(ValueError):
    """Raised when the requested interval count cannot resolve the decades."""


@dataclass(frozen=True)
class MeshParams:
    """
    Parameters of the layer-adapted mesh.

    eps is the perturbation parameter, n_half the number of intervals per
    half (the full mesh has 2*n_half), order the polynomial degree k of the
    intended discretization, and lam the layer exponent entering sigma.
    """

    eps: float
    n_half: int
    order: int
    lam: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.n_half < 1:
            raise ValueError(f"n_half must be positive, got {self.n_half}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        check_lambda(self.lam, self.order)


def check_lambda(lam: float, order: int) -> None:
    """Raise ValueError unless the layer exponent lies in [0, order + 1]."""
    if not 0.0 <= lam <= order + 1:
        raise ValueError(f"lambda must lie in [0, k + 1] = [0, {order + 1}], got {lam}")


class SigmaResult(NamedTuple):
    value: float
    branch: str  # "eps" if the eps-power dominated, "n" for N^-(2k+1)


def compute_sigma(params: MeshParams) -> SigmaResult:
    """
    Layer width sigma = max{eps^((1 - lam/(k+1))/2), N^-(2k+1)}, together
    with which branch dominated (ties go to the eps branch).
    """
    s_eps = params.eps ** ((1.0 - params.lam / (params.order + 1)) / 2.0)
    s_n = float(params.n_half) ** (-(2 * params.order + 1))
    if s_eps >= s_n:
        return SigmaResult(s_eps, "eps")
    return SigmaResult(s_n, "n")


# Forward error of the float sigma pipeline stays far below this snap, and
# the exact value of 1 - log10(sigma) is never this close below an integer
# for representable inputs unless it is an integer exactly.
_BIG_K_SNAP = 1e-9


def compute_big_k(sigma: float) -> int:
    """Largest integer K with K <= 1 - log10(sigma); satisfies
    10^-1 sigma <= 10^-K < sigma."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    return math.floor(1.0 - math.log10(sigma) + _BIG_K_SNAP)


@dataclass(frozen=True)
class Mesh:
    """Symmetric layer-adapted partition of [-1, 1] with its provenance."""

    params: MeshParams
    sigma: float
    sigma_branch: str
    big_k: int
    nodes: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.lengths.setflags(write=False)

    @property
    def n_intervals(self) -> int:
        return self.lengths.size


def _decade_bounds(big_k: int) -> np.ndarray:
    return np.concatenate(([0.0], 10.0 ** -np.arange(big_k, 0, -1), [1.0]))


def _decade_parts(n_half: int, big_k: int) -> tuple[int, ...]:
    """Equal-part counts per decade, innermost first, summing to n_half."""
    n0, extra = divmod(n_half, big_k + 1)
    # the `extra` outermost decades get one part more
    return (n0,) * (big_k + 1 - extra) + (n0 + 1,) * extra


@dataclass(frozen=True, eq=False)
class _NodeSet:
    """The nodes and lengths of one (N, K), shared read-only by every mesh
    built with them, and the outcome of `_node_checks` on them."""

    nodes: np.ndarray
    lengths: np.ndarray
    checks: tuple


# A bound, not a run's count of distinct sets: a set holds 32 bytes per
# half-mesh interval, and a long-lived process keeps at most eight
@functools.lru_cache(maxsize=8)
def _node_set(parts: tuple[int, ...]) -> _NodeSet:
    """The node set whose decades, innermost first, have `parts` parts."""
    n, big_k = sum(parts), len(parts) - 1
    bounds = _decade_bounds(big_k)
    steps = np.diff(bounds) / parts
    nodes = np.empty(2 * n + 1)
    right = nodes[n:]
    start = 0
    for lo, step, m in zip(bounds, steps, parts):
        # lo + 0 * step is lo, so every decade starts exactly at its power of ten
        decade = right[start : start + m]
        np.multiply(np.arange(m), step, out=decade)
        decade += lo
        start += m
    right[n] = 1.0
    np.negative(right[:0:-1], out=nodes[:n])
    lengths = np.diff(nodes)
    return _NodeSet(nodes, lengths, _node_checks(nodes, lengths, n, big_k))


def build_mesh(params: MeshParams) -> Mesh:
    """
    Construct the mesh.  With n0 = floor(N/(K+1)) and N0 = N - (K+1)n0, the
    K+1-N0 innermost decades are divided into n0 equal parts and the N0
    outermost into n0+1, giving exactly N intervals on (0, 1]; the left half
    is the mirror image, so nodes come in exact +/- pairs.

    The nodes depend on N and K alone, so meshes of equal (N, K) share one
    pair of read-only `nodes` and `lengths` arrays, which a small cache of
    the last few node sets hands out; a set is checked once, when it is
    made (`_node_checks`), and never changes.  Each call still returns its
    own `Mesh` with its own params, sigma and branch.  The mesh carries its
    node set as the attribute `_shared`; not being a field, it leaves eq,
    hash and repr alone, and a `replace`d copy lacks it.
    """
    sigma, branch = compute_sigma(params)
    big_k = compute_big_k(sigma)
    n = params.n_half
    if n < big_k + 1:
        raise MeshConstructionError(
            f"mesh too coarse for layer structure: n_half={n} cannot fill "
            f"{big_k + 1} decade subintervals; need n_half >= {big_k + 1}"
        )
    shared = _node_set(_decade_parts(n, big_k))
    mesh = Mesh(params, sigma, branch, big_k, shared.nodes, shared.lengths)
    object.__setattr__(mesh, "_shared", shared)
    return mesh


@dataclass(frozen=True)
class MeshDiagnostics:
    """Validation outcome: empty `violations` means all invariants hold."""

    violations: tuple[str, ...]
    max_length: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _node_checks(nodes: np.ndarray, lengths: np.ndarray, n: int, big_k: int) -> tuple:
    """The checks that read only the nodes, N and K: their violations, in
    the order `validate_mesh` reports them (the decade checks last), and
    the largest length."""
    bad: list[str] = []
    if lengths.size != 2 * n:
        bad.append(f"interval count {lengths.size} != 2N = {2 * n}")
    if not np.all(lengths > 0.0):
        bad.append("nodes not strictly increasing")
    if nodes.size == 0 or nodes[0] != -1.0 or nodes[-1] != 1.0:
        bad.append("endpoints differ from -1, 1")
    mid = nodes.size // 2
    if nodes.size % 2 == 0 or nodes[mid] != 0.0:
        bad.append("0 is not the central node")
    elif np.any(nodes[:mid] != -nodes[:mid:-1]):
        bad.append("nodes not symmetric about 0")

    length_bound = (big_k + 1) / n
    max_len = float(np.max(lengths)) if lengths.size else math.nan
    if max_len > length_bound * (1.0 + 1e-12):
        bad.append(f"max interval length {max_len} exceeds (K+1)/N = {length_bound}")

    if lengths.size != nodes.size - 1:
        # the decade scan pairs each length with its interval's end nodes
        bad.append(f"{lengths.size} lengths for {nodes.size} nodes")
        return tuple(bad), max_len

    bounds = _decade_bounds(big_k)
    starts, ends = nodes[:-1], nodes[1:]
    # an interval may end up to 2 ulps past its decade's end
    tops = bounds[1:] + 2 * np.spacing(bounds[1:])
    for lo, hi, top in zip(bounds[:-1], bounds[1:], tops):
        # every lo is >= 0, so this checks the right half, which mirrors the left
        sel = lengths[(starts >= lo) & (ends <= top)]
        spread = sel.max() - sel.min() if sel.size else 0.0
        if spread > 4.0 * np.spacing(hi):
            bad.append(f"decade ({lo}, {hi}] not equidistant (spread {spread:.3e})")
    return tuple(bad), max_len


def validate_mesh(mesh: Mesh) -> MeshDiagnostics:
    """
    Check the construction invariants and report violations (never raises),
    in this order: interval count 2N, strict monotonicity, exact symmetry,
    the per-interval bound h_i <= (K+1)/N, per-decade equidistance (up to
    node-coordinate rounding), the decade/sigma bracketing, and in the
    regime where the N^-(2k+1) branch set sigma, x_1 <= (K+1) N^-(2k+2).

    A mesh from `build_mesh` carries the verdicts of the checks that read
    only its node set, made with the set; the sigma bracket and the x_1
    bound run on every call and follow them.  A mesh not returned by
    `build_mesh`, `replace`d ones included, is checked in full.
    """
    p = mesh.params
    n, k, big_k = p.n_half, p.order, mesh.big_k
    nodes = mesh.nodes
    shared = getattr(mesh, "_shared", None)
    checks = shared.checks if shared is not None else _node_checks(nodes, mesh.lengths, n, big_k)
    bad, max_len = list(checks[0]), checks[1]

    # 10^-1 sigma <= 10^-K < sigma, with slack matching the K snap
    ten_mk = 10.0 ** -big_k
    if not (0.1 * mesh.sigma * (1.0 - 1e-9) <= ten_mk < mesh.sigma * (1.0 + 1e-9)):
        bad.append(f"10^-K = {ten_mk} outside [sigma/10, sigma) for sigma = {mesh.sigma}")

    if mesh.sigma_branch == "n":
        mid = nodes.size // 2
        x1 = nodes[mid + 1] if nodes.size > mid + 1 else math.nan
        x1_bound = (big_k + 1) * float(n) ** (-2 * (k + 1))
        if x1 > x1_bound * (1.0 + 1e-12):
            bad.append(f"x_1 = {x1} exceeds (K+1) N^-(2k+2) = {x1_bound}")

    return MeshDiagnostics(tuple(bad), max_len)


def mesh_header(mesh: Mesh) -> dict:
    """JSON-ready provenance header."""
    p = mesh.params
    return {
        "eps": p.eps,
        "N": p.n_half,
        "k": p.order,
        "lambda": p.lam,
        "sigma": mesh.sigma,
        "K": mesh.big_k,
    }


def save_mesh(mesh: Mesh, path) -> None:
    """Write node coordinates as CSV (one per line, 17 significant digits)
    and the provenance header next to it as <path>.json."""
    import json

    with open(path, "w") as fh:
        fh.write("".join(f"{x:.17g}\n" for x in mesh.nodes))
    with open(f"{path}.json", "w") as fh:
        json.dump(mesh_header(mesh), fh, indent=2)
        fh.write("\n")
