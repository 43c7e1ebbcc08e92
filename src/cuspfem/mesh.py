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

import json
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
        if not 0.0 <= self.lam <= self.order + 1:
            raise ValueError(f"lambda must lie in [0, k + 1] = [0, {self.order + 1}], got {self.lam}")


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


def _decade_parts(n_half: int, big_k: int) -> np.ndarray:
    """Equal-part counts per decade, innermost first, summing to n_half."""
    n0, extra = divmod(n_half, big_k + 1)
    parts = np.full(big_k + 1, n0, dtype=int)
    if extra:
        parts[-extra:] += 1  # the `extra` outermost decades get one part more
    return parts


def build_mesh(params: MeshParams) -> Mesh:
    """
    Construct the mesh.  With n0 = floor(N/(K+1)) and N0 = N - (K+1)n0, the
    K+1-N0 innermost decades are divided into n0 equal parts and the N0
    outermost into n0+1, giving exactly N intervals on (0, 1]; the left half
    is the mirror image, so nodes come in exact +/- pairs.
    """
    sigma, branch = compute_sigma(params)
    big_k = compute_big_k(sigma)
    n = params.n_half
    if n < big_k + 1:
        raise MeshConstructionError(
            f"mesh too coarse for layer structure: n_half={n} cannot fill "
            f"{big_k + 1} decade subintervals; need n_half >= {big_k + 1}"
        )
    bounds = _decade_bounds(big_k)
    parts = _decade_parts(n, big_k)
    steps = np.diff(bounds) / parts
    # lo + 0 * step is lo, so every decade starts exactly at its power of ten
    right = np.hstack([lo + np.arange(m) * s for lo, s, m in zip(bounds, steps, parts)] + [1.0])
    nodes = np.concatenate((-right[:0:-1], right))
    return Mesh(params, sigma, branch, big_k, nodes, np.diff(nodes))


@dataclass(frozen=True)
class MeshDiagnostics:
    """Validation outcome: empty `violations` means all invariants hold."""

    violations: tuple[str, ...]
    max_length: float

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_mesh(mesh: Mesh) -> MeshDiagnostics:
    """
    Check the construction invariants and report violations (never raises):
    interval count 2N, strict monotonicity, exact symmetry, the per-interval
    bound h_i <= (K+1)/N, the decade/sigma bracketing, per-decade
    equidistance (up to node-coordinate rounding), and in the regime where
    the N^-(2k+1) branch set sigma, x_1 <= (K+1) N^-(2k+2).
    """
    p = mesh.params
    n, k, big_k = p.n_half, p.order, mesh.big_k
    nodes, lengths = mesh.nodes, mesh.lengths
    bad: list[str] = []
    if lengths.size != 2 * n:
        bad.append(f"interval count {lengths.size} != 2N = {2 * n}")
    if not np.all(lengths > 0.0):
        bad.append("nodes not strictly increasing")
    if nodes[0] != -1.0 or nodes[-1] != 1.0:
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

    # 10^-1 sigma <= 10^-K < sigma, with slack matching the K snap
    ten_mk = 10.0 ** -big_k
    if not (0.1 * mesh.sigma * (1.0 - 1e-9) <= ten_mk < mesh.sigma * (1.0 + 1e-9)):
        bad.append(f"10^-K = {ten_mk} outside [sigma/10, sigma) for sigma = {mesh.sigma}")

    bounds = _decade_bounds(big_k)
    for d in range(big_k + 1):
        lo, hi = bounds[d], bounds[d + 1]
        # every lo is >= 0, so this checks the right half, which mirrors the left
        inside = (nodes[:-1] >= lo) & (nodes[1:] <= hi + 2 * np.spacing(hi))
        sel = lengths[inside]
        if sel.size and np.ptp(sel) > 4.0 * np.spacing(hi):
            bad.append(f"decade ({lo}, {hi}] not equidistant (spread {np.ptp(sel):.3e})")

    if mesh.sigma_branch == "n":
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
    with open(path, "w") as fh:
        fh.write("".join(f"{x:.17g}\n" for x in mesh.nodes))
    with open(f"{path}.json", "w") as fh:
        json.dump(mesh_header(mesh), fh, indent=2)
        fh.write("\n")
