"""
Reference-element Lagrange bases on [0, 1] with derivatives up to second
order, interpolation node families, Gauss quadrature, and the inverse
inequality constant ||p''|| <= c_inv ||p'|| over P_k.

Element maps are affine t -> x_{i-1} + t*h_i; the h^-1 and h^-2 derivative
scalings are applied by the caller at assembly time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._lapack import lapack

FAMILIES = ("uniform", "gauss-lobatto")
MAX_ORDER = 8  # the highest k whose barycentric basis is stable


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown node family {family!r}; expected one of {FAMILIES}")


def reference_nodes(k: int, family: str = "uniform") -> np.ndarray:
    """
    Return the k+1 interpolation nodes on [0, 1], sorted, including both
    endpoints and symmetric about 1/2.

    "gauss-lobatto" places the k-1 inner nodes at the roots of the
    derivative of the degree-k Legendre polynomial, mapped to [0, 1].
    """
    k = int(k)
    if not 1 <= k <= MAX_ORDER:
        raise ValueError(f"polynomial order must be in 1..{MAX_ORDER}, got {k}")
    _check_family(family)
    if family == "uniform":
        return np.linspace(0.0, 1.0, k + 1)
    inner = np.polynomial.legendre.Legendre.basis(k).deriv().roots()
    nodes = np.concatenate(([-1.0], np.sort(inner.real), [1.0]))
    return 0.5 * (nodes + 1.0)


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))  # common scaling cancels in the barycentric form


@dataclass(frozen=True)
class ReferenceBasis:
    """
    Order-k Lagrange basis on [0, 1] in barycentric form (stable up to k = 8).

    Derivatives are taken through the nodal differentiation matrix: the d-th
    derivative of a basis function is the polynomial interpolating the
    columns of D^d, so one barycentric evaluation covers d = 0, 1, 2.
    """

    order: int
    family: str = "uniform"
    nodes: np.ndarray = field(init=False, repr=False)
    _bary_w: np.ndarray = field(init=False, repr=False)
    _diff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = reference_nodes(self.order, self.family)
        w = _barycentric_weights(nodes)
        # D[i, j] = phi_j'(t_i): (w_j / w_i) / (t_i - t_j), minus the row sum on the diagonal
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, np.inf)
        D = (w[None, :] / w[:, None]) / diff
        np.fill_diagonal(D, -np.sum(D, axis=1))
        for name, val in (("nodes", nodes), ("_bary_w", w), ("_diff", D)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    def tables(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values and first/second derivatives of all basis functions at t.

        Returns three arrays of shape (k+1, len(t)).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = self.order + 1
        V = np.zeros((n, t.size))
        d = t[None, :] - self.nodes[:, None]          # (n, nt)
        exact = np.abs(d) < 1e-14
        hit = np.any(exact, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self._bary_w[:, None] / d             # (n, nt)
            V[:, ~hit] = r[:, ~hit] / np.sum(r[:, ~hit], axis=0)
        V[:, hit] = exact[:, hit]
        D1 = self._diff.T @ V
        D2 = (self._diff @ self._diff).T @ V
        return V, D1, D2


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and positive weights on [0, 1]; weights sum to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


@functools.lru_cache(maxsize=None)
def gauss_rule(q: int) -> QuadratureRule:
    """q-point Gauss-Legendre rule on [0, 1]; exact for degree <= 2q-1."""
    q = int(q)
    if q < 1:
        raise ValueError(f"need at least one quadrature point, got {q}")
    pts, wts = np.polynomial.legendre.leggauss(q)
    return QuadratureRule(0.5 * (pts + 1.0), 0.5 * wts)


@functools.lru_cache(maxsize=None)
def estimate_c_inv(k: int) -> float:
    """
    Smallest c with ||p''|| <= c ||p'|| (L2 on [0, 1]) over polynomials of
    degree <= k, via the generalized eigenproblem in monomial coefficients.

    The constant coefficient drops out of both sides, so p is parameterized
    by the coefficients of t, ..., t^k.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"polynomial order must be >= 1, got {k}")
    m = np.arange(1, k + 1, dtype=float)
    # int_0^1 p'' q'' dt and int_0^1 p' q' dt as quadratic forms
    A = np.zeros((k, k))
    mm = m[:, None] * (m[:, None] - 1) * m[None, :] * (m[None, :] - 1)
    pw = m[:, None] + m[None, :] - 3.0
    np.divide(mm, pw, out=A, where=mm != 0.0)
    B = m[:, None] * m[None, :] / (m[:, None] + m[None, :] - 1.0)
    # the LAPACK call scipy.linalg.eigh(A, B, eigvals_only=True) makes
    ev, _, info = lapack.dsygvd(A, B, jobz="N", uplo="L")
    if info != 0:
        raise ValueError(f"generalized eigenproblem for c_inv failed: LAPACK dsygvd info {info}")
    return float(np.sqrt(max(ev[-1], 0.0)))
