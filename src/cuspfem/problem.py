"""
Continuous problem data for -eps u'' + a u' + c u = f on (-1, 1) with
u(-1) = u(1) = 0, where a(x) = -x b(x) changes sign at the turning point
x = 0 and the solution carries a cusp-type interior layer there.

Includes the manufactured test problem with exact solution
u = (x^2+eps)^(lam/2) + x (x^2+eps)^((lam-1)/2) minus its linear boundary
correction, plus a registry for CLI selection of user-defined problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Evaluator = Callable[[np.ndarray], np.ndarray]
# x to the pair (u(x), u'(x)), each in x's shape
Solution = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_VALIDATION_GRID = np.linspace(-1.0, 1.0, 257)
_ORIGIN = np.array([0.0])
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Problem:
    """
    Coefficients and right-hand side, all vectorized evaluators on [-1, 1].

    The drift a(x) = -x b(x) and the layer strength lambda_bar =
    c(0)/|a'(0)| = c(0)/b(0) follow from b and c.  solution optionally
    maps x to the pair (u, u') of the exact solution and its derivative,
    which the error norms need.

    Making one checks b > 0, c >= 0, c(0) > 0 and coercivity (`gamma_estimate`),
    and sets the attribute `delta_cap` = gamma/(2 ||c||_inf^2), the cap on every
    theorem-capped delta; not being a field, it leaves eq, hash and repr alone.
    """

    eps: float
    coeff_b: Evaluator
    coeff_c: Evaluator
    rhs_f: Evaluator
    solution: Optional[Solution] = None

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        # each check is written so that NaN fails it
        if not np.min(self.coeff_b(_VALIDATION_GRID)) > 0.0:
            raise ValueError("coefficient b must be positive on [-1, 1]")
        if not (np.min(self.coeff_c(_VALIDATION_GRID)) >= 0.0 and self.coeff_c(_ORIGIN)[0] > 0.0):
            raise ValueError("need c >= 0 on [-1, 1] and c(0) > 0")
        gamma = gamma_estimate(self)
        c_inf = float(np.max(self.coeff_c(np.linspace(-1.0, 1.0, 4097))))
        if not c_inf < math.inf:  # NaN too
            raise ValueError(f"coefficient c must be finite on [-1, 1], got max(c) = {c_inf}")
        # 2 ||c||^2 leaves the normal range for ||c|| outside about
        # 1e-154 .. 1e154; the quotient then takes one rounding more
        square = 2.0 * c_inf * c_inf
        cap = gamma / square if _TINY <= square < math.inf else gamma / (2.0 * c_inf) / c_inf
        object.__setattr__(self, "delta_cap", cap)

    def coeff_a(self, x: np.ndarray) -> np.ndarray:
        """The drift a(x) = -x b(x)."""
        return -(x * self.coeff_b(x))

    @property
    def lambda_bar(self) -> float:
        """Layer strength c(0)/|a'(0)| = c(0)/b(0)."""
        return float(self.coeff_c(_ORIGIN)[0] / self.coeff_b(_ORIGIN)[0])

    @property
    def has_exact(self) -> bool:
        return self.solution is not None


def make_test_problem(eps: float, lam: float) -> Problem:
    """
    Manufactured problem -eps u'' - x(1+x^2) u' + lam(1+x^3) u = f with

        u(x) = (x^2+eps)^(lam/2) - (1+eps)^(lam/2)
               + x [ (x^2+eps)^((lam-1)/2) - (1+eps)^((lam-1)/2) ],

    which is exactly 0 at x = +-1 in floating point.  u' and u'' are
    hand-differentiated; f is synthesized from them, which keeps problem and
    exact solution consistent by construction.  The solution evaluator
    returns (u, u') from one evaluation of the powers of x^2 + eps.
    lambda_bar = lam.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < lam < np.inf:  # also NaN, which c(0) > 0 would only misreport
        raise ValueError(f"not 0 < lam < inf: got lam = {lam}")
    e1 = 1.0 + eps
    # boundary constants, reused so the cancellation at x = +-1 is exact for
    # a scalar x
    k0 = e1 ** (lam / 2.0)
    k1 = k0 / np.sqrt(e1)

    def b(x):
        return 1.0 + x * x

    def c(x):
        return lam * (1.0 + x * x * x)

    def powers(x):
        # w = x^2 + eps, w^(lam/2) and w^((lam-1)/2) from one power and one
        # square root; u' and u'' divide these by w and w^2
        w = x * x + eps
        p0 = w ** (lam / 2.0)
        return w, p0, p0 / np.sqrt(w)

    # the term order here and in Problem.coeff_a keeps numpy's temporaries
    # few: f holds at most six arrays of the size of x at once
    def u_from(x, p0, p1):
        return (p0 - k0) + x * (p1 - k1)

    def du_from(x, w, p0, p1):
        return x * (lam * p0 + (lam - 1.0) * x * p1) / w + (p1 - k1)

    def ddu_from(x, w, p0, p1):
        # x^2 = w - eps folds the four terms of u'' into two
        return (
            lam * p0 * ((lam - 1.0) * w - (lam - 2.0) * eps)
            + (lam - 1.0) * x * p1 * (lam * w - (lam - 3.0) * eps)
        ) / (w * w)

    def solution(x):
        w, p0, p1 = powers(x)
        u = u_from(x, p0, p1)
        # numpy's array ** can round w^(lam/2) apart from k0 at x = +-1
        ends = np.abs(x) == 1.0
        if np.ndim(u):
            u[ends] = 0.0
        return u, du_from(x, w, p0, p1)

    def f(x):
        w, p0, p1 = powers(x)
        # u' a written as -(u' (x b)): the same bits as with a = -(x b)
        return (
            -eps * ddu_from(x, w, p0, p1)
            - du_from(x, w, p0, p1) * (x * b(x))
            + u_from(x, p0, p1) * c(x)
        )

    return Problem(
        eps=eps,
        coeff_b=b,
        coeff_c=c,
        rhs_f=f,
        solution=solution,
    )


def _a_prime(a: Evaluator, x: np.ndarray) -> np.ndarray:
    """a'(x) by a fourth-order difference; the stencil is recentered near
    +-1 so all evaluation points stay inside the domain."""
    h = 1e-4
    xc = np.clip(x, -1.0 + 2 * h, 1.0 - 2 * h)
    am2, am1, ap1, ap2 = a(xc - 2 * h), a(xc - h), a(xc + h), a(xc + 2 * h)
    d = (am2 - 8 * am1 + 8 * ap1 - ap2) / (12 * h)
    # correct for the recentering to third order, exact for cubic a:
    # a'(x) ~ a'(xc) + a''(xc) s + a'''(xc) s^2 / 2 with s = x - xc
    dd = (am1 - 2 * a(xc) + ap1) / (h * h)
    ddd = (ap2 - 2 * ap1 + 2 * am1 - am2) / (2 * h ** 3)
    s = x - xc
    return d + dd * s + ddd * (s * s / 2)


def gamma_estimate(problem: Problem) -> float:
    """
    Minimum of (c - a'/2) on a uniform 2001-point grid, refined on a second
    2001-point grid over the cells beside the first grid's argmin.  Raises if
    the estimate is not positive, since the energy-norm analysis needs gamma > 0.
    """

    def g(x):
        return problem.coeff_c(x) - 0.5 * _a_prime(problem.coeff_a, x)

    x = np.linspace(-1.0, 1.0, 2001)
    i = int(np.argmin(g(x)))
    x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, 2000)], 2001)
    gamma = float(np.min(g(x)))
    if not gamma > 0.0:  # NaN too
        raise ValueError(f"coercivity condition violated: min(c - a'/2) = {gamma} is not positive")
    return gamma


_REGISTRY: dict[str, Callable[[float, float], Problem]] = {
    "sun-stynes-example": make_test_problem,
}


def register_problem(name: str, factory: Callable[[float, float], Problem]) -> None:
    """Add a (eps, lam) -> Problem factory under a CLI-selectable name."""
    if name in _REGISTRY:
        raise ValueError(f"problem {name!r} already registered")
    _REGISTRY[name] = factory


def make_problem(name: str, eps: float, lam: float) -> Problem:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(eps, lam)


def problem_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
