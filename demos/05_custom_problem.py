"""
Plugging in a custom problem.

Any -eps u'' + a u' + c u = f with a = -x b(x), b > 0, c >= 0, c(0) > 0
fits the solver.  A Problem takes eps, b, c and f; the drift a = -x b
(Problem.coeff_a) and the layer strength lambda_bar = c(0)/b(0) are
computed from them.  Making a Problem also checks coercivity,
gamma = min(c - a'/2) > 0 with a' differenced from a, whatever the method,
and keeps gamma/(2 ||c||^2) for the theorem-capped deltas.  Providing the
exact solution and its derivative (u, u') unlocks the error norms;
registering a factory under a name makes the problem selectable from the
CLI via --problem.  A factory may ignore lam, but a run whose mesh lambda
(--lambda) exceeds the problem's lambda_bar is a config error.

Here: b = 1 (so a = -x and lambda_bar = 1), c = 1 and the manufactured solution u = 1 - x^2, which lies
in every P_k space with k >= 2, so the k = 2 solver reproduces it to
rounding and the reported errors are pure machine noise.
"""

import numpy as np

from cuspfem import (
    MeshParams,
    Problem,
    SweepConfig,
    assemble_galerkin,
    build_mesh,
    error_norms,
    make_problem,
    register_problem,
    sample_solution,
    solve_banded,
)


def quadratic_bump(eps: float, lam: float) -> Problem:
    u = lambda x: 1.0 - x * x
    return Problem(
        eps=eps,
        coeff_b=lambda x: np.ones_like(x),
        coeff_c=lambda x: np.ones_like(x),
        rhs_f=lambda x: 2.0 * eps + 1.0 + x * x,
        exact=u,
        exact_dx=lambda x: -2.0 * x,
    )


register_problem("quadratic-bump", quadratic_bump)

prob = make_problem("quadratic-bump", 1e-3, 1.0)
mesh = build_mesh(MeshParams(1e-3, 32, 2, 1.0))
fn = solve_banded(assemble_galerkin(prob, mesh, 2))
rep = error_norms(fn, prob, mesh)
print(f"l2 = {rep.l2:.3e}, energy = {rep.energy:.3e}  (in-space solution -> noise level)")

# The registered name drives the whole experiment layer too, e.g. point
# samples of u_N, u and their difference on a plotting grid:
table = sample_solution(
    SweepConfig(problem="quadratic-bump", lam=1.0, eps_list=(1e-3,), n_list=(32,), k_list=(2,)),
    resolution=9,
)
print("\n  x        u_N        u          err")
for x, u_n, u, err in table.rows[:: len(table.rows) // 8]:
    print(f"{x:+.3f} {u_n:10.6f} {u:10.6f} {err:+.2e}")
