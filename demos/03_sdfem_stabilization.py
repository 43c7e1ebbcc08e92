"""
Streamline-diffusion stabilization and supercloseness.

SDFEM adds delta_i (-eps v'' + a v' + c v, a w')_i element by element.  The
standard deltas are min(h^2/eps, h), for k >= 2 capped by the inverse-inequality
bound h^2/(eps c_inv^2); the theorem-capped policy instead clamps min(h^2/eps, h)
by the constants under which coercivity of the stabilized form is proved
(half that bound, and gamma/(2 ||c||^2)).  The payoff is supercloseness: the SD-distance between the
interpolant and the discrete solution decays a full order faster than the
error itself, here ~N^-2 against the ~N^-1 energy error for P1.
"""

import numpy as np

from cuspfem import (
    MeshParams,
    assemble_sdfem,
    build_mesh,
    compute_deltas,
    error_norms,
    interpolate,
    make_test_problem,
    sd_distance,
    solve_banded,
)

# In the mildly perturbed regime the h^2/(2 eps c_inv^2) cap for k >= 2
# engages on every element where diffusion still dominates locally.
eps2 = 1e-2
prob2 = make_test_problem(eps2, 0.25)
mesh2 = build_mesh(MeshParams(eps2, 64, 2, 0.25))
standard = compute_deltas(mesh2, eps2)
capped = compute_deltas(mesh2, eps2, policy="theorem-capped", problem=prob2, k=2)
print("delta range, standard      :", standard.deltas.min(), "...", standard.deltas.max())
print("delta range, theorem-capped:", capped.deltas.min(), "...", capped.deltas.max())
print("elements clamped:", int(capped.caps_applied.sum()), "of", mesh2.n_intervals)

eps, lam = 1e-10, 0.005
prob = make_test_problem(eps, lam)

print(f"\n{'N':>5} {'sd error':>12} {'supercloseness':>15} {'ratio':>7}")
for n in (128, 256, 512, 1024):
    mesh = build_mesh(MeshParams(eps, n, 1, lam))
    stab = compute_deltas(mesh, eps)
    fn = solve_banded(assemble_sdfem(prob, mesh, 1, stab=stab))
    err = error_norms(fn, prob, mesh, stab=stab).sd
    close = sd_distance(interpolate(prob, mesh, 1), fn, prob, stab)
    print(f"{n:>5} {err:>12.4e} {close:>15.4e} {close / err:>7.4f}")

# The interpolant-to-solution gap shrinking relative to the error is what
# makes postprocessing/superconvergence arguments work on this mesh.
