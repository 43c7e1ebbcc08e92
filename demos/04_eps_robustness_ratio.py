"""
Uniformity in eps, two ways.

First an eps-sweep: P1 energy errors at fixed N stay bounded as eps drops
14 orders of magnitude (they actually improve once the mesh starts
resolving the layer).  Then the sharper diagnostic: the scaled ratio
energy * 100 * (N/(K+1))^k is nearly constant in N once the asymptotic
regime is reached, which is exactly the claim error = O((N/(K+1))^-k).
"""

from cuspfem import SweepConfig, emit, ratio_table, run_convergence

sweep = SweepConfig(
    lam=0.005,
    eps_list=(1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14),
    n_list=(512,),
    k_list=(1,),
)
print("P1 energy error at N = 512 under eps refinement:")
for r in run_convergence(sweep):
    print(f"  eps = {r.eps:8.0e}: energy = {r.energy:.4e}  (K = {r.big_k})")

ratio = SweepConfig(
    lam=0.25,
    eps_list=(1e-14,),
    n_list=(256, 512, 1024, 2048),
    k_list=(2,),
)
print("\nscaled ratio for P2 at eps = 1e-14 (plateau indicates sharpness):")
print(emit(ratio_table(run_convergence(ratio)), "markdown"))
