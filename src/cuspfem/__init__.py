"""
1-D finite elements for singularly perturbed interior-turning-point
problems: layer-adapted piecewise-equidistant meshes, higher-order Galerkin
and streamline-diffusion discretizations, layer-aware error norms, and a
convergence-study harness with a CLI.
"""

from .assembly import (
    AssemblyError,
    DiscreteFunction,
    LinearSystem,
    SolverError,
    StabilizationProfile,
    apply_system,
    assemble_galerkin,
    assemble_sdfem,
    compute_deltas,
    global_nodes,
    solve_banded,
)
from .basis import (
    QuadratureRule,
    ReferenceBasis,
    estimate_c_inv,
    gauss_rule,
    reference_nodes,
)
from .experiments import (
    ERROR_REPORT_COLUMNS,
    ConvergenceRow,
    SweepConfig,
    Table,
    convergence_rate,
    convergence_table,
    emit,
    ratio_table,
    run_convergence,
    sample_solution,
)
from .mesh import (
    Mesh,
    MeshConstructionError,
    MeshDiagnostics,
    MeshParams,
    build_mesh,
    compute_big_k,
    compute_sigma,
    mesh_header,
    save_mesh,
    validate_mesh,
)
from .norms import (
    ErrorReport,
    QuadSpec,
    error_norms,
    interpolate,
    sd_distance,
)
from .problem import (
    Problem,
    gamma_estimate,
    make_problem,
    make_test_problem,
    problem_names,
    register_problem,
)

__version__ = "0.1.0"
