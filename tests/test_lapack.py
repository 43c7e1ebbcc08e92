"""
cuspfem._lapack next to scipy.linalg.  Each case runs in a fresh
interpreter (helpers.run_python), so the import order is the case's own.
"""

from __future__ import annotations

import pytest
from helpers import run_python

# the LAPACK routines cuspfem calls
ROUTINES = ["dgbsv", "dgbtrs", "dlangb", "dsygvd"]

IMPORT_ORDERS = {
    "cuspfem-first": "import cuspfem.experiments\nimport scipy.linalg\n",
    "scipy-first": "import scipy.linalg\nimport cuspfem.experiments\n",
}

# a tiny theorem-capped SDFEM solve, which reaches dsygvd, dlangb, dgbsv
# and dgbtrs; it returns c_inv(8) and the sum of the nodal values
SOLVE = """
import numpy as np
from cuspfem import (MeshParams, assemble_sdfem, build_mesh, compute_deltas,
                     estimate_c_inv, make_test_problem, solve_banded)
def tiny_solve():
    eps, k = 1e-4, 2
    prob = make_test_problem(eps, 0.25)
    mesh = build_mesh(MeshParams(eps, 32, k, 0.25))
    stab = compute_deltas(mesh, eps, policy="theorem-capped", problem=prob, k=k)
    fn = solve_banded(assemble_sdfem(prob, mesh, k, stab=stab))
    return estimate_c_inv(8), float(np.sum(fn.coefficients))
"""

# ways to make cuspfem._lapack miss the extension modules: scipy not
# found, a scipy without a linalg directory (cuspfem's own package
# directory stands in), and a file that does not load
FALLBACKS = {
    "no-scipy-spec": """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: None if name == "scipy" else find_spec(name, package)
""",
    "no-extension-file": """
import importlib.machinery, importlib.util
spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
spec.submodule_search_locations = importlib.util.find_spec("cuspfem").submodule_search_locations
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: spec if name == "scipy" else find_spec(name, package)
""",
    "extension-fails-to-load": """
import importlib.util
module_from_spec = importlib.util.module_from_spec
def failing(spec):
    if spec.name.startswith("scipy.linalg._f"):
        raise ImportError("cannot load " + spec.name)
    return module_from_spec(spec)
importlib.util.module_from_spec = failing
""",
}


@pytest.fixture(scope="module")
def solved():
    """tiny_solve's result from an interpreter that imports cuspfem alone."""
    return run_python(SOLVE + "print(repr(tiny_solve()))\n").strip()


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_scipy_linalg_routines_are_the_ones_cuspfem_calls(order):
    code = IMPORT_ORDERS[order] + f"""
import cuspfem.assembly, cuspfem.basis
users = [cuspfem.assembly.lapack, cuspfem.basis.lapack]
print(all(getattr(m, name) is getattr(scipy.linalg.lapack, name) for name in {ROUTINES!r} for m in users))
"""
    assert run_python(code).strip() == "True"


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_scipy_linalg_still_works_next_to_cuspfem(order, solved):
    # solve_banded on (1, 2) bands takes dgbsv (on (1, 1) it takes dgtsv)
    code = IMPORT_ORDERS[order] + SOLVE + """
A = np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0] * 3, -1) + np.diag([2.0] * 3, 1) + np.diag([0.5] * 2, 2)
ab = np.array([[0, 0, 0.5, 0.5], [0, 2, 2, 2], [4, 5, 6, 7], [1, 1, 1, 0]])  # ab[2 + i - j, j] = A[i, j]
x = scipy.linalg.solve_banded((1, 2), ab, np.ones(4))
w = scipy.linalg.eigh(A + A.T, np.eye(4), eigvals_only=True)
print(np.allclose(A @ x, 1.0), np.allclose(w, np.linalg.eigvalsh(A + A.T)))
print(repr(tiny_solve()))
"""
    lines = run_python(code).splitlines()
    assert lines[-2] == "True True"
    assert lines[-1] == solved


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_fallback_to_the_scipy_linalg_namespace_works(fallback, solved):
    # the fallback takes lapack from scipy.linalg: the same routines, so
    # the same bits
    code = FALLBACKS[fallback] + """
import cuspfem.experiments, cuspfem._lapack
import scipy.linalg
print(cuspfem._lapack.lapack is scipy.linalg.lapack)
""" + SOLVE + "print(repr(tiny_solve()))\n"
    lines = run_python(code).splitlines()
    assert lines[-2] == "True"
    assert lines[-1] == solved
