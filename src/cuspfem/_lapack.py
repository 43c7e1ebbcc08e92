"""
scipy's Fortran LAPACK and BLAS wrappers without the scipy.linalg namespace.

cuspfem calls dgbsv, dgbtrs, dlangb and dsygvd from LAPACK, and from BLAS
dgbmv, which only apply_system calls.  scipy wraps them in two modules,
scipy.linalg._flapack and scipy.linalg._fblas.  `import scipy.linalg`
would load them too, but it also runs the whole namespace's __init__,
which pulls in numpy.f2py, numpy.testing and scipy's array-API layer:
about 0.2 s and 20 MB of every CLI run.  So this module loads
the two extension modules straight from scipy's linalg directory and
registers them in sys.modules under their real names.  A later
`import scipy.linalg` reuses the very same objects (its blas and lapack
modules import them by name; the package itself then lacks the
attributes _flapack and _fblas), and a module already imported is taken
as it is.  Where the files are not found or do not load this way, it
falls back to scipy.linalg's own blas and lapack modules, which give the
same functions and are only slower to import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _extension(name: str):
    """The module scipy.linalg.<name>: the one in sys.modules, else loaded
    from scipy's linalg directory without importing any package; None
    where it cannot be found or loaded so."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")  # runs no package __init__
    if scipy is None:
        return None
    paths = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(full, paths)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(full, None)
        return None
    return module


lapack, blas = _extension("_flapack"), _extension("_fblas")
if lapack is None or blas is None:
    from scipy.linalg import blas, lapack
