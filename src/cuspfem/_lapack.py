"""
scipy's Fortran LAPACK wrappers without the scipy.linalg namespace.

cuspfem calls dgbsv, dgbtrs, dlangb and dsygvd from LAPACK, which scipy
wraps in one extension module, scipy.linalg._flapack.  `import
scipy.linalg` would load it too, but it also runs the whole namespace's
__init__, which pulls in numpy.f2py, numpy.testing and scipy's array-API
layer: about 0.2 s and 20 MB of every CLI run.  So this module loads the
extension module straight from scipy's linalg directory and registers it
in sys.modules under its real name.  A later `import scipy.linalg` reuses
the very same object (its lapack module imports it by name; the package
itself then lacks the attribute _flapack), and a module already imported
is taken as it is.  Where the file is not found or does not load this
way, it falls back to scipy.linalg's own lapack module, which gives the
same functions and is only slower to import.
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


lapack = _extension("_flapack")
if lapack is None:
    from scipy.linalg import lapack
