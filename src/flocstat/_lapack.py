"""The compiled LAPACK routines flocstat calls, taken from scipy's build.

scipy ships LAPACK as the extension module ``scipy.linalg._flapack``.
Importing it the usual way first runs ``scipy/linalg/__init__.py``, which
loads far more than these few routines and costs more than the rest of
flocstat's start-up together.  So this module loads the extension file
directly, under its real name, and registers it in ``sys.modules``: a later
``import scipy.linalg`` reuses the same module, and the names below are the
very objects ``scipy.linalg.lapack`` exports.  This is the only module of
the package that imports scipy.

The plain ``import scipy`` below runs only the package's light
``__init__``, which locates the extension, and it must stay:
``perfbench/worker.py`` reads ``sys.modules["scipy"].__version__``, and a
copy of this module that finds ``_flapack`` by path without importing
scipy fails every benchmark pass with ``KeyError: 'scipy'``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy

from .operators import Array

__all__ = ["dgttrf", "dgttrs", "smallest_eigenpair"]

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    directory = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(
            f"scipy {scipy.__version__} has no compiled _flapack module in {directory}"
        )
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs


def smallest_eigenpair(d: Array, e: Array) -> tuple[float, Array]:
    """Smallest eigenvalue and its eigenvector of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e.

    These are the two calls, and the checks, that
    ``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``
    makes: bisection (``dstebz``) for the value, inverse iteration
    (``dstein``) for the vector.  The results are bit for bit the same.
    Non-finite input raises ValueError; a LAPACK failure raises
    ``numpy.linalg.LinAlgError``.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    # range 2 selects by index: eigenvalues il..iu = 1..1 (vl, vu unused);
    # tol 0 asks for full accuracy; order "B" is what dstein expects
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    v, info = _flapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein: {info} eigenvectors failed to converge")
    return float(w[0]), v[:, 0]
