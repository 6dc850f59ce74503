"""The compiled LAPACK routines flocstat calls, taken from numpy's build.

numpy's linear algebra extension ``numpy.linalg._umath_linalg`` links the
LAPACK that numpy ships (OpenBLAS in the wheels), and ``dlsym`` on that
extension's handle reaches every routine of it.  This module resolves the
six routines flocstat needs there with ``ctypes``, so a flocstat process
maps one BLAS/LAPACK library: scipy's LAPACK extension, and the second
OpenBLAS build it brings, are never loaded.

numpy builds name their LAPACK symbols in one of three ways, probed in
order: ``scipy_<name>_64_`` (numpy >= 2 wheels), ``<name>_64_`` (numpy 1.2x
wheels; both take 64-bit integers) and ``<name>_`` (32-bit integers).  A
numpy that exports none of them raises ImportError naming the symbols tried.
The wrappers below check the arrays they are handed, then pass raw pointers;
Fortran's hidden length of each character argument is passed as 1.

The plain ``import scipy`` below loads only that package's light
``__init__`` and must stay: ``perfbench/worker.py`` reads
``sys.modules["scipy"].__version__``.  This is the only module of the
package that imports scipy.
"""

from __future__ import annotations

import ctypes
from ctypes import addressof, byref, c_char_p, c_double, c_int32, c_int64, c_size_t, c_void_p

import numpy as np
import numpy.linalg._umath_linalg
import scipy  # noqa: F401  (see the module docstring)
from numpy.linalg import LinAlgError

from .operators import Array

__all__ = ["TridiagonalLU", "address_of", "dgbtrf", "dgbtrs", "smallest_eigenpair"]

# (symbol prefix, symbol suffix, LAPACK integer), in probing order
_SCHEMES = (("scipy_", "_64_", c_int64), ("", "_64_", c_int64), ("", "_", c_int32))
# the arguments of each routine in LAPACK order: c a character, p a pointer
# (Fortran passes every scalar by reference) and l the hidden length of a
# character argument
_SIGNATURES = {
    "dgttrf": "p" * 7,
    "dgttrs": "c" + "p" * 10 + "l",
    "dgbtrf": "p" * 8,
    "dgbtrs": "c" + "p" * 10 + "l",
    "dstebz": "cc" + "p" * 16 + "ll",
    "dstein": "p" * 13,
}
_KINDS = {"c": c_char_p, "p": c_void_p, "l": c_size_t}


def _resolve(path: str) -> tuple[dict, type]:
    """The routines of ``_SIGNATURES`` in the library at path, with their
    argument types declared, and the LAPACK integer type of that build."""
    library = ctypes.CDLL(path)
    tried = []
    for prefix, suffix, integer in _SCHEMES:
        names = {name: f"{prefix}{name}{suffix}" for name in _SIGNATURES}
        missing = [symbol for symbol in names.values() if not hasattr(library, symbol)]
        if missing:
            tried.extend(missing)
            continue
        routines = {}
        for name, symbol in names.items():
            routine = getattr(library, symbol)
            routine.argtypes = [_KINDS[kind] for kind in _SIGNATURES[name]]
            routine.restype = None
            routines[name] = routine
        return routines, integer
    raise ImportError(f"numpy's LAPACK in {path} exports none of the symbols tried: "
                      + ", ".join(tried))


_ROUTINES, _INT = _resolve(numpy.linalg._umath_linalg.__file__)
_INDEX = np.dtype(_INT)  # the numpy type of LAPACK's integer arrays


def _ref(value) -> object:
    """A by-reference LAPACK argument holding value: an integer, or a
    double if value is a float.  It keeps its storage alive through the call."""
    return byref(c_double(value) if isinstance(value, float) else _INT(value))


def address_of(a: Array, size: int, dtype: np.dtype = np.dtype(np.float64)) -> int:
    """The address of a's data, once a is checked to be a writeable
    C-contiguous array of size entries of dtype, as LAPACK reads and writes
    it.  The caller keeps a alive while the address is in use."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and a.flags.writeable and a.size == size):
        raise ValueError(f"LAPACK needs a writeable C-contiguous {dtype} array of {size} "
                         f"entries, got {type(a).__name__} {getattr(a, 'dtype', '')} "
                         f"of shape {getattr(a, 'shape', '')}")
    return a.ctypes.data


class TridiagonalLU:
    """The LU factors of an n x n tridiagonal matrix (``dgttrf``), for solves
    in place (``dgttrs``).

    The factors and the argument tuple of ``dgttrs`` are made once, so a
    solve passes only the address of its right-hand side.  A matrix that
    ``dgttrf`` finds singular, U(k, k) exactly zero, raises
    ``numpy.linalg.LinAlgError`` here, so every solve has factors to use.
    """

    def __init__(self, lower: Array, diag: Array, upper: Array):
        # copies, which the factors overwrite
        bands = [np.array(band, dtype=np.float64) for band in (lower, diag, upper)]
        n = bands[1].size
        if n < 1 or [band.shape for band in bands] != [(n - 1,), (n,), (n - 1,)]:
            raise ValueError("tridiagonal bands of shapes "
                             + ", ".join(str(band.shape) for band in bands))
        self._factors = (*bands, np.empty(max(n - 2, 0)), np.empty(n, dtype=_INDEX))
        pointers = [a.ctypes.data for a in self._factors]
        info = _INT(0)
        _ROUTINES["dgttrf"](_ref(n), *pointers, byref(info))
        if info.value:
            raise LinAlgError(f"dgttrf: U({info.value},{info.value}) is exactly zero")
        # the scalars dgttrs reads and writes live as long as the factors
        self._n, self._one, self._info = _INT(n), _INT(1), _INT(0)
        self._head = (b"N", addressof(self._n), addressof(self._one), *pointers)
        self._tail = (addressof(self._n), addressof(self._info), 1)

    def solve(self, address: int) -> None:
        """Overwrite the n doubles at address, a right-hand side b, with the
        solution x of ``A x = b``.  Take the address from :func:`address_of`."""
        _ROUTINES["dgttrs"](*self._head, address, *self._tail)
        if self._info.value:
            raise ValueError(f"dgttrs: argument {-self._info.value} is illegal")


def _check_band(ab: Array, kl: int, ku: int) -> int:
    """n, once ab is checked to be a writeable Fortran-ordered float64 band
    of an n x n matrix with kl + ku + 1 diagonals and kl rows of fill."""
    if not (isinstance(ab, np.ndarray) and ab.ndim == 2 and ab.dtype == np.float64
            and ab.flags.f_contiguous and ab.flags.writeable and ab.shape[0] >= 2 * kl + ku + 1):
        raise ValueError(f"LAPACK needs a writeable Fortran-ordered float64 band of at "
                         f"least {2 * kl + ku + 1} rows")
    return ab.shape[1]


def dgbtrf(ab: Array, kl: int, ku: int) -> tuple[Array, int]:
    """LU factors of the square band matrix held in ab, in place.

    ab is LAPACK's band storage in Fortran order: entry (k, j) of the matrix
    at row ``kl + ku + k - j``, with the top kl rows as fill space.  Returns
    the pivots, 1-based as LAPACK numbers rows (row k was swapped with row
    ``pivots[k - 1]``), and info, k > 0 if U(k, k) is exactly zero.
    """
    n = _check_band(ab, kl, ku)
    pivots, info = np.empty(n, dtype=_INDEX), _INT(0)
    _ROUTINES["dgbtrf"](_ref(n), _ref(n), _ref(kl), _ref(ku), ab.ctypes.data,
                        _ref(ab.shape[0]), pivots.ctypes.data, byref(info))
    return pivots, info.value


def dgbtrs(lu: Array, kl: int, ku: int, pivots: Array, b: Array) -> None:
    """Overwrite b, one right-hand side, with the solution of ``A x = b``,
    given the factors and pivots :func:`dgbtrf` made of A."""
    n = _check_band(lu, kl, ku)
    info = _INT(0)
    _ROUTINES["dgbtrs"](b"N", _ref(n), _ref(kl), _ref(ku), _ref(1), lu.ctypes.data,
                        _ref(lu.shape[0]), address_of(pivots, n, _INDEX), address_of(b, n),
                        _ref(n), byref(info), 1)
    if info.value:
        raise ValueError(f"dgbtrs: argument {-info.value} is illegal")


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
    n = d.size
    if d.ndim != 1 or n < 1 or e.shape != (n - 1,):
        raise ValueError(f"a diagonal of n >= 1 entries and an off-diagonal of n - 1 "
                         f"are needed, got shapes {d.shape} and {e.shape}")
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    w, iblock, isplit = np.empty(n), np.empty(n, dtype=_INDEX), np.empty(n, dtype=_INDEX)
    work, iwork = np.empty(5 * n), np.empty(3 * n, dtype=_INDEX)
    m, nsplit, info = _INT(0), _INT(0), _INT(0)
    # range "I" selects by index: eigenvalues il..iu = 1..1 (vl, vu unused);
    # abstol 0 asks for full accuracy; order "B" is what dstein expects
    _ROUTINES["dstebz"](b"I", b"B", _ref(n), _ref(0.0), _ref(1.0), _ref(1), _ref(1), _ref(0.0),
                        d.ctypes.data, e.ctypes.data, byref(m), byref(nsplit), w.ctypes.data,
                        iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
                        iwork.ctypes.data, byref(info), 1, 1)
    if info.value != 0:
        raise LinAlgError(f"dstebz did not converge (LAPACK info={info.value})")
    # one row per eigenvector: z is dstein's (n, m) array in Fortran order
    z, ifail = np.empty((m.value, n)), np.empty(m.value, dtype=_INDEX)
    _ROUTINES["dstein"](_ref(n), d.ctypes.data, e.ctypes.data, byref(m), w.ctypes.data,
                        iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, _ref(n),
                        work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, byref(info))
    if info.value != 0:
        raise LinAlgError(f"dstein: {info.value} eigenvectors failed to converge")
    return float(w[0]), z[0]
