"""Tests that flocstat's LAPACK routines are scipy's own, loaded without scipy.linalg."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flocstat as fs
from flocstat import _lapack
from flocstat.operators import operator_bands, peclet_admissible


def test_routines_are_scipys_own_after_a_later_scipy_linalg_import():
    """In a fresh interpreter flocstat loads _flapack first; scipy.linalg,
    imported afterwards, must reuse that module and work as usual."""
    src = Path(fs.__file__).resolve().parents[1]
    code = (
        "import numpy as np, flocstat._lapack as F, scipy.linalg, scipy.linalg.lapack as L\n"
        "from scipy.linalg import _flapack\n"
        "assert _flapack is F._flapack\n"
        "assert all(a is b for a, b in zip((F.dgttrf, F.dgttrs, F.dtbtrs),\n"
        "                                  (L.dgttrf, L.dgttrs, L.dtbtrs)))\n"
        "w = scipy.linalg.eigh_tridiagonal(np.full(4, 2.0), np.full(3, -1.0), eigvals_only=True)\n"
        "print(np.round(w, 12).tolist())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    expected = np.round(2.0 - 2.0 * np.cos(np.arange(1, 5) * np.pi / 5), 12).tolist()
    assert done.stdout.strip() == str(expected)


EIGEN_CASES = [(d, n) for d in (1.0, 0.1, 0.01, 0.0011) for n in (201, 501, 4001)]


# the ids name the stencil: its Robin row sits at the inflow
@pytest.mark.parametrize("d, n", EIGEN_CASES, ids=[f"{d}-{n}-inflow_robin" for d, n in EIGEN_CASES])
def test_smallest_eigenpair_is_bit_identical_to_eigh_tridiagonal(d, n):
    from scipy.linalg import eigh_tridiagonal

    if not peclet_admissible(d, n):
        pytest.skip(f"the Peclet rule rejects d={d} at n={n}")
    # the symmetrized matrix solve_principal hands to LAPACK
    ab = operator_bands(d, n)
    diag, off = ab[1], -np.sqrt(ab[0, 1:] * ab[2, :-1])
    values, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    value, vector = _lapack.smallest_eigenpair(diag, off)
    assert np.float64(value).tobytes() == values[0].tobytes()
    assert vector.tobytes() == vectors[:, 0].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_smallest_eigenpair_rejects_non_finite_input(bad, where):
    diag, off = np.full(16, 2.0), np.full(15, -1.0)
    (diag if where == "diagonal" else off)[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.smallest_eigenpair(diag, off)


def test_missing_extension_names_the_scipy_version(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no compiled _flapack"):
        _lapack._load_flapack()


def test_only_this_module_imports_scipy():
    package = Path(fs.__file__).resolve().parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        if any(line.lstrip().startswith(("import scipy", "from scipy"))
               for line in path.read_text().splitlines())
    )
    assert importers == ["_lapack.py"]
