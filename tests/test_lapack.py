"""Tests of flocstat's LAPACK wrappers: the routines of numpy's own LAPACK,
called with ctypes, agree bit for bit with scipy's, which the tests alone use
as the oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.random._generator
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import lapack as oracle

import flocstat as fs
from flocstat import _lapack
from flocstat.cli import build_initial_state
from flocstat.operators import operator_bands, peclet_admissible
from flocstat.pde import DT_INIT, _Stepper
from conftest import floc_kinetics, standard_params

SRC = Path(fs.__file__).resolve().parents[1]


def test_a_later_scipy_linalg_import_still_works_and_agrees():
    """In a fresh interpreter flocstat resolves its routines first; scipy.linalg,
    imported afterwards, loads its own LAPACK, works as usual and agrees."""
    code = (
        "import numpy as np, flocstat._lapack as F, scipy.linalg\n"
        "d, e = np.full(4, 2.0), np.full(3, -1.0)\n"
        "w, v = scipy.linalg.eigh_tridiagonal(d, e, select='i', select_range=(0, 0))\n"
        "value, vector = F.smallest_eigenpair(d, e)\n"
        "assert value == w[0] and vector.tobytes() == v[:, 0].tobytes()\n"
        "b = np.arange(4.0)\n"
        "x = scipy.linalg.solve_banded((1, 1), np.stack([np.r_[0, e], d, np.r_[e, 0]]), b)\n"
        "F.TridiagonalLU(e, d, e).solve(F.address_of(b, 4))\n"
        "assert np.allclose(b, x, rtol=1e-15, atol=0)\n"
        "print(np.round(scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True), 12).tolist())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    expected = np.round(2.0 - 2.0 * np.cos(np.arange(1, 5) * np.pi / 5), 12).tolist()
    assert done.stdout.strip() == str(expected)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_one_openblas_is_mapped_after_importing_the_cli(tmp_path):
    """numpy's OpenBLAS serves flocstat's LAPACK, so no second build is
    loaded, neither by the import nor by a steady solve."""
    code = (
        "import contextlib, io\n"
        "def openblas():\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        paths = {line.split(maxsplit=5)[-1].strip() for line in maps}\n"
        "    return len({p for p in paths if 'openblas' in Path(p).name.lower()})\n"
        "from pathlib import Path\n"
        "import flocstat.cli\n"
        "print(openblas())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    flocstat.cli.main(['steady', '--preset', 'fig2a', '--out', 'out'])\n"
        "print(openblas())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]


EIGEN_CASES = [(d, n) for d in (1.0, 0.1, 0.01, 0.0011) for n in (201, 501, 4001)
               if peclet_admissible(d, n)]


# the ids name the stencil: its Robin row sits at the inflow
@pytest.mark.parametrize("d, n", EIGEN_CASES, ids=[f"{d}-{n}-inflow_robin" for d, n in EIGEN_CASES])
def test_smallest_eigenpair_is_bit_identical_to_eigh_tridiagonal(d, n):
    from scipy.linalg import eigh_tridiagonal

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


def test_smallest_eigenpair_rejects_mismatched_bands():
    with pytest.raises(ValueError, match="off-diagonal of n - 1"):
        _lapack.smallest_eigenpair(np.full(16, 2.0), np.full(16, -1.0))


def test_unresolved_symbols_name_the_symbols_tried():
    """A library that exports no LAPACK (numpy's random generator links
    none) fails with every naming scheme, and the error lists the symbols."""
    with pytest.raises(ImportError, match="exports none of the symbols tried") as caught:
        _lapack._resolve(numpy.random._generator.__file__)
    for symbol in ("scipy_dgttrf_64_", "dgttrf_64_", "dgttrf_", "scipy_dstein_64_", "dstein_"):
        assert symbol in str(caught.value).split(": ")[-1].split(", ")


def test_only_this_module_imports_scipy():
    package = Path(fs.__file__).resolve().parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        if any(line.lstrip().startswith(("import scipy", "from scipy"))
               for line in path.read_text().splitlines())
    )
    assert importers == ["_lapack.py"]


# DT_INIT and two rungs of the ladder DT_INIT * 2**k, one down and one up
LADDER = (DT_INIT, DT_INIT * 2.0**-6, DT_INIT * 2.0**5)


@pytest.mark.parametrize("preset", fs.available_presets())
def test_tridiagonal_lu_and_solve_match_scipy_bit_for_bit(preset):
    """The stepper's factors of ``I + dt*A`` and a solve of its explicit
    stage against them are scipy's dgttrf and dgttrs, byte for byte."""
    config = fs.load_preset(preset)
    grid = fs.Grid(config.controls.grid_n)
    stepper = _Stepper(config.params, config.kin, grid)
    W = build_initial_state(config, grid).stack()
    A = stepper.A
    for dt in LADDER:
        lu = stepper.factors(dt)
        *expected, info = oracle.dgttrf(dt * A[2, :-1], dt * A[1] + 1.0, dt * A[0, 1:])
        assert info == 0
        for got, want in zip(lu._factors, expected):  # dl, d, du, du2, 1-based pivots
            assert got.tobytes() == want.astype(got.dtype).tobytes()
        rhs = stepper.stage(W, stepper.rate(W), dt, stepper._coarse).reshape(-1)
        want = oracle.dgttrs(*expected, rhs)[0]
        lu.solve(_lapack.address_of(rhs, rhs.size))
        assert rhs.tobytes() == want.tobytes()


def dense_from_band(band):
    """The square matrix of a (10, N) band array, kl = ku = 3."""
    N = band.shape[1]
    dense = np.zeros((N, N))
    for j in range(N):
        for k in range(max(0, j - 3), min(N, j + 4)):
            dense[k, j] = band[6 + k - j, j]
    return dense


@pytest.mark.parametrize("preset, unstable", [("fig2a", False), ("blowup_demo", True)])
def test_band_lu_step_and_parity_match_scipy_bit_for_bit(preset, unstable):
    """At the preset's steady root, dgbtrf and dgbtrs on the negated
    Jacobian band give scipy's LU and step byte for byte, with the pivots one
    above scipy's 0-based ones, and the parity of the swaps and negative
    pivots is the sign of det(-J) that flags the root unstable."""
    config = fs.load_preset(preset)
    grid = fs.Grid(config.controls.grid_n)
    initial = build_initial_state(config, grid)
    state = fs.fixed_point_solve((np.clip(1.0 - initial.S, 0.0, None), initial.u[0],
                                  initial.v[0]), config.params, config.kin)
    assert state.converged and state.unstable == unstable
    X = np.stack([state.Stilde, state.u, state.v])
    op = fs.steady._SteadyOperator(config.params, config.kin, grid.n)
    band = np.negative(op.jacobian_bands(X))
    assert band.flags.f_contiguous
    sign = np.linalg.slogdet(dense_from_band(band))[0]
    ref_lu, ref_pivots, ref_info = oracle.dgbtrf(band.copy(order="F"), 3, 3)

    pivots, info = _lapack.dgbtrf(band, 3, 3)
    assert info == ref_info == 0
    assert band.tobytes() == ref_lu.tobytes()
    np.testing.assert_array_equal(pivots, ref_pivots + 1)

    step = op.defect(X).T.reshape(-1)
    want = oracle.dgbtrs(ref_lu, 3, 3, step.copy(), ref_pivots)[0]
    _lapack.dgbtrs(band, 3, 3, pivots, step)
    assert step.tobytes() == want.tobytes()

    swaps = np.count_nonzero(pivots != np.arange(1, pivots.size + 1))
    ref_swaps = np.count_nonzero(ref_pivots != np.arange(ref_pivots.size))
    parity = (swaps + np.count_nonzero(band[6] < 0.0)) % 2
    assert parity == (ref_swaps + np.count_nonzero(ref_lu[6] < 0.0)) % 2
    assert parity == (sign < 0) == unstable


def test_singular_transport_matrix_raises_in_factors():
    """dt = 0.5 against A = -2 I makes ``I + dt*A`` the zero matrix: the
    stepper names dt, says why, and caches nothing."""
    stepper = _Stepper(standard_params(), floc_kinetics(), fs.Grid(21))
    stepper.A = np.zeros_like(stepper.A)
    stepper.A[1] = -2.0
    with pytest.raises(LinAlgError, match="transport matrix for dt=0.5 is singular") as caught:
        stepper.factors(0.5)
    assert str(caught.value.__cause__) == "dgttrf: U(1,1) is exactly zero"
    assert stepper._factors == {}


def test_zero_pivot_raises_when_factoring():
    """dgttrf's zero pivot stops the construction, as scipy's info reports it."""
    lower, diag, upper = np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2)
    assert oracle.dgttrf(lower, diag, upper)[-1] == 2
    with pytest.raises(LinAlgError, match=r"^dgttrf: U\(2,2\) is exactly zero$"):
        _lapack.TridiagonalLU(lower, diag, upper)


def test_singular_band_reports_its_zero_pivot():
    band = np.zeros((10, 12), order="F")
    band[6] = 1.0
    band[6, 4] = 0.0
    pivots, info = _lapack.dgbtrf(band, 3, 3)
    assert info == oracle.dgbtrf(band.copy(order="F"), 3, 3)[2] == 5


def test_wrappers_refuse_arrays_lapack_cannot_take():
    good = np.zeros(6)
    assert _lapack.address_of(good, 6) == good.ctypes.data
    for bad in (np.zeros(5), np.zeros(12)[::2], np.zeros(6, dtype=np.float32), [0.0] * 6):
        with pytest.raises(ValueError, match="C-contiguous float64 array of 6 entries"):
            _lapack.address_of(bad, 6)
    with pytest.raises(ValueError, match="Fortran-ordered float64 band of at least 10 rows"):
        _lapack.dgbtrf(np.zeros((10, 12)), 3, 3)
    with pytest.raises(ValueError, match="Fortran-ordered float64 band of at least 10 rows"):
        _lapack.dgbtrf(np.zeros((9, 12), order="F"), 3, 3)
    with pytest.raises(ValueError, match=r"tridiagonal bands of shapes \(3,\), \(3,\), \(2,\)"):
        _lapack.TridiagonalLU(np.zeros(3), np.ones(3), np.zeros(2))
