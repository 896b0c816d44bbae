import re
import sys

import numpy as np
import pytest
import scipy
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from darksol import _banded
from darksol._banded import (factor_cyclic, is_positive_definite,
                             solve_cyclic, solve_tridiagonal)
from darksol.errors import SingularLinearization


def dense_tridiagonal(lower, diag, upper, cyclic=False):
    n = len(diag)
    a = np.diag(diag).astype(complex if np.iscomplexobj(diag) else float)
    a = a + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    if cyclic:
        a[0, -1] = lower[0]
        a[-1, 0] = upper[-1]
    return a


def copies(*arrays):
    """Fresh copies for a solve that works in its arguments, so the
    originals stay for the dense reference."""
    return [a.copy() for a in arrays]


def test_tridiagonal_matches_dense(rng):
    n = 40
    lower = rng.standard_normal(n)
    upper = rng.standard_normal(n)
    diag = 4.0 + rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    y = solve_tridiagonal(*copies(lower, diag, upper, rhs))
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-13)


def test_tridiagonal_complex_weak_diagonal_matches_dense(rng):
    # complex data with a diagonal too weak for dominance, so the solve
    # has to pivot
    n = 301
    lower = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    upper = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = solve_tridiagonal(*copies(lower, diag, upper, rhs))
    assert y.dtype == complex
    dense = dense_tridiagonal(lower, diag, upper)
    np.testing.assert_allclose(dense @ y, rhs, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(y, np.linalg.solve(dense, rhs), rtol=1e-8)


def test_tridiagonal_complex(rng):
    n = 25
    lower = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    upper = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag = 5.0 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = solve_tridiagonal(*copies(lower, diag, upper, rhs))
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiagonal_overwrite_contract(rng, dtype):
    # The solve works in the caller's four arrays, with no copy: the
    # solution is written into the right side, and the bits are those of
    # LAPACK's own routine on fresh copies.
    n = 30

    def draw(shift=0.0):
        x = shift + rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if dtype is complex else x

    args = (draw(), draw(5.0), draw(), draw())
    gtsv = get_lapack_funcs(("gtsv",), dtype=np.dtype(dtype))[0]
    want = gtsv(args[0][1:], args[1].copy(), args[2][:-1],
                args[3].copy())[3]
    work = copies(*args)
    y = solve_tridiagonal(*work)
    assert y.tobytes() == want.tobytes()
    assert np.shares_memory(y, work[3])


def test_cyclic_matches_dense(rng):
    n = 40
    lower = rng.standard_normal(n)
    upper = rng.standard_normal(n)
    diag = 5.0 + rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    y = solve_cyclic(lower, diag, upper, rhs)
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper, cyclic=True),
                           rhs)
    np.testing.assert_allclose(y, want, rtol=1e-11, atol=1e-12)


def test_cyclic_laplacian_style_system():
    # discrete periodic -y'' + y = f, the shape the periodic solver produces
    n = 128
    h = 1.0 / n
    lower = np.full(n, -1.0 / h**2)
    upper = np.full(n, -1.0 / h**2)
    diag = np.full(n, 2.0 / h**2 + 1.0)
    x = np.arange(n) * h
    f = np.sin(2 * np.pi * x)
    y = solve_cyclic(lower, diag, upper, f)
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper, cyclic=True),
                           f)
    np.testing.assert_allclose(y, want, rtol=1e-11, atol=1e-14)
    # periodic residual check, independent of any dense factorization
    res = (-np.roll(y, 1) - np.roll(y, -1) + 2 * y) / h**2 + y - f
    assert np.max(np.abs(res)) < 1e-9


def test_cyclic_falls_back_without_wrap_entries(rng):
    # with both wrap entries zero the rank-one update leaves the open
    # chain's solution
    n = 12
    lower = rng.standard_normal(n)
    upper = rng.standard_normal(n)
    lower[0] = 0.0
    upper[-1] = 0.0
    diag = 4.0 + rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    y = solve_cyclic(lower, diag, upper, rhs)
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-13)


def test_singular_matrix_is_reported():
    n = 6
    zeros = np.zeros(n)
    with pytest.raises(SingularLinearization):
        solve_tridiagonal(zeros, zeros, zeros, np.ones(n))


def test_cyclic_needs_three_unknowns():
    with pytest.raises(ValueError):
        solve_cyclic(np.ones(2), np.ones(2), np.ones(2), np.ones(2))


def test_factored_cyclic_solver_is_reusable(rng):
    n = 50
    lower = rng.standard_normal(n)
    upper = rng.standard_normal(n)
    diag = 5.0 + rng.standard_normal(n)
    dense = dense_tridiagonal(lower, diag, upper, cyclic=True)
    solve = factor_cyclic(lower, diag, upper)
    for _ in range(4):
        rhs = rng.standard_normal(n)
        y = solve(rhs)
        np.testing.assert_allclose(y, np.linalg.solve(dense, rhs),
                                   rtol=1e-11, atol=1e-12)
        # reuse gives the bits of a fresh factorization
        np.testing.assert_array_equal(y, factor_cyclic(lower, diag,
                                                        upper)(rhs))
        np.testing.assert_array_equal(y, solve_cyclic(lower, diag, upper,
                                                      rhs))


def test_factored_cyclic_singular_matrix_is_reported():
    # exactly singular, caught by each of the three checks: a zero pivot
    # of the open chain, then with wrap entries a zero pivot of the
    # modified chain and a rank-one denominator at rounding level; the
    # periodic second difference leaves that denominator at +-5.6e-17
    n = 4
    ones = np.ones(n)
    cases = [(np.zeros(n), np.zeros(n), np.zeros(n)),
             (ones, np.array([1.0, 1.0, 1.0, -2.0]), ones),
             (ones, np.array([1.0, -2.0, 1.0, 1.0]), ones)]
    cases += [(np.ones(m), np.full(m, -2.0), np.ones(m))
              for m in (3, 4, 5, 6, 8, 16, 64, 256)]
    for lower, diag, upper in cases:
        assert abs(np.linalg.det(dense_tridiagonal(lower, diag, upper,
                                                   cyclic=True))) < 1e-12
        with pytest.raises(SingularLinearization):
            factor_cyclic(lower, diag, upper)


def lowest_eigenvalue(diag, upper):
    return eigh_tridiagonal(diag, upper[:-1], eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


def test_positive_definite_matches_lowest_eigenvalue(rng):
    # the LDL^T pivots against a route that shares no factorization with
    # them: one band shifted just above its lowest eigenvalue, one just
    # below; upper[-1] is outside the matrix and never read
    n = 40
    diag = rng.standard_normal(n)
    upper = rng.standard_normal(n)
    upper[-1] = np.nan
    lowest = lowest_eigenvalue(diag, upper)
    for shift, definite in ((1e-3, True), (-1e-3, False)):
        band = diag - lowest + shift
        assert (lowest_eigenvalue(band, upper) > 0.0) == definite
        assert is_positive_definite(band, upper) == definite


@pytest.mark.parametrize("dtype", [
    np.int8, np.int64, np.float16, np.float32, np.float64, np.longdouble,
    np.complex64, np.complex128, np.clongdouble])
def test_gtsv_is_the_routine_scipy_picks(dtype):
    # bands of any type solve in one of the two working types, complex128
    # for complex data and float64 otherwise, with the extension's own
    # routine object that scipy's type rule picks for that type
    work = np.complex128 if np.dtype(dtype).kind == "c" else np.float64
    bands = [np.array(band, dtype=dtype)
             for band in ([0, 1, 1, 1], [4, 4, 4, 4], [1, 1, 1, 0],
                          [1, 2, 3, 4])]
    assert solve_tridiagonal(*bands).dtype == work
    assert _banded._gtsv(work) is get_lapack_funcs(("gtsv",),
                                                   dtype=work)[0]


def test_tridiagonal_integer_bands_solve_in_float64():
    lower = np.array([0, 1, 1, 1])
    diag = np.array([4, 4, 4, 4])
    upper = np.array([1, 1, 1, 0])
    rhs = np.array([1, 2, 3, 4])
    y = solve_tridiagonal(*copies(lower, diag, upper, rhs))
    assert y.dtype == np.float64
    want = np.linalg.solve(dense_tridiagonal(lower, diag, upper), rhs)
    np.testing.assert_allclose(y, want, rtol=1e-14)


def test_missing_lapack_extension_names_the_folder(tmp_path, monkeypatch):
    # a scipy whose linalg folder holds no extension: the loader has no
    # second route, it fails naming where it looked
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                        raising=False)
    folder = re.escape(str(tmp_path / "linalg"))
    _banded.lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=folder):
            _banded.lapack()
    finally:
        _banded.lapack.cache_clear()
