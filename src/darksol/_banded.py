"""Tridiagonal and cyclic-tridiagonal linear solves.

Thin wrappers over LAPACK's tridiagonal LU. The cyclic variant handles
the periodic discretizations via a rank-one (Sherman-Morrison) update
of the open-chain system, so nothing here is ever densified, and it can
be factored once for a matrix that many right-hand sides share.

This is the one module that names scipy. At the first linear solve
(`lapack`) it loads scipy's compiled LAPACK extension, and only that:
the `scipy.linalg` package, whose import pulls in scipy's array-API
layer, is never imported. Importing darksol, or re-checking a stored
run with `verify`, loads no scipy at all.
"""

import os
import sys
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import SingularLinearization

__all__ = ["solve_tridiagonal", "solve_cyclic", "factor_cyclic",
           "is_positive_definite", "lapack"]


_FLAPACK = "scipy.linalg._flapack"


@cache
def lapack():
    """scipy's LAPACK extension module, loaded on the first call and
    bound from then on; a forked worker inherits a parent's binding.

    Its routines are the ones `scipy.linalg.lapack` hands out. The
    module is loaded from its file in scipy's `linalg` folder under its
    own dotted name, so a later `import scipy.linalg` finds and reuses
    it; the light top-level `scipy` package is imported first for that
    folder and for its shared-library set-up.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy
    folder = os.path.join(scipy.__path__[0], "linalg")
    spec = PathFinder.find_spec(_FLAPACK, [folder])
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {folder}",
                          name=_FLAPACK)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


@cache
def _gtsv(dtype):
    """LAPACK's ?gtsv for one of the two working types: zgtsv for
    complex128, dgtsv for float64."""
    return lapack().zgtsv if dtype == np.complex128 else lapack().dgtsv


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve A y = rhs for tridiagonal A.

    lower[i] multiplies y[i-1] in row i (lower[0] ignored), upper[i]
    multiplies y[i+1] (upper[-1] ignored). Solves in complex128 when
    any argument is complex and in float64 otherwise; raises
    SingularLinearization if the factorization fails.
    Finiteness is the caller's contract: nothing scans for nans, which
    keeps the hot path cheap and lets divergence checks see them.
    The solve is in place: LAPACK works in the four arrays and leaves
    them clobbered, with no copies when they are contiguous and of the
    working type. So they must share no memory, and a caller that reads
    them again passes copies.
    """
    dtype = (np.complex128 if np.result_type(lower, diag, upper, rhs).kind
             == "c" else np.float64)
    _, _, _, y, info = _gtsv(dtype)(
        np.asarray(lower, dtype=dtype)[1:], np.asarray(diag, dtype=dtype),
        np.asarray(upper, dtype=dtype)[:-1], np.asarray(rhs, dtype=dtype),
        overwrite_dl=True, overwrite_d=True, overwrite_du=True,
        overwrite_b=True)
    if info != 0:
        raise SingularLinearization(
            f"tridiagonal solve has a zero pivot at row {info}")
    return y


def is_positive_definite(diag, upper) -> bool:
    """Whether the symmetric tridiagonal matrix with diagonal `diag` and
    off-diagonal upper[:-1] (upper[-1] ignored) is positive definite:
    exactly when its LDL^T factorization has positive pivots (dpttrf,
    O(n)).
    """
    _, _, info = lapack().dpttrf(diag, upper[:-1])
    return info == 0


def solve_cyclic(lower, diag, upper, rhs):
    """Solve the periodic tridiagonal system A y = rhs once, for one
    right side of length n; see `factor_cyclic` for the layout of A."""
    return factor_cyclic(lower, diag, upper)(rhs)


def factor_cyclic(lower, diag, upper):
    """Factor the periodic tridiagonal A once and return its solver.

    Row i couples indices (i-1) % n, i, (i+1) % n with weights
    lower[i], diag[i], upper[i]; the wrap entries A[0, n-1] = lower[0]
    and A[n-1, 0] = upper[n-1] are folded in by a rank-one update whose
    correction vector is solved here, so each call of the returned
    `solve(rhs)`, for one right side of length n, costs one pair of
    triangular sweeps. Requires n >= 3; raises SingularLinearization if
    A is singular.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = diag.shape[0]
    if n < 3:
        raise ValueError("cyclic solve needs at least 3 unknowns")

    alpha = lower[0]   # A[0, n-1]
    beta = upper[-1]   # A[n-1, 0]
    # A = T + u v^T with u = (gamma, 0, .., 0, beta),
    # v = (1, 0, .., 0, alpha/gamma); zero wrap entries need no case.
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    bindings = lapack()
    dl, d, du, du2, ipiv, info = bindings.dgttrf(lower[1:], d, upper[:-1])
    if info != 0:
        raise SingularLinearization(
            f"tridiagonal factor has a zero pivot at row {info}")
    dgttrs = bindings.dgttrs

    def solve_open(rhs):
        y, _ = dgttrs(dl, d, du, du2, ipiv, np.asarray(rhs, dtype=float))
        return y

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = beta
    z = solve_open(u)
    ratio = alpha / gamma
    denom = 1.0 + z[0] + ratio * z[-1]
    # A singular A leaves the denominator at the rounding level of its
    # three terms, not at zero; a nan or inf fails the test as well.
    scale = 1.0 + abs(z[0]) + abs(ratio * z[-1])
    if not abs(denom) > 16.0 * np.finfo(float).eps * scale:
        raise SingularLinearization("cyclic correction is singular")

    def solve(rhs):
        y = solve_open(rhs)
        return y - z * ((y[0] + ratio * y[-1]) / denom)

    return solve
