"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own discretizations:
closed forms where they exist, high-order adaptive quadrature where
they do not, so solver output is checked against something it cannot
share a bug with.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from darksol import Problem, sample_coefficient


def cubic_front_exact(x, lam):
    """Closed-form front ratio for constant coefficients: tanh(sqrt(-lam) x)."""
    return np.tanh(np.sqrt(-lam) * np.asarray(x))


def quintic_front_exact_g1zero(x):
    """Closed form for the constant case with no cubic interaction term."""
    t = np.tanh(np.asarray(x))
    return np.sqrt(2.0) * t / np.sqrt(3.0 - t * t)


def quintic_front_oracle(x, b_coef, c_coef):
    """Quadrature oracle for the constant-coefficient reduced front.

    Integrates the first-order reduction w' = (1 - w^2) *
    sqrt(b/2 + c (w^2 + 2) / 3) from w(0) = 0 and extends oddly.
    Requires a symmetric grid.
    """
    x = np.asarray(x)
    xp = x[x >= 0]

    def rhs(_, y):
        w = y[0]
        return [(1.0 - w * w)
                * np.sqrt(b_coef / 2.0 + c_coef * (w * w + 2.0) / 3.0)]

    sol = solve_ivp(rhs, (0.0, float(xp[-1]) + 1.0), [0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    wp = sol.sol(xp)[0]
    left = -wp[1:][::-1] if x[0] < 0 else np.empty(0)
    return np.concatenate([left, wp])


def constant_cubic(lam=-1.0, n_per=256, gval=1.0):
    g = sample_coefficient(f"{gval!r}", 1.0, n_per, positive=True)
    return Problem(kind="cubic", lam=lam, period=1.0, g=g)


def sinusoidal_cubic(lam=-1.0, n_per=256, amp=0.5):
    g = sample_coefficient(f"1 + {amp!r}*sin(2*pi*x)", 1.0, n_per,
                           positive=True)
    return Problem(kind="cubic", lam=lam, period=1.0, g=g)


def constant_quintic(lam=-1.0, n_per=256, g1=0.0):
    pot = sample_coefficient("0", 1.0, n_per)
    return Problem(kind="cubic-quintic", lam=lam, period=1.0,
                   potential=pot, g1=g1)


def sinusoidal_quintic(lam=-1.0, n_per=256, amp=0.3, g1=0.5):
    pot = sample_coefficient(f"{amp!r}*cos(2*pi*x)", 1.0, n_per)
    return Problem(kind="cubic-quintic", lam=lam, period=1.0,
                   potential=pot, g1=g1)


def attractive_quintic():
    """g1 = -20, far into the attractive cubic regime, on a short period
    so that the steep front (decay rate about 28) leaves a fittable
    tail at automatic truncation."""
    pot = sample_coefficient("0.3*cos(10*pi*x)", 0.2, 32)
    return Problem(kind="cubic-quintic", lam=-1.0, period=0.2,
                   potential=pot, g1=-20.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
