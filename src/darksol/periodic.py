"""Positive periodic background states.

Two independent routes to the same object: a damped Newton iteration
on the periodic discretization, and a monotone fixed-point iteration
driven from constant sub- and supersolutions. The second carries an
ordering proof, so it doubles as an oracle for the first.

The object is unique for every problem `validate_problem` accepts
(Brezis & Oswald, Nonlinear Anal. 10, 55, 1986, on the discrete
periodic equation). Write that equation as k D2 u = u Q_i(u), with
Q_i(u) = mu_i + sum_p c_p u^(p-1) (see `Equation`).
- Bracket. At a positive solution's largest node D2 u <= 0, so
  Q_i(u_i) <= 0; at its smallest D2 u >= 0, so Q_i(u_i) >= 0. Solved
  for u with the coefficients' extremes, these are `bracket_bounds`.
- Monotonicity. On the bracket each Q_i is strictly increasing: the
  cubic's lam + g_i u^2 always is; the cubic-quintic's
  lam - V_i + g1 u^2 + u^4 is because rho1^2 (rho1^2 + g1) =
  min V - lam > 0, rho1 the lower bound, so u^2 >= rho1^2 > -g1.
- Uniqueness. Let u, v be positive solutions and t = u_i / v_i the
  largest ratio. If t > 1, then u <= t v with equality at i, so
  D2 u_i <= t D2 v_i, which gives Q_i(u_i) <= Q_i(v_i) though
  u_i > v_i: a contradiction. So u <= v, and by symmetry u = v.
The oracle's `gap_sup`, which bounds the distance between any two
positive solutions of the discrete equation, is the computed
counterpart of this argument.
"""

from dataclasses import dataclass

import numpy as np

from ._banded import factor_cyclic, solve_cyclic
from .errors import BracketViolation, NonConvergence, ValidationError
from .model import Coefficient, Equation, Grid, Problem, Profile

__all__ = [
    "Bracket", "PeriodicOptions", "PeriodicResult", "MonotoneResult",
    "bracket_bounds", "periodic_residual", "solve_periodic",
    "monotone_iteration_oracle",
]

# Sweep budget of the monotone oracle. The largest count measured is
# 29 sweeps (g = 1 + 0.999 sin, lambda = -64), over 450 cubic and
# cubic-quintic backgrounds with amplitudes up to 0.999, lambda from
# -0.01 to -64 and n_per from 64 to 1024; the benchmark's fronts inputs
# take at most 15.
_MAX_SWEEPS = 200


@dataclass(frozen=True)
class Bracket:
    """Constant bounds 0 < lower <= upper enclosing the positive background.

    The bounds coincide exactly when the coefficients are constant.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (0 < self.lower <= self.upper):
            raise ValidationError("bracket needs 0 < lower <= upper")


@dataclass(frozen=True)
class PeriodicOptions:
    residual_tol: float = 1e-10
    max_newton_iters: int = 50
    oracle_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.residual_tol and self.max_newton_iters > 0
                and 0 < self.oracle_tol):
            raise ValidationError("invalid periodic solver options")


@dataclass(frozen=True)
class PeriodicResult:
    """Converged background with its wrap node made explicit.

    `profile` lives on [0, T] with n_per + 1 nodes and repeats node 0 at
    the right end; `coefficient` stores the same data as one period for
    exact integer-indexed extension onto larger grids.
    """

    profile: Profile
    coefficient: Coefficient
    bracket: Bracket
    residual_sup: float
    iterations: int
    clamp_count: int


@dataclass(frozen=True)
class MonotoneResult:
    from_below: Profile
    from_above: Profile
    iterations: int
    gap_sup: float
    history: tuple = ()


def bracket_bounds(problem: Problem) -> Bracket:
    """A-priori constant bounds for the positive background."""
    if problem.is_cubic:
        lower = np.sqrt(-problem.lam / problem.g.cmax)
        upper = np.sqrt(-problem.lam / problem.g.cmin)
    else:
        g1 = problem.g1
        gap1 = problem.potential.cmin - problem.lam
        gap2 = problem.potential.cmax - problem.lam
        # rho^2 solves rho^4 + g1 rho^2 = gap at each extreme of V
        lower = np.sqrt((np.sqrt(g1 * g1 + 4.0 * gap1) - g1) / 2.0)
        upper = np.sqrt((np.sqrt(g1 * g1 + 4.0 * gap2) - g1) / 2.0)
    return Bracket(lower=float(lower), upper=float(upper))


def periodic_residual(problem: Problem, values: np.ndarray) -> np.ndarray:
    """Pointwise residual of the periodic stationary equation."""
    phi = np.asarray(values, dtype=float)
    n = problem.n_per
    if phi.shape != (n,):
        raise ValidationError(f"expected {n} periodic unknowns, got {phi.shape}")
    return _residual(problem.equation(), phi, problem.period / n)


def _residual(eq: Equation, phi: np.ndarray, h: float) -> np.ndarray:
    lap = (np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)) / h**2
    return eq.residual(phi, lap)


def _jacobian_parts(eq: Equation, phi: np.ndarray, h: float):
    off = np.full(phi.shape[0], -eq.k / h**2)
    diag = 2.0 * eq.k / h**2 + eq.mu
    for p, c in eq.powers:
        diag = diag + p * c * phi**(p - 1)
    return off, diag, off


def solve_periodic(problem: Problem, options: PeriodicOptions | None = None
                   ) -> PeriodicResult:
    """Damped Newton solve for the positive periodic background.

    Starts from the bracket midpoint. Iterates are clamped back into
    the bracket; needing that clamp more than once means the iteration
    is not trustworthy and raises BracketViolation. A residual_tol below
    the residual's rounding floor eps k rho / h^2, rho the bracket
    midpoint, is refused with a ValidationError before any work is
    done: that is one rounding unit of the stencil term k phi / h^2,
    and about where Newton's residual stalls, so a tolerance just above
    it may still stall.
    """
    options = options or PeriodicOptions()
    bracket = bracket_bounds(problem)
    eq = problem.equation()
    n = problem.n_per
    h = problem.period / n
    start = 0.5 * (bracket.lower + bracket.upper)
    floor = np.finfo(float).eps * eq.k * start / h**2
    if options.residual_tol < floor:
        raise ValidationError(
            f"residual_tol {options.residual_tol:.3e} is below the rounding "
            f"floor {floor:.3e} of the periodic residual on this grid")
    phi = np.full(n, start)
    res = _residual(eq, phi, h)
    sup = float(np.max(np.abs(res)))
    clamp_count = 0
    iterations = 0
    for iterations in range(options.max_newton_iters + 1):
        if sup <= options.residual_tol:
            break
        if iterations == options.max_newton_iters:
            raise NonConvergence(
                f"periodic Newton stalled at residual {sup:.3e}",
                final_residual=sup, iterations=iterations)
        lower_d, diag, upper_d = _jacobian_parts(eq, phi, h)
        delta = solve_cyclic(lower_d, diag, upper_d, -res)
        t = 1.0
        accepted = False
        for _ in range(30):
            trial = phi + t * delta
            trial_res = _residual(eq, trial, h)
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NonConvergence(
                f"periodic Newton line search failed at residual {sup:.3e}",
                final_residual=sup, iterations=iterations + 1)
        clamped = np.clip(trial, bracket.lower, bracket.upper)
        if not np.array_equal(clamped, trial):
            clamp_count += 1
            if clamp_count > 1:
                raise BracketViolation(
                    "periodic iterate left the bracket more than once")
            trial = clamped
            trial_res = _residual(eq, trial, h)
            trial_sup = float(np.max(np.abs(trial_res)))
        phi, res, sup = trial, trial_res, trial_sup
    profile, coefficient = _package_background(problem, phi)
    return PeriodicResult(profile=profile, coefficient=coefficient,
                          bracket=bracket, residual_sup=sup,
                          iterations=iterations, clamp_count=clamp_count)


def _package_background(problem: Problem, phi: np.ndarray):
    n = problem.n_per
    grid = Grid(xmin=0.0, xmax=problem.period, n=n + 1)
    wrapped = np.concatenate([phi, phi[:1]])
    profile = Profile(grid=grid, values=wrapped)
    coefficient = Coefficient(samples=phi, period=problem.period)
    return profile, coefficient


def _forcing(eq: Equation, phi: np.ndarray) -> np.ndarray:
    """F with the equation written as phi'' = F(phi)."""
    out = eq.mu * phi
    for p, c in eq.powers:
        out = out + c * phi**p
    return out / eq.k


def _forcing_slope(eq: Equation, phi: np.ndarray) -> np.ndarray:
    """F' = (mu + sum_p p c_p phi^(p-1)) / k, pointwise."""
    out = eq.mu
    for p, c in eq.powers:
        out = out + p * c * phi**(p - 1)
    return out / eq.k


def monotone_iteration_oracle(problem: Problem, tol: float = 1e-10,
                              record: bool = False) -> MonotoneResult:
    """Monotone sweeps from the constant sub- and supersolution.

    Each sweep solves (D2 - K) phi_new = F(phi) - K phi for both ends of
    the current sector [below, above], with the pointwise shift
    K = max(0, F'(below), F'(above)). The sum in F' is linear (cubic) or
    convex (cubic-quintic) in phi^2, so K bounds F' over the whole
    sector, which holds every later iterate; the clamp at 0 keeps
    K - D2 a diagonally dominant Z-matrix, an M-matrix once K > 0
    somewhere. So the lower sweep increases, the upper sweep decreases,
    and they enclose the background at every iteration up to rounding.
    As the sector closes, K tends to F' at the background and the sweeps
    become Newton steps, so convergence is quadratic; the shifted
    matrix changes with the sector and is factored once per sweep.
    """
    bracket = bracket_bounds(problem)
    eq = problem.equation()
    n = problem.n_per
    h = problem.period / n
    off = np.full(n, 1.0 / h**2)

    below = np.full(n, bracket.lower)
    above = np.full(n, bracket.upper)
    history = []
    done_below = done_above = False
    iterations = 0
    for iterations in range(1, _MAX_SWEEPS + 1):
        shift = np.maximum(np.maximum(_forcing_slope(eq, below),
                                      _forcing_slope(eq, above)), 0.0)
        if not np.any(shift > 0):
            raise NonConvergence("monotone shift is nowhere positive",
                                 iterations=iterations)
        solve = factor_cyclic(off, -2.0 / h**2 - shift, off)
        if not done_below:
            new_below = solve(_forcing(eq, below) - shift * below)
            done_below = float(np.max(np.abs(new_below - below))) < tol
            below = new_below
        if not done_above:
            new_above = solve(_forcing(eq, above) - shift * above)
            done_above = float(np.max(np.abs(new_above - above))) < tol
            above = new_above
        if record:
            history.append((below.copy(), above.copy()))
        if done_below and done_above:
            break
    else:
        raise NonConvergence("monotone iteration did not converge",
                             iterations=_MAX_SWEEPS)
    gap = float(np.max(above - below))
    prof_below, _ = _package_background(problem, below)
    prof_above, _ = _package_background(problem, above)
    return MonotoneResult(from_below=prof_below, from_above=prof_above,
                          iterations=iterations, gap_sup=gap,
                          history=tuple(history))
