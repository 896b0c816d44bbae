"""Positive periodic background states.

Newton's method on the periodic discretization, started from the
constant supersolution, certifies its own answer with a sub- and
supersolution pair one more solve with its last Jacobian away (the
enclosure below). A monotone fixed-point iteration driven from the
constant sub- and supersolutions reaches the same object by a second
route; it is kept as an independent oracle for the first.

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

Newton from the supersolution falls monotonically to the background
phi+ (Ortega & Rheinboldt, Iterative Solution of Nonlinear Equations
in Several Variables, 1970, Thm 13.3.4). Write the residual as
G(u) = -k D2 u + f(u), f_i(u) = u Q_i(u), with Jacobian
J(u) = -k D2 + diag f'(u).
- Convexity. On the bracket f is convex: f'' = 6 g u > 0 for the
  cubic, and 2 u (3 g1 + 10 u^2) > 0 for the cubic-quintic, because
  u^2 > -g1 there.
- M-matrix. J(phi+) is the singular M-matrix -k D2 + diag Q(phi+),
  whose null vector is phi+ itself, plus the diagonal
  f'(phi+) - f(phi+)/phi+ = phi+ Q'(phi+) > 0; so it is a nonsingular
  M-matrix, with a positive inverse. f' increases with u, so J only
  grows above phi+ and stays one there.
- Descent. G(upper) >= 0, since Q_i(upper) >= 0 at every node. Let
  u >= phi+ with G(u) >= 0, and u' = u - J(u)^-1 G(u). Then u' <= u,
  strictly at every node unless G(u) = 0, as J(u)^-1 > 0. Convexity
  gives G(u) <= J(u) (u - phi+), so u' - phi+ >= 0, and
  G(u') >= G(u) + J(u) (u' - u) = 0. By induction every iterate is a
  supersolution above phi+, each step lowers every node strictly, and
  the iterates converge to phi+, quadratically at the end.
In floating point a node whose exact move is below half an ulp may stay
or step back while others are far off (a wide plateau of g at large
|lambda|), so both routes take their steps by `_advance`: above the
residual's rounding floor such a move is cut back; at the floor the
first step that fails to move every node is noise and ends the solve.

Enclosure. With phi_N Newton's last iterate and floor(u) the rounding
floor of the residual at u (`_rounding_floor`), one more cyclic solve
with Newton's Jacobian at phi_N gives
d = J(phi_N)^-1 (|G(phi_N)| + floor(phi_N)), once, after the last
step: the step that ended the solve was taken at phi_N, so its
Jacobian diagonal, residual and floor are reused, not formed again.
Then u+- = phi_N +- 1.5 d is to first order a strict super- and
subsolution pair, the 1.5 leaving d/2 for the curvature of f. `_enclose`
requires d > 0, u- > 0, G(u+) > floor(u+) and G(u-) < -floor(u-) at
every node, so the computed signs are the exact ones. By the
sub/supersolution argument the oracle's shifted sweeps from u- and u+
stay in [u-, u+] and end at positive solutions, which by uniqueness are
phi+. So phi+ lies in [u-, u+], whose width `enclosure_width` bounds
Newton's error, rounding included.
"""

from dataclasses import dataclass

import numpy as np

from ._banded import factor_cyclic, solve_cyclic
from .errors import NonConvergence, ValidationError
from .model import Coefficient, Equation, Grid, Problem, Profile

__all__ = [
    "Bracket", "PeriodicResult", "MonotoneResult",
    "bracket_bounds", "periodic_residual", "solve_periodic",
    "monotone_iteration_oracle",
]

# Budgets of the oracle's sweeps and of Newton's accepted steps. Over
# 960 cubic and cubic-quintic backgrounds (amplitudes up to 0.999,
# lambda from -0.01 to -64, n_per from 64 to 1024) the largest counts
# measured are 34 sweeps (g = 1 + 0.999 sin, lambda = -16) and 15
# steps (g = 1 + 0.999 sin, lambda = -0.25), where the start
# bracket.upper is 31 times the background.
_MAX_SWEEPS = 200
_MAX_NEWTON_STEPS = 50


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
    enclosure_width: float


@dataclass(frozen=True)
class MonotoneResult:
    from_below: Profile
    from_above: Profile
    iterations: int
    gap_sup: float


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
    wrapped = np.concatenate((phi[-1:], phi, phi[:1]))
    lap = (wrapped[2:] - 2.0 * phi + wrapped[:-2]) / h**2
    return eq.residual(phi, lap)


def solve_periodic(problem: Problem) -> PeriodicResult:
    """Newton solve for the positive periodic background.

    Starts from the constant supersolution `bracket.upper`, undamped,
    and takes each step by `_advance`: every exact step lowers every
    node (module docstring). `iterations` counts the accepted steps.
    The result is certified by `_enclose`, whose width it carries; its
    d is one more solve with the Jacobian of the step that ended the
    solve, formed at the last iterate.
    """
    bracket = bracket_bounds(problem)
    eq = problem.equation()
    n = problem.n_per
    h = problem.period / n
    off = np.full(n, -eq.k / h**2)
    floor = _rounding_floor(eq, h)
    phi = np.full(n, bracket.upper)
    res = _residual(eq, phi, h)
    for iterations in range(_MAX_NEWTON_STEPS + 1):
        size = np.abs(res)
        residual_sup, bound = float(size.max()), floor(phi)
        diag = _jacobian_diag(eq, phi, h)
        step = solve_cyclic(off, diag, off, -res)
        trial, done = _advance(residual_sup, bound, phi, phi + step,
                               bracket.lower, phi, "periodic Newton step",
                               iterations)
        if done:
            break
        if iterations == _MAX_NEWTON_STEPS:
            raise NonConvergence(
                f"periodic Newton still falling after {iterations} steps",
                final_residual=residual_sup, iterations=iterations)
        phi = trial
        res = _residual(eq, phi, h)
    # size, bound and diag were formed at phi_N by the step that ended
    d = solve_cyclic(off, diag, off, size + bound)
    width = _enclose(eq, h, floor, phi, d)
    profile, coefficient = _package_background(problem, phi)
    return PeriodicResult(profile=profile, coefficient=coefficient,
                          bracket=bracket, residual_sup=residual_sup,
                          iterations=iterations, enclosure_width=width)


def _jacobian_diag(eq: Equation, phi: np.ndarray, h: float) -> np.ndarray:
    """Diagonal of Newton's J = -k D2 + diag f'(phi), with f' = k F'."""
    return eq.k * (2.0 / h**2 + _forcing_slope(eq, phi))


def _enclose(eq: Equation, h: float, floor, phi: np.ndarray,
             d: np.ndarray) -> float:
    """Width of a verified sub/supersolution pair around `phi`, given
    d = J(phi)^-1 (|G(phi)| + floor(phi)) (module docstring, Enclosure);
    NonConvergence names the first failed check."""
    upper, lower = phi + 1.5 * d, phi - 1.5 * d
    checks = (("d > 0", d > 0), ("u- > 0", lower > 0),
              ("G(u+) > floor", _residual(eq, upper, h) > floor(upper)),
              ("G(u-) < -floor", _residual(eq, lower, h) < -floor(lower)))
    for name, holds in checks:
        if not np.all(holds):
            raise NonConvergence(
                f"background enclosure: {name} fails at "
                f"{np.count_nonzero(~holds)} of {phi.size} nodes")
    return float(np.max(upper - lower))


def _advance(residual_sup: float, bound: float, old: np.ndarray,
             new: np.ndarray, lo, hi, what: str, done: int):
    """One step from `old` to `new`: (next iterate, whether to stop).

    The exact `new` moves every node of `old` into [lo, hi], which has
    `old` at one end. While the residual's sup at `old`, `residual_sup`,
    is above its rounding floor there, `bound`, `new` is cut back into
    [lo, hi], and raises NonConvergence if it then moves no node; at the
    floor it must move every node inside [lo, hi]. `done` counts the
    steps before this one.
    """
    if not np.isfinite(new).all():
        raise NonConvergence(f"{what} {done + 1} is not finite",
                             final_residual=residual_sup, iterations=done)
    if residual_sup > bound:
        new = np.minimum(np.maximum(new, lo), hi)
        if np.array_equal(new, old):
            raise NonConvergence(
                f"{what} {done + 1} moves no node at residual "
                f"{residual_sup:.3e}, above its rounding floor {bound:.3e}",
                final_residual=residual_sup, iterations=done)
        return new, False
    if np.all((lo <= new) & (new <= hi) & (new != old)):
        return new, False
    return old, True


def _rounding_floor(eq: Equation, h: float):
    """The residual's rounding floor as a function of the iterate: 16 eps
    times a bound on the magnitudes of its terms, k |D2| phi and each
    term of |f(phi)|, the residual of the float vector nearest a root.
    """
    linear = 4.0 * eq.k / h**2 + float(np.max(np.abs(eq.mu)))
    powers = [(p, float(np.max(np.abs(c)))) for p, c in eq.powers]

    def floor(phi: np.ndarray) -> float:
        top = float(phi.max())
        size = linear * top + sum(c * top**p for p, c in powers)
        return 16.0 * np.finfo(float).eps * size

    return floor


def _package_background(problem: Problem, phi: np.ndarray):
    n = problem.n_per
    grid = Grid(xmin=0.0, xmax=problem.period, n=n + 1)
    wrapped = np.concatenate([phi, phi[:1]])
    profile = Profile(grid=grid, values=wrapped)
    coefficient = Coefficient(samples=phi, period=problem.period)
    return profile, coefficient


def _forcing_slope(eq: Equation, phi: np.ndarray) -> np.ndarray:
    """F' = (mu + sum_p p c_p phi^(p-1)) / k, pointwise."""
    out = eq.mu
    for p, c in eq.powers:
        out = out + p * c * phi**(p - 1)
    return out / eq.k


def monotone_iteration_oracle(problem: Problem) -> MonotoneResult:
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
    The sweep is solved for the correction, (D2 - K)(phi_new - phi) =
    F(phi) - D2 phi = G(phi) / k, so its rounding scales with the
    residual rather than with phi. Each end takes its sweeps as
    `_advance` allows, up from below and down from above, inside the
    bracket: on an exact constant background both ends stay on it.
    """
    bracket = bracket_bounds(problem)
    eq = problem.equation()
    n = problem.n_per
    h = problem.period / n
    off = np.full(n, 1.0 / h**2)
    floor = _rounding_floor(eq, h)

    below = np.full(n, bracket.lower)
    above = np.full(n, bracket.upper)
    done_below = done_above = False
    iterations = 0
    for iterations in range(1, _MAX_SWEEPS + 1):
        shift = np.maximum(np.maximum(_forcing_slope(eq, below),
                                      _forcing_slope(eq, above)), 0.0)
        if not np.any(shift > 0):
            raise NonConvergence("monotone shift is nowhere positive",
                                 iterations=iterations)
        solve = factor_cyclic(off, -2.0 / h**2 - shift, off)

        def sweep(end, lo, hi, side):
            res = _residual(eq, end, h)
            return _advance(float(np.abs(res).max()), floor(end), end,
                            end + solve(res / eq.k), lo, hi,
                            f"{side} monotone sweep", iterations - 1)

        if not done_below:
            below, done_below = sweep(below, below, bracket.upper, "lower")
        if not done_above:
            above, done_above = sweep(above, bracket.lower, above, "upper")
        if done_below and done_above:
            break
    else:
        raise NonConvergence("monotone iteration did not converge",
                             iterations=_MAX_SWEEPS)
    gap = float(np.max(above - below))
    prof_below, _ = _package_background(problem, below)
    prof_above, _ = _package_background(problem, above)
    return MonotoneResult(from_below=prof_below, from_above=prof_above,
                          iterations=iterations, gap_sup=gap)
