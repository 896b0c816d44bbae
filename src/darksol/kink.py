"""Front (dark-soliton ratio) profiles on a truncated symmetric domain.

The ratio w is a minimizer of the reduced energy. `minimize` first runs
one damped Newton solve from the start profile (residual line search,
no step cap) and keeps the root only if it is monotone, lowers the
energy, and is certified a strict local minimizer: the energy Hessian
is -2 kf h times the residual Jacobian, a symmetric tridiagonal matrix,
and an LDL^T factorization with positive pivots proves it positive
definite. A refused root is often a saddle: the front pinned on the
wrong site of the periodic landscape. The front is then sought at the
other pinning sites, the strict extrema of the weight a nearest the
centre: Newton runs from a tanh guess at each, and the certified root
of lowest energy is kept, as long as its energy is no higher than the
centre root's (and, when asked, its deferred correction converges).
Only when no site gives one does constrained energy descent run from
the start: explicit gradient flow with backtracking and clamping to
[-1, 1], interleaved with a Newton polish once the iterate is in the
basin. The flow is robust but slow near convergence; the linearization
carries a near-zero translation eigenvalue, so there the polish also
caps its step. A gradient tolerance below the rounding floor of the
discrete gradient, 2 kf eps max(a) / h^2, could never be met, and is
refused with a ValidationError before any work is done.

`minimize` and `newton_polish` accept a fixed source s, which turns
the equation into R(w) = s and the energy into its linear shift (see
`reduction`); `correct` uses that for the one deferred-correction solve
that lifts the minimizer of the second-order energy to a fourth-order
front.
"""

from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np
from scipy.linalg import lapack

from ._banded import solve_tridiagonal
from .errors import (GridMismatchError, LineSearchFailure, MonotonicityLoss,
                     NoSignChange, NonConvergence, SingularLinearization,
                     ValidationError)
from .model import Grid, Problem, Profile
from .periodic import bracket_bounds
from .reduction import (WeightedAC, _energy_values, _jacobian_bands,
                        _residual_values)

__all__ = [
    "MinimizeOptions", "MinimizeResult", "PolishResult",
    "decay_rate_bound", "select_truncation", "make_truncated_grid",
    "guess_rate", "initial_guess", "front_existence_margin",
    "minimize", "newton_polish", "correct", "report_crossing",
]

# Guess profiles stay strictly inside (-1, 1) except at the boundary.
_GUESS_CLEARANCE = 1e-12
# Newton corrections larger than this in sup norm are treated as
# divergence of the linearization, not as a usable step.
_POLISH_STEP_CAP = 1.0
# Step halvings a descent line search tries before it gives up.
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8
    max_outer_iters: int = 20000

    def __post_init__(self):
        if not (self.grad_tol > 0 and self.max_outer_iters > 0):
            raise ValidationError("invalid minimizer options")


@dataclass(frozen=True)
class PolishResult:
    values: np.ndarray
    residual_sup: float
    iterations: int
    history: tuple
    converged: bool


@dataclass(frozen=True)
class MinimizeResult:
    profile: Profile
    energies: tuple
    final_energy: float
    flow_iterations: int
    polish_iterations: int
    grad_sup_per_h: float
    flags: frozenset


def decay_rate_bound(problem: Problem) -> float:
    """Worst-case exponential rate of approach of w to +-1.

    Obtained by linearizing the reduced equation about w = 1 and taking
    the least favorable background value allowed by the bracket.
    """
    bracket = bracket_bounds(problem)
    if problem.is_cubic:
        return 2.0 * np.sqrt(-problem.lam * problem.g.cmin / problem.g.cmax)
    rho1sq = bracket.lower**2
    return float(np.sqrt(2.0 * problem.g1 * rho1sq + 4.0 * rho1sq**2))


def select_truncation(problem: Problem) -> float:
    """Smallest whole number of periods covering 12 / rate, at least 3 periods."""
    kappa = decay_rate_bound(problem)
    want = max(12.0 / kappa, 3.0 * problem.period)
    return float(np.ceil(want / problem.period - 1e-12) * problem.period)


def make_truncated_grid(period: float, half_length: float,
                        n_per_period: int) -> Grid:
    """Symmetric grid on [-L, L] whose nodes tile the coefficient period."""
    m = round(half_length / period)
    if m < 1 or abs(half_length - m * period) > 1e-9 * max(1.0, half_length):
        raise GridMismatchError(
            f"half length {half_length} is not a whole number of periods "
            f"{period}")
    n = 2 * m * int(n_per_period) + 1
    return Grid(xmin=-half_length, xmax=half_length, n=n)


def guess_rate(ac: WeightedAC) -> float:
    """Decay rate of the linearization about w = 1 on the actual background."""
    vals = reduce(add, ((p - 1) * b for p, b in ac.powers)) / ac.a
    worst = float(np.min(vals))
    if worst <= 0:
        raise ValidationError("linearization about w = 1 is not coercive")
    return float(np.sqrt(worst))


def initial_guess(grid: Grid, kappa: float, centre: float = 0.0) -> Profile:
    """Monotone tanh ramp with the target asymptotic rate, centred at
    `centre`."""
    w = np.tanh(0.5 * kappa * (grid.x() - centre))
    np.clip(w, -1.0 + _GUESS_CLEARANCE, 1.0 - _GUESS_CLEARANCE, out=w)
    w[0], w[-1] = -1.0, 1.0
    return Profile(grid, w)


def front_existence_margin(problem: Problem) -> float | None:
    """Margin of the condition keeping the reduced energy density nonnegative.

    Only the cubic-quintic model can violate it (for g1 < 0). A negative
    margin does not stop the computation; results are flagged as sitting
    outside the supported regime.
    """
    if problem.is_cubic:
        return None
    lower = bracket_bounds(problem).lower
    return float(problem.g1 / 4.0 + lower**2 / 3.0)


def newton_polish(w, ac: WeightedAC, tol: float,
                  max_iters: int = 40, source=None,
                  step_cap: float = _POLISH_STEP_CAP) -> PolishResult:
    """Damped Newton on the reduced residual with pinned boundary values.

    With a source s the residual is R(w) - s; the Jacobian is the same.
    A correction larger than `step_cap` in sup norm ends the solve.

    Never raises: a singular factorization, an oversized correction or
    a stalled line search all come back as converged=False with the
    work done so far, so callers can fall back to the flow.
    """
    w = np.array(w.values if isinstance(w, Profile) else w, dtype=float)
    res = _residual_values(ac, w, source)
    sup = float(np.max(np.abs(res)))
    history = [sup]
    iterations = 0
    while sup > tol and iterations < max_iters:
        try:
            delta = solve_tridiagonal(*_jacobian_bands(ac, w), -res[1:-1])
        except SingularLinearization:
            break
        if not np.all(np.isfinite(delta)) or \
                float(np.max(np.abs(delta))) > step_cap:
            break
        t = 1.0
        for _ in range(30):
            trial = w.copy()
            trial[1:-1] += t * delta
            trial_res = _residual_values(ac, trial, source)
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup:
                break
            t *= 0.5
        else:
            break  # no direction of decrease left, usually the rounding floor
        w, res, sup = trial, trial_res, trial_sup
        history.append(sup)
        iterations += 1
    return PolishResult(values=w, residual_sup=sup, iterations=iterations,
                        history=tuple(history), converged=sup <= tol)


def _is_strict_minimizer(ac: WeightedAC, w: np.ndarray) -> bool:
    """Whether the energy Hessian at w is positive definite.

    The Hessian is -2 kf h times the residual Jacobian, so it is
    positive definite exactly when the negated Jacobian bands admit an
    LDL^T factorization with positive pivots (dpttrf, O(n)).
    """
    _, diag, upper = _jacobian_bands(ac, w)
    _, _, info = lapack.dpttrf(-diag, -upper[:-1])
    return info == 0


def _is_certified_root(ac, root: PolishResult, bound: float,
                       source=None) -> bool:
    """A converged, monotone Newton root with energy at most `bound`
    that is a strict local minimizer."""
    return (root.converged and bool(np.all(np.diff(root.values) >= 0))
            and _energy_values(ac, root.values, source) <= bound
            and _is_strict_minimizer(ac, root.values))


def _pinning_sites(ac: WeightedAC) -> np.ndarray:
    """The strict extrema of the weight a nearest the centre x = 0 on
    each side, nearest first; a constant weight has none.

    When the grid and every weight are even about x = 0 to the last bit,
    the right-hand site mirrors the left one, and so would its root, at
    the same energy up to rounding: only the left one is returned.
    """
    a = ac.a
    mid = a[1:-1]
    strict = (((mid > a[:-2]) & (mid > a[2:]))
              | ((mid < a[:-2]) & (mid < a[2:])))
    x = ac.grid.x()[1:-1][strict]
    left, right = x[x < 0.0][-1:], x[x > 0.0][:1]
    even = ac.grid.xmin == -ac.grid.xmax and all(
        np.array_equal(v, v[::-1]) for v in (a, *(b for _, b in ac.powers)))
    if even:
        return left
    sites = np.concatenate([left, right])
    return sites[np.argsort(np.abs(sites), kind="stable")]


def _site_scan(ac, centre: PolishResult, start_energy: float,
               target_res: float, source_of=None):
    """Newton from a tanh guess at each pinning site, after the centre
    root was refused; returns (root or None, Newton iterations).

    A site root is kept if it passes `_is_certified_root` with an energy
    no higher than the start's and the centre root's; of those, the one
    of lowest energy wins. With `source_of` given, a root counts only
    if the deferred correction from it, R(v) = source_of(root), also
    converges by Newton; otherwise the next one is tried.
    """
    bound = start_energy
    if centre.converged:
        bound = min(bound, _energy_values(ac, centre.values))
    iterations = 0
    roots = []
    for site in _pinning_sites(ac):
        root = newton_polish(initial_guess(ac.grid, guess_rate(ac), site),
                             ac, tol=target_res, step_cap=np.inf)
        iterations += root.iterations
        if _is_certified_root(ac, root, bound):
            roots.append((_energy_values(ac, root.values), root))
    # sorted is stable: of equal energies, the site nearest the centre
    for _, root in sorted(roots, key=lambda item: item[0]):
        if source_of is None or newton_polish(
                root.values, ac, tol=target_res,
                source=source_of(Profile(ac.grid, root.values))).converged:
            return root, iterations
    return None, iterations


def _line_search(ac, w, energy, grad, step, max_halvings, source=None):
    """Backtracking trial against the gradient: clamp, repin, accept on
    nonincreasing energy. Returns (trial, energy, step, halvings) with
    trial None when every halving failed; the reduced step is kept."""
    for k in range(max_halvings):
        trial = np.clip(w - step * grad, -1.0, 1.0)
        trial[0], trial[-1] = w[0], w[-1]
        trial_energy = _energy_values(ac, trial, source)
        if trial_energy <= energy:
            return trial, trial_energy, step, k
        step *= 0.5
    return None, energy, step, max_halvings


def _descent_burst(ac, w, energy, step, budget, target_res, source=None):
    """Run up to `budget` accepted descent steps; returns the new state.

    Each step moves against the energy gradient, clamps into [-1, 1],
    restores the pinned boundary values and accepts only if the energy
    did not increase. The step size adapts: grow on clean acceptance,
    keep the reduction after a backtrack.
    """
    energies = []
    res = _residual_values(ac, w, source)
    res_sup = float(np.max(np.abs(res)))
    accepted = 0
    while accepted < budget and res_sup > target_res:
        grad = -2.0 * ac.kinetic_factor * ac.h * res
        trial, trial_energy, step, k = _line_search(
            ac, w, energy, grad, step, _MAX_HALVINGS, source)
        if trial is None:
            raise LineSearchFailure(
                f"descent stalled at gradient sup {2.0 * ac.kinetic_factor * res_sup:.3e}")
        w, energy = trial, trial_energy
        energies.append(energy)
        accepted += 1
        if k == 0:
            step = min(step * 1.25, 1e6 * ac.h)
        res = _residual_values(ac, w, source)
        res_sup = float(np.max(np.abs(res)))
    return w, energy, step, energies, accepted, res_sup


def minimize(ac: WeightedAC, options: MinimizeOptions | None = None,
             w0: Profile | None = None, source=None,
             source_of=None) -> MinimizeResult:
    """Front profile of the reduced energy: certified Newton first, then
    the pinning sites, constrained descent as the last resort.

    Convergence test: sup |gradient| / h <= grad_tol, equivalently
    sup |residual| <= grad_tol / (2 * kinetic_factor). A Newton root is
    returned only if it is monotone, its energy is at most the initial
    one and it is a strict local minimizer; its energy log is the
    initial value alone. If the root from the start is refused and
    there is no source, Newton runs from each pinning site (see
    `_site_scan`); `source_of`, a map from a front Profile to its
    deferred-correction source, makes a site root count only if the
    correction from it converges by Newton. Failing both, the descent
    runs from the start, and the log records the initial value and
    every accepted flow step and never increases. A converged profile
    that fails to be monotone raises MonotonicityLoss rather than being
    returned. With a fixed source the energy and residual are those of
    R(w) = source, and no site is tried: the source belongs to the
    front it was built from.
    """
    options = options or MinimizeOptions()
    if w0 is None:
        w0 = initial_guess(ac.grid, guess_rate(ac))
    elif w0.grid != ac.grid:
        raise GridMismatchError("starting profile grid differs from weights")
    w = np.array(w0.values, dtype=float)
    if not (w[0] == -1.0 and w[-1] == 1.0):
        raise ValidationError("front needs boundary values -1 and +1")

    target_res = _target_residual(ac, options)
    step = ac.h / (8.0 * ac.kinetic_factor * float(np.max(ac.a)))
    energy = _energy_values(ac, w, source)
    energies = [energy]
    flags = set()
    flow_iterations = 0
    burst = 100

    first = newton_polish(w, ac, tol=target_res, source=source,
                          step_cap=np.inf)
    polish_iterations = first.iterations
    root = first if _is_certified_root(ac, first, energy, source) else None
    if root is None and source is None:
        root, site_iterations = _site_scan(ac, first, energy, target_res,
                                           source_of)
        polish_iterations += site_iterations
    if root is not None:
        return _front_result(ac, root.values, root.residual_sup,
                             tuple(energies), 0, polish_iterations,
                             flags, source)

    res_sup = float(np.max(np.abs(_residual_values(ac, w, source))))
    while res_sup > target_res:
        if flow_iterations >= options.max_outer_iters:
            raise NonConvergence(
                f"descent budget exhausted at gradient sup per h "
                f"{2.0 * ac.kinetic_factor * res_sup:.3e}",
                final_residual=res_sup, iterations=flow_iterations)
        budget = min(burst, options.max_outer_iters - flow_iterations)
        w, energy, step, new_energies, accepted, res_sup = _descent_burst(
            ac, w, energy, step, budget, target_res, source)
        energies.extend(new_energies)
        flow_iterations += accepted
        burst = min(burst * 2, 2000)
        if res_sup <= target_res:
            break
        polish = newton_polish(w, ac, tol=target_res, source=source)
        polish_iterations += polish.iterations
        if polish.converged:
            w = polish.values
            res_sup = polish.residual_sup
            break
        flags.add("polish_deferred")
        # Keep partial polish progress only if it also kept the
        # energy from rising; the log must stay nonincreasing.
        if polish.residual_sup < res_sup:
            new_energy = _energy_values(ac, polish.values, source)
            if new_energy <= energy:
                w = polish.values
                res_sup = polish.residual_sup
                energy = new_energy

    return _front_result(ac, w, res_sup, tuple(energies), flow_iterations,
                         polish_iterations, flags, source)


def correct(ac: WeightedAC, first: MinimizeResult, source,
            options: MinimizeOptions | None = None) -> MinimizeResult:
    """One deferred-correction solve R(w) = source, started at `first`.

    A Newton polish from the minimizer normally converges in a few
    steps, since the source moves the root by O(h^2); when it does not,
    `minimize` runs with the same source.
    The result sums the iteration counts and flags of both solves and
    reports the convergence of the corrected equation; its energy log is
    that of `first` and its final energy the reduced energy (no source
    term) of the corrected front.
    """
    options = options or MinimizeOptions()
    polish = newton_polish(first.profile, ac, tol=_target_residual(ac, options),
                           source=source)
    if polish.converged:
        result = _front_result(ac, polish.values, polish.residual_sup, (),
                               0, 0, set(), source)
    else:
        result = minimize(ac, options, w0=first.profile, source=source)
    return replace(
        result, energies=first.energies,
        final_energy=_energy_values(ac, result.profile.values),
        flow_iterations=first.flow_iterations + result.flow_iterations,
        polish_iterations=(first.polish_iterations + polish.iterations
                           + result.polish_iterations),
        flags=first.flags | result.flags)


def _target_residual(ac: WeightedAC, options: MinimizeOptions) -> float:
    """The residual sup that meets grad_tol; a grad_tol below the
    rounding floor of the gradient, 2 kf eps max(a) / h^2, is refused."""
    floor = (2.0 * ac.kinetic_factor * np.finfo(float).eps
             * float(np.max(ac.a)) / ac.h**2)
    if options.grad_tol < floor:
        raise ValidationError(
            f"grad_tol {options.grad_tol:.3e} is below the rounding floor "
            f"{floor:.3e} of the gradient on this grid")
    return options.grad_tol / (2.0 * ac.kinetic_factor)


def _front_result(ac, w, res_sup, energies, flow_iterations,
                  polish_iterations, flags, source) -> MinimizeResult:
    """Check and package a converged front; not monotone raises."""
    if np.any(np.diff(w) < 0):
        raise MonotonicityLoss("converged front is not monotone")
    flags = set(flags)
    if float(np.max(np.abs(w[1:-1]))) >= 1.0:
        flags.add("amplitude_saturated")
    grad_sup = 2.0 * ac.kinetic_factor * ac.h * res_sup
    return MinimizeResult(profile=Profile(ac.grid, w),
                          energies=energies,
                          final_energy=_energy_values(ac, w, source),
                          flow_iterations=flow_iterations,
                          polish_iterations=polish_iterations,
                          grad_sup_per_h=grad_sup / ac.h,
                          flags=frozenset(flags))


def report_crossing(w: Profile) -> float:
    """Linear-interpolated position of the first sign change of w.

    The first sign event wins: an exact zero node, or the first pair of
    neighbours of opposite sign, whichever comes first from the left.
    For a monotone front this is the front location. Raises
    NoSignChange when the profile has one sign everywhere.
    """
    v = w.values
    x = w.grid.x()
    zeros = np.flatnonzero(v == 0.0)
    flips = np.flatnonzero(v[:-1] * v[1:] < 0.0)
    if zeros.size and (not flips.size or zeros[0] <= flips[0]):
        return float(x[zeros[0]])
    if not flips.size:
        raise NoSignChange("profile has no sign change")
    i = int(flips[0])
    return float(x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i]))
