"""Front (dark-soliton ratio) profiles on a truncated symmetric domain.

The ratio w is a minimizer of the reduced energy, lifted to fourth
order by one deferred correction. `minimize` tries certified roots in
a fixed order and returns the first whose correction converges. A
root is certified when it is a converged, monotone Newton root that
does not raise the energy and is a strict local minimizer: the energy
Hessian is -2 kf h times the residual Jacobian, a symmetric tridiagonal
matrix, and an LDL^T factorization with positive pivots proves it
positive definite. The first root comes from one damped Newton solve
from the centred tanh guess (residual line search, no step cap). A
refused root is often a saddle: the front pinned on the wrong site of
the periodic landscape. The next roots come from the other pinning
sites, the strict extrema of the weight a nearest the centre: Newton
runs from a tanh guess at each, and the certified roots follow lowest
energy first, none above the centre root's energy. The last ones come
from the phase condition w(x0) = 0 (Beyn & Thuemmler, SIAM J. Appl.
Dyn. Syst. 3, 2004): Newton with node x0 held, whose roots trace the
pinning (Peierls-Nabarro) landscape E(x0) (Kivshar & Campbell, Phys.
Rev. E 48, 3077, 1993). The pin walks downhill in E from the centre;
unpinned Newton from the lowest node's root gives one more root, and
the pinned root itself is the last. Every solve is tridiagonal, O(n).
A gradient tolerance below the rounding floor of the discrete gradient,
2 kf eps max(a) / h^2, could never be met, and is refused with a
ValidationError before any work is done.

`newton_polish` accepts a fixed source s, which turns the equation
into R(w) = s (see `reduction`); `_correct` solves that equation from
each root `minimize` tries, the deferred correction.
"""

from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np
from scipy.linalg import lapack

from ._banded import solve_tridiagonal
from .errors import (GridMismatchError, MonotonicityLoss, NoSignChange,
                     NonConvergence, SingularLinearization, ValidationError)
from .model import Grid, Problem, Profile
from .periodic import bracket_bounds
from .reduction import (WeightedAC, _energy_values, _jacobian_bands,
                        _residual_values)

__all__ = [
    "MinimizeOptions", "MinimizeResult", "PolishResult",
    "decay_rate_bound", "select_truncation", "make_truncated_grid",
    "guess_rate", "initial_guess", "minimize", "newton_polish",
    "report_crossing",
]

# Guess profiles stay strictly inside (-1, 1) except at the boundary.
_GUESS_CLEARANCE = 1e-12
# Newton corrections larger than this in sup norm are treated as
# divergence of the linearization, not as a usable step. The deferred
# correction relies on it: on a constant cubic (lam = -3.9496041383066816,
# n_per 128, L = 7) the uncapped free solve drifts along the translation
# mode for 37 steps and ends 2.8e-9 off centre, where the capped one
# refuses its first step and the pinned solve centres the front exactly.
_POLISH_STEP_CAP = 1.0
# Newton steps per solve.
_MAX_NEWTON_STEPS = 40


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not self.grad_tol > 0:
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
    final_energy: float
    flow_iterations: int  # always 0: no gradient flow step remains
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


def newton_polish(w, ac: WeightedAC, tol: float, source=None,
                  step_cap: float = _POLISH_STEP_CAP,
                  pin: int | None = None) -> PolishResult:
    """Damped Newton on the reduced residual with pinned boundary values.

    With a source s the residual is R(w) - s; the Jacobian is the same.
    A correction larger than `step_cap` in sup norm ends the solve.

    With `pin`, an interior node index, that node's value is held too:
    its residual row is left out of the steps and `history` (see
    `_hold`), but `residual_sup` and `converged` take the full residual.

    Never raises: a singular factorization, an oversized correction or
    a stalled line search all come back as converged=False with the
    work done so far, so callers can try another route.
    """
    w = np.array(w.values if isinstance(w, Profile) else w, dtype=float)
    res = _residual_values(ac, w, source)
    if pin is not None:
        held, res[pin] = res[pin], 0.0
    sup = float(np.max(np.abs(res)))
    history = [sup]
    iterations = 0
    while sup > tol and iterations < _MAX_NEWTON_STEPS:
        bands = _jacobian_bands(ac, w)
        if pin is not None:
            _hold(bands, pin)
        try:
            delta = solve_tridiagonal(*bands, -res[1:-1])
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
            if pin is not None:
                trial_held, trial_res[pin] = trial_res[pin], 0.0
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup:
                break
            t *= 0.5
        else:
            break  # no direction of decrease left, usually the rounding floor
        w, res, sup = trial, trial_res, trial_sup
        if pin is not None:
            held = trial_held
        history.append(sup)
        iterations += 1
    if pin is not None:
        sup = max(sup, abs(float(held)))
    return PolishResult(values=w, residual_sup=sup, iterations=iterations,
                        history=tuple(history), converged=sup <= tol)


def _hold(bands, pin: int):
    """Give node `pin` the Jacobian row and column of -I, in place: the
    node decouples, and the system stays tridiagonal."""
    lower, diag, upper = bands
    k = pin - 1  # bands index the interior nodes
    diag[k] = -1.0
    lower[k:k + 2] = 0.0
    upper[max(k - 1, 0):k + 1] = 0.0


def _is_strict_minimizer(ac: WeightedAC, w: np.ndarray,
                         pin: int | None = None) -> bool:
    """Whether the energy Hessian at w is positive definite; with `pin`,
    on the variations that hold node `pin` (two decoupled blocks).

    The Hessian is -2 kf h times the residual Jacobian, so it is
    positive definite exactly when the negated Jacobian bands admit an
    LDL^T factorization with positive pivots (dpttrf, O(n)).
    """
    bands = _jacobian_bands(ac, w)
    if pin is not None:
        _hold(bands, pin)
    _, diag, upper = bands
    _, _, info = lapack.dpttrf(-diag, -upper[:-1])
    return info == 0


def _is_certified_root(ac, root: PolishResult, bound: float) -> bool:
    """A converged, monotone Newton root with energy at most `bound`
    that is a strict local minimizer."""
    return (root.converged and bool(np.all(np.diff(root.values) >= 0))
            and _energy_values(ac, root.values) <= bound
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
               target_res: float):
    """Newton from a tanh guess at each pinning site; returns (the
    certified roots, lowest energy first, Newton iterations).

    A site root counts if it passes `_is_certified_root` with an energy
    no higher than the start's and the centre root's. Of equal
    energies, the site nearest the centre comes first.
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
    return [root for _, root in sorted(roots, key=lambda item: item[0])], \
        iterations


def _shifted(w: np.ndarray, nodes: int) -> np.ndarray:
    """w moved `nodes` nodes to the right, the vacated end filled with its
    boundary value and both ends re-pinned to -1 and +1."""
    out = np.roll(w, nodes)
    if nodes > 0:
        out[:nodes] = -1.0
    else:
        out[nodes:] = 1.0
    out[0], out[-1] = -1.0, 1.0
    return out


def _phase_walk(ac, start: np.ndarray, target_res: float):
    """Walk the phase condition w(x0) = 0 downhill over the nodes x0;
    returns (lowest pinned root, its node, Newton iterations).

    The pin starts at the centre node, where the start crosses zero.
    Each move solves the pinned equation from the best root so far,
    shifted by the stride; the stride doubles while the energy falls,
    then halves, trying both sides, down to one node. A pinned solve
    whose free rows miss the tolerance counts as infinite energy.
    """
    def solve(w, node):
        root = newton_polish(w, ac, tol=target_res, step_cap=np.inf,
                             pin=node)
        if root.history[-1] > target_res:
            return root, np.inf
        return root, _energy_values(ac, root.values)

    pin = ac.grid.n // 2
    best, energy = solve(start, pin)
    iterations = best.iterations
    seen = {pin}
    stride, sign, growing = int(energy < np.inf), 1, True
    while stride:
        for side in (sign,) if growing and stride > 1 else (sign, -sign):
            node = pin + side * stride
            if node in seen or not 0 < node < ac.grid.n - 1:
                continue
            seen.add(node)
            trial, trial_energy = solve(_shifted(best.values, side * stride),
                                        node)
            iterations += trial.iterations
            if trial_energy < energy:
                best, energy, pin, sign = trial, trial_energy, node, side
                break
        else:
            growing, stride = False, stride // 2
            continue
        if growing:
            stride *= 2
    return best, pin, iterations


def minimize(ac: WeightedAC, source_of,
             options: MinimizeOptions | None = None) -> MinimizeResult:
    """Fourth-order front: the first certified root of the reduced
    equation whose deferred correction converges, corrected.

    `source_of` maps a root, as a Profile, to its deferred-correction
    source (see `reduction.correction_source`); a map that returns None
    gives the second-order minimizer itself. Roots are tried in the
    order of `_candidates`, and a search runs only once every earlier
    root has failed its correction (`_correct`). Convergence test:
    sup |gradient| / h <= grad_tol, equivalently sup |residual| <=
    grad_tol / (2 * kinetic_factor), on the corrected equation.
    `polish_iterations` sums every Newton iteration, searches and
    corrections alike. NonConvergence is raised when no root corrects;
    a non-monotone front raises MonotonicityLoss.
    """
    target_res = _target_residual(ac, options or MinimizeOptions())
    spent = []
    residual = float("nan")
    for root, flags in _candidates(ac, target_res, spent):
        front = _correct(ac, root.values,
                         source_of(Profile(ac.grid, root.values)), target_res)
        spent.append(front.iterations)
        if front.converged:
            return _front_result(ac, front.values, front.residual_sup,
                                 sum(spent), flags)
        residual = front.residual_sup
    raise NonConvergence(
        f"no certified root whose deferred correction converges (last "
        f"correction residual {residual:.3e})",
        final_residual=residual, iterations=sum(spent))


def _candidates(ac, target_res: float, spent: list):
    """The certified roots `minimize` tries, in order, each with its run
    flags; lazy, so each search runs only when the roots before it are
    used up. The Newton iterations of every search go onto `spent`.

    First the centre root, Newton from the centred tanh guess; then the
    site roots of `_site_scan`; then unpinned Newton from the root at
    the lowest node of `_phase_walk`, certified with energy no higher
    than that root's; last the pinned root itself, with flag
    `phase_pinned`, if its full residual meets the tolerance and it is
    a strict minimizer with the node held.
    """
    start = initial_guess(ac.grid, guess_rate(ac)).values
    energy = _energy_values(ac, start)
    first = newton_polish(start, ac, tol=target_res, step_cap=np.inf)
    spent.append(first.iterations)
    if _is_certified_root(ac, first, energy):
        yield first, ()
    roots, iterations = _site_scan(ac, first, energy, target_res)
    spent.append(iterations)
    for root in roots:
        yield root, ()
    pinned, pin, iterations = _phase_walk(ac, start, target_res)
    free = newton_polish(pinned.values, ac, tol=target_res)
    spent.extend((iterations, free.iterations))
    if _is_certified_root(ac, free, _energy_values(ac, pinned.values)):
        yield free, ()
    if pinned.converged and _is_strict_minimizer(ac, pinned.values, pin):
        yield pinned, ("phase_pinned",)


def _correct(ac, root: np.ndarray, source, tol: float) -> PolishResult:
    """The deferred-correction solve R(w) = source from a root; its
    iterations sum both attempts.

    Newton from the root normally converges in a few steps, since the
    source moves the root by O(h^2). Where the near-zero translation
    mode stalls it, Newton runs once more from the root with the node
    nearest its crossing pinned to zero, the phase condition; that
    counts only if the full residual, pinned row included, meets the
    tolerance.
    """
    free = newton_polish(root, ac, tol=tol, source=source)
    if free.converged:
        return free
    pin = int(np.argmin(np.abs(ac.grid.x()
                               - report_crossing(Profile(ac.grid, root)))))
    start = root.copy()
    start[pin] = 0.0
    pinned = newton_polish(start, ac, tol=tol, source=source, pin=pin)
    return replace(pinned, iterations=free.iterations + pinned.iterations)


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


def _front_result(ac, w, res_sup, polish_iterations, flags) -> MinimizeResult:
    """Check and package a converged front; not monotone raises."""
    if np.any(np.diff(w) < 0):
        raise MonotonicityLoss("converged front is not monotone")
    flags = set(flags)
    if float(np.max(np.abs(w[1:-1]))) >= 1.0:
        flags.add("amplitude_saturated")
    grad_sup = 2.0 * ac.kinetic_factor * ac.h * res_sup
    return MinimizeResult(profile=Profile(ac.grid, w),
                          final_energy=_energy_values(ac, w),
                          flow_iterations=0,
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
