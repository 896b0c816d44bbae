"""Front (dark-soliton ratio) profiles on a truncated symmetric domain.

The ratio w is a minimizer of the reduced energy, lifted to fourth
order by one deferred correction. `minimize` tries certified roots in
a fixed order and returns the first whose correction converges; it does
not judge that front, whose one verdict is the report's (`verify`). A
root is certified when it is a converged, monotone Newton root that
does not raise the energy and is a strict local minimizer: the energy
Hessian is -2 kf h times the residual Jacobian, a symmetric tridiagonal
matrix, and an LDL^T factorization with positive pivots proves it
positive definite. The first root comes from one damped Newton solve
from the centred tanh guess. A refused root is often a saddle: the
front pinned on the wrong site of the periodic landscape. The next
roots come from the other pinning sites, the strict extrema of the
weight a nearest the centre: Newton runs from a tanh guess at each,
and the certified roots follow lowest energy first, none above the
centre root's energy. Of two mirror sites, the second starts from the
first one's root reflected; when that start is already a root it is
the mirror twin and is dropped, so the left site stands for both and
no rounding-level energy difference decides. The last ones come from
the phase condition w(x0) = 0 (Beyn & Thuemmler, SIAM J. Appl. Dyn.
Syst. 3, 2004): Newton with node x0 held, whose roots trace the
pinning (Peierls-Nabarro) landscape E(x0) (Kivshar & Campbell, Phys.
Rev. E 48, 3077, 1993). The pin walks downhill in E from the centre;
unpinned Newton from the lowest node's root gives one more root, and
the pinned root itself is the last. Every solve is tridiagonal, O(n).

Each Newton solve has one of two roles. A search (the centre, each
site, each pinned solve of the walk) takes uncapped steps and gives up
at its first step that needs a line-search step below 1/16
(`_SEARCH_MIN_STEP`): a later route covers what it leaves. A finish
(the walk's free root and both corrections) has nothing after it, so
its steps are capped at `_POLISH_STEP_CAP` and its line search halves
down to 2^-29.
Every Newton solve stops at one fixed target, sup |gradient| / h <= 1e-8
(`_target_residual`). On a grid whose gradient rounding floor,
2 kf eps max(a) / h^2, lies above that target it could never be met,
and `minimize` refuses the grid with a ValidationError before any work
is done.

`_newton_polish` accepts a fixed source s, which turns the equation
into R(w) = s (see `reduction`); `_correct` solves that equation from
each root `minimize` tries, the deferred correction.

Each quantity of a root is evaluated once and handed on. A Newton
solve returns its last iterate's full residual, which the line search
has already formed; the deferred-correction source is built from it,
and the walk's free solve and the correction start from it
(`_newton_from`); the certificate's energy of a root also sets
the site scan's bound and order, and the walk's pinned root hands its
energy on as the bound of the free root's certificate.
"""

from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import ClassVar

import numpy as np

from ._banded import is_positive_definite, solve_tridiagonal
from .errors import (GridMismatchError, NoSignChange, NonConvergence,
                     SingularLinearization, ValidationError)
from .model import Grid, Problem, Profile
from .reduction import (WeightedAC, _energy_values, _jacobian_bands,
                        _residual_values, to_allen_cahn)

__all__ = [
    "MinimizeResult", "select_truncation", "make_truncated_grid",
    "minimize", "report_crossing",
]

# Guess profiles stay strictly inside (-1, 1) except at the boundary.
_GUESS_CLEARANCE = 1e-12
# A finish's Newton corrections larger than this in sup norm are treated
# as divergence of the linearization, not as a usable step. The deferred
# correction relies on it: on a constant cubic (lam = -3.9496041383066816,
# n_per 128, L = 7) the uncapped free solve drifts along the translation
# mode for 37 steps and ends 2.8e-9 off centre, where the capped one
# refuses its first step and the pinned solve centres the front exactly.
_POLISH_STEP_CAP = 1.0
# Newton steps per solve.
_MAX_NEWTON_STEPS = 40
# Every front Newton solve stops at sup |gradient| / h <= _GRAD_TOL.
_GRAD_TOL = 1e-8
# A finish's smallest line-search step: the search halves from t = 1
# down to it, 30 trials, before the solve ends as stalled.
_MIN_LINE_STEP = 2.0**-29
# A search's smallest step, 5 trials: a search that needs a shorter step
# stalls on a weakly pinned landscape, where a later route finds the
# front anyway.
_SEARCH_MIN_STEP = 1.0 / 16.0


@dataclass(frozen=True)
class _PolishResult:
    """A Newton solve's last iterate `values` and its full residual
    R(values) - s for the solve's source s, the held row of a pinned
    solve included: what `_correct` and the walk's free solve start
    from. `residual_sup` is that residual's sup; `history` holds the
    sup over the rows the steps solve, one per iterate."""

    values: np.ndarray
    residual: np.ndarray
    residual_sup: float
    iterations: int
    history: tuple
    converged: bool


@dataclass(frozen=True)
class MinimizeResult:
    profile: Profile
    final_energy: float
    polish_iterations: int
    grad_sup_per_h: float
    flags: frozenset
    flow_iterations: ClassVar[int] = 0  # no gradient flow step remains


def select_truncation(problem: Problem, background: Profile) -> float:
    """The fewest whole periods covering max(3 T, 12 / kappa), for the
    solved background on its period cell.

    kappa is `_guess_rate` of the cell's reduction: kappa^2 = min over
    the cell of sum_p (p - 1) b_p / a, the tail's slowest local rate. It
    is never below the worst case over the bracket (see `periodic`), so
    L never exceeds what that rate gives: the cubic's 4 g phi^2 >=
    4 (-lam) g_min / g_max as phi^2 >= -lam / g_max, and the
    cubic-quintic's 2 g1 phi^2 + 4 phi^4 grows with phi^2 >= rho1^2 >
    -g1. On constant coefficients the two rates agree.
    """
    kappa = _guess_rate(to_allen_cahn(problem, background))
    want = max(12.0 / kappa, 3.0 * problem.period)
    return float(np.ceil(want / problem.period - 1e-12) * problem.period)


def make_truncated_grid(period: float, half_length: float,
                        n_per_period: int) -> Grid:
    """Symmetric grid on [-L, L] whose nodes tile the coefficient period."""
    if not np.isfinite(half_length):
        raise GridMismatchError(f"half length {half_length} is not finite")
    m = round(half_length / period)
    if m < 1 or abs(half_length - m * period) > 1e-9 * max(1.0, half_length):
        raise GridMismatchError(
            f"half length {half_length} is not a whole number of periods "
            f"{period}")
    n = 2 * m * int(n_per_period) + 1
    return Grid(xmin=-half_length, xmax=half_length, n=n)


def _guess_rate(ac: WeightedAC) -> float:
    """Decay rate of the linearization about w = 1 on the actual background."""
    vals = reduce(add, ((p - 1) * b for p, b in ac.powers)) / ac.a
    worst = float(np.min(vals))
    if worst <= 0:
        raise ValidationError("linearization about w = 1 is not coercive")
    return float(np.sqrt(worst))


def _initial_guess(grid: Grid, kappa: float,
                   centre: float = 0.0) -> np.ndarray:
    """Monotone tanh ramp with the target asymptotic rate, centred at
    `centre`."""
    w = np.tanh(0.5 * kappa * (grid.x() - centre))
    np.clip(w, -1.0 + _GUESS_CLEARANCE, 1.0 - _GUESS_CLEARANCE, out=w)
    w[0], w[-1] = -1.0, 1.0
    return w


def _target_residual(ac: WeightedAC) -> float:
    """The residual sup that meets _GRAD_TOL: the gradient is
    -2 kf h times the residual (see `reduction`)."""
    return _GRAD_TOL / (2.0 * ac.kinetic_factor)


def _newton_polish(w: np.ndarray, ac: WeightedAC, source=None,
                   pin: int | None = None,
                   search: bool = False) -> _PolishResult:
    """Damped Newton on the reduced residual with pinned boundary values,
    run until its sup meets `_target_residual`.

    With a source s the residual is R(w) - s; the Jacobian is the same.
    A step whose residual line search, halving t from 1, finds no
    decrease ends the solve. A search (`search=True`) takes corrections
    of any finite size and halves only down to t = `_SEARCH_MIN_STEP`;
    a finish ends at a correction larger than `_POLISH_STEP_CAP` in sup
    norm and halves down to t = `_MIN_LINE_STEP`.

    With `pin`, an interior node index, that node's value is held too:
    its residual row is left out of the steps and `history` (see
    `_hold`), but `residual_sup`, `converged` and the returned
    `residual` take the full residual.

    Never raises: a singular factorization, an oversized or non-finite
    correction or a stalled line search all come back as
    converged=False with the work done so far, so callers can try
    another route.
    """
    w = np.array(w, dtype=float)
    return _newton_from(w, _residual_values(ac, w, source), ac, source,
                        pin, search)


def _newton_from(w: np.ndarray, res: np.ndarray, ac: WeightedAC,
                 source=None, pin: int | None = None,
                 search: bool = False) -> _PolishResult:
    """`_newton_polish` from w with its full residual res = R(w) - s in
    hand, a root's `residual` (minus the source of the solve to come).
    Both are only read; a solve that takes no step returns them."""
    tol = _target_residual(ac)
    # a correction's sup must pass `<= step_cap`, which nan and inf
    # fail: a search's cap is the largest finite float
    step_cap = np.finfo(float).max if search else _POLISH_STEP_CAP
    min_step = _SEARCH_MIN_STEP if search else _MIN_LINE_STEP
    sup = _stepped_sup(res, pin)
    history = [sup]
    iterations = 0
    while sup > tol and iterations < _MAX_NEWTON_STEPS:
        bands = _jacobian_bands(ac, w)
        rhs = -res[1:-1]
        if pin is not None:
            _hold(bands, pin)
            rhs[pin - 1] = -0.0  # the held row's zero, negated
        try:
            # every band is a new array, and so is the right side
            delta = solve_tridiagonal(*bands, rhs)
        except SingularLinearization:
            break
        if not float(np.max(np.abs(delta))) <= step_cap:
            break
        t = 1.0
        while t >= min_step:
            trial = w.copy()
            trial[1:-1] += t * delta
            trial_res = _residual_values(ac, trial, source)
            trial_sup = _stepped_sup(trial_res, pin)
            if trial_sup < sup:
                break
            t *= 0.5
        else:
            break  # no direction of decrease left, usually the rounding floor
        w, res, sup = trial, trial_res, trial_sup
        history.append(sup)
        iterations += 1
    if pin is not None:
        sup = max(sup, abs(float(res[pin])))
    return _PolishResult(values=w, residual=res, residual_sup=sup,
                         iterations=iterations, history=tuple(history),
                         converged=sup <= tol)


def _stepped_sup(res: np.ndarray, pin: int | None) -> float:
    """sup |res| over the rows a Newton step solves: all but `pin`."""
    size = np.abs(res)
    if pin is not None:
        size[pin] = 0.0
    return float(np.max(size))


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
    return is_positive_definite(-diag, -upper)


def _certify(ac, root: _PolishResult, bound: float):
    """(energy, certified) of a Newton root: its energy, infinite when it
    did not converge, and whether it is a converged, monotone root with
    energy at most `bound` that is a strict local minimizer."""
    if not root.converged:
        return np.inf, False
    energy = _energy_values(ac, root.values)
    return energy, (energy <= bound
                    and bool(np.all(np.diff(root.values) >= 0))
                    and _is_strict_minimizer(ac, root.values))


def _pinning_sites(ac: WeightedAC) -> np.ndarray:
    """The nodes of the strict extrema of the weight a nearest the centre
    node on each side, nearest first, the left one first on a tie; a
    constant weight has none.

    The order is by node count, so no rounding of x decides it.
    """
    a = ac.a
    mid = a[1:-1]
    strict = (((mid > a[:-2]) & (mid > a[2:]))
              | ((mid < a[:-2]) & (mid < a[2:])))
    nodes = np.flatnonzero(strict) + 1
    centre = ac.grid.n // 2
    sites = np.concatenate([nodes[nodes < centre][-1:],
                            nodes[nodes > centre][:1]])
    return sites[np.argsort(np.abs(sites - centre), kind="stable")]


def _site_scan(ac, bound: float, kappa: float):
    """Newton at each pinning site; returns (the certified roots, lowest
    energy first, Newton iterations).

    Each site solve is a search (see `_newton_polish`); the walk of
    `_candidates` covers what it leaves. It starts from a tanh guess at
    the site with the decay rate kappa (`_guess_rate`, formed once by
    the caller), or, when the mirror site was solved first and converged,
    from that root reflected, -w[::-1]. A reflection that already meets
    the tolerance is the mirror twin of a root in hand, and adds
    nothing: of two mirror sites, the first one solved stands for both.
    When the mirror site's solve failed and the weights equal their
    reversals bit for bit, the site is skipped: its solve would repeat
    the failed one, mirrored.

    A site root counts if `_certify` passes it with an energy no higher
    than `bound`, the start's and the centre root's; that energy orders
    the roots. Of equal energies, the site nearest the centre comes
    first.
    """
    x, last = ac.grid.x(), ac.grid.n - 1
    iterations = 0
    solved, failed, roots = {}, set(), []
    for site in _pinning_sites(ac):
        if last - site in failed and all(
                np.array_equal(v, v[::-1])
                for v in (ac.a, *(b for _, b in ac.powers))):
            continue  # the failed solve, mirrored
        mirror = solved.get(last - site)
        start = (_initial_guess(ac.grid, kappa, x[site]) if mirror is None
                 else -mirror.values[::-1])
        root = _newton_polish(start, ac, search=True)
        iterations += root.iterations
        if not root.converged:
            failed.add(site)
            continue
        if mirror is not None and root.iterations == 0:
            continue  # the mirror twin
        solved[site] = root
        energy, certified = _certify(ac, root, bound)
        if certified:
            roots.append((energy, root))
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


def _phase_walk(ac, start: np.ndarray):
    """Walk the phase condition w(x0) = 0 downhill over the nodes x0;
    returns (lowest pinned root, its node, its energy, Newton
    iterations).

    The pin starts at the centre node, where the start crosses zero.
    Each move solves the pinned equation from the best root so far,
    shifted by the stride; the stride doubles while the energy falls,
    then halves, trying both sides, down to one node. A pinned solve
    whose free rows miss the tolerance counts as infinite energy; when
    the first one does, there is no walk, and its root comes back with
    its finite energy.
    """
    def solve(w, node):
        root = _newton_polish(w, ac, pin=node, search=True)
        if root.history[-1] > _target_residual(ac):
            return root, np.inf
        return root, _energy_values(ac, root.values)

    pin = ac.grid.n // 2
    best, energy = solve(start, pin)
    iterations = best.iterations
    if not energy < np.inf:
        return best, pin, _energy_values(ac, best.values), iterations
    seen = {pin}
    stride, sign, growing = 1, 1, True
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
    return best, pin, energy, iterations


def minimize(ac: WeightedAC, source_of) -> MinimizeResult:
    """Fourth-order front: the first certified root of the reduced
    equation whose deferred correction converges, corrected.

    `source_of` maps a root, as a Profile, and its residual R(w), the
    root's carried `residual` (read only), to its deferred-correction
    source (see `reduction.correction_source`); a map that returns None
    gives the second-order minimizer itself. Roots are tried in the
    order of `_candidates`, and a route runs only once every earlier
    root has failed its correction (`_correct`). Convergence test, the
    same for every solve: sup |gradient| / h <= 1e-8, equivalently
    sup |residual| <= 1e-8 / (2 * kinetic_factor), on the corrected
    equation. `polish_iterations` sums every Newton iteration, searches
    and corrections alike. A grid whose gradient rounding floor,
    2 kf eps max(a) / h^2, is above 1e-8 raises ValidationError before
    any root is sought; NonConvergence is raised when no root is
    certified or none corrects. The front is returned unjudged.
    """
    floor = (2.0 * ac.kinetic_factor * np.finfo(float).eps
             * float(np.max(ac.a)) / ac.h**2)
    if _GRAD_TOL < floor:
        raise ValidationError(
            f"the front tolerance {_GRAD_TOL:.0e} is below the rounding "
            f"floor {floor:.3e} of the gradient on this grid")
    spent = []
    residual = None
    for root, flags in _candidates(ac, spent):
        front = _correct(ac, root, source_of(Profile(ac.grid, root.values),
                                             root.residual))
        spent.append(front.iterations)
        if front.converged:
            w = front.values
            grad_sup = 2.0 * ac.kinetic_factor * ac.h * front.residual_sup
            return MinimizeResult(profile=Profile(ac.grid, w),
                                  final_energy=_energy_values(ac, w),
                                  polish_iterations=sum(spent),
                                  grad_sup_per_h=grad_sup / ac.h,
                                  flags=frozenset(flags))
        residual = front.residual_sup
    if residual is None:
        raise NonConvergence(f"no root was certified ({sum(spent)} Newton "
                             f"iterations)", iterations=sum(spent))
    raise NonConvergence(
        f"no certified root whose deferred correction converges (last "
        f"correction residual {residual:.3e})",
        final_residual=residual, iterations=sum(spent))


def _candidates(ac, spent: list):
    """The certified roots `minimize` tries, in order, each with its run
    flags; lazy, so each route runs only when the roots before it are
    used up. The Newton iterations of every route go onto `spent`.

    First the centre root, a Newton search from the centred tanh guess;
    then the site roots of `_site_scan`, bounded by the lower of the
    guess's and the centre root's energy; then a finish, unpinned Newton
    from the root at the lowest node of `_phase_walk` (whose pinned
    solves are searches) and its full residual, certified with energy
    no higher than that root's; last the pinned root itself, with flag
    `phase_pinned`, if its full residual meets the tolerance and it is a
    strict minimizer with the node held.
    """
    kappa = _guess_rate(ac)
    start = _initial_guess(ac.grid, kappa)
    energy = _energy_values(ac, start)
    first = _newton_polish(start, ac, search=True)
    spent.append(first.iterations)
    first_energy, certified = _certify(ac, first, energy)
    if certified:
        yield first, ()
    roots, iterations = _site_scan(ac, min(energy, first_energy), kappa)
    spent.append(iterations)
    for root in roots:
        yield root, ()
    pinned, pin, pinned_energy, iterations = _phase_walk(ac, start)
    free = _newton_from(pinned.values, pinned.residual, ac)
    spent.extend((iterations, free.iterations))
    if _certify(ac, free, pinned_energy)[1]:
        yield free, ()
    if pinned.converged and _is_strict_minimizer(ac, pinned.values, pin):
        yield pinned, ("phase_pinned",)


def _correct(ac, root: _PolishResult, source) -> _PolishResult:
    """The deferred-correction solve R(w) = source from a root; its
    iterations sum both attempts.

    Newton from the root normally converges in a few steps, since the
    source moves the root by O(h^2); it starts from the root's carried
    residual minus the source. Where the near-zero translation mode
    stalls it, Newton runs once more from the root with the node nearest
    its crossing pinned to zero, the phase condition; that counts only
    if the full residual, pinned row included, meets the tolerance. Both
    solves are finishes (see `_newton_polish`).
    """
    res = root.residual if source is None else root.residual - source
    free = _newton_from(root.values, res, ac, source=source)
    if free.converged:
        return free
    pin = int(np.argmin(np.abs(
        ac.grid.x() - report_crossing(Profile(ac.grid, root.values)))))
    start = root.values.copy()
    start[pin] = 0.0
    pinned = _newton_polish(start, ac, source=source, pin=pin)
    return replace(pinned, iterations=free.iterations + pinned.iterations)


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
