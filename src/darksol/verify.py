"""A-posteriori checks on a computed front profile.

`build_report` is the only route to a front's report, and everything it
computes is read-only and recomputable from the written profiles: the
three-point residuals of the unreduced and the reduced equation, the
amplitude and monotonicity margins of the ratio, the exponential decay
rate of each side's tail over one period of the coefficient, and the
distance of phi / background from its limits -1 and +1 in the outer
windows. The report is what the command line writes and re-reads, and
what downstream runs are judged by: its `verified` is the one verdict
on a computed front. A failed property never raises; it shows in the
margins and the flags, and fails the verdict.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError
from .model import Equation, Problem, Profile
from .reduction import (WeightedAC, _odd_power, _residual_values, lift,
                        to_allen_cahn)

__all__ = ["SolitonReport", "build_report"]

# Tail samples below this are dominated by cancellation noise: a side
# with one has no decay rate.
_TAIL_FLOOR = 1e-14
# The outer share of the half-domain that every run's tail checks read.
TAIL_FRACTION = 0.25
# The flags of a side without a decay rate: either fails the verdict.
_UNFITTED = ("tail_fit_unavailable_left", "tail_fit_unavailable_right")


def _tail_rate(d: np.ndarray, period: float, side: str, flags: set):
    """Decay rate ln(|d[0]| / |d[1]|) / T of a tail sampled at two nodes
    one period T apart, d[1] the outer one. A ratio over a whole period
    sees the decay and none of the periodic wobble on top of it. With
    either sample below `_TAIL_FLOOR` the side is flagged
    `tail_fit_unavailable_<side>` and its rate is 0.0."""
    near, far = np.abs(d)
    if min(near, far) < _TAIL_FLOOR:
        flags.add(f"tail_fit_unavailable_{side}")
        return 0.0
    return float(np.log(near / far)) / period


@dataclass(frozen=True)
class SolitonReport:
    """Scalar summary of one computed front, as written to report files."""

    residual_phi_sup: float
    residual_reduced_sup: float
    amplitude_margin: float
    monotonicity_margin: float
    decay_rate_fit_left: float
    decay_rate_fit_right: float
    asymptotic_ratio_err_left: float
    asymptotic_ratio_err_right: float
    diagnostic_flags: tuple

    @property
    def verified(self) -> bool:
        """Both margins positive and a decay rate on each side."""
        return (self.amplitude_margin > 0 and self.monotonicity_margin > 0
                and all(f not in self.diagnostic_flags for f in _UNFITTED))

    def to_dict(self) -> dict:
        return {
            "residual_phi_sup": self.residual_phi_sup,
            "residual_reduced_sup": self.residual_reduced_sup,
            "amplitude_margin": self.amplitude_margin,
            "monotonicity_margin": self.monotonicity_margin,
            "decay_rate_fit": {"left": self.decay_rate_fit_left,
                               "right": self.decay_rate_fit_right},
            "asymptotic_ratio_err": {"left": self.asymptotic_ratio_err_left,
                                     "right": self.asymptotic_ratio_err_right},
            "diagnostic_flags": list(self.diagnostic_flags),
            "verified": self.verified,
        }


def _residual_phi(phi: Profile, eq: Equation) -> float:
    """Sup norm of the unreduced stationary residual at interior nodes,
    `Equation.residual` with its odd powers of the sign-changing phi
    formed by products (`reduction._odd_power`)."""
    v = phi.values
    lap = np.zeros_like(v)
    lap[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / phi.grid.h**2
    res = -eq.k * lap + eq.mu * v
    for p, c in eq.powers:
        res = res + c * _odd_power(v, p)
    return float(np.max(np.abs(res[1:-1])))


def build_report(problem: Problem, w: Profile, background_ext: Profile,
                 tail_fraction: float = TAIL_FRACTION,
                 ac: WeightedAC | None = None) -> SolitonReport:
    """Assemble the full report for a ratio profile and its background.

    `ac` is the reduction of the problem onto this background, as
    `to_allen_cahn` builds it; a run passes its own, and without one it
    is built here. Either way the report has the same bits.

    The amplitude margin is 1 - max |w| over the interior nodes (the
    boundary is pinned at -1 and 1), the monotonicity margin the least
    forward difference quotient of w. Each side's decay rate is
    `_tail_rate` of phi - background on the right, and of its mirror
    phi + background on the left, at x0 and x0 + T, `problem.n_per`
    nodes further out. x0 is the first node of the outer
    `tail_fraction` of the half-domain with a two-period collar next to
    the boundary removed (in every run's report the outer quarter,
    `TAIL_FRACTION`), so neither the core of the front nor the pinned
    edge reaches either sample. The ratio errors are the sups of
    |phi / background + 1| and |phi / background - 1| over the outer
    `tail_fraction` of the left and the right half, collar included.
    """
    if not 0 < tail_fraction < 1:
        raise ValidationError("tail_fraction must lie in (0, 1)")
    if ac is None:
        ac = to_allen_cahn(problem, background_ext)
    phi = lift(w, background_ext)
    if ac.grid != phi.grid:
        raise GridMismatchError(
            "reduction grid differs from the profile grid")
    res_reduced = float(np.max(np.abs(_residual_values(ac, w.values))))
    grid = phi.grid
    x = grid.x()
    inner = grid.xmax - 2.0 * problem.period
    if inner <= 0:
        raise ValidationError("domain too short for a tail rate")
    start = inner * (1.0 - tail_fraction)
    # each side's first node outward of start, and the node a period out
    near = np.searchsorted(x, start, "left")
    right = [near, near + problem.n_per]
    near = np.searchsorted(x, -start, "right") - 1
    left = [near, near - problem.n_per]
    flags = set()
    rate_r = _tail_rate(phi.values[right] - background_ext.values[right],
                        problem.period, "right", flags)
    rate_l = _tail_rate(phi.values[left] + background_ext.values[left],
                        problem.period, "left", flags)
    cut = grid.xmax * (1.0 - tail_fraction)
    # the outer windows x <= -cut and x >= cut, as slices of the nodes
    left = slice(np.searchsorted(x, -cut, "right"))
    right = slice(np.searchsorted(x, cut, "left"), None)
    return SolitonReport(
        residual_phi_sup=_residual_phi(phi, ac.equation),
        residual_reduced_sup=res_reduced,
        amplitude_margin=float(1.0 - np.max(np.abs(w.values[1:-1]))),
        monotonicity_margin=float(np.min(np.diff(w.values)) / grid.h),
        decay_rate_fit_left=rate_l,
        decay_rate_fit_right=rate_r,
        asymptotic_ratio_err_left=float(np.max(np.abs(
            phi.values[left] / background_ext.values[left] + 1.0))),
        asymptotic_ratio_err_right=float(np.max(np.abs(
            phi.values[right] / background_ext.values[right] - 1.0))),
        diagnostic_flags=tuple(sorted(flags)),
    )
