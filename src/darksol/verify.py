"""A-posteriori checks on a computed front profile.

`build_report` is the only route to a front's report, and everything it
computes is read-only and recomputable from the written profiles: the
three-point residuals of the unreduced and the reduced equation, the
amplitude and monotonicity margins of the ratio, exponential tail rates
fitted on each side (of the tail and of its first difference), and the
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

# Tail differences below this are dominated by cancellation noise and
# are excluded from decay fits.
_TAIL_FLOOR = 1e-14
_MIN_FIT_POINTS = 5
# The outer share of the half-domain that every run's tail checks read.
TAIL_FRACTION = 0.25
# The flags of a side whose tail has no decay fit: either fails the verdict.
_UNFITTED = ("tail_fit_unavailable_left", "tail_fit_unavailable_right")


def _fit_line(t: np.ndarray, y: np.ndarray):
    """Least-squares line through (t, y) in closed form: (slope, r^2)."""
    t_mean, y_mean = t.mean(), y.mean()
    dt = t - t_mean
    slope = float(np.dot(dt, y) / np.dot(dt, dt))
    fitted = slope * t + (y_mean - slope * t_mean)
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, float(r2)


def _one_tail(t: np.ndarray, diff: np.ndarray, side: str, flags: set):
    """(rate, r2, points) of log |diff| over the samples above the floor;
    with fewer than `_MIN_FIT_POINTS` the side is flagged
    `tail_fit_unavailable_<side>` and rate and r2 are 0.0."""
    size = np.abs(diff)
    keep = size >= _TAIL_FLOOR
    usable = np.count_nonzero(keep)
    if usable < diff.size:
        flags.add(f"tail_floor_{side}")
    if usable < _MIN_FIT_POINTS:
        flags.add(f"tail_fit_unavailable_{side}")
        return 0.0, 0.0, int(usable)
    t = t[keep]
    slope, r2 = _fit_line(t, np.log(size[keep]))
    return -slope, r2, int(t.size)


def _fit_tail(phi: Profile, background_ext: Profile, x: np.ndarray,
              start: float, inner: float, side: str, flags: set):
    """Exponential approach rate of phi to +background on the right
    (`side` "right", window start <= x <= inner) or to -background on
    the left (its mirror image), read outward from the core. The window
    is a slice of the ascending nodes x, its ends found by bisection.

    The tail's first difference is fitted the same way as an independent
    consistency check on the rate. A side without enough samples above
    the floor is flagged (see `_one_tail`); only the tail's own flag
    fails the report's verdict. Returns (rate, r2, points, deriv_rate,
    deriv_r2).
    """
    if side == "right":
        window = slice(np.searchsorted(x, start, "left"),
                       np.searchsorted(x, inner, "right"))
        t = x[window]
        d = phi.values[window] - background_ext.values[window]
    else:
        window = slice(np.searchsorted(x, -inner, "left"),
                       np.searchsorted(x, -start, "right"))
        t = -x[window][::-1]
        d = (phi.values[window] + background_ext.values[window])[::-1]
    rate, r2, points = _one_tail(t, d, side, flags)
    h = phi.grid.h
    deriv_rate, deriv_r2, _ = _one_tail(t[:-1] + 0.5 * h, np.diff(d) / h,
                                        f"{side}_deriv", flags)
    return rate, r2, points, deriv_rate, deriv_r2


@dataclass(frozen=True)
class SolitonReport:
    """Scalar summary of one computed front, as written to report files."""

    residual_phi_sup: float
    residual_reduced_sup: float
    amplitude_margin: float
    monotonicity_margin: float
    decay_rate_fit_left: float
    decay_rate_fit_right: float
    decay_fit_r2_left: float
    decay_fit_r2_right: float
    decay_rate_deriv_left: float
    decay_rate_deriv_right: float
    asymptotic_ratio_err_left: float
    asymptotic_ratio_err_right: float
    diagnostic_flags: tuple

    @property
    def verified(self) -> bool:
        """Both margins positive and a decay fit on each side."""
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
            "decay_fit_r2": {"left": self.decay_fit_r2_left,
                             "right": self.decay_fit_r2_right},
            "decay_rate_deriv": {"left": self.decay_rate_deriv_left,
                                 "right": self.decay_rate_deriv_right},
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
    forward difference quotient of w. The tail fits read the outer
    `tail_fraction` of the half-domain (in every run's report the outer
    quarter, `TAIL_FRACTION`) with a two-period collar next to
    the boundary removed, so neither the core of the front nor the
    pinned edge contaminates the slope. The ratio errors are the sups of
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
        raise ValidationError("domain too short for a tail fit")
    start = inner * (1.0 - tail_fraction)
    flags = set()
    rate_r, r2_r, _, deriv_rate_r, deriv_r2_r = _fit_tail(
        phi, background_ext, x, start, inner, "right", flags)
    rate_l, r2_l, _, deriv_rate_l, deriv_r2_l = _fit_tail(
        phi, background_ext, x, start, inner, "left", flags)
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
        decay_fit_r2_left=r2_l,
        decay_fit_r2_right=r2_r,
        decay_rate_deriv_left=deriv_rate_l,
        decay_rate_deriv_right=deriv_rate_r,
        asymptotic_ratio_err_left=float(np.max(np.abs(
            phi.values[left] / background_ext.values[left] + 1.0))),
        asymptotic_ratio_err_right=float(np.max(np.abs(
            phi.values[right] / background_ext.values[right] - 1.0))),
        diagnostic_flags=tuple(sorted(flags)),
    )
