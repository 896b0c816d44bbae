"""A-posteriori checks on a computed front profile.

Everything here is read-only diagnostics: residuals of the unreduced
equation, distance of the ratio from its clamped range, and tail decay
rates fitted from the data. The combined report is what the command
line prints and what downstream runs are judged by.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TailUnderflow, ValidationError
from .model import Problem, Profile
from .reduction import _residual_values, lift, to_allen_cahn

__all__ = [
    "DecayFit", "SolitonReport", "residual_phi", "amplitude_margin",
    "monotonicity_margin", "fit_decay_rate", "check_asymptotic_ratio",
    "build_report",
]

# Tail differences below this are dominated by cancellation noise and
# are excluded from decay fits.
_TAIL_FLOOR = 1e-14
_MIN_FIT_POINTS = 5
# Default outer share of the half-domain that the tail checks read.
TAIL_FRACTION = 0.25


def residual_phi(phi: Profile, problem: Problem) -> float:
    """Sup norm of the unreduced stationary residual at interior nodes."""
    v = phi.values
    lap = np.zeros_like(v)
    lap[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / phi.grid.h**2
    res = problem.equation(phi.grid).residual(v, lap)[1:-1]
    return float(np.max(np.abs(res)))


def amplitude_margin(w: Profile) -> float:
    """1 - max |w| over interior nodes (the boundary is pinned at 1)."""
    return float(1.0 - np.max(np.abs(w.values[1:-1])))


def monotonicity_margin(w: Profile) -> float:
    """Minimum forward difference quotient over all node pairs."""
    return float(np.min(np.diff(w.values)) / w.grid.h)


@dataclass(frozen=True)
class DecayFit:
    rate_left: float
    rate_right: float
    r2_left: float
    r2_right: float
    deriv_rate_left: float
    deriv_rate_right: float
    deriv_r2_left: float
    deriv_r2_right: float
    points_left: int
    points_right: int
    flags: frozenset


def _fit_line(t: np.ndarray, y: np.ndarray):
    """Least-squares line through (t, y) in closed form: (slope, r^2)."""
    t_mean, y_mean = np.mean(t), np.mean(y)
    dt = t - t_mean
    slope = float(np.dot(dt, y) / np.dot(dt, dt))
    fitted = slope * t + (y_mean - slope * t_mean)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, float(r2)


def _one_tail(t: np.ndarray, diff: np.ndarray, side: str, flags: set):
    keep = np.abs(diff) >= _TAIL_FLOOR
    if np.count_nonzero(keep) < diff.size:
        flags.add(f"tail_floor_{side}")
    if np.count_nonzero(keep) < _MIN_FIT_POINTS:
        raise TailUnderflow(
            f"only {np.count_nonzero(keep)} usable tail samples on the "
            f"{side} side")
    t, diff = t[keep], np.abs(diff[keep])
    slope, r2 = _fit_line(t, np.log(diff))
    return -slope, r2, int(t.size)


def fit_decay_rate(phi: Profile, background_ext: Profile, period: float,
                   tail_fraction: float = TAIL_FRACTION) -> DecayFit:
    """Fit exponential approach rates of phi to -background on the left
    and +background on the right.

    The fit window is the outer `tail_fraction` of the half-domain with
    a two-period collar next to the boundary removed, so neither the
    core of the front nor the pinned edge contaminates the slope. The
    first difference of the tail is fitted the same way as an
    independent consistency check on the rate.
    """
    if not 0 < tail_fraction < 1:
        raise ValidationError("tail_fraction must lie in (0, 1)")
    grid = phi.grid
    if background_ext.grid != grid:
        raise ValidationError("profile and background live on different grids")
    x = grid.x()
    half = grid.xmax
    inner = half - 2.0 * period
    if inner <= 0:
        raise ValidationError("domain too short for a tail fit")
    start = inner * (1.0 - tail_fraction)
    flags = set()

    def tail(sign_x):
        if sign_x > 0:
            mask = (x >= start) & (x <= inner)
            d = phi.values[mask] - background_ext.values[mask]
            return x[mask], d
        mask = (x <= -start) & (x >= -inner)
        d = phi.values[mask] + background_ext.values[mask]
        return -x[mask][::-1], d[::-1]

    t_r, d_r = tail(+1)
    t_l, d_l = tail(-1)
    rate_r, r2_r, n_r = _one_tail(t_r, d_r, "right", flags)
    rate_l, r2_l, n_l = _one_tail(t_l, d_l, "left", flags)

    h = grid.h

    def deriv_fit(t, d, side):
        # The differenced tail is one cancellation noisier than the
        # tail itself; an unusable derivative fit is recorded, not fatal.
        try:
            rate, r2, _ = _one_tail(t[:-1] + 0.5 * h, np.diff(d) / h,
                                    side, flags)
            return rate, r2
        except TailUnderflow:
            flags.add(f"deriv_fit_unavailable_{side}")
            return 0.0, 0.0

    drate_r, dr2_r = deriv_fit(t_r, d_r, "right_deriv")
    drate_l, dr2_l = deriv_fit(t_l, d_l, "left_deriv")

    return DecayFit(rate_left=rate_l, rate_right=rate_r,
                    r2_left=r2_l, r2_right=r2_r,
                    deriv_rate_left=drate_l, deriv_rate_right=drate_r,
                    deriv_r2_left=dr2_l, deriv_r2_right=dr2_r,
                    points_left=n_l, points_right=n_r,
                    flags=frozenset(flags))


def check_asymptotic_ratio(phi: Profile, background_ext: Profile,
                           tail_fraction: float = TAIL_FRACTION):
    """Sups of |phi / background + 1| and |phi / background - 1| over the
    outer (left, right) windows, where a front approaches -+background."""
    if not 0 < tail_fraction < 1:
        raise ValidationError("tail_fraction must lie in (0, 1)")
    grid = phi.grid
    if background_ext.grid != grid:
        raise ValidationError("profile and background live on different grids")
    x = grid.x()
    cut = grid.xmax * (1.0 - tail_fraction)
    ratio = phi.values / background_ext.values
    return (float(np.max(np.abs(ratio[x <= -cut] + 1.0))),
            float(np.max(np.abs(ratio[x >= cut] - 1.0))))


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
        return self.amplitude_margin > 0 and self.monotonicity_margin > 0

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


def build_report(problem: Problem, w: Profile, background_ext: Profile,
                 tail_fraction: float = TAIL_FRACTION) -> SolitonReport:
    """Assemble the full report for a ratio profile and its background."""
    ac = to_allen_cahn(problem, background_ext)
    phi = lift(w, background_ext)
    res_reduced = float(np.max(np.abs(_residual_values(ac, w.values))))
    fit = fit_decay_rate(phi, background_ext, problem.period,
                         tail_fraction=tail_fraction)
    err_left, err_right = check_asymptotic_ratio(phi, background_ext,
                                                 tail_fraction=tail_fraction)
    return SolitonReport(
        residual_phi_sup=residual_phi(phi, problem),
        residual_reduced_sup=res_reduced,
        amplitude_margin=amplitude_margin(w),
        monotonicity_margin=monotonicity_margin(w),
        decay_rate_fit_left=fit.rate_left,
        decay_rate_fit_right=fit.rate_right,
        decay_fit_r2_left=fit.r2_left,
        decay_fit_r2_right=fit.r2_right,
        decay_rate_deriv_left=fit.deriv_rate_left,
        decay_rate_deriv_right=fit.deriv_rate_right,
        asymptotic_ratio_err_left=err_left,
        asymptotic_ratio_err_right=err_right,
        diagnostic_flags=tuple(sorted(fit.flags)),
    )
