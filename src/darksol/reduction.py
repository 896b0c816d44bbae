"""Reduction of the stationary problem onto the background.

Dividing the profile by the positive periodic background turns the
stationary equation into a weighted Allen-Cahn equation for the ratio
w, with weights built from powers of the background, one per power of
`Equation.powers`: the kernels sum over them. The discrete
energy below is chosen so that its gradient is exactly -2 * kf * h
times the discrete residual of that equation (midpoint-averaged edge
weights, trapezoid quadrature), which is what makes minimizing the
energy and solving the residual by Newton interchangeable.

That pair is second order. A fixed source s turns it into the pair
R(w) = s, whose energy gains the linear term 2 * kf * h * sum(s w), so
the identity survives; `correction_source` builds the s that lifts the
front to fourth order (deferred correction against the Numerov form of
the unreduced equation).

The residual, its Jacobian and the energy are the front solver's inner
loop. The residual and the Jacobian form the nonlinearity on the
interior nodes only, since the pinned boundary rows are fixed, and
every kernel builds its terms with in-place products on its own new
arrays. Each keeps the operation order of its plain expression, so its
bits are those of that expression: products are only commuted, never
regrouped, and sums keep their order.
"""

from dataclasses import dataclass
from functools import reduce
from operator import iadd, imul, isub, mul

import numpy as np

from .errors import GridMismatchError, ValidationError
from .model import Equation, Grid, Problem, Profile, _frozen_array

__all__ = [
    "WeightedAC", "to_allen_cahn", "energy", "residual_reduced", "lift",
    "correction_source",
]

# Source entries up to this many rounding units of the stiffest flux
# term, max(a) / h^2, are rounding noise of the two residuals they are
# the difference of, not truncation error, and are set to zero. Left
# in, such noise in a nearly saturated tail can push w past 1 there.
_SOURCE_FLOOR_ULPS = 64


@dataclass(frozen=True, eq=False)
class WeightedAC:
    """Weighted Allen-Cahn data (a w')' = sum_p b_p w (w^(p-1) - 1).

    a is the squared background; `powers` holds (p, b_p) for each
    (p, c_p) of `Equation.powers`, with b_p = (c_p / k) phi+^(p+1).
    kinetic_factor is the prefactor of the gradient term in the energy,
    1 / (2k) for the k of `Problem.equation`. `equation` is the
    unreduced equation on `grid` that `to_allen_cahn` reduced; a
    reduction assembled by hand has none, and feeds neither
    `correction_source` nor a report.

    Every array that does not depend on w is built once here, read-only:
    the edge weights, the Jacobian's off-diagonal bands and the flux
    part of its diagonal (already divided by h^2), and the trapezoid
    weights.
    """

    grid: Grid
    a: np.ndarray
    powers: tuple
    kinetic_factor: float
    equation: Equation | None = None

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "a", _frozen_array(self.a, n, "weight a"))
        if not self.powers or any(p < 3 or p % 2 == 0 for p, _ in self.powers):
            raise ValidationError("powers must be odd and at least 3")
        object.__setattr__(self, "powers", tuple(
            (p, _frozen_array(b, n, f"weight b_{p}"))
            for p, b in self.powers))
        if np.min(self.a) <= 0:
            raise ValidationError("weight a must be strictly positive")
        if self.kinetic_factor <= 0:
            raise ValidationError("kinetic factor must be positive")
        # The density's weights 2 kf b_p / (p + 1), divided out once: a
        # division per energy evaluation would repeat it on every call.
        object.__setattr__(self, "_wells", tuple(
            (p, b / ((p + 1) / (2.0 * self.kinetic_factor)))
            for p, b in self.powers))
        h2 = self.h**2
        edge = 0.5 * (self.a[:-1] + self.a[1:])
        trapezoid = np.ones(self.grid.n)
        trapezoid[0] = trapezoid[-1] = 0.5
        for name, arr in (
                ("_edge", edge),
                ("_lower", np.concatenate([[0.0], edge[1:-1]]) / h2),
                ("_upper", np.concatenate([edge[1:-1], [0.0]]) / h2),
                ("_flux_diag", -(edge[1:] + edge[:-1]) / h2),
                ("_trapezoid", trapezoid)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        return self.grid.h


def to_allen_cahn(problem: Problem, background: Profile) -> WeightedAC:
    """Build the weighted Allen-Cahn data from a positive background.

    The background may live on the period cell or on any larger grid
    aligned with the coefficient nodes.
    """
    phi = background.values
    if np.min(phi) <= 0:
        raise ValidationError("background must be strictly positive")
    grid = background.grid
    eq = problem.equation(grid)
    # -k (a w')' + sum_p c_p phi^(p+1) (w^p - w) = 0: the equation for
    # w phi minus w times the background's, multiplied by phi.
    return WeightedAC(grid=grid, a=phi**2,
                      powers=tuple((p, (c / eq.k) * phi**(p + 1))
                                   for p, c in eq.powers),
                      kinetic_factor=0.5 / eq.k, equation=eq)


def _check_profile(w: Profile, ac: WeightedAC) -> np.ndarray:
    if w.grid != ac.grid:
        raise GridMismatchError("profile grid differs from the reduction grid")
    return w.values


def _even_power(w2, p):
    """w^(p-1) as products of w^2. numpy's pow of a w with negative
    entries costs 50 to 200 times as much: on a 5,121-node tanh front,
    229 us for w**4 against 1 us for w2 * w2."""
    return reduce(mul, [w2] * ((p - 1) // 2))


def _odd_power(x, p):
    """x^p for odd p as p - 1 products of x, keeping the sign of -0.0.

    Each product rounds once, so the relative error is at most
    (p - 1) eps / 2. Against numpy's pow that is within 1 ulp for p = 3
    and within 2 ulp for p = 5 but on about one entry in 10^5 (3 ulp).
    On an array with negative entries pow costs about 60 times as much:
    229 us for x**3 against 4 us for x * x * x on a 5,121-node tanh
    front.
    """
    return reduce(mul, [x] * p)


def _well_terms(ac: WeightedAC, w2: np.ndarray):
    """Terms 2 kf b_p P_p(w^2) / (p + 1) of the double-well prefactor,
    P_p(s) = sum_{j<m} (m-j) s^j, m = (p-1)/2, by Horner: P_3 = 1,
    P_5 = 2 + w^2. Each times (1 - w^2)^2, they sum to the density."""
    for p, weight in ac._wells:
        poly = 1.0
        for j in range(2, (p + 1) // 2):
            poly = poly * w2 + j
        yield weight * poly


# Every sum over powers starts from its first term (reduce without a
# seed): a 0.0 seed would turn a -0.0 term into +0.0. Every term is a
# new array, so the sums and the products with it run in place.
def _potential_density(ac: WeightedAC, w: np.ndarray) -> np.ndarray:
    """sum_p 2 kf b_p P_p(w^2) (1 - w^2)^2 / (p + 1), a new array."""
    w2 = w * w
    q2 = 1.0 - w2
    q2 *= q2
    return reduce(iadd, (imul(t, q2) for t in _well_terms(ac, w2)))


def _nonlinearity(ac: WeightedAC, w: np.ndarray,
                  nodes: slice = slice(None)) -> np.ndarray:
    """sum_p b_p w (w^(p-1) - 1) on `nodes`, a new array."""
    w = w[nodes]
    w2 = w * w
    return reduce(iadd, (imul(b[nodes] * w, _even_power(w2, p) - 1.0)
                         for p, b in ac.powers))


def _energy_values(ac: WeightedAC, w: np.ndarray) -> float:
    """kf sum(edge (w_{i+1} - w_i)^2) / h + h sum(trapezoid density)."""
    h = ac.h
    kinetic = w[1:] - w[:-1]
    kinetic *= kinetic
    kinetic *= ac._edge
    density = _potential_density(ac, w)
    density *= ac._trapezoid
    return float(ac.kinetic_factor * np.sum(kinetic) / h
                 + h * np.sum(density))


def _residual_values(ac: WeightedAC, w: np.ndarray,
                     source=None) -> np.ndarray:
    """R(w) - s, a new array: the flux difference over h^2 minus the
    nonlinearity at the interior nodes, 0 - s at the two pinned ones."""
    flux = w[1:] - w[:-1]
    flux *= ac._edge
    out = np.empty_like(w)
    inner = out[1:-1]
    np.subtract(flux[1:], flux[:-1], out=inner)
    inner /= ac.h**2
    inner -= _nonlinearity(ac, w, slice(1, -1))
    out[0] = out[-1] = 0.0
    if source is not None:
        out -= source
    return out


def _jacobian_bands(ac: WeightedAC, w: np.ndarray):
    """Bands (lower, diag, upper) of the residual's Jacobian at the
    interior nodes; lower[0] and upper[-1] are zero. All three are new
    arrays, free for the caller to overwrite (`kink._hold`, an in-place
    solve)."""
    wi = w[1:-1]
    wi2 = wi * wi
    ramp = reduce(iadd, (imul(isub(p * _even_power(wi2, p), 1.0), b[1:-1])
                         for p, b in ac.powers))
    return (ac._lower.copy(), np.subtract(ac._flux_diag, ramp, out=ramp),
            ac._upper.copy())


def energy(w: Profile, ac: WeightedAC) -> float:
    """Discrete energy of a ratio profile w."""
    return _energy_values(ac, _check_profile(w, ac))


def residual_reduced(w: Profile, ac: WeightedAC) -> Profile:
    """Residual of the reduced equation; zero at the pinned boundary nodes."""
    return Profile(ac.grid, _residual_values(ac, _check_profile(w, ac)))


def lift(w: Profile, background_ext: Profile) -> Profile:
    """Multiply the ratio by the extended background to recover the profile."""
    if w.grid != background_ext.grid:
        raise GridMismatchError("ratio and background live on different grids")
    return Profile(w.grid, background_ext.values * w.values)


def _numerov_defect(eq: Equation, background_ext: Profile,
                   w: np.ndarray) -> np.ndarray:
    """Numerov residual of the unreduced equation, reduced to the ratio.

    With the unreduced residual written as R(phi) = sigma D2 phi + M f(phi),
    M = (1, 10, 1) / 12 and sigma = -k for the Equation `eq` on the
    background's grid (see `Problem.equation`), this is
    (phi+ / sigma) [R(w phi+) - w R(phi+)]: the compact fourth-order
    counterpart of the reduced residual, which it matches in the
    continuum limit. Each term is formed from differences of w, so it
    vanishes exactly where w is flat at +-1. Zero at the pinned
    boundary nodes.
    """
    phi = background_ext.values
    h = background_ext.grid.h
    sigma = -eq.k
    linear = eq.mu * phi
    powers = [(p, c * _odd_power(phi, p)) for p, c in eq.powers]
    wc = w[1:-1]
    left, right = w[:-2] - wc, w[2:] - wc
    # f(w_j phi_j) - w_i f(phi_j) for j = i - 1, i, i + 1, weighted by M
    compact = linear[:-2] * left + linear[2:] * right
    for k, coef in powers:
        wk = _odd_power(w, k)
        compact = compact + (coef[:-2] * (wk[:-2] - wc)
                             + 10.0 * coef[1:-1] * (wk[1:-1] - wc)
                             + coef[2:] * (wk[2:] - wc))
    out = np.zeros_like(w)
    out[1:-1] = phi[1:-1] * ((phi[:-2] * left + phi[2:] * right) / h**2
                             + compact / (12.0 * sigma))
    return out


def correction_source(ac: WeightedAC, background_ext: Profile,
                      w: Profile, residual: np.ndarray) -> np.ndarray:
    """Deferred-correction source s = R(w) - T(w) for a solved front w,
    given its reduced residual R(w) (a Newton root carries it; only
    read here).

    R is the second-order reduced residual and T the Numerov defect.
    Solving R(v) = s moves the front to the root of T up to O(h^4) in
    the constant-coefficient case; with a periodic background the
    background itself stays O(h^2). Entries at the rounding floor are
    zeroed (see _SOURCE_FLOOR_ULPS). `ac` is a reduction that
    `to_allen_cahn` built, which keeps the unreduced equation.
    """
    vals = _check_profile(w, ac)
    if background_ext.grid != ac.grid:
        raise GridMismatchError(
            "background grid differs from the reduction grid")
    source = residual - _numerov_defect(ac.equation, background_ext, vals)
    floor = _SOURCE_FLOOR_ULPS * np.finfo(float).eps * np.max(ac.a) / ac.h**2
    source[np.abs(source) <= floor] = 0.0
    return source
