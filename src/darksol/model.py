"""Problem data: grids, sampled profiles, periodic coefficients.

Everything here is immutable. Arrays are copied on construction and
marked read-only, so downstream solvers can hand profiles around
without defensive copies. A coefficient is stored as one period of
samples; extensions to larger grids are pure integer index maps, so
periodicity of extended data is exact in floating point.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ValidationError
from .exprparse import compile_expression

__all__ = [
    "Grid", "Profile", "Coefficient", "Equation", "Problem",
    "sample_coefficient", "validate_problem",
]

# Relative slack for node alignment checks. Grid spacings that agree to
# this level are treated as the same discretization.
_ALIGN_RTOL = 1e-9


def _frozen_array(values, n=None, name="values"):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform one-dimensional grid with n nodes spanning [xmin, xmax]."""

    xmin: float
    xmax: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.xmin) and np.isfinite(self.xmax)):
            raise ValidationError("grid endpoints must be finite")
        if not self.xmax > self.xmin:
            raise ValidationError("grid needs xmax > xmin")
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValidationError("grid needs an integer node count n >= 3")

    @property
    def h(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)

    def x(self) -> np.ndarray:
        """The nodes, `np.linspace(xmin, xmax, n)`: built at the first
        call and read-only, so every later call returns the same array."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        nodes = np.linspace(self.xmin, self.xmax, self.n)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True, eq=False)
class Profile:
    """Real-valued samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, self.grid.n))


@dataclass(frozen=True, eq=False)
class Coefficient:
    """One period of a T-periodic coefficient, sampled on equispaced nodes.

    `samples[k]` is the value at x = k * T / n_per for k = 0 .. n_per - 1;
    the node at x = T is the wrap-around of node 0 and is not stored.
    """

    samples: np.ndarray
    period: float
    cmin: float = field(init=False)
    cmax: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValidationError("coefficient period must be positive")
        arr = _frozen_array(self.samples, name="coefficient samples")
        if arr.shape[0] < 3:
            raise ValidationError("coefficient needs at least 3 samples per period")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "cmin", float(arr.min()))
        object.__setattr__(self, "cmax", float(arr.max()))

    @property
    def n_per(self) -> int:
        return self.samples.shape[0]

    @property
    def h(self) -> float:
        return self.period / self.n_per

    def on_grid(self, grid: Grid) -> np.ndarray:
        """Extend the sampled period onto a commensurate aligned grid.

        The grid spacing must equal the sample spacing and every grid
        node must land on a sample node; the extension is then an exact
        integer index map into the stored period.
        """
        if abs(grid.h - self.h) > _ALIGN_RTOL * self.h:
            raise GridMismatchError(
                f"grid spacing {grid.h} is incommensurate with "
                f"coefficient spacing {self.h}")
        k0 = round(grid.xmin / self.h)
        if abs(grid.xmin - k0 * self.h) > _ALIGN_RTOL * max(1.0, abs(grid.xmin)):
            raise GridMismatchError(
                f"grid origin {grid.xmin} is not aligned with coefficient nodes")
        idx = (k0 + np.arange(grid.n)) % self.n_per
        out = self.samples[idx]
        out.flags.writeable = False
        return out


def sample_coefficient(source, period: float, n_per_period: int,
                       positive: bool = False,
                       variables: dict | None = None) -> Coefficient:
    """Sample a coefficient from a callable, expression string or array.

    Expression strings may use x plus any names bound in `variables`.
    With positive=True a non-positive sample anywhere is rejected, which
    is the right setting for a defocusing interaction coefficient.
    """
    n_per_period = int(n_per_period)
    if n_per_period < 3:
        raise ValidationError("need at least 3 samples per period")
    if not (np.isfinite(period) and period > 0):
        raise ValidationError("coefficient period must be positive")
    nodes = np.arange(n_per_period) * (period / n_per_period)
    if isinstance(source, str):
        bindings = dict(variables or {})
        expr = compile_expression(source, variables=("x", *bindings))
        values = np.broadcast_to(expr(x=nodes, **bindings), nodes.shape)
    elif callable(source):
        values = np.asarray(source(nodes), dtype=float)
        if values.shape != nodes.shape:
            values = np.broadcast_to(values, nodes.shape)
    else:
        values = np.asarray(source, dtype=float)
        if values.shape != nodes.shape:
            raise ValidationError(
                f"coefficient table has length {values.size}, "
                f"expected {n_per_period}")
    coeff = Coefficient(samples=values, period=period)
    if positive and coeff.cmin <= 0:
        raise ValidationError(
            f"coefficient must be strictly positive, min sample = {coeff.cmin}",
            reason="coefficient_not_positive")
    return coeff


@dataclass(frozen=True, eq=False)
class Equation:
    """Both models' stationary equation in one form,

        -k phi'' + mu phi + sum_p c_p phi^p = 0,    mu = lam - V,

    the stationary states psi = exp(i lam t) phi of the field equation
    i psi_t = -k psi'' + d(|psi|^2) psi (see `diagonal`). Built by
    `Problem.equation`; `powers` holds (p, c_p) for consecutive odd p
    from 3 up, each c_p a constant or an array of samples like V.
    """

    k: float
    mu: float | np.ndarray
    potential: float | np.ndarray
    powers: tuple

    def residual(self, phi, lap):
        """Pointwise residual, given phi and a second difference of it."""
        out = -self.k * lap + self.mu * phi
        for p, c in self.powers:
            out = out + c * phi**p
        return out

    def diagonal(self, rho, out=None):
        """d(rho) = sum_p c_p rho^((p - 1) / 2) - V, by Horner's rule in rho,
        evaluated in `out` when given (a new array otherwise)."""
        *lower, (_, top) = self.powers
        out = np.multiply(top, rho, out=out)
        for _, c in reversed(lower):
            np.multiply(np.add(c, out, out=out), rho, out=out)
        return np.subtract(out, self.potential, out=out)


@dataclass(frozen=True)
class Problem:
    """Stationary-profile problem for one of the two supported models.

    kind = "cubic":           -0.5 phi'' + lam phi + g phi^3 = 0, lam < 0
    kind = "cubic-quintic":    phi'' + (V - lam) phi - g1 phi^3 - phi^5 = 0,
                               lam < min V
    Coefficients g and V are T-periodic; g1 is a constant. `equation`
    states both in the one form of `Equation`, the cubic-quintic
    equation taken times -1.
    """

    kind: str
    lam: float
    period: float
    g: Coefficient | None = None
    potential: Coefficient | None = None
    g1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cubic", "cubic-quintic"):
            raise ValidationError(f"unknown problem kind {self.kind!r}")
        if not np.isfinite(self.lam):
            raise ValidationError("lambda must be finite")
        if not np.isfinite(self.g1):
            raise ValidationError("g1 must be finite")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValidationError("period must be positive")
        for coeff in (self.g, self.potential):
            if coeff is not None and abs(coeff.period - self.period) > \
                    _ALIGN_RTOL * self.period:
                raise ValidationError("coefficient period differs from problem period")

    @property
    def is_cubic(self) -> bool:
        return self.kind == "cubic"

    @property
    def model_coefficient(self) -> Coefficient | None:
        """The model's periodic coefficient: g for the cubic model, V for
        the cubic-quintic one."""
        return self.g if self.is_cubic else self.potential

    @property
    def n_per(self) -> int:
        return self.model_coefficient.n_per

    def equation(self, grid: Grid | None = None) -> Equation:
        """This problem as an `Equation`, its coefficients sampled on one
        period, or extended onto `grid` (which must be aligned)."""
        def sampled(coeff):
            return coeff.samples if grid is None else coeff.on_grid(grid)

        if self.is_cubic:
            return Equation(k=0.5, mu=self.lam, potential=0.0,
                            powers=((3, sampled(self.g)),))
        potential = sampled(self.potential)
        return Equation(k=1.0, mu=self.lam - potential, potential=potential,
                        powers=((3, self.g1), (5, 1.0)))


def validate_problem(problem: Problem, grid: Grid | None = None) -> None:
    """Check the solvability conditions; returns nothing.

    Raises ValidationError with a distinct reason for each rejection:
    a sign-definiteness failure of lambda, a non-positive interaction
    coefficient, or a grid incommensurate with the period. An accepted
    problem has exactly one positive periodic background (see the
    `periodic` module).
    """
    if problem.is_cubic:
        if problem.g is None:
            raise ValidationError("cubic model needs an interaction coefficient g",
                                  reason="missing_coefficient")
        if problem.g.cmin <= 0:
            raise ValidationError(
                f"g must be strictly positive, min sample = {problem.g.cmin}",
                reason="coefficient_not_positive")
        if not problem.lam < 0:
            raise ValidationError("lambda must be negative",
                                  reason="lambda_sign")
    else:
        if problem.potential is None:
            raise ValidationError("cubic-quintic model needs a potential V",
                                  reason="missing_coefficient")
        if not problem.lam < problem.potential.cmin:
            raise ValidationError(
                f"lambda must lie below min V = {problem.potential.cmin}",
                reason="lambda_sign")
    if grid is not None:
        problem.model_coefficient.on_grid(grid)  # raises if incommensurate
        span = grid.xmax - grid.xmin
        periods = span / problem.period
        if abs(periods - round(periods)) > _ALIGN_RTOL * max(1.0, periods):
            raise GridMismatchError(
                f"grid span {span} is not an integer number of periods")
