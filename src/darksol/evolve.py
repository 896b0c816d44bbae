"""Time evolution of the full complex field.

Crank-Nicolson in the Cayley form with one fixed-point correction of
the nonlinear density per step. For a frozen density the step is a
unitary rational function of a real symmetric tridiagonal operator,
so the scheme has no linear amplitude drift; what remains is the
second-order-in-dt error from the density update. Boundary values are
pinned to the initial trace times the stationary phase rotation, which
is the right condition for profiles that are flat near the edges.
"""

from dataclasses import dataclass

import numpy as np

from ._banded import solve_tridiagonal
from .errors import PhaseUndefined, StepDivergence, ValidationError
from .kink import report_crossing
from .model import Grid, Problem, Profile

__all__ = [
    "ComplexField", "EvolveOptions", "Trajectory", "PhaseCheck",
    "make_ansatz", "evolve_nls", "modulus_deviation",
    "phase_rotation_check", "kink_drift",
]


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex field stored as two real arrays on a shared grid."""

    grid: Grid
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        for name in ("re", "im"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.shape != (self.grid.n,):
                raise ValidationError(f"field {name} does not match the grid")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"field {name} has non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def psi(self) -> np.ndarray:
        return self.re + 1j * self.im

    def modulus(self) -> np.ndarray:
        return np.hypot(self.re, self.im)


@dataclass(frozen=True)
class EvolveOptions:
    dt: float
    t_max: float
    snapshot_every: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("time step dt must be positive")
        if not (np.isfinite(self.t_max) and self.t_max > 0):
            raise ValidationError("horizon t_max must be positive")
        if self.snapshot_every < 1:
            raise ValidationError("snapshot_every must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    fields: tuple
    dt: float
    n_steps: int


@dataclass(frozen=True)
class PhaseCheck:
    slope: float
    rel_err: float
    ref_index: int


def make_ansatz(phi: Profile, lam: float, t: float = 0.0) -> ComplexField:
    """Stationary profile lifted to the rotating complex field at time t."""
    return ComplexField(grid=phi.grid,
                        re=phi.values * np.cos(lam * t),
                        im=phi.values * np.sin(lam * t))


def _linear_parts(problem: Problem, grid: Grid):
    """Diagonal and off-diagonal of the linear operator in i psi_t = A psi."""
    h = grid.h
    if problem.is_cubic:
        off = -0.5 / h**2
        diag = np.full(grid.n, 1.0 / h**2)
    else:
        off = -1.0 / h**2
        diag = 2.0 / h**2 - problem.potential.on_grid(grid)
    return diag, off


def _nonlinear_density(problem: Problem, grid: Grid, rho: np.ndarray):
    if problem.is_cubic:
        return problem.g.on_grid(grid) * rho
    return problem.g1 * rho + rho**2


def evolve_nls(psi0: ComplexField, problem: Problem,
               options: EvolveOptions) -> Trajectory:
    """March the field to t_max, snapshotting every snapshot_every steps.

    The horizon is rounded to a whole number of steps. Each step solves
    the Cayley system twice: once with the density frozen at the old
    field, once with the density of the resulting midpoint average.
    """
    grid = psi0.grid
    n_steps = max(1, round(options.t_max / options.dt))
    lin_diag, lin_off = _linear_parts(problem, grid)
    psi = psi0.psi
    scale0 = float(np.max(np.abs(psi))) + 1.0
    edge_left, edge_right = psi[0], psi[-1]

    times = [0.0]
    fields = [psi0]

    def half_step_solve(psi_old, rho, t_new):
        a_diag = lin_diag + _nonlinear_density(problem, grid, rho)
        z = 0.5j * options.dt
        # Explicit application of (I - z A) to the old field.
        rhs_full = psi_old - z * (a_diag * psi_old)
        rhs_full[1:-1] -= z * lin_off * (psi_old[2:] + psi_old[:-2])
        rot = np.exp(1j * problem.lam * t_new)
        new_left, new_right = rot * edge_left, rot * edge_right
        rhs = rhs_full[1:-1].copy()
        rhs[0] -= z * lin_off * new_left
        rhs[-1] -= z * lin_off * new_right
        m = grid.n - 2
        lower = np.full(m, z * lin_off, dtype=complex)
        upper = np.full(m, z * lin_off, dtype=complex)
        diag = 1.0 + z * a_diag[1:-1]
        interior = solve_tridiagonal(lower, diag, upper, rhs)
        out = np.empty_like(psi_old)
        out[0], out[-1] = new_left, new_right
        out[1:-1] = interior
        return out

    for step in range(1, n_steps + 1):
        t_new = step * options.dt
        rho_pred = np.abs(psi) ** 2
        predicted = half_step_solve(psi, rho_pred, t_new)
        rho_mid = np.abs(0.5 * (psi + predicted)) ** 2
        psi = half_step_solve(psi, rho_mid, t_new)
        if not np.all(np.isfinite(psi.real)) or not np.all(np.isfinite(psi.imag)):
            raise StepDivergence(f"non-finite field at step {step}")
        if float(np.max(np.abs(psi))) > 1e8 * scale0:
            raise StepDivergence(f"field blow-up at step {step}")
        if step % options.snapshot_every == 0 or step == n_steps:
            times.append(t_new)
            fields.append(ComplexField(grid=grid, re=psi.real, im=psi.imag))

    return Trajectory(times=np.asarray(times), fields=tuple(fields),
                      dt=options.dt, n_steps=n_steps)


def modulus_deviation(traj: Trajectory, reference: Profile) -> float:
    """Largest sup-norm drift of the modulus from a reference profile."""
    if traj.fields[0].grid != reference.grid:
        raise ValidationError("trajectory and reference grids differ")
    worst = 0.0
    for field in traj.fields:
        worst = max(worst, float(np.max(np.abs(field.modulus()
                                               - np.abs(reference.values)))))
    return worst


def phase_rotation_check(traj: Trajectory, lam: float,
                         ref_index: int | None = None) -> PhaseCheck:
    """Fit the phase at a probe node against the stationary rotation rate.

    The probe defaults to the largest-modulus interior node in the
    right half, away from the pinned edge whose rotation is exact by
    construction. Fails when there are too few snapshots or the
    modulus at the probe ever drops near zero.
    """
    if len(traj.fields) < 2:
        raise PhaseUndefined("need at least two snapshots to fit a phase slope")
    field0 = traj.fields[0]
    n = field0.grid.n
    if ref_index is None:
        mod0 = field0.modulus()
        start = n // 2
        ref_index = start + int(np.argmax(mod0[start:n - 1]))
    ref_index = int(ref_index)
    values = np.array([f.psi[ref_index] for f in traj.fields])
    if np.min(np.abs(values)) < 1e-8:
        raise PhaseUndefined("modulus at the probe node is too small")
    phases = np.unwrap(np.angle(values))
    slope = float(np.polyfit(traj.times, phases, 1)[0])
    rel_err = abs(slope - lam) / max(abs(lam), 1e-300)
    return PhaseCheck(slope=slope, rel_err=float(rel_err),
                      ref_index=ref_index)


def kink_drift(traj: Trajectory, lam: float) -> float:
    """Largest wander of the front position in the co-rotating frame."""
    grid = traj.fields[0].grid

    def crossing(field, t):
        return report_crossing(
            Profile(grid, np.real(field.psi * np.exp(-1j * lam * t))))

    base = crossing(traj.fields[0], traj.times[0])
    worst = 0.0
    for t, field in zip(traj.times[1:], traj.fields[1:]):
        worst = max(worst, abs(crossing(field, t) - base))
    return worst
