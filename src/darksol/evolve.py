"""Time evolution of the full complex field.

Besse's relaxation scheme (SIAM J. Numer. Anal. 42, 934, 2004) in the
Cayley form on the compact (Numerov) operator, i M psi_t = k D2 psi +
M(d psi) with M = (1, 10, 1) / 12, the form whose stationary states are
the fourth-order fronts the pipeline computes. The diagonal is
staggered by half a step, D^(n+1/2) = 2 d(|psi^n|^2) - D^(n-1/2) from
D^(-1/2) = d(|psi^0|^2), so each step is linearly implicit: one
tridiagonal solve with M + z A(D^(n+1/2)). For the cubic model d is
affine in the density and this is Besse's scheme; for the cubic-quintic
model it is the usual extension. Both stay second order in dt. M and D2
commute, so for the frozen real diagonal the step is a unitary rational
function of the real symmetric operator M^-1 k D2 + D, and the scheme
has no linear amplitude drift. Boundary values are pinned to the
initial trace times the stationary phase rotation, which is the right
condition for profiles that are flat near the edges.
"""

from dataclasses import dataclass

import numpy as np

from ._banded import solve_tridiagonal
from .errors import PhaseUndefined, StepDivergence, ValidationError
from .kink import report_crossing
from .model import Grid, Problem, Profile, _frozen_array

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
            object.__setattr__(self, name, _frozen_array(
                getattr(self, name), self.grid.n, f"field {name}"))

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
    n_steps: int


@dataclass(frozen=True)
class PhaseCheck:
    slope: float
    rel_err: float
    ref_index: int


def make_ansatz(phi: Profile, lam: float) -> ComplexField:
    """Stationary profile lifted to the field phi exp(i lam t) that
    rotates at rate `lam`, at t = 0: re is phi, im is phi sin(lam 0), a
    zero with the sign of phi lam."""
    return ComplexField(grid=phi.grid, re=phi.values,
                        im=phi.values * (lam * 0.0))


def _compact_operator(problem: Problem, grid: Grid):
    """Second-difference weight k and the diagonal d(rho) of the compact form.

    i M psi_t = k D2 psi + M(d(|psi|^2) psi) with M = (1, 10, 1) / 12, so
    a stationary state of it is a root of the Numerov residual of
    `Problem.equation`, whose k is the negative of this one. The
    coefficient samples are extended onto the grid once, here.
    """
    eq = problem.equation(grid)
    return -eq.k, eq.diagonal


def _density(psi: np.ndarray, out: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """|psi|^2 = psi.real**2 + psi.imag**2 into out; scratch takes the
    imaginary square."""
    return np.add(np.square(psi.real, out=out),
                  np.square(psi.imag, out=scratch), out=out)


def evolve_nls(psi0: ComplexField, problem: Problem,
               options: EvolveOptions) -> Trajectory:
    """March the field to t_max, snapshotting every snapshot_every steps.

    The horizon is rounded to a whole number of steps. Each step relaxes
    the diagonal, D_new = 2 d(|psi_old|^2) - D_old, and solves the
    tridiagonal Cayley system (M + z A(D_new)) psi_new =
    (M - z A(D_new)) psi_old, z = i dt / 2, once. A step allocates
    nothing: the field, its density, the diagonals, the right side and
    the three bands are arrays made once per call and written in place,
    and the solve works in the band and right-side arrays themselves.
    """
    grid = psi0.grid
    n_steps = max(1, round(options.t_max / options.dt))
    k, diagonal = _compact_operator(problem, grid)
    z = 0.5j * options.dt
    zk = z * k / grid.h**2
    # Bands of M + z A: those of M + z k D2 plus e = z D / 12 in each
    # column (10 e on the diagonal). M - z A flips the sign of z.
    plus_off, plus_diag = 1.0 / 12.0 + zk, 10.0 / 12.0 - 2.0 * zk
    minus_off, minus_diag = 1.0 / 12.0 - zk, 10.0 / 12.0 + 2.0 * zk
    psi = psi0.psi
    scale0 = float(np.max(np.abs(psi))) + 1.0
    edge_left, edge_right = psi[0], psi[-1]

    times = [0.0]
    fields = [psi0]

    n = grid.n
    density, doubled = np.empty(n), np.empty(n)
    e, side = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    ten_e, centre, rhs, lower, diag, upper = np.empty((6, n - 2),
                                                      dtype=complex)
    interior = psi[1:-1]
    relaxed = diagonal(_density(psi, density, doubled))
    for step in range(1, n_steps + 1):
        t_new = step * options.dt
        # relaxed = 2 d(density) - relaxed, density that of the old field
        np.subtract(np.multiply(2.0, diagonal(density, out=doubled),
                                out=doubled), relaxed, out=relaxed)
        np.multiply(z / 12.0, relaxed, out=e)
        np.multiply(10.0, e[1:-1], out=ten_e)
        # Explicit application of (M - z A) to the old field.
        np.multiply(np.subtract(minus_off, e, out=side), psi, out=side)
        np.multiply(np.subtract(minus_diag, ten_e, out=centre), interior,
                    out=centre)
        np.add(np.add(side[:-2], side[2:], out=rhs), centre, out=rhs)
        rot = np.exp(1j * problem.lam * t_new)
        new_left, new_right = rot * edge_left, rot * edge_right
        rhs[0] -= (plus_off + e[0]) * new_left
        rhs[-1] -= (plus_off + e[-1]) * new_right
        # Row i couples to i - 1 and i + 1 through their own diagonals.
        # The bands are separate arrays: LAPACK overwrites each of them.
        np.add(plus_off, e[:-2], out=lower)
        np.add(plus_off, e[2:], out=upper)
        np.add(plus_diag, ten_e, out=diag)
        interior[:] = solve_tridiagonal(lower, diag, upper, rhs)
        psi[0], psi[-1] = new_left, new_right
        # The new density serves the check and the next step's diagonal;
        # a nan or inf anywhere makes its maximum non-finite.
        peak = float(np.sqrt(np.max(_density(psi, density, doubled))))
        if not np.isfinite(peak):
            raise StepDivergence(f"non-finite field at step {step}")
        if peak > 1e8 * scale0:
            raise StepDivergence(f"field blow-up at step {step}")
        if step % options.snapshot_every == 0 or step == n_steps:
            times.append(t_new)
            fields.append(ComplexField(grid=grid, re=psi.real, im=psi.imag))

    return Trajectory(times=np.asarray(times), fields=tuple(fields),
                      n_steps=n_steps)


def modulus_deviation(traj: Trajectory, reference: Profile) -> float:
    """Largest sup-norm drift of the modulus from a reference profile."""
    if traj.fields[0].grid != reference.grid:
        raise ValidationError("trajectory and reference grids differ")
    worst = 0.0
    for field in traj.fields:
        worst = max(worst, float(np.max(np.abs(field.modulus()
                                               - np.abs(reference.values)))))
    return worst


def phase_rotation_check(traj: Trajectory, lam: float) -> PhaseCheck:
    """Fit the phase at a probe node against the stationary rotation rate.

    The probe is the largest-modulus interior node in the right half,
    away from the pinned edge whose rotation is exact by construction.
    Fails when there are too few snapshots or the modulus at the probe
    ever drops near zero.
    """
    if len(traj.fields) < 2:
        raise PhaseUndefined("need at least two snapshots to fit a phase slope")
    field0 = traj.fields[0]
    n = field0.grid.n
    start = n // 2
    ref_index = start + int(np.argmax(field0.modulus()[start:n - 1]))
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
