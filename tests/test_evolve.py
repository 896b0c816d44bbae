import numpy as np
import pytest

import darksol.evolve
from darksol import (ComplexField, EvolveOptions, Grid, Profile, Trajectory,
                     evolve_nls, kink_drift, make_ansatz, modulus_deviation,
                     phase_rotation_check, run_soliton)
from darksol._banded import solve_tridiagonal
from darksol.errors import (NoSignChange, PhaseUndefined, StepDivergence,
                            ValidationError)

from conftest import (constant_cubic, constant_quintic, sinusoidal_cubic,
                      sinusoidal_quintic)


@pytest.fixture(scope="module")
def soliton_run():
    return run_soliton(constant_cubic(lam=-1.0, n_per=100), half_length=6.0)


def evolve(run, dt, t_max, snapshot_every=50):
    psi0 = make_ansatz(run.phi, run.problem.lam)
    return evolve_nls(psi0, run.problem,
                      EvolveOptions(dt=dt, t_max=t_max,
                                    snapshot_every=snapshot_every))


def test_make_ansatz_at_zero_time(soliton_run):
    field = make_ansatz(soliton_run.phi, -1.0)
    np.testing.assert_array_equal(field.re, soliton_run.phi.values)
    np.testing.assert_array_equal(field.im, np.zeros(field.grid.n))
    # the zeros are phi sin(lam 0): with lam < 0, of the sign of -phi
    assert np.array_equal(np.signbit(field.im),
                          ~np.signbit(soliton_run.phi.values))
    np.testing.assert_array_equal(field.modulus(),
                                  np.abs(soliton_run.phi.values))


def test_stationary_front_keeps_its_modulus(soliton_run):
    traj = evolve(soliton_run, dt=1e-3, t_max=0.5)
    assert traj.n_steps == 500
    dev = modulus_deviation(traj, soliton_run.phi)
    assert dev <= 1e-6


def test_second_order_in_dt(soliton_run):
    dev_coarse = modulus_deviation(evolve(soliton_run, 2e-3, 0.5, 25),
                                   soliton_run.phi)
    dev_fine = modulus_deviation(evolve(soliton_run, 1e-3, 0.5, 50),
                                 soliton_run.phi)
    assert 3.0 <= dev_coarse / dev_fine <= 5.0


@pytest.mark.parametrize("problem", [
    constant_cubic(lam=-1.0, n_per=100),
    constant_quintic(lam=-2.0, g1=0.5, n_per=100),
    sinusoidal_cubic(lam=-1.0, n_per=128, amp=0.5),
], ids=["cubic", "quintic", "modulated"])
def test_second_order_from_a_non_stationary_start(problem):
    # On a stationary front the density does not move, so even the
    # first-order diagonal d(|psi^n|^2), without the relaxation, passes
    # the stationary order tests; a moving start tells them apart.
    run = run_soliton(problem, half_length=6.0)
    x, phi = run.grid.x(), run.phi.values
    psi0 = ComplexField(grid=run.grid,
                        re=phi * (1.0 + 0.1 * np.exp(-4.0 * (x - 1.0)**2)),
                        im=0.05 * phi * np.exp(-4.0 * (x + 1.0)**2))

    def final(dt):
        traj = evolve_nls(psi0, run.problem,
                          EvolveOptions(dt=dt, t_max=0.5,
                                        snapshot_every=10**6))
        return traj.fields[-1].psi

    reference = final(5e-5)
    errs = [float(np.max(np.abs(final(dt) - reference)))
            for dt in (4e-3, 2e-3, 1e-3)]
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_one_tridiagonal_solve_per_step(soliton_run, monkeypatch):
    calls = []
    solve = darksol.evolve.solve_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(darksol.evolve, "solve_tridiagonal", counted)
    first = evolve(soliton_run, dt=1e-3, t_max=0.05, snapshot_every=10)
    assert len(calls) == first.n_steps == 50
    second = evolve(soliton_run, dt=1e-3, t_max=0.05, snapshot_every=10)
    for a, b in zip(first.fields, second.fields):
        assert a.re.tobytes() == b.re.tobytes()
        assert a.im.tobytes() == b.im.tobytes()


def reference_evolve(psi0, problem, options):
    """The allocating step loop that `evolve_nls` replaced, kept as the
    reference for its bits: every temporary is a new array, the solve
    works on copies of the bands, and d(rho) is Horner's rule on new
    arrays."""
    grid = psi0.grid
    n_steps = max(1, round(options.t_max / options.dt))
    eq = problem.equation(grid)
    k = -eq.k

    def diagonal(rho):
        *lower, (_, top) = eq.powers
        out = top * rho
        for _, c in reversed(lower):
            out = (c + out) * rho
        return out - eq.potential

    z = 0.5j * options.dt
    zk = z * k / grid.h**2
    plus_off, plus_diag = 1.0 / 12.0 + zk, 10.0 / 12.0 - 2.0 * zk
    minus_off, minus_diag = 1.0 / 12.0 - zk, 10.0 / 12.0 + 2.0 * zk
    psi = psi0.psi
    edge_left, edge_right = psi[0], psi[-1]

    def density(psi):
        return psi.real**2 + psi.imag**2

    times = [0.0]
    fields = [psi0]
    relaxed = diagonal(density(psi))
    for step in range(1, n_steps + 1):
        t_new = step * options.dt
        relaxed = 2.0 * diagonal(density(psi)) - relaxed
        e = (z / 12.0) * relaxed
        ten_e = 10.0 * e[1:-1]
        side = (minus_off - e) * psi
        rhs = side[:-2] + side[2:] + (minus_diag - ten_e) * psi[1:-1]
        coupling = plus_off + e
        rot = np.exp(1j * problem.lam * t_new)
        new_left, new_right = rot * edge_left, rot * edge_right
        rhs[0] -= coupling[0] * new_left
        rhs[-1] -= coupling[-1] * new_right
        # the two off-diagonals are overlapping views of one array
        interior = solve_tridiagonal(coupling[:-2].copy(), plus_diag + ten_e,
                                     coupling[2:].copy(), rhs)
        psi = np.concatenate(([new_left], interior, [new_right]))
        if step % options.snapshot_every == 0 or step == n_steps:
            times.append(t_new)
            fields.append(ComplexField(grid=grid, re=psi.real, im=psi.imag))
    return Trajectory(times=np.asarray(times), fields=tuple(fields),
                      n_steps=n_steps)


@pytest.fixture(scope="module")
def quintic_run():
    return run_soliton(sinusoidal_quintic(lam=-1.0, n_per=64, amp=0.3,
                                          g1=0.5), half_length=4.0)


@pytest.mark.parametrize("run_name", ["soliton_run", "quintic_run"])
def test_in_place_step_matches_the_allocating_loop(run_name, request):
    # The in-place step keeps every expression and operand order, so
    # its bits are those of the allocating loop at every step; the
    # cubic-quintic run takes the Horner loop of `Equation.diagonal`.
    run = request.getfixturevalue(run_name)
    psi0 = make_ansatz(run.phi, run.problem.lam)
    options = EvolveOptions(dt=1e-3, t_max=0.05, snapshot_every=1)
    traj = evolve_nls(psi0, run.problem, options)
    want = reference_evolve(psi0, run.problem, options)
    assert len(traj.fields) == len(want.fields) == 51
    assert traj.times.tobytes() == want.times.tobytes()
    for got, ref in zip(traj.fields, want.fields):
        assert got.re.tobytes() == ref.re.tobytes()
        assert got.im.tobytes() == ref.im.tobytes()
    # The field is updated in place, so a snapshot must not share its
    # storage: the first step's snapshot still differs from the last.
    assert traj.fields[1].im.tobytes() != traj.fields[-1].im.tobytes()


def test_phase_rotates_at_the_stationary_rate(soliton_run):
    traj = evolve(soliton_run, dt=1e-3, t_max=0.5)
    check = phase_rotation_check(traj, soliton_run.problem.lam)
    assert check.rel_err <= 1e-3
    assert check.slope == pytest.approx(-1.0, rel=1e-3)
    # probe sits in the right half, away from the pinned edge
    assert traj.fields[0].grid.n // 2 <= check.ref_index < traj.fields[0].grid.n - 1


def test_front_does_not_drift(soliton_run):
    traj = evolve(soliton_run, dt=1e-3, t_max=0.5)
    assert kink_drift(traj, soliton_run.problem.lam) < 2 * soliton_run.grid.h


def test_snapshot_schedule(soliton_run):
    traj = evolve(soliton_run, dt=1e-3, t_max=0.1, snapshot_every=30)
    # initial state, every 30th step, and the final partial block
    np.testing.assert_allclose(traj.times,
                               [0.0, 0.03, 0.06, 0.09, 0.1], atol=1e-12)
    assert len(traj.fields) == 5


def test_background_field_is_stationary():
    run = run_soliton(constant_cubic(lam=-1.0, n_per=100), half_length=6.0)
    bg = run.background_ext
    psi0 = make_ansatz(bg, run.problem.lam)
    traj = evolve_nls(psi0, run.problem,
                      EvolveOptions(dt=1e-3, t_max=0.2, snapshot_every=50))
    assert modulus_deviation(traj, bg) <= 1e-6
    with pytest.raises(NoSignChange):
        kink_drift(traj, run.problem.lam)


def test_quintic_front_is_stationary():
    run = run_soliton(constant_quintic(lam=-2.0, g1=0.5), half_length=6.0)
    psi0 = make_ansatz(run.phi, run.problem.lam)
    traj = evolve_nls(psi0, run.problem,
                      EvolveOptions(dt=1e-3, t_max=0.2, snapshot_every=50))
    assert modulus_deviation(traj, run.phi) <= 1e-5
    check = phase_rotation_check(traj, run.problem.lam)
    assert check.rel_err <= 1e-3


def test_options_validation():
    with pytest.raises(ValidationError):
        EvolveOptions(dt=0.0, t_max=1.0)
    with pytest.raises(ValidationError):
        EvolveOptions(dt=1e-3, t_max=0.0)
    with pytest.raises(ValidationError):
        EvolveOptions(dt=1e-3, t_max=1.0, snapshot_every=0)


def test_phase_check_needs_snapshots(soliton_run):
    psi0 = make_ansatz(soliton_run.phi, -1.0)
    single = Trajectory(times=np.array([0.0]), fields=(psi0,), n_steps=0)
    with pytest.raises(PhaseUndefined):
        phase_rotation_check(single, -1.0)


def test_phase_check_rejects_tiny_modulus():
    grid = Grid(-1.0, 1.0, 33)
    zero = ComplexField(grid=grid, re=np.zeros(33), im=np.zeros(33))
    traj = Trajectory(times=np.array([0.0, 0.1]), fields=(zero, zero),
                      n_steps=1)
    with pytest.raises(PhaseUndefined):
        phase_rotation_check(traj, -1.0)


def test_blow_up_is_reported():
    problem = constant_quintic(lam=-1.0, g1=0.0, n_per=16)
    grid = Grid(-1.0, 1.0, 33)
    options = EvolveOptions(dt=1e-3, t_max=1e-2)
    huge = ComplexField(grid=grid, re=np.full(33, 1e160), im=np.zeros(33))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepDivergence,
                           match="non-finite field at step 1"):
            evolve_nls(huge, problem, options)
    # The step is unitary for the frozen diagonal, so a large uniform
    # start stays bounded; large pinned edges over a zero interior drive
    # the field through the boundary rows.
    edges = np.zeros(33)
    edges[[0, -1]] = 1e5
    loaded = ComplexField(grid=grid, re=edges, im=np.zeros(33))
    with pytest.raises(StepDivergence, match="field blow-up at step 1"):
        evolve_nls(loaded, problem, options)


def test_field_validation():
    grid = Grid(-1.0, 1.0, 33)
    with pytest.raises(ValidationError):
        ComplexField(grid=grid, re=np.zeros(5), im=np.zeros(5))
    with pytest.raises(ValidationError):
        ComplexField(grid=grid, re=np.full(33, np.nan), im=np.zeros(33))
