import itertools

import numpy as np
import pytest

from darksol import (Problem, bracket_bounds, monotone_iteration_oracle,
                     periodic_residual, run_background, sample_coefficient,
                     solve_periodic)
from darksol import periodic
from darksol.errors import NonConvergence, ValidationError

from conftest import (attractive_quintic, constant_cubic, constant_quintic,
                      sinusoidal_cubic, sinusoidal_quintic)


def assert_enclosed(result, monotone):
    # the oracle's ends are a second route to phi+, which the verified
    # pair holds: each must lie within the pair's width of Newton's
    width = result.enclosure_width
    assert np.isfinite(width) and width > 0
    for end in (monotone.from_below, monotone.from_above):
        assert np.all(np.abs(end.values - result.profile.values) <= width)


def test_bracket_constant_cubic_collapses():
    b = bracket_bounds(constant_cubic(lam=-1.0))
    assert b.lower == b.upper == 1.0
    b = bracket_bounds(constant_cubic(lam=-4.0))
    assert b.lower == pytest.approx(2.0, rel=1e-15)


def test_bracket_sinusoidal_cubic_values():
    b = bracket_bounds(sinusoidal_cubic(lam=-1.0, amp=0.5))
    assert b.lower == pytest.approx(np.sqrt(1.0 / 1.5), rel=1e-12)
    assert b.upper == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_bracket_quintic():
    b = bracket_bounds(constant_quintic(lam=-1.0, g1=0.0))
    assert b.lower == pytest.approx(1.0, rel=1e-14)
    assert b.upper == pytest.approx(1.0, rel=1e-14)
    b = bracket_bounds(sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5))
    assert 0 < b.lower < b.upper
    # lower solves rho^4 + g1 rho^2 = minV - lam
    lo2 = b.lower**2
    assert lo2**2 + 0.5 * lo2 == pytest.approx(0.7, rel=1e-12)


def test_bracket_rejects_bad_order():
    from darksol import Bracket
    with pytest.raises(ValidationError):
        Bracket(lower=2.0, upper=1.0)
    with pytest.raises(ValidationError):
        Bracket(lower=0.0, upper=1.0)


def test_constant_background_is_exact():
    res = solve_periodic(constant_cubic(lam=-1.0))
    assert res.iterations == 0
    assert res.residual_sup == 0.0
    np.testing.assert_array_equal(res.profile.values,
                                  np.ones(res.profile.grid.n))


def test_constant_monotone_converges_in_one_sweep():
    mono = monotone_iteration_oracle(constant_cubic(lam=-1.0))
    assert mono.iterations == 1
    assert mono.gap_sup <= 1e-12
    np.testing.assert_allclose(mono.from_below.values, 1.0, atol=1e-12)


def test_sinusoidal_background_dual_route():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    res = solve_periodic(problem)
    assert res.residual_sup <= 1e-10
    vals = res.profile.values
    assert vals[0] == vals[-1]
    assert vals.min() >= res.bracket.lower - 1e-12
    assert vals.max() <= res.bracket.upper + 1e-12
    # independent residual evaluation on the period nodes
    check = periodic_residual(problem, vals[:-1])
    assert np.max(np.abs(check)) <= 1e-10

    mono = monotone_iteration_oracle(problem)
    agreement = np.max(np.abs(mono.from_below.values - vals))
    assert agreement <= 1e-8
    assert mono.gap_sup <= 1e-8


def recorded_sweeps(monkeypatch, problem):
    """The oracle's result and its ends (below, above) after each sweep,
    read off the steps it takes through `periodic._advance`."""
    steps = []
    advance = periodic._advance

    def recording(floor, old, res, new, lo, hi, what, done):
        out = advance(floor, old, res, new, lo, hi, what, done)
        steps.append((done, what.split()[0], out[0].copy()))
        return out

    monkeypatch.setattr(periodic, "_advance", recording)
    mono = monotone_iteration_oracle(problem)
    bracket = bracket_bounds(problem)
    ends = {"lower": np.full(problem.n_per, bracket.lower),
            "upper": np.full(problem.n_per, bracket.upper)}
    history = []
    # `done` counts the sweeps before the step; an end that has
    # stopped takes no step and keeps its last value
    for _, sweep in itertools.groupby(steps, key=lambda step: step[0]):
        for _, side, end in sweep:
            ends[side] = end
        history.append((ends["lower"], ends["upper"]))
    return mono, history


def test_monotone_sweeps_stay_ordered(monkeypatch):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    bracket = bracket_bounds(problem)
    mono, history = recorded_sweeps(monkeypatch, problem)
    assert len(history) == mono.iterations
    slack = 5e-13
    prev_below = np.full(problem.n_per, bracket.lower)
    prev_above = np.full(problem.n_per, bracket.upper)
    for below, above in history:
        assert np.all(below <= above + slack)
        assert np.all(below >= prev_below - slack)
        assert np.all(above <= prev_above + slack)
        assert np.all(below >= bracket.lower - slack)
        assert np.all(above <= bracket.upper + slack)
        prev_below, prev_above = below, above


@pytest.mark.parametrize("amp, lam, max_sweeps", [
    (0.9, -1.0, 20),    # the criterion-9 background
    (0.99, -4.0, 30),
])
def test_monotone_sweeps_converge_quadratically(amp, lam, max_sweeps):
    # a bracket-wide shift took 560 and 6,806 sweeps here; the sector
    # shift tends to F' at the background, so the sweeps end as Newton
    problem = sinusoidal_cubic(lam=lam, n_per=128, amp=amp)
    mono = monotone_iteration_oracle(problem)
    assert mono.iterations <= max_sweeps
    newton = solve_periodic(problem).profile.values
    assert np.max(np.abs(mono.from_below.values - newton)) <= 1e-10
    assert np.max(np.abs(mono.from_above.values - newton)) <= 1e-10


@pytest.mark.parametrize("problem, clamps", [
    # F' < 0 on the sector where g is small, so the shift is clamped at 0
    (sinusoidal_cubic(lam=-1.0, n_per=128, amp=0.9), True),
    # both powers, the cubic one with a negative coefficient
    (sinusoidal_quintic(lam=-2.0, g1=-1.0), False),
], ids=["clamped-cubic", "quintic-negative-g1"])
def test_sector_shift_keeps_the_sweeps_ordered(monkeypatch, problem, clamps):
    eq = problem.equation()
    bracket = bracket_bounds(problem)
    _, history = recorded_sweeps(monkeypatch, problem)
    slack = 1e-11
    prev_below = np.full(problem.n_per, bracket.lower)
    prev_above = np.full(problem.n_per, bracket.upper)
    clamped = 0
    for below, above in history:
        slope = [eq.mu + sum(p * c * phi**(p - 1) for p, c in eq.powers)
                 for phi in (prev_below, prev_above)]
        clamped += int(np.sum(np.maximum(*slope) < 0))
        assert np.all(below <= above + slack)
        assert np.all(below >= prev_below - slack)
        assert np.all(above <= prev_above + slack)
        prev_below, prev_above = below, above
    assert np.all(prev_below >= bracket.lower - slack)
    assert np.all(prev_above <= bracket.upper + slack)
    assert (clamped > 0) == clamps


def test_quintic_background_dual_route():
    problem = sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5)
    res = solve_periodic(problem)
    assert res.residual_sup <= 1e-10
    vals = res.profile.values
    assert vals.min() >= res.bracket.lower - 1e-12
    assert vals.max() <= res.bracket.upper + 1e-12
    mono = monotone_iteration_oracle(problem)
    assert np.max(np.abs(mono.from_below.values - vals)) <= 1e-8


def test_newton_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(periodic, "_MAX_NEWTON_STEPS", 1)
    with pytest.raises(NonConvergence, match="still falling") as err:
        solve_periodic(sinusoidal_cubic(lam=-1.0, amp=0.5))
    assert err.value.iterations == 1
    assert err.value.final_residual > 1e-10


def test_non_finite_newton_step_raises(monkeypatch):
    def nan_step(lower, diag, upper, rhs):
        return np.full_like(rhs, np.nan)

    monkeypatch.setattr(periodic, "solve_cyclic", nan_step)
    with pytest.raises(NonConvergence, match="step 1 is not finite") as err:
        solve_periodic(sinusoidal_cubic(lam=-1.0, amp=0.5))
    assert err.value.iterations == 0
    assert np.isfinite(err.value.final_residual)


def recorded_solves(monkeypatch):
    """The list that every cyclic solve of the background Newton goes
    onto, as (diagonal, right side, solution)."""
    solves = []
    solve = periodic.solve_cyclic

    def recording(lower, diag, upper, rhs):
        solves.append((diag, rhs, solve(lower, diag, upper, rhs)))
        return solves[-1][2]

    monkeypatch.setattr(periodic, "solve_cyclic", recording)
    return solves


def test_every_accepted_newton_step_falls_at_every_node(monkeypatch):
    # from the supersolution each step lowers every node (the periodic
    # module's docstring); the first that does not is noise and is
    # discarded, so it is the one step that is not counted. One more
    # solve, with that step's Jacobian at phi_N, gives the enclosure's
    # d, positive at every node: iterations + 2 one-column solves
    solves = recorded_solves(monkeypatch)
    for problem in (sinusoidal_cubic(lam=-1.0, amp=0.5),
                    sinusoidal_cubic(lam=-4.0, n_per=128, amp=0.99),
                    sinusoidal_quintic(lam=-2.0, g1=-1.0)):
        solves.clear()
        result = solve_periodic(problem)
        assert all(rhs.shape == y.shape == (problem.n_per,)
                   for _, rhs, y in solves)
        assert result.iterations == len(solves) - 2 >= 3
        assert np.all(solves[-1][2] > 0)
        for _, _, step in solves[:-2]:
            assert np.all(step < 0)


def fresh_d(problem, phi):
    """d = J(phi)^-1 (|G(phi)| + floor(phi)), its Jacobian factored and
    its residual formed afresh, in a one-column solve."""
    eq, h = problem.equation(), problem.period / problem.n_per
    off = np.full(phi.size, -eq.k / h**2)
    floor = periodic._rounding_floor(eq, h)
    return periodic.solve_cyclic(
        off, periodic._jacobian_diag(eq, phi, h), off,
        np.abs(periodic._residual(eq, phi, h)) + floor(phi))


@pytest.mark.parametrize("problem", [
    constant_cubic(lam=-1.0),
    sinusoidal_cubic(lam=-1.0, amp=0.5),
    sinusoidal_cubic(lam=-4.0, n_per=128, amp=0.99),
    sinusoidal_cubic(lam=-0.01, n_per=1024, amp=0.99),
    sinusoidal_quintic(lam=-2.0, g1=-1.0),
    attractive_quintic(),
], ids=["constant", "sin05", "sin099-lam4", "sin099-lam001-1024",
        "quintic", "quintic-g1-20"])
def test_enclosure_reuses_the_last_factorization_bit_for_bit(monkeypatch,
                                                              problem):
    # the solve after the last step is the d of a fresh factor-and-solve
    # at phi_N, and the width from it the width from that: it factors the
    # last step's matrix, and its right side is |G(phi_N)| + floor(phi_N)
    solves = recorded_solves(monkeypatch)
    result = solve_periodic(problem)
    phi = result.profile.values[:-1]
    eq, h = problem.equation(), problem.period / problem.n_per
    floor = periodic._rounding_floor(eq, h)
    res = periodic._residual(eq, phi, h)
    (step_diag, step_rhs, _), (diag, rhs, y) = solves[-2:]
    assert diag.tobytes() == step_diag.tobytes()
    assert step_rhs.tobytes() == (-res).tobytes()
    assert rhs.tobytes() == (np.abs(res) + floor(phi)).tobytes()
    d = fresh_d(problem, phi)
    assert np.all(d > 0)
    assert y.tobytes() == d.tobytes()
    assert periodic._enclose(eq, h, floor, phi, d) == result.enclosure_width
    assert result.residual_sup == float(np.max(np.abs(res)))


@pytest.mark.parametrize("problem", [
    # lambda = min V - 1e-4, where a start inside the bracket leaves it
    sinusoidal_quintic(lam=-0.5 - 1e-4, n_per=64, amp=0.5, g1=0.0),
    # the residual's rounding floor eps k max phi / h^2 is above 1e-10
    constant_cubic(lam=-1.0, n_per=1024),
    sinusoidal_cubic(lam=-1.0, n_per=1024, amp=0.5),
    sinusoidal_cubic(lam=-64.0, n_per=128, amp=0.999),
    # F' small at the background: a small residual is a large error
    sinusoidal_cubic(lam=-0.01, n_per=64, amp=0.99),
    sinusoidal_cubic(lam=-0.01, n_per=256, amp=0.99),
    sinusoidal_cubic(lam=-0.01, n_per=1024, amp=0.99),
], ids=["quintic-lam-min-V", "const-1024", "sin05-1024", "sin0999-lam64",
        "sin099-lam001-64", "sin099-lam001-256", "sin099-lam001-1024"])
def test_newton_meets_the_oracle_where_tolerances_failed(problem):
    result, monotone, agreement = run_background(problem)
    assert agreement <= 1e-10
    assert_enclosed(result, monotone)
    # the ends enclose the background, crossing by rounding at most
    assert -1e-12 <= monotone.gap_sup <= 1e-10
    h = problem.period / problem.n_per
    floor = np.finfo(float).eps * problem.equation().k / h**2
    assert result.residual_sup <= 16 * floor * result.profile.values.max()


def test_oracle_ends_stay_on_an_exact_constant_background():
    # lower == upper == 0.01^(1/4) exactly; (D2 - K) is nearly singular
    # at this h, so a sweep solved for the full value rather than the
    # correction moves the ends by rounding alone, 1.76e-9 here. Each
    # end is held inside the bracket, which here is the one value
    problem = constant_quintic(lam=-0.01, n_per=1024, g1=0.0)
    bracket = bracket_bounds(problem)
    assert bracket.lower == bracket.upper == 0.01 ** 0.25
    mono = monotone_iteration_oracle(problem)
    assert mono.iterations <= 2
    for end in (mono.from_below, mono.from_above):
        assert np.max(np.abs(end.values - bracket.lower)) <= 1e-12
    assert mono.gap_sup == 0.0


@pytest.mark.parametrize("lam", [-1e4, -1e6])
def test_background_crosses_a_wide_plateau_of_g(lam):
    # g = g_min on 48 of 64 nodes, where G(upper) is 0 up to rounding.
    # The steps reach the plateau from outside decaying by 0.09 (1e-3
    # at lambda = -1e6) per node, so at its centre the exact move is
    # far below an ulp: those nodes stay, or step the wrong way, while
    # the rest still fall. A rule that needs every node to fall stops
    # at the start, the constant bracket.upper, 100 where phi+ is ~71
    table = np.full(64, 2.0)
    table[8:56] = 1.0
    g = sample_coefficient(table, 1.0, 64, positive=True)
    problem = Problem(kind="cubic", lam=lam, period=1.0, g=g)
    result, monotone, agreement = run_background(problem)
    phi = result.profile.values
    assert result.iterations > 0
    # phi+ tends to sqrt(-lam / g) away from the plateau's edges
    assert phi[0] == pytest.approx(np.sqrt(-lam / 2.0), rel=1e-8)
    assert phi[32] == pytest.approx(np.sqrt(-lam), rel=1e-15)
    assert agreement <= 1e-12 * phi.max()
    assert abs(monotone.gap_sup) <= 1e-12 * phi.max()
    assert_enclosed(result, monotone)


def test_a_newton_step_that_moves_no_node_above_the_floor_raises(
        monkeypatch):
    def no_step(lower, diag, upper, rhs):
        return np.zeros_like(rhs)

    monkeypatch.setattr(periodic, "solve_cyclic", no_step)
    with pytest.raises(NonConvergence,
                       match="Newton step 1 moves no node") as err:
        solve_periodic(sinusoidal_cubic(lam=-1.0, amp=0.5))
    assert err.value.iterations == 0
    assert err.value.final_residual > 0.1


@pytest.mark.parametrize("correction, message", [
    (0.0, "moves no node"), (np.nan, "is not finite")])
def test_a_stalled_or_non_finite_oracle_sweep_raises(monkeypatch,
                                                     correction, message):
    def factor(lower, diag, upper):
        return lambda rhs: np.full_like(rhs, correction)

    monkeypatch.setattr(periodic, "factor_cyclic", factor)
    with pytest.raises(NonConvergence,
                       match=f"lower monotone sweep 1 {message}"):
        monotone_iteration_oracle(sinusoidal_cubic(lam=-1.0, amp=0.5))


@pytest.mark.parametrize("g1", [-20.0, -5.0, -1.0, -0.1, -1e-3])
@pytest.mark.parametrize("gap", [1e-4, 1e-2, 1.0])
def test_bracket_keeps_the_quintic_quotient_increasing(g1, gap):
    # rho1^2 (rho1^2 + g1) = min V - lambda > 0 puts u^2 > -g1 on the
    # bracket, where Q(u) = lam - V + g1 u^2 + u^4 rises in u: the step
    # of the uniqueness argument in the periodic module's docstring
    pot = sample_coefficient("0.3*cos(2*pi*x)", 1.0, 16)
    problem = Problem(kind="cubic-quintic", lam=pot.cmin - gap, period=1.0,
                      potential=pot, g1=g1)
    assert bracket_bounds(problem).lower ** 2 > -g1


@pytest.mark.parametrize("problem", [
    sinusoidal_cubic(lam=-1.0, n_per=128, amp=0.9),
    sinusoidal_cubic(lam=-4.0, n_per=128, amp=0.99),
    attractive_quintic(),
], ids=["sin09-lam1", "sin099-lam4", "quintic-g1-20"])
def test_oracle_certifies_the_unique_background(problem):
    # g_min <= g_max / 3, or g1 < 0: outside any contraction argument,
    # yet the oracle's enclosure of every positive solution closes, and
    # Newton finds the solution it holds
    result, monotone, agreement = run_background(problem)
    assert monotone.gap_sup <= 1e-10
    assert agreement <= 1e-9
    assert_enclosed(result, monotone)


def test_enclosure_refuses_a_profile_off_the_root():
    # one node moved by 1e-6, 2,000 rounding floors: J^-1 spreads the
    # residual at the bump into d ~ 3e-4 at every node, where the
    # curvature of f over 1.5 d outweighs the floor and G(u-) > 0
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    eq, h = problem.equation(), problem.period / problem.n_per
    floor = periodic._rounding_floor(eq, h)
    phi = solve_periodic(problem).profile.values[:-1].copy()
    assert 0 < periodic._enclose(eq, h, floor, phi,
                                 fresh_d(problem, phi)) <= 1e-9
    phi[10] += 1e-6
    with pytest.raises(NonConvergence,
                       match=r"enclosure: G\(u-\) < -floor fails at"):
        periodic._enclose(eq, h, floor, phi, fresh_d(problem, phi))
