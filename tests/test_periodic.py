import numpy as np
import pytest

from darksol import (PeriodicOptions, Problem, bracket_bounds,
                     monotone_iteration_oracle, periodic_residual,
                     run_background, sample_coefficient, solve_periodic)
from darksol.errors import NonConvergence, ValidationError

from conftest import (attractive_quintic, constant_cubic, constant_quintic,
                      sinusoidal_cubic, sinusoidal_quintic)


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
    assert res.clamp_count == 0


def test_constant_monotone_converges_in_one_sweep():
    mono = monotone_iteration_oracle(constant_cubic(lam=-1.0))
    assert mono.iterations == 1
    assert mono.gap_sup <= 1e-12
    np.testing.assert_allclose(mono.from_below.values, 1.0, atol=1e-12)


def test_sinusoidal_background_dual_route():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    res = solve_periodic(problem)
    assert res.residual_sup <= 1e-10
    assert res.clamp_count == 0
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


def test_monotone_sweeps_stay_ordered():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    bracket = bracket_bounds(problem)
    mono = monotone_iteration_oracle(problem, record=True)
    assert len(mono.history) == mono.iterations
    slack = 5e-13
    prev_below = np.full(problem.n_per, bracket.lower)
    prev_above = np.full(problem.n_per, bracket.upper)
    for below, above in mono.history:
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
def test_sector_shift_keeps_the_sweeps_ordered(problem, clamps):
    eq = problem.equation()
    bracket = bracket_bounds(problem)
    mono = monotone_iteration_oracle(problem, record=True)
    slack = 1e-11
    prev_below = np.full(problem.n_per, bracket.lower)
    prev_above = np.full(problem.n_per, bracket.upper)
    clamped = 0
    for below, above in mono.history:
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


def test_newton_budget_exhaustion():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5)
    with pytest.raises(NonConvergence) as err:
        solve_periodic(problem, PeriodicOptions(max_newton_iters=1))
    assert err.value.iterations == 1
    assert err.value.final_residual > 1e-10


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
    _, monotone, agreement = run_background(problem)
    assert monotone.gap_sup <= 1e-10
    assert agreement <= 1e-9


def test_options_validation():
    with pytest.raises(ValidationError):
        PeriodicOptions(residual_tol=0.0)
    with pytest.raises(ValidationError):
        PeriodicOptions(max_newton_iters=0)
    with pytest.raises(ValidationError):
        PeriodicOptions(oracle_tol=0.0)


def test_residual_tol_below_the_rounding_floor_is_refused():
    # the floor eps k rho / h^2, rho the bracket midpoint, is about
    # 1.3e-10 at n_per 1024; Newton stalls near 1.9e-10 there
    for n_per in (256, 512):
        result = solve_periodic(sinusoidal_cubic(n_per=n_per, amp=0.5))
        assert result.residual_sup <= 1e-10
    for n_per, floor in ((1024, "1.298e-10"), (2048, "5.194e-10")):
        with pytest.raises(ValidationError) as err:
            solve_periodic(sinusoidal_cubic(n_per=n_per, amp=0.5))
        assert "1.000e-10" in str(err.value) and floor in str(err.value)
    # a tolerance above the floor is accepted at the same grid
    coarse = solve_periodic(sinusoidal_cubic(n_per=1024, amp=0.5),
                            PeriodicOptions(residual_tol=1e-9))
    assert coarse.residual_sup <= 1e-9
