import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from darksol import (MinimizeOptions, Problem, Profile, WeightedAC,
                     bracket_bounds, decay_rate_bound,
                     front_existence_margin, initial_guess, guess_rate,
                     make_truncated_grid, make_uniform_grid, minimize,
                     newton_polish, report_crossing, run_soliton,
                     sample_coefficient, select_truncation, solve_periodic,
                     to_allen_cahn)
from darksol import kink
from darksol.errors import (GridMismatchError, LineSearchFailure,
                            NoSignChange, NonConvergence, ValidationError)
from darksol.kink import _is_strict_minimizer, _line_search, correct
from darksol.reduction import (_jacobian_bands, correction_source, energy,
                               residual_reduced)

from conftest import (constant_cubic, constant_quintic, cubic_front_exact,
                      quintic_front_oracle, sinusoidal_cubic)


def reduced_problem(problem, half_length, n_per):
    periodic = solve_periodic(problem)
    grid = make_truncated_grid(problem.period, half_length, n_per)
    bg = Profile(grid, periodic.coefficient.on_grid(grid))
    return grid, bg, to_allen_cahn(problem, bg)


def test_decay_rate_bound_values():
    assert decay_rate_bound(constant_cubic(lam=-1.0)) == pytest.approx(2.0)
    assert decay_rate_bound(sinusoidal_cubic(amp=0.5)) == pytest.approx(
        2.0 / np.sqrt(3.0), rel=1e-12)
    assert decay_rate_bound(constant_quintic(lam=-1.0, g1=0.0)) == \
        pytest.approx(2.0, rel=1e-12)


def test_select_truncation_examples():
    assert select_truncation(constant_cubic(lam=-1.0)) == 6.0
    assert select_truncation(constant_cubic(lam=-0.01)) == 60.0
    # fast decay bottoms out at three periods
    assert select_truncation(constant_cubic(lam=-16.0)) == 3.0


def test_make_truncated_grid():
    grid = make_truncated_grid(1.0, 6.0, 256)
    assert grid.n == 2 * 6 * 256 + 1
    assert grid.xmin == -6.0 and grid.xmax == 6.0
    assert grid.h == pytest.approx(1.0 / 256.0, rel=1e-15)
    with pytest.raises(GridMismatchError):
        make_truncated_grid(1.0, 6.5, 256)
    with pytest.raises(GridMismatchError):
        make_truncated_grid(1.0, 0.0, 256)


def test_guess_rate_and_coercivity():
    n = 33
    grid = make_uniform_grid(-1.0, 1.0, n)
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=((3, 2.0 * np.ones(n)),),
                    kinetic_factor=1.0)
    assert guess_rate(ac) == pytest.approx(2.0, rel=1e-14)
    # sqrt(min sum_p (p - 1) b_p / a) = sqrt(2 * 0.5 + 4 * 1)
    quintic = WeightedAC(grid=grid, a=np.ones(n),
                         powers=((3, np.full(n, 0.5)), (5, np.ones(n))),
                         kinetic_factor=0.5)
    assert guess_rate(quintic) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    flat = WeightedAC(grid=grid, a=np.ones(n), powers=((3, np.zeros(n)),),
                      kinetic_factor=1.0)
    with pytest.raises(ValidationError):
        guess_rate(flat)


def test_initial_guess_shape():
    grid = make_uniform_grid(-6.0, 6.0, 769)
    w = initial_guess(grid, 2.0)
    assert w.values[0] == -1.0 and w.values[-1] == 1.0
    assert np.max(np.abs(w.values[1:-1])) <= 1.0 - 1e-12
    assert np.all(np.diff(w.values) >= 0)


def test_front_existence_margin():
    assert front_existence_margin(constant_cubic()) is None
    problem = constant_quintic(lam=-1.0, g1=0.0)
    assert front_existence_margin(problem) == pytest.approx(1.0 / 3.0,
                                                            rel=1e-12)
    attractive = constant_quintic(lam=-0.01, g1=-1.0)
    lower = bracket_bounds(attractive).lower
    want = -0.25 + lower**2 / 3.0
    assert front_existence_margin(attractive) == pytest.approx(want, rel=1e-12)
    assert front_existence_margin(attractive) > 0


def test_line_search_clamps_and_pins():
    problem = constant_cubic(lam=-1.0, n_per=64)
    grid, _, ac = reduced_problem(problem, 4.0, 64)
    x = grid.x()
    # interior overshoot leaves [-1, 1]; the trial must clamp it back
    bump = np.tanh(x) + 0.8 * np.exp(-((x - 1.0) ** 2))
    bump[0], bump[-1] = -1.0, 1.0
    assert np.max(bump) > 1.0
    # a gradient that would move the ends: they stay pinned
    grad = np.full(grid.n, -0.5)
    trial, _, _, k = _line_search(ac, bump, np.inf, grad, 1.0, 60)
    assert k == 0
    assert np.max(np.abs(trial)) <= 1.0
    assert trial[0] == -1.0 and trial[-1] == 1.0
    # zero gradient is a fixed point of the step
    flat = np.ones(grid.n)
    e_flat = energy(Profile(grid, flat), ac)
    f1, fe, _, _ = _line_search(ac, flat, e_flat, np.zeros(grid.n), 1.0, 60)
    np.testing.assert_array_equal(f1, flat)
    assert fe == e_flat


def test_line_search_failure(monkeypatch):
    problem = constant_cubic(lam=-1.0, n_per=64)
    grid, _, ac = reduced_problem(problem, 4.0, 64)
    w = initial_guess(grid, 2.0).values
    grad = np.ones(grid.n)
    # an unreachable target energy makes every halving fail
    trial, e, step, k = _line_search(ac, w, energy(Profile(grid, w), ac)
                                     - 10.0, grad, 1.0, 8)
    assert trial is None and k == 8 and step == 0.5**8
    # the descent turns the exhausted halvings into LineSearchFailure
    monkeypatch.setattr(kink, "_MAX_HALVINGS", 1)
    with pytest.raises(LineSearchFailure):
        descent_only(monkeypatch, ac)


def test_minimize_constant_cubic_matches_closed_form():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    result = minimize(ac)
    assert result.grad_sup_per_h <= 1e-8
    x = grid.x()
    collar = np.abs(x) <= 4.0
    err = np.max(np.abs(result.profile.values[collar]
                        - cubic_front_exact(x[collar], -1.0)))
    assert err <= 2e-6
    # energy log holds the initial value plus every accepted step
    assert len(result.energies) == result.flow_iterations + 1
    assert np.all(np.diff(result.energies) <= 0.0)
    assert result.final_energy <= result.energies[0]


def test_minimize_is_a_fixed_point_at_the_solution():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    first = minimize(ac)
    again = minimize(ac, w0=first.profile)
    assert again.flow_iterations == 0
    assert again.polish_iterations == 0
    assert len(again.energies) == 1
    np.testing.assert_array_equal(again.profile.values, first.profile.values)


def test_minimize_variable_coefficient():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128)
    grid, bg, ac = reduced_problem(problem, 6.0, 128)
    result = minimize(ac)
    assert result.grad_sup_per_h <= 1e-8
    w = result.profile.values
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w[1:-1])) < 1.0
    assert abs(report_crossing(result.profile)) <= 0.5


def test_minimize_quintic_matches_quadrature(rng):
    problem = constant_quintic(lam=-1.0, g1=0.5)
    half = select_truncation(problem)
    assert half == 7.0
    grid, bg, ac = reduced_problem(problem, half, 256)
    result = minimize(ac)
    rho_sq = bracket_bounds(problem).lower ** 2
    x = grid.x()
    oracle = quintic_front_oracle(x, 0.5 * rho_sq, rho_sq**2)
    collar = np.abs(x) <= half - 2.0
    err = np.max(np.abs(result.profile.values[collar] - oracle[collar]))
    assert err <= 5e-6


def test_newton_polish_on_converged_profile():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    result = minimize(ac)
    polish = newton_polish(result.profile, ac, tol=5e-9)
    assert polish.iterations == 0
    assert polish.converged
    np.testing.assert_array_equal(polish.values, result.profile.values)


def test_newton_polish_from_good_guess():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    start = initial_guess(grid, 2.0)
    polish = newton_polish(start, ac, tol=1e-10)
    assert polish.converged
    assert polish.residual_sup <= 1e-10
    hist = np.array(polish.history)
    assert np.all(np.diff(hist) < 0)
    assert polish.iterations <= 10


def test_newton_polish_flags_degenerate_start():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    w = np.zeros(grid.n)
    w[0], w[-1] = -1.0, 1.0
    polish = newton_polish(w, ac, tol=1e-10)
    assert not polish.converged


def test_minimize_budget_exhaustion(monkeypatch):
    # criterion-9 case: the descent needs thousands of flow steps here
    _, _, ac = cubic_case("1 + 0.9*sin(2*pi*x)")
    with pytest.raises(NonConvergence) as err:
        descent_only(monkeypatch, ac, MinimizeOptions(max_outer_iters=200))
    assert err.value.iterations == 200


def test_grad_tol_below_the_rounding_floor_is_refused():
    # criterion-1 case: the gradient's rounding floor 2 kf eps max(a) / h^2
    # is about 4.4e-12 here; below it the descent could only grind
    problem = constant_cubic(lam=-1.0, n_per=100)
    grid, bg, ac = reduced_problem(problem, 20.0, 100)
    fine = minimize(ac, MinimizeOptions(grad_tol=1e-11))
    assert fine.grad_sup_per_h <= 1e-11
    with pytest.raises(ValidationError) as err:
        minimize(ac, MinimizeOptions(grad_tol=1e-12))
    assert "1.000e-12" in str(err.value) and "4.4" in str(err.value)
    first = minimize(ac)
    with pytest.raises(ValidationError):
        correct(ac, first, np.zeros(grid.n), MinimizeOptions(grad_tol=1e-12))


def test_minimize_rejects_bad_start():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    flipped = Profile(grid, -initial_guess(grid, 2.0).values)
    with pytest.raises(ValidationError):
        minimize(ac, w0=flipped)
    other = make_uniform_grid(-6.0, 6.0, 33)
    with pytest.raises(GridMismatchError):
        minimize(ac, w0=initial_guess(other, 2.0))


def test_correct_lifts_the_minimizer_to_fourth_order():
    # L = 10 keeps the pinned ends' own error, about 2 exp(2|x| - 4L),
    # far below the discretization error on the collar. The constant
    # problem is translation invariant, so each front is compared with
    # the closed form centred at its own crossing.
    problem = constant_cubic(lam=-1.0, n_per=128)
    grid, bg, ac = reduced_problem(problem, 10.0, 128)
    first = minimize(ac)
    source = correction_source(problem, ac, bg, first.profile)
    fixed = correct(ac, first, source)
    x = grid.x()
    collar = np.abs(x) <= 4.0

    def error(result):
        exact = cubic_front_exact(x - report_crossing(result.profile), -1.0)
        return np.max(np.abs(result.profile.values - exact)[collar])

    err_first, err_fixed = error(first), error(fixed)
    assert err_first >= 1e-6  # about 0.056 h^2
    assert err_fixed <= 1e-8
    # converged on the corrected equation, not on the original one
    assert fixed.grad_sup_per_h <= 1e-8
    shifted = residual_reduced(fixed.profile, ac).values - source
    assert np.max(np.abs(shifted)) <= 1e-8 / 2.0
    # one Newton solve on top of the minimizer's own record
    assert fixed.energies == first.energies
    assert fixed.flow_iterations == first.flow_iterations
    assert first.polish_iterations < fixed.polish_iterations
    assert fixed.final_energy == energy(fixed.profile, ac)
    assert np.all(np.diff(fixed.profile.values) >= 0)


def test_correct_falls_back_to_descent_with_the_source():
    # from a front far too wide the capped Newton step is refused, and
    # the sourced descent must reach the same corrected front
    problem = constant_cubic(lam=-1.0, n_per=128)
    grid, bg, ac = reduced_problem(problem, 6.0, 128)
    first = minimize(ac)
    source = correction_source(problem, ac, bg, first.profile)
    direct = correct(ac, first, source)
    wide = dataclasses.replace(first, profile=initial_guess(grid, 0.5))
    assert not newton_polish(wide.profile, ac, tol=5e-9,
                             source=source).converged
    fallback = correct(ac, wide, source)
    assert "polish_deferred" in fallback.flags
    assert fallback.flow_iterations > first.flow_iterations
    np.testing.assert_allclose(fallback.profile.values,
                               direct.profile.values, atol=1e-8)


def cubic_case(expr, half_length=6.0, n_per=128):
    g = sample_coefficient(expr, 1.0, n_per, positive=True)
    problem = Problem(kind="cubic", lam=-1.0, period=1.0, g=g)
    return reduced_problem(problem, half_length, n_per)


def lowest_hessian_eigenvalue(ac, w):
    # sign of the energy Hessian's lowest eigenvalue, by a route that
    # does not share the certificate's factorization
    _, diag, upper = _jacobian_bands(ac, w)
    return eigh_tridiagonal(-diag, -upper[:-1], eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


def descent_only(monkeypatch, ac, options=None):
    """minimize with every Newton root refused: the descent path alone."""
    with monkeypatch.context() as patch:
        patch.setattr(kink, "_is_strict_minimizer", lambda ac, w: False)
        return minimize(ac, options)


def test_minimize_takes_a_certified_newton_root(monkeypatch):
    # criterion-9 case: the front has to travel a quarter period to the
    # minimum of its landscape, which took the descent 5,100 flow steps
    grid, _, ac = cubic_case("1 + 0.9*sin(2*pi*x)")
    result = minimize(ac)
    start = energy(initial_guess(grid, guess_rate(ac)), ac)
    assert result.flow_iterations == 0
    assert result.energies == (start,)
    assert 0 < result.polish_iterations
    assert result.grad_sup_per_h <= 1e-8
    assert result.final_energy < start
    descent = descent_only(monkeypatch, ac)
    assert descent.flow_iterations > 0
    assert np.max(np.abs(result.profile.values
                         - descent.profile.values)) <= 1e-8


def centre_root(ac, options=None):
    """The Newton root `minimize` tries first, from the centred guess."""
    options = options or MinimizeOptions()
    return newton_polish(initial_guess(ac.grid, guess_rate(ac)), ac,
                         tol=options.grad_tol / (2.0 * ac.kinetic_factor),
                         step_cap=np.inf)


def test_minimize_falls_back_from_a_saddle():
    # a coefficient maximum at the centre: by symmetry Newton converges
    # to the front pinned there, which is a saddle of the energy; the
    # site scan finds the front pinned half a period off instead
    grid, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    root = centre_root(ac)
    assert root.converged
    assert lowest_hessian_eigenvalue(ac, root.values) < 0
    result = minimize(ac)
    assert result.flow_iterations == 0
    assert lowest_hessian_eigenvalue(ac, result.profile.values) > 0
    assert _is_strict_minimizer(ac, result.profile.values)
    assert result.grad_sup_per_h <= 1e-8
    assert result.final_energy < energy(Profile(grid, root.values), ac)
    assert abs(report_crossing(result.profile)) == pytest.approx(0.5,
                                                                 abs=1e-3)


def test_descent_runs_when_no_site_certifies(monkeypatch):
    # with every Newton root refused, the scan keeps nothing and the
    # descent from the centred guess runs; it keeps the symmetry, so it
    # ends on the centre saddle
    grid, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    root = centre_root(ac)
    result = descent_only(monkeypatch, ac)
    assert result.flow_iterations > 0
    assert len(result.energies) == result.flow_iterations + 1
    assert np.all(np.diff(result.energies) <= 0.0)
    assert np.max(np.abs(result.profile.values - root.values)) <= 1e-8


def test_pinning_sites():
    # the nearest strict extremum of a on each side of the centre
    _, _, ac = cubic_case("1 + 0.8*sin(2*pi*x)")
    np.testing.assert_allclose(kink._pinning_sites(ac), [-0.25, 0.25],
                               atol=1e-12)
    # the sampled 1 + 0.5 cos is even only to rounding, and keeps both
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    np.testing.assert_allclose(kink._pinning_sites(ac), [-0.5, 0.5],
                               atol=1e-12)
    # even to the last bit, the right site mirrors the left one
    even = WeightedAC(grid=ac.grid, a=ac.a + ac.a[::-1],
                      powers=tuple((p, b + b[::-1]) for p, b in ac.powers),
                      kinetic_factor=ac.kinetic_factor)
    np.testing.assert_allclose(kink._pinning_sites(even), [-0.5], atol=1e-12)
    _, _, ac = cubic_case("1")
    assert kink._pinning_sites(ac).size == 0


def test_minimizer_certificate():
    _, _, ac = cubic_case("1 + 0.9*sin(2*pi*x)")
    front = minimize(ac).profile.values
    assert lowest_hessian_eigenvalue(ac, front) > 0
    assert _is_strict_minimizer(ac, front)
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    saddle = centre_root(ac).values
    assert lowest_hessian_eigenvalue(ac, saddle) < 0
    assert not _is_strict_minimizer(ac, saddle)


def sine_run(amp, lam):
    g = sample_coefficient(f"1 + {amp!r}*sin(2*pi*x)", 1.0, 128,
                           positive=True)
    return run_soliton(Problem(kind="cubic", lam=lam, period=1.0, g=g))


def test_saddle_at_large_lambda_moves_to_the_minimum_of_g():
    # g = 1 + 0.8 sin, lambda = -4, automatic L: Newton lands on the
    # front at the maximum of g (E = 24.18), a saddle, and the descent
    # ended NonConvergence; the scan certifies the front at x = -0.25.
    # The tail still rounds to 1 at this L (amplitude_saturated).
    run = sine_run(0.8, -4.0)
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(-0.25, abs=1e-3)
    assert run.minimize.final_energy == pytest.approx(23.465, abs=1e-3)
    assert run.status == "property_violation"
    assert "amplitude_saturated" in run.run_flags


def test_site_exchange_moves_the_front_to_the_maximum_of_g():
    # at lambda = -9 the lower-energy site of 1 + 0.9 sin is the maximum
    # of g, not its minimum: the energy falls from 102.62 to 79.37
    run = sine_run(0.9, -9.0)
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(0.25, abs=1e-3)
    assert run.minimize.final_energy == pytest.approx(79.369, abs=1e-3)


def test_weakly_pinned_site_root_is_not_taken():
    # the certified root at x = -0.5 lies 2.8e-9 below the centre saddle
    # and its deferred correction stalls in Newton at 2.5e-7; the site
    # is passed over, and the descent ends on the centre front as before
    lam, amp = -0.40848040045694534, 0.5072631557554451
    potential = sample_coefficient(
        lambda x: amp * abs(lam) * np.cos(2.0 * np.pi * (x - 0.5)), 1.0, 128)
    run = run_soliton(Problem(kind="cubic-quintic", lam=lam, period=1.0,
                              potential=potential, g1=0.18578025749299015),
                      half_length=10.0)
    assert run.status == "ok"
    assert run.minimize.flow_iterations > 0
    assert abs(run.crossing) <= 1e-6
    # without the correction check the scan would take that site root
    unchecked = minimize(to_allen_cahn(run.problem, run.background_ext))
    assert unchecked.flow_iterations == 0
    assert report_crossing(unchecked.profile) == pytest.approx(-0.5,
                                                               abs=1e-2)


def test_strong_modulation_at_large_lambda_converges():
    # g = 1 + 0.5 sin, lambda = -4, automatic L: the capped descent
    # exhausted its 20,000-step budget here and ended NonConvergence
    g = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 256, positive=True)
    run = run_soliton(Problem(kind="cubic", lam=-4.0, period=1.0, g=g))
    assert run.status == "ok"
    assert run.minimize.flow_iterations == 0


def test_report_crossing_exact_node():
    grid = make_uniform_grid(-1.0, 1.0, 5)
    w = Profile(grid, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert report_crossing(w) == 0.0


def test_report_crossing_interpolates():
    grid = make_uniform_grid(-1.0, 1.0, 5)
    w = Profile(grid, [-1.0, -0.2, 0.6, 1.0, 1.0])
    assert report_crossing(w) == pytest.approx(-0.375, abs=1e-15)
    grid = make_uniform_grid(-2.0, 2.0, 129)
    shifted = Profile(grid, np.tanh(grid.x() - 0.3))
    assert report_crossing(shifted) == pytest.approx(0.3, abs=1e-3)


def test_report_crossing_first_sign_event_wins():
    grid = make_uniform_grid(-1.0, 1.0, 5)
    # a flip between -1 and -0.5 comes before the exact zero at x = 0.5
    w = Profile(grid, [-1.0, 1.0, 0.5, 0.0, 1.0])
    assert report_crossing(w) == pytest.approx(-0.75, abs=1e-15)
    # an exact zero ahead of the first flip is reported as is
    w = Profile(grid, [-1.0, 0.0, 1.0, -1.0, 1.0])
    assert report_crossing(w) == -0.5


def test_report_crossing_needs_sign_change():
    grid = make_uniform_grid(-1.0, 1.0, 5)
    with pytest.raises(NoSignChange):
        report_crossing(Profile(grid, [0.5, 0.6, 0.7, 0.8, 0.9]))
