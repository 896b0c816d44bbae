import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from darksol import (Grid, MinimizeOptions, Problem, Profile, WeightedAC,
                     bracket_bounds, decay_rate_bound, initial_guess,
                     guess_rate, make_truncated_grid, minimize,
                     newton_polish, report_crossing, run_soliton,
                     sample_coefficient, select_truncation, solve_periodic,
                     to_allen_cahn)
from darksol import kink, pipeline
from darksol.errors import (GridMismatchError, NoSignChange, NonConvergence,
                            ValidationError)
from darksol.kink import _is_strict_minimizer
from darksol.reduction import (_jacobian_bands, correction_source, energy,
                               residual_reduced)

from conftest import (constant_cubic, constant_quintic, cubic_front_exact,
                      quintic_front_oracle, sinusoidal_cubic)


def reduced_problem(problem, half_length, n_per):
    periodic = solve_periodic(problem)
    grid = make_truncated_grid(problem.period, half_length, n_per)
    bg = Profile(grid, periodic.coefficient.on_grid(grid))
    return grid, bg, to_allen_cahn(problem, bg)


def no_correction(w):
    """The source map under which `minimize` returns the second-order
    minimizer itself: no source, so the correction takes no step."""
    return None


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
    grid = Grid(-1.0, 1.0, n)
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
    grid = Grid(-6.0, 6.0, 769)
    w = initial_guess(grid, 2.0)
    assert w.values[0] == -1.0 and w.values[-1] == 1.0
    assert np.max(np.abs(w.values[1:-1])) <= 1.0 - 1e-12
    assert np.all(np.diff(w.values) >= 0)


def test_minimize_constant_cubic_matches_closed_form():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    result = minimize(ac, no_correction)
    assert result.grad_sup_per_h <= 1e-8
    x = grid.x()
    collar = np.abs(x) <= 4.0
    err = np.max(np.abs(result.profile.values[collar]
                        - cubic_front_exact(x[collar], -1.0)))
    assert err <= 2e-6
    assert result.flow_iterations == 0
    assert result.final_energy <= energy(initial_guess(grid, 2.0), ac)


def test_minimize_variable_coefficient():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128)
    grid, bg, ac = reduced_problem(problem, 6.0, 128)
    result = minimize(ac, no_correction)
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
    result = minimize(ac, no_correction)
    rho_sq = bracket_bounds(problem).lower ** 2
    x = grid.x()
    oracle = quintic_front_oracle(x, 0.5 * rho_sq, rho_sq**2)
    collar = np.abs(x) <= half - 2.0
    err = np.max(np.abs(result.profile.values[collar] - oracle[collar]))
    assert err <= 5e-6


def test_newton_polish_on_converged_profile():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    result = minimize(ac, no_correction)
    # the solution is a fixed point, with or without a node held
    for pin in (None, grid.n // 2, grid.n // 2 + 7):
        polish = newton_polish(result.profile, ac, tol=5e-9, pin=pin)
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


def test_grad_tol_below_the_rounding_floor_is_refused():
    # criterion-1 case: the gradient's rounding floor 2 kf eps max(a) / h^2
    # is about 4.4e-12 here; below it the descent could only grind
    problem = constant_cubic(lam=-1.0, n_per=100)
    grid, bg, ac = reduced_problem(problem, 20.0, 100)
    fine = minimize(ac, no_correction, MinimizeOptions(grad_tol=1e-11))
    assert fine.grad_sup_per_h <= 1e-11
    with pytest.raises(ValidationError) as err:
        minimize(ac, no_correction, MinimizeOptions(grad_tol=1e-12))
    assert "1.000e-12" in str(err.value) and "4.4" in str(err.value)
    # refused before any root is sought or corrected
    given = []
    with pytest.raises(ValidationError):
        minimize(ac, given.append, MinimizeOptions(grad_tol=1e-12))
    assert not given


def recording(problem, ac, bg):
    """A correction source map, and the list of the roots it was given:
    the last is the one whose correction `minimize` returned."""
    given = []

    def source_of(w):
        given.append(w.values)
        return correction_source(problem, ac, bg, w)

    return source_of, given


def test_correct_lifts_the_minimizer_to_fourth_order():
    # L = 10 keeps the pinned ends' own error, about 2 exp(2|x| - 4L),
    # far below the discretization error on the collar. The constant
    # problem is translation invariant, so each front is compared with
    # the closed form centred at its own crossing.
    problem = constant_cubic(lam=-1.0, n_per=128)
    grid, bg, ac = reduced_problem(problem, 10.0, 128)
    first = minimize(ac, no_correction)
    source_of, given = recording(problem, ac, bg)
    fixed = minimize(ac, source_of)
    # corrected from the minimizer itself, the centre root
    assert len(given) == 1
    np.testing.assert_array_equal(given[0], first.profile.values)
    source = correction_source(problem, ac, bg, first.profile)
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
    assert fixed.flow_iterations == first.flow_iterations == 0
    assert first.polish_iterations < fixed.polish_iterations
    assert fixed.final_energy == energy(fixed.profile, ac)
    assert np.all(np.diff(fixed.profile.values) >= 0)


def test_correct_pins_the_front_where_newton_stalls():
    # seed 951, b22.const0: the centre root certifies 9.3e-9 off centre;
    # the free Newton of the correction from it drifts along the
    # near-zero translation mode and stalls near residual 1e-3, capped
    # or not. Pinned to zero at the node nearest the crossing, x = 0, it
    # converges; the gradient flow's fallback ended 1.7e-8 from the
    # closed form centred at 0.
    lam = -3.8034336019150903
    problem = constant_cubic(lam=lam, n_per=128)
    grid, bg, ac = reduced_problem(problem, 7.0, 128)
    first = minimize(ac, no_correction)
    source = correction_source(problem, ac, bg, first.profile)
    tol = kink._target_residual(ac, MinimizeOptions())
    for cap in (1.0, np.inf):
        free = newton_polish(first.profile, ac, tol=tol, source=source,
                             step_cap=cap)
        assert free.residual_sup >= 1e-4
    source_of, given = recording(problem, ac, bg)
    fixed = minimize(ac, source_of)
    assert len(given) == 1
    np.testing.assert_array_equal(given[0], first.profile.values)
    assert fixed.grad_sup_per_h <= 1e-8
    assert report_crossing(fixed.profile) == 0.0
    x = grid.x()
    inner = np.abs(x) <= 3.5
    exact = cubic_front_exact(x[inner], lam)
    assert np.max(np.abs(fixed.profile.values[inner] - exact)) <= 1e-9


def test_step_cap_keeps_the_correction_off_the_translation_mode():
    # seed 951, b38.const0: uncapped, the free correction drifts along
    # the translation mode for 37 steps and ends 2.8e-9 off centre; the
    # cap refuses its first step, and the pinned solve centres the front
    lam = -3.9496041383066816
    run = run_soliton(constant_cubic(lam=lam, n_per=128), half_length=7.0)
    assert run.status == "ok"
    assert run.crossing == 0.0
    assert run.minimize.polish_iterations == 5


def sourced_cos_case():
    """1 + 0.5 cos at lambda = -1: the centre root is a saddle, and the
    site scan certifies the fronts at x = -0.5 and x = +0.5."""
    g = sample_coefficient("1 + 0.5*cos(2*pi*x)", 1.0, 128, positive=True)
    problem = Problem(kind="cubic", lam=-1.0, period=1.0, g=g)
    grid, bg, ac = reduced_problem(problem, 6.0, 128)
    return ac, lambda w: correction_source(problem, ac, bg, w)


def test_a_root_whose_correction_fails_hands_on_to_the_next():
    # a source far beyond one capped Newton step cannot be met from any
    # root; given for the first root only, the next root is corrected
    ac, source_of = sourced_cos_case()
    given = []

    def first_unmet(w):
        given.append(w)
        return np.full(ac.grid.n, 1e3) if len(given) == 1 else source_of(w)

    front = minimize(ac, first_unmet)
    assert len(given) == 2
    first, second = (report_crossing(w) for w in given)
    assert first == pytest.approx(-0.5, abs=1e-3)
    assert second == pytest.approx(0.5, abs=1e-3)
    assert report_crossing(front.profile) == pytest.approx(second, abs=1e-3)
    assert front.grad_sup_per_h <= 1e-8
    # with every correction met, the first root is the front
    assert report_crossing(minimize(ac, source_of).profile) == \
        pytest.approx(first, abs=1e-3)


def test_no_root_that_corrects_is_one_nonconvergence():
    ac, _ = sourced_cos_case()
    given = []

    def unmet(w):
        given.append(w)
        return np.full(ac.grid.n, 1e3)

    with pytest.raises(NonConvergence) as err:
        minimize(ac, unmet)
    # both site roots, then the walk's free root, each tried once
    assert len(given) >= 3
    assert err.value.final_residual >= 1e2
    assert err.value.iterations > 0


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


def phase_walk(ac):
    """The pinned root at the lowest node of the phase walk from the
    centred guess, and that node, as `minimize` computes them."""
    tol = kink._target_residual(ac, MinimizeOptions())
    pinned, pin, _ = kink._phase_walk(
        ac, initial_guess(ac.grid, guess_rate(ac)).values, tol)
    return pinned, pin


def test_minimize_takes_a_certified_newton_root():
    # criterion-9 case: the front has to travel a quarter period to the
    # minimum of its landscape; the centre root certifies, and the phase
    # walk from the centre reaches the same front
    grid, _, ac = cubic_case("1 + 0.9*sin(2*pi*x)")
    result = minimize(ac, no_correction)
    start = energy(initial_guess(grid, guess_rate(ac)), ac)
    assert result.flow_iterations == 0
    assert 0 < result.polish_iterations
    assert result.grad_sup_per_h <= 1e-8
    assert result.final_energy < start
    pinned, pin = phase_walk(ac)
    assert abs(grid.x()[pin] - report_crossing(result.profile)) <= grid.h
    free = newton_polish(pinned.values, ac, tol=5e-9)
    assert free.converged
    assert np.max(np.abs(free.values - result.profile.values)) <= 1e-8


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
    result = minimize(ac, no_correction)
    assert result.flow_iterations == 0
    assert lowest_hessian_eigenvalue(ac, result.profile.values) > 0
    assert _is_strict_minimizer(ac, result.profile.values)
    assert result.grad_sup_per_h <= 1e-8
    assert result.final_energy < energy(Profile(grid, root.values), ac)
    assert abs(report_crossing(result.profile)) == pytest.approx(0.5,
                                                                 abs=1e-3)


def test_descent_runs_when_no_site_certifies(monkeypatch):
    # with the scan keeping nothing, the phase walk descends the pinning
    # landscape from the centre saddle, which the gradient flow could not
    # leave by symmetry, to the front the scan finds at x = +-0.5
    grid, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    scanned = minimize(ac, no_correction)
    saddle = centre_root(ac)
    monkeypatch.setattr(kink, "_site_scan", lambda *args: ([], 0))
    result = minimize(ac, no_correction)
    assert result.flow_iterations == 0
    assert not result.flags
    assert abs(report_crossing(result.profile)) == pytest.approx(0.5,
                                                                 abs=1e-3)
    assert lowest_hessian_eigenvalue(ac, result.profile.values) > 0
    assert result.final_energy < energy(Profile(grid, saddle.values), ac)
    assert result.final_energy == pytest.approx(scanned.final_energy,
                                                abs=1e-12)


def test_pinned_newton_holds_the_node():
    # 1 + 0.5 cos: held at zero 1/16 right of the centre saddle, Newton
    # solves the other rows; the held row keeps the landscape's slope,
    # so the solve does not count as converged
    grid, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    saddle = centre_root(ac)
    pin = grid.n // 2 + 8
    start = kink._shifted(saddle.values, 8)
    start[pin] = 0.0
    held = newton_polish(start, ac, tol=5e-9, step_cap=np.inf, pin=pin)
    assert held.values[pin] == 0.0
    assert held.values[0] == -1.0 and held.values[-1] == 1.0
    assert held.history[-1] <= 5e-9 < held.residual_sup
    assert not held.converged
    # at the saddle, a true root, the full residual meets the tolerance
    at_centre = newton_polish(saddle.values, ac, tol=5e-9, pin=grid.n // 2)
    assert at_centre.converged and at_centre.iterations == 0


def test_flat_landscape_keeps_the_pinned_root():
    # seed 951, b12.const0: a constant cubic whose translation eigenvalue,
    # 3.5e-12, is below what dpttrf resolves, so no Newton root
    # certifies; the root held at zero at the centre meets the tolerance
    # in full and is a strict minimizer on the variations that keep it
    lam = -3.4027223133471085
    grid, _, ac = reduced_problem(constant_cubic(lam=lam, n_per=128), 7.0,
                                  128)
    result = minimize(ac, no_correction)
    assert result.flags == {"phase_pinned"}
    assert result.grad_sup_per_h <= 1e-8
    w, pin = result.profile.values, grid.n // 2
    assert w[pin] == 0.0
    assert not _is_strict_minimizer(ac, w)
    assert _is_strict_minimizer(ac, w, pin=pin)


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
    front = minimize(ac, no_correction).profile.values
    assert lowest_hessian_eigenvalue(ac, front) > 0
    assert _is_strict_minimizer(ac, front)
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    saddle = centre_root(ac).values
    assert lowest_hessian_eigenvalue(ac, saddle) < 0
    assert not _is_strict_minimizer(ac, saddle)
    # its one unstable direction moves the front: held at its crossing,
    # the saddle is a strict minimizer
    assert _is_strict_minimizer(ac, saddle, pin=ac.grid.n // 2)


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


def weak_quintic(lam, amp, g1, phase, n_per):
    potential = sample_coefficient(
        lambda x: amp * abs(lam) * np.cos(2.0 * np.pi * (x - phase)), 1.0,
        n_per)
    return Problem(kind="cubic-quintic", lam=lam, period=1.0,
                   potential=potential, g1=g1)


def run_front(monkeypatch, problem, half_length):
    """The run, its reduced problem, and the root whose correction gave
    its front: the last root the run's source map was given."""
    given = []

    def source(problem, ac, bg, w):
        given.append((ac, w))
        return correction_source(problem, ac, bg, w)

    monkeypatch.setattr(pipeline, "correction_source", source)
    run = run_soliton(problem, half_length=half_length)
    return (run, *given[-1])


def test_weakly_pinned_site_root_is_not_taken(monkeypatch):
    # the certified root at x = -0.5 lies 2.8e-9 below the centre saddle
    # and its deferred correction stalls, free at 2.5e-7 and pinned at
    # 3.9e-7; the site is passed over, and the phase walk finds a front
    # lower still. The
    # landscape is so flat that the pinned ends at L = 10 shape it too:
    # its lowest node is at x = 0.477, not at the extremum of V.
    problem = weak_quintic(-0.40848040045694534, 0.5072631557554451,
                           0.18578025749299015, 0.5, 128)
    run, ac, root = run_front(monkeypatch, problem, 10.0)
    assert run.status == "ok"
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(0.477, abs=1e-3)
    assert lowest_hessian_eigenvalue(ac, root.values) > 0
    # without the correction the site root would be taken
    unchecked = minimize(ac, no_correction)
    assert report_crossing(unchecked.profile) == pytest.approx(-0.5,
                                                               abs=1e-2)
    assert energy(root, ac) < unchecked.final_energy


@pytest.mark.parametrize("problem, half_length, crossing", [
    # seed 922, b0.draw14: the cubic centre root is a saddle 1.05e-7
    # above the front
    (Problem(kind="cubic", lam=-0.25251611383570216, period=1.0,
             g=sample_coefficient(
                 lambda x: 1.0 + 0.18473429851971404
                 * np.cos(2.0 * np.pi * x), 1.0, 256, positive=True)),
     8.0, -0.357),
    # seed 922, b0.draw26: the cubic-quintic one, 6.5e-9 above
    (weak_quintic(-0.4696574166573085, 0.05042428552404413,
                  0.5609484571941229, 0.5, 128), 9.0, -0.425),
], ids=["draw14", "draw26"])
def test_walk_certifies_the_weakly_pinned_fronts(monkeypatch, problem,
                                                 half_length, crossing):
    # weak pinning: the site scan certifies nothing and the gradient flow
    # ended on the centre saddle, reported ok
    run, ac, root = run_front(monkeypatch, problem, half_length)
    assert run.status == "ok"
    assert run.minimize.flow_iterations == 0
    assert abs(report_crossing(root)) == pytest.approx(abs(crossing),
                                                       abs=1e-3)
    assert lowest_hessian_eigenvalue(ac, root.values) > 0
    saddle = centre_root(ac)
    assert saddle.converged
    assert lowest_hessian_eigenvalue(ac, saddle.values) < 0
    assert energy(root, ac) < energy(Profile(ac.grid, saddle.values), ac)


def test_random_phase_front_travels_to_the_descents_answer():
    # the front travels from the centre to x = 0.3599; the gradient flow
    # took 5,100 steps to get there, at energy 0.40285832223113
    problem = weak_quintic(-0.40066081943151755, 0.37933900467564347,
                           0.12411111462875538, 0.8895771314596255, 128)
    run = run_soliton(problem, half_length=9.0)
    assert run.status == "ok"
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(0.35990, abs=1e-4)
    assert run.minimize.final_energy <= 0.40285832223113 + 1e-12


def test_flat_landscape_front_is_taken_from_the_walk(monkeypatch):
    # random-phase b0.draw38: the centre root certifies, but on this flat
    # landscape its correction stalls both ways (free at 1.3e-7, pinned
    # at 1.2e-7 in the pinned row); the run ended NonConvergence. The
    # walk's free root corrects, pinned at its crossing.
    problem = weak_quintic(-0.4616573981893832, 6.58350345155725e-4,
                           0.6586352012505322, 0.32414107470046183, 256)
    run, ac, root = run_front(monkeypatch, problem, 10.0)
    assert run.status == "ok"
    assert run.crossing == pytest.approx(0.0625, abs=1e-4)
    assert run.minimize.final_energy == pytest.approx(0.29657827789771,
                                                      abs=1e-12)
    assert lowest_hessian_eigenvalue(ac, root.values) > 0


def test_strong_modulation_at_large_lambda_converges():
    # g = 1 + 0.5 sin, lambda = -4, automatic L: the capped descent
    # exhausted its 20,000-step budget here and ended NonConvergence
    g = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 256, positive=True)
    run = run_soliton(Problem(kind="cubic", lam=-4.0, period=1.0, g=g))
    assert run.status == "ok"
    assert run.minimize.flow_iterations == 0


def test_report_crossing_exact_node():
    grid = Grid(-1.0, 1.0, 5)
    w = Profile(grid, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert report_crossing(w) == 0.0


def test_report_crossing_interpolates():
    grid = Grid(-1.0, 1.0, 5)
    w = Profile(grid, [-1.0, -0.2, 0.6, 1.0, 1.0])
    assert report_crossing(w) == pytest.approx(-0.375, abs=1e-15)
    grid = Grid(-2.0, 2.0, 129)
    shifted = Profile(grid, np.tanh(grid.x() - 0.3))
    assert report_crossing(shifted) == pytest.approx(0.3, abs=1e-3)


def test_report_crossing_first_sign_event_wins():
    grid = Grid(-1.0, 1.0, 5)
    # a flip between -1 and -0.5 comes before the exact zero at x = 0.5
    w = Profile(grid, [-1.0, 1.0, 0.5, 0.0, 1.0])
    assert report_crossing(w) == pytest.approx(-0.75, abs=1e-15)
    # an exact zero ahead of the first flip is reported as is
    w = Profile(grid, [-1.0, 0.0, 1.0, -1.0, 1.0])
    assert report_crossing(w) == -0.5


def test_report_crossing_needs_sign_change():
    grid = Grid(-1.0, 1.0, 5)
    with pytest.raises(NoSignChange):
        report_crossing(Profile(grid, [0.5, 0.6, 0.7, 0.8, 0.9]))
