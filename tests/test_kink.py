import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from darksol import (Grid, Problem, Profile, WeightedAC, bracket_bounds,
                     make_truncated_grid, minimize, report_crossing,
                     run_soliton, sample_coefficient, select_truncation,
                     to_allen_cahn)
from darksol import kink, pipeline
from darksol._banded import solve_tridiagonal
from darksol.cli import main
from darksol.errors import (GridMismatchError, NoSignChange, NonConvergence,
                            SingularLinearization, ValidationError)
from darksol.kink import (_guess_rate, _initial_guess, _is_strict_minimizer,
                          _newton_polish, _target_residual)
from darksol.periodic import solve_periodic
from darksol.reduction import (_energy_values, _jacobian_bands,
                               _residual_values, correction_source, energy,
                               residual_reduced)

from conftest import (constant_cubic, constant_quintic, cubic_front_exact,
                      quintic_front_oracle, sinusoidal_cubic,
                      sinusoidal_quintic)
from test_reduction import rebuilt_kernels


def reduced_problem(problem, half_length, n_per):
    assert n_per == problem.n_per
    _, bg = pipeline.truncated_background(problem, half_length)
    return bg.grid, bg, to_allen_cahn(problem, bg)


def no_correction(w, residual):
    """The source map under which `minimize` returns the second-order
    minimizer itself: no source, so the correction takes no step."""
    return None


def source_at(ac, bg, w):
    """The correction source of the Profile w, its residual formed afresh."""
    return correction_source(ac, bg, w, residual_reduced(w, ac).values)


def auto_truncation(problem):
    return select_truncation(problem, solve_periodic(problem).profile)


def bracket_truncation(problem):
    """The rule with the worst-case rate over the background's bracket:
    2 sqrt(-lam g_min / g_max) for the cubic, sqrt(2 g1 rho1^2 + 4 rho1^4)
    for the cubic-quintic, rho1 the bracket's lower bound."""
    if problem.is_cubic:
        kappa = 2.0 * np.sqrt(-problem.lam * problem.g.cmin / problem.g.cmax)
    else:
        rho1sq = bracket_bounds(problem).lower ** 2
        kappa = np.sqrt(2.0 * problem.g1 * rho1sq + 4.0 * rho1sq**2)
    want = max(12.0 / kappa, 3.0 * problem.period)
    return float(np.ceil(want / problem.period - 1e-12) * problem.period)


def test_select_truncation_examples():
    assert auto_truncation(constant_cubic(lam=-1.0)) == 6.0
    assert auto_truncation(constant_cubic(lam=-0.01)) == 60.0
    # fast decay bottoms out at three periods
    assert auto_truncation(constant_cubic(lam=-16.0)) == 3.0
    # the slowest rate on the cell sizes L, not the fastest (which gives 5)
    assert auto_truncation(sinusoidal_cubic(lam=-1.0, amp=0.9,
                                            n_per=128)) == 18.0


@pytest.mark.parametrize("problem, constant", [
    (constant_cubic(lam=-1.0), True),
    (sinusoidal_cubic(lam=-1.0, amp=0.5), False),
    (sinusoidal_cubic(lam=-1.0, amp=0.9), False),
    (constant_quintic(lam=-1.0, g1=-0.3), True),
    (constant_quintic(lam=-1.0, g1=0.0), True),
    (constant_quintic(lam=-1.0, g1=0.5), True),
    (sinusoidal_quintic(lam=-1.0, g1=-0.3), False),
    (sinusoidal_quintic(lam=-1.0, g1=0.0), False),
    (sinusoidal_quintic(lam=-1.0, g1=0.5), False),
], ids=["cubic-const", "cubic-sin05", "cubic-sin09", "quintic-const-g1m0.3",
        "quintic-const-g1-0", "quintic-const-g1-0.5", "quintic-cos-g1m0.3",
        "quintic-cos-g1-0", "quintic-cos-g1-0.5"])
def test_truncation_never_exceeds_the_bracket_rule(problem, constant):
    # the background lies inside its bracket, so its slowest rate is at
    # least the bracket's worst case; on constant coefficients they agree
    half, reference = auto_truncation(problem), bracket_truncation(problem)
    assert half == reference if constant else half < reference


def test_make_truncated_grid():
    grid = make_truncated_grid(1.0, 6.0, 256)
    assert grid.n == 2 * 6 * 256 + 1
    assert grid.xmin == -6.0 and grid.xmax == 6.0
    assert grid.h == pytest.approx(1.0 / 256.0, rel=1e-15)
    with pytest.raises(GridMismatchError):
        make_truncated_grid(1.0, 6.5, 256)
    with pytest.raises(GridMismatchError):
        make_truncated_grid(1.0, 0.0, 256)


@pytest.mark.parametrize("half_length", [np.nan, np.inf, -np.inf])
def test_non_finite_half_length_is_refused(half_length):
    with pytest.raises(GridMismatchError, match="not finite"):
        make_truncated_grid(1.0, half_length, 64)
    with pytest.raises(ValidationError):
        run_soliton(constant_cubic(n_per=64), half_length=half_length)


def test_guess_rate_and_coercivity():
    n = 33
    grid = Grid(-1.0, 1.0, n)
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=((3, 2.0 * np.ones(n)),),
                    kinetic_factor=1.0)
    assert _guess_rate(ac) == pytest.approx(2.0, rel=1e-14)
    # sqrt(min sum_p (p - 1) b_p / a) = sqrt(2 * 0.5 + 4 * 1)
    quintic = WeightedAC(grid=grid, a=np.ones(n),
                         powers=((3, np.full(n, 0.5)), (5, np.ones(n))),
                         kinetic_factor=0.5)
    assert _guess_rate(quintic) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    flat = WeightedAC(grid=grid, a=np.ones(n), powers=((3, np.zeros(n)),),
                      kinetic_factor=1.0)
    with pytest.raises(ValidationError):
        _guess_rate(flat)


def test_initial_guess_shape():
    grid = Grid(-6.0, 6.0, 769)
    w = _initial_guess(grid, 2.0)
    assert w[0] == -1.0 and w[-1] == 1.0
    assert np.max(np.abs(w[1:-1])) <= 1.0 - 1e-12
    assert np.all(np.diff(w) >= 0)


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
    assert result.final_energy <= energy(
        Profile(grid, _initial_guess(grid, 2.0)), ac)


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
    half = auto_truncation(problem)
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
        polish = _newton_polish(result.profile.values, ac, pin=pin)
        assert polish.iterations == 0
        assert polish.converged
        np.testing.assert_array_equal(polish.values, result.profile.values)


def test_newton_polish_from_good_guess():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    polish = _newton_polish(_initial_guess(grid, 2.0), ac)
    assert polish.converged
    assert polish.residual_sup <= _target_residual(ac) == 5e-9
    hist = np.array(polish.history)
    assert np.all(np.diff(hist) < 0)
    assert polish.iterations <= 10


def test_newton_polish_flags_degenerate_start():
    problem = constant_cubic(lam=-1.0)
    grid, bg, ac = reduced_problem(problem, 6.0, 256)
    w = np.zeros(grid.n)
    w[0], w[-1] = -1.0, 1.0
    polish = _newton_polish(w, ac)
    assert not polish.converged


def test_grad_tol_below_the_rounding_floor_is_refused(tmp_path, capsys):
    # the front tolerance sup |gradient| / h <= 1e-8 is fixed; at
    # lambda = -64 and n_per 1024 the gradient's rounding floor
    # 2 kf eps max(a) / h^2 is 2.98e-8, above it, where Newton could
    # only grind: the grid is refused before any root is sought
    problem = constant_cubic(lam=-64.0, n_per=1024)
    _, _, ac = reduced_problem(problem, 3.0, 1024)
    given = []
    with pytest.raises(ValidationError) as err:
        minimize(ac, lambda w, residual: given.append(w))
    assert "2.980e-08" in str(err.value)
    assert not given
    config = tmp_path / "run.ini"
    config.write_text("[problem]\nkind = cubic\nlambda = -64\n"
                      "n_per_period = 1024\ng = 1\n", encoding="utf-8")
    assert main(["solve-soliton", "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 2
    assert "rounding floor 2.980e-08" in capsys.readouterr().err
    # the criterion-1 grid, whose floor is about 4.4e-12, is accepted
    problem = constant_cubic(lam=-1.0, n_per=100)
    _, _, ac = reduced_problem(problem, 20.0, 100)
    assert minimize(ac, no_correction).grad_sup_per_h <= 1e-8


def recording(ac, bg):
    """A correction source map, and the list of the roots it was given:
    the last is the one whose correction `minimize` returned."""
    given = []

    def source_of(w, residual):
        given.append(w.values)
        return correction_source(ac, bg, w, residual)

    return source_of, given


def test_correct_lifts_the_minimizer_to_fourth_order():
    # L = 10 keeps the pinned ends' own error, about 2 exp(2|x| - 4L),
    # far below the discretization error on the collar. The constant
    # problem is translation invariant, so each front is compared with
    # the closed form centred at its own crossing.
    problem = constant_cubic(lam=-1.0, n_per=128)
    grid, bg, ac = reduced_problem(problem, 10.0, 128)
    first = minimize(ac, no_correction)
    source_of, given = recording(ac, bg)
    fixed = minimize(ac, source_of)
    # corrected from the minimizer itself, the centre root
    assert len(given) == 1
    np.testing.assert_array_equal(given[0], first.profile.values)
    source = source_at(ac, bg, first.profile)
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
    # near-zero translation mode and stalls near residual 1e-3, as a
    # finish or as a search. Pinned to zero at the node nearest the
    # crossing, x = 0, it converges; the gradient flow's fallback ended
    # 1.7e-8 from the closed form centred at 0.
    lam = -3.8034336019150903
    problem = constant_cubic(lam=lam, n_per=128)
    grid, bg, ac = reduced_problem(problem, 7.0, 128)
    first = minimize(ac, no_correction)
    source = source_at(ac, bg, first.profile)
    for search in (False, True):
        free = _newton_polish(first.profile.values, ac, source=source,
                              search=search)
        assert free.residual_sup >= 1e-4
    source_of, given = recording(ac, bg)
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


def sourced_cos_case(expr="1 + 0.5*cos(2*pi*x)"):
    """1 + 0.5 cos at lambda = -1: the centre root is a saddle, and the
    site scan certifies the front at x = -0.5; the walk's free root is
    its mirror at x = +0.5."""
    g = sample_coefficient(expr, 1.0, 128, positive=True)
    problem = Problem(kind="cubic", lam=-1.0, period=1.0, g=g)
    grid, bg, ac = reduced_problem(problem, 6.0, 128)
    return ac, lambda w, residual: correction_source(ac, bg, w, residual)


def test_a_root_whose_correction_fails_hands_on_to_the_next():
    # a source far beyond one capped Newton step cannot be met from any
    # root; given for the first root only, the next root is corrected
    ac, source_of = sourced_cos_case()
    given = []

    def first_unmet(w, residual):
        given.append(w)
        return (np.full(ac.grid.n, 1e3) if len(given) == 1
                else source_of(w, residual))

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
    # a phase of 0.1 puts the sites at x = -0.4 and x = 0.1, which are
    # not mirror images, so neither stands for the other
    ac, _ = sourced_cos_case("1 + 0.5*cos(2*pi*(x - 0.1))")
    sites = kink._pinning_sites(ac)
    np.testing.assert_allclose(ac.grid.x()[sites], [0.1, -0.4],
                               atol=ac.grid.h)
    assert sites[0] + sites[1] != ac.grid.n - 1
    given = []

    def unmet(w, residual):
        given.append(w)
        return np.full(ac.grid.n, 1e3)

    with pytest.raises(NonConvergence) as err:
        minimize(ac, unmet)
    # the certified site roots, then the walk's free root, each tried once
    assert len(given) >= 3
    assert err.value.final_residual >= 1e2
    assert err.value.iterations > 0


def test_no_certified_root_is_named_in_the_nonconvergence(monkeypatch):
    # with no certified root no correction runs: the message says so and
    # gives the Newton iterations spent, and there is no residual
    ac, _ = sourced_cos_case("1 + 0.5*cos(2*pi*(x - 0.1))")

    def none_certified(ac, spent):
        spent.extend((5, 7))
        yield from ()

    monkeypatch.setattr(kink, "_candidates", none_certified)
    with pytest.raises(NonConvergence,
                       match=r"no root was certified \(12 Newton iterations\)"
                       ) as err:
        minimize(ac, no_correction)
    assert np.isnan(err.value.final_residual)
    assert err.value.iterations == 12


def test_saturated_front_is_judged_by_its_report():
    # the constant cubic at lambda = -4 on L = 10: the front reaches 1
    # at interior nodes, so the amplitude margin is 0; minimize returns
    # it unjudged and the report's verdict alone makes the violation
    run = run_soliton(constant_cubic(lam=-4.0, n_per=256), half_length=10.0)
    assert run.report.amplitude_margin == 0.0
    assert run.report.verified is False
    assert run.status == "property_violation"
    assert "amplitude_saturated" not in run.minimize.flags


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
    pinned, pin, _, _ = kink._phase_walk(
        ac, _initial_guess(ac.grid, _guess_rate(ac)))
    return pinned, pin


def test_minimize_takes_a_certified_newton_root():
    # criterion-9 case: the front has to travel a quarter period to the
    # minimum of its landscape; the centre root certifies, and the phase
    # walk from the centre reaches the same front
    grid, _, ac = cubic_case("1 + 0.9*sin(2*pi*x)")
    result = minimize(ac, no_correction)
    start = energy(Profile(grid, _initial_guess(grid, _guess_rate(ac))), ac)
    assert result.flow_iterations == 0
    assert 0 < result.polish_iterations
    assert result.grad_sup_per_h <= 1e-8
    assert result.final_energy < start
    pinned, pin = phase_walk(ac)
    assert abs(grid.x()[pin] - report_crossing(result.profile)) <= grid.h
    free = _newton_polish(pinned.values, ac)
    assert free.converged
    assert np.max(np.abs(free.values - result.profile.values)) <= 1e-8


def centre_root(ac):
    """The Newton root `minimize` tries first, from the centred guess."""
    return _newton_polish(_initial_guess(ac.grid, _guess_rate(ac)), ac,
                          search=True)


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
    held = _newton_polish(start, ac, pin=pin, search=True)
    assert held.values[pin] == 0.0
    assert held.values[0] == -1.0 and held.values[-1] == 1.0
    assert held.history[-1] <= _target_residual(ac) < held.residual_sup
    assert not held.converged
    # at the saddle, a true root, the full residual meets the tolerance
    at_centre = _newton_polish(saddle.values, ac, pin=grid.n // 2)
    assert at_centre.converged and at_centre.iterations == 0


def test_pinned_solves_leave_the_reduction_as_built():
    # a held row (`kink._hold`) and the in-place tridiagonal solve write
    # into the Jacobian bands; a later free solve on the same reduction
    # must have the bits of one on a freshly built reduction
    grid, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    _, _, fresh = cubic_case("1 + 0.5*cos(2*pi*x)")
    saddle = centre_root(ac)
    pin = grid.n // 2 + 8
    start = kink._shifted(saddle.values, 8)
    start[pin] = 0.0
    held = _newton_polish(start, ac, pin=pin, search=True)
    assert held.iterations > 0
    assert _is_strict_minimizer(ac, saddle.values, pin=grid.n // 2)
    again, clean = centre_root(ac), centre_root(fresh)
    assert again.iterations > 0
    assert again.values.tobytes() == clean.values.tobytes()
    assert again.history == clean.history


def reference_newton(ac, w, source=None, pin=None, search=False):
    """(values, residual_sup, iterations, history) of the Newton solve as
    it ran when each residual was formed on all n nodes and a pinned
    solve zeroed its held row in place, on the kernels of
    `rebuilt_kernels`."""
    tol = _target_residual(ac)
    step_cap = np.inf if search else kink._POLISH_STEP_CAP
    min_step = kink._SEARCH_MIN_STEP if search else kink._MIN_LINE_STEP

    def residual(v):
        res = rebuilt_kernels(ac, v)[0]
        if source is not None:
            res -= source
        return res

    w = np.array(w, dtype=float)
    res = residual(w)
    if pin is not None:
        held, res[pin] = res[pin], 0.0
    sup = float(np.max(np.abs(res)))
    history = [sup]
    iterations = 0
    while sup > tol and iterations < kink._MAX_NEWTON_STEPS:
        bands = rebuilt_kernels(ac, w)[1]
        if pin is not None:
            kink._hold(bands, pin)
        try:
            delta = solve_tridiagonal(*bands, -res[1:-1])
        except SingularLinearization:
            break
        if not np.all(np.isfinite(delta)) or \
                float(np.max(np.abs(delta))) > step_cap:
            break
        t = 1.0
        while t >= min_step:
            trial = w.copy()
            trial[1:-1] += t * delta
            trial_res = residual(trial)
            if pin is not None:
                trial_held, trial_res[pin] = trial_res[pin], 0.0
            trial_sup = float(np.max(np.abs(trial_res)))
            if trial_sup < sup:
                break
            t *= 0.5
        else:
            break
        w, res, sup = trial, trial_res, trial_sup
        if pin is not None:
            held = trial_held
        history.append(sup)
        iterations += 1
    if pin is not None:
        sup = max(sup, abs(float(held)))
    return w, sup, iterations, tuple(history)


# n_per 100: h^2 is not a power of two, so a division and a product by
# its reciprocal round differently
@pytest.mark.parametrize("problem", [
    sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=100),
    sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=100),
], ids=["cubic", "cubic-quintic"])
def test_newton_solve_keeps_its_bits(problem):
    # from an off-centre guess, the guess's own deferred-correction
    # source, and a degenerate start that a finish refuses at its first
    # step: searches and finishes, free and held, take the same steps as
    # the solve whose kernels formed every node. A held node at -0.0
    # keeps its sign only if the held row's right side is -0.0 too.
    grid, bg, ac = reduced_problem(problem, 4.0, 100)
    guess = _initial_guess(grid, _guess_rate(ac), 0.3)
    flat = np.zeros(grid.n)
    flat[0], flat[-1] = -1.0, 1.0
    held = grid.n // 2 + 7
    signed = guess.copy()
    signed[held] = -0.0
    sources = (None, source_at(ac, bg, Profile(grid, guess)))
    steps = set()
    for start in (guess, flat, signed):
        for source in sources:
            for pin in (None, held):
                for search in (False, True):
                    got = _newton_polish(start, ac, source=source, pin=pin,
                                         search=search)
                    values, sup, iterations, history = reference_newton(
                        ac, start, source, pin, search)
                    assert got.values.tobytes() == values.tobytes()
                    assert got.history == history
                    assert got.iterations == iterations
                    assert got.residual_sup == sup
                    steps.add(iterations)
    assert 0 in steps and max(steps) >= 4


def carried_roots(ac):
    """Every root a `minimize` of `ac` could correct: the centre root
    (certified or not), the roots `_candidates` yields, and the walk's
    pinned root, yielded or not."""
    pinned, _ = phase_walk(ac)
    return [centre_root(ac), pinned,
            *(root for root, _ in kink._candidates(ac, []))]


def test_roots_carry_their_residual_and_energy():
    # 1 + 0.5 cos: a saddle at the centre, the site root at x = -0.5,
    # the walk's free root at +0.5 and its pinned root, whose held row
    # is 1.25e-6; the flat constant cubic yields its phase-pinned root
    ac, _ = sourced_cos_case()
    _, _, flat = reduced_problem(
        constant_cubic(lam=-3.4027223133471085, n_per=128), 7.0, 128)
    for reduction, count in ((ac, 4), (flat, 3)):
        roots = carried_roots(reduction)
        assert len(roots) == count
        for root in roots:
            assert root.residual.tobytes() == _residual_values(
                reduction, root.values).tobytes()
            assert root.residual_sup == float(np.max(np.abs(root.residual)))
            energy_value, _ = kink._certify(reduction, root, np.inf)
            assert energy_value == (_energy_values(reduction, root.values)
                                    if root.converged else np.inf)
    pinned, pin = phase_walk(ac)
    assert pinned.residual[pin] != 0.0
    # the site roots come lowest energy first, no higher than the bound
    # the centre root's certificate set
    roots, _ = site_scan(ac)
    energies = [_energy_values(ac, root.values) for root in roots]
    assert energies == sorted(energies)
    assert energies[0] <= _energy_values(ac, centre_root(ac).values)


def test_walk_hands_on_its_roots_energy(monkeypatch):
    # the energy the walk returns is its root's, the free root's bound;
    # with a target no pinned solve meets, the first one misses, there
    # is no walk, and the bound is still that root's finite energy, not
    # the inf the walk compares with
    ac, _ = sourced_cos_case()
    start = _initial_guess(ac.grid, _guess_rate(ac))
    for target in (kink._target_residual(ac), 0.0):
        monkeypatch.setattr(kink, "_target_residual",
                            lambda ac, target=target: target)
        pinned, pin, walk_energy, _ = kink._phase_walk(ac, start)
        assert walk_energy == _energy_values(ac, pinned.values)
    assert pin == ac.grid.n // 2
    assert np.isfinite(walk_energy)


def test_correction_starts_from_the_carried_residual():
    # the free correction from a root's carried residual minus the source
    # has the bits of the one that forms the sourced residual afresh; on
    # the stalled constant cubic (seed 951, b22.const0) the held solve
    # follows, and its result carries its full residual too
    ac, source_of = sourced_cos_case()
    _, bg, flat = reduced_problem(
        constant_cubic(lam=-3.8034336019150903, n_per=128), 7.0, 128)
    for reduction, root, source_map in (
            (ac, site_scan(ac)[0][0], source_of),
            (flat, centre_root(flat),
             lambda w, residual: correction_source(flat, bg, w, residual))):
        source = source_map(Profile(reduction.grid, root.values),
                            root.residual)
        got = kink._correct(reduction, root, source)
        free = _newton_polish(root.values, reduction, source=source)
        assert got.converged
        assert got.residual.tobytes() == _residual_values(
            reduction, got.values, source).tobytes()
        if free.converged:
            assert got.values.tobytes() == free.values.tobytes()
            assert got.history == free.history
            assert got.iterations == free.iterations > 0
        else:
            assert reduction is flat
            assert got.iterations > free.iterations


@pytest.mark.parametrize("make, half_length", [
    (lambda: sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128), 6.0),
    (lambda: sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=128), 6.0),
    (lambda: Problem(kind="cubic", lam=-1.0, period=1.0, g=sample_coefficient(
        "1 + 0.5*cos(2*pi*(x - 0.1))", 1.0, 128, positive=True)), 6.0),
    (lambda: constant_cubic(lam=-3.4027223133471085, n_per=128), 7.0),
], ids=["cubic", "cubic-quintic", "cos-phase", "pinned"])
def test_source_from_the_carried_residual_keeps_its_bits(make, half_length):
    # every root `minimize` tries hands the source map its carried
    # residual, which is R(w) bit for bit, so the source from it is the
    # one that forms R(w) afresh; a map that meets no correction is
    # given every root: the centre's, the sites', the walk's free and
    # pinned ones
    _, bg, ac = reduced_problem(make(), half_length, 128)
    given = []

    def unmet(w, residual):
        given.append((w, residual))
        return np.full(ac.grid.n, 1e3)

    with pytest.raises(NonConvergence):
        minimize(ac, unmet)
    assert given
    for w, residual in given:
        fresh = _residual_values(ac, w.values)
        assert residual.tobytes() == fresh.tobytes()
        carried = correction_source(ac, bg, w, residual)
        assert carried.tobytes() == source_at(ac, bg, w).tobytes()
        assert residual.tobytes() == fresh.tobytes()  # only read


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
    # the node of the nearest strict extremum of a on each side of the
    # centre; of two nodes equally far from the centre, the left first
    _, _, ac = cubic_case("1 + 0.8*sin(2*pi*x)")
    np.testing.assert_allclose(ac.grid.x()[kink._pinning_sites(ac)],
                               [-0.25, 0.25], atol=1e-12)
    # the sampled 1 + 0.5 cos is even only to rounding, and keeps both
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    sites = kink._pinning_sites(ac)
    np.testing.assert_allclose(ac.grid.x()[sites], [-0.5, 0.5], atol=1e-12)
    assert sites[0] + sites[1] == ac.grid.n - 1
    _, _, ac = cubic_case("1")
    assert kink._pinning_sites(ac).size == 0


def site_scan(ac):
    """`_site_scan` as `_candidates` calls it: after the centre root,
    bounded by the lower of the centred guess's energy and the energy
    the centre root's certificate found."""
    start = _initial_guess(ac.grid, _guess_rate(ac))
    bound = energy(Profile(ac.grid, start), ac)
    centre_energy, _ = kink._certify(ac, centre_root(ac), bound)
    return kink._site_scan(ac, min(bound, centre_energy), _guess_rate(ac))


def site_root(ac, x0):
    """The search from the tanh guess at x0, as a site solve starts."""
    return _newton_polish(_initial_guess(ac.grid, _guess_rate(ac), x0), ac,
                          search=True)


def test_mirror_sites_give_one_root():
    # 1 + 0.5 cos is even only to rounding: the right site starts from
    # the left root reflected, which already meets the tolerance, so it
    # is the left root's mirror twin and adds no candidate
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    assert not np.array_equal(ac.a, ac.a[::-1])
    roots, iterations = site_scan(ac)
    assert len(roots) == 1
    assert report_crossing(Profile(ac.grid, roots[0].values)) == \
        pytest.approx(-0.5, abs=1e-3)
    left = site_root(ac, -0.5)
    assert roots[0].values.tobytes() == left.values.tobytes()
    assert iterations == left.iterations > 0


def test_minimize_forms_the_decay_rate_once(monkeypatch):
    # the centre root of 1 + 0.5 cos is a saddle, so the site scan runs;
    # it reads the rate the centred guess was built with
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    calls = []

    def counting(ac):
        calls.append(ac)
        return _guess_rate(ac)

    scans = []
    scan = kink._site_scan

    def recording(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(kink, "_guess_rate", counting)
    monkeypatch.setattr(kink, "_site_scan", recording)
    minimize(ac, no_correction)
    assert len(scans) == 1
    assert len(calls) == 1


def test_bit_even_weights_keep_the_left_site_root():
    # even to the last bit, the right site's reflected start is the exact
    # mirror of the left root, a root at once: the scan returns the left
    # root alone, the one the search from the left site gives
    _, _, ac = cubic_case("1 + 0.5*cos(2*pi*x)")
    even = WeightedAC(grid=ac.grid, a=ac.a + ac.a[::-1],
                      powers=tuple((p, b + b[::-1]) for p, b in ac.powers),
                      kinetic_factor=ac.kinetic_factor)
    roots, iterations = site_scan(even)
    left = site_root(even, even.grid.x()[kink._pinning_sites(even)[0]])
    assert left.converged
    assert len(roots) == 1
    assert roots[0].values.tobytes() == left.values.tobytes()
    assert iterations == left.iterations


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
    # L = 6 leaves the tail short of 1.
    run = sine_run(0.8, -4.0)
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(-0.25, abs=1e-3)
    assert run.minimize.final_energy == pytest.approx(23.465, abs=1e-3)
    assert run.grid.xmax == 6.0
    assert run.status == "ok"
    assert "amplitude_saturated" not in run.minimize.flags


def test_site_exchange_moves_the_front_to_the_maximum_of_g():
    # at lambda = -9 the lower-energy site of 1 + 0.9 sin is the maximum
    # of g, not its minimum: the energy falls from 102.62 to 79.37
    run = sine_run(0.9, -9.0)
    assert run.minimize.flow_iterations == 0
    assert run.crossing == pytest.approx(0.25, abs=1e-3)
    assert run.minimize.final_energy == pytest.approx(79.369, abs=1e-3)


def weak_cubic(lam, amp, phase, n_per):
    g = sample_coefficient(
        lambda x: 1.0 + amp * np.cos(2.0 * np.pi * (x - phase)), 1.0, n_per,
        positive=True)
    return Problem(kind="cubic", lam=lam, period=1.0, g=g)


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

    def source(ac, bg, w, residual):
        given.append((ac, w))
        return correction_source(ac, bg, w, residual)

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


def draw14():
    """Seed 922, b0.draw14: a weakly pinned cubic draw (L = 8)."""
    return weak_cubic(-0.25251611383570216, 0.18473429851971404, 0.0, 256)


@pytest.mark.parametrize("problem, half_length, crossing", [
    # seed 922, b0.draw14: the cubic centre root is a saddle 1.05e-7
    # above the front
    (draw14(), 8.0, -0.357),
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


def test_stalled_site_solve_gives_up_early():
    # seed 922, b0.draw14: the site solves at x = -0.5 and x = +0.5 need
    # ever shorter line-search steps. Each crept through 40 damped steps
    # and 266 halvings and ended unconverged (116 iterations in the run).
    # Bounded at t = 1/16, each stops after 2 steps, and the phase walk
    # finds the same front
    run = run_soliton(draw14(), half_length=8.0)
    assert run.status == "ok"
    assert run.crossing == 0.3572872067153436
    assert run.minimize.polish_iterations == 40


def test_walk_keeps_the_full_line_search():
    # seed 2651, b89.draw27: the walk's free Newton creeps through 12
    # damped steps from 1.4e-8 to just under the tolerance; run as a
    # search, with its step bound, it stalls and the run ends
    # NonConvergence. A finish keeps the full line search.
    problem = weak_quintic(-0.5391068268439893, 0.0006981670819564511,
                           0.46076985551983196, 0.5, 128)
    run = run_soliton(problem, half_length=9.0)
    assert run.status == "ok"
    assert run.minimize.grad_sup_per_h <= 1e-8


def test_stalled_centre_search_gives_up_early():
    # seed 7, random-phase draw 54: the centre search sits at residual
    # 1.11e-5 after its first step and still after step 40, so the run
    # took 47 iterations. As a search it gives up after that step, and
    # the site scan certifies the same front
    problem = weak_cubic(-0.3995558386491612, 0.01829373836996796,
                         0.8839224647221466, 256)
    run = run_soliton(problem, half_length=8.0)
    assert run.status == "ok"
    assert run.crossing == 0.3826013060765954
    assert run.minimize.polish_iterations == 8
    centre = centre_root(run.ac)
    assert not centre.converged
    assert centre.iterations == 1


def test_free_correction_keeps_the_full_line_search():
    # seed 2802, b184.draw39: the free correction creeps at 2.7 times
    # its target for 11 damped steps before it converges in the twelfth;
    # run as a search, with its step bound, it stalls, and the run ended
    # NonConvergence
    problem = weak_quintic(-0.3292548664518557, 0.06602562089559146,
                           0.17856331265735131, 0.0, 256)
    run = run_soliton(problem, half_length=10.0)
    assert run.status == "ok"
    assert run.crossing == 0.21034005128308098
    assert run.minimize.polish_iterations == 40


def test_failed_site_search_is_not_repeated_on_its_mirror():
    # seed 922, b0.draw26: the weights are even to the last bit, and the
    # left site search creeps through 40 steps without converging. The
    # right site's search repeated it mirrored (111 iterations in the
    # run); it is skipped, and the walk finds the same front
    problem = weak_quintic(-0.4696574166573085, 0.05042428552404413,
                           0.5609484571941229, 0.5, 128)
    run = run_soliton(problem, half_length=9.0)
    assert np.array_equal(run.ac.a, run.ac.a[::-1])
    assert all(np.array_equal(b, b[::-1]) for _, b in run.ac.powers)
    assert run.status == "ok"
    assert run.crossing == 0.4252692254834052
    assert run.minimize.polish_iterations == 71


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
