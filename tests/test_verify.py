import json

import numpy as np
import pytest

from darksol import (Grid, Problem, Profile, build_report, run_soliton,
                     sample_coefficient, to_allen_cahn)
from darksol.errors import GridMismatchError, ValidationError
from darksol import pipeline, verify
from darksol.reduction import lift
from darksol.verify import TAIL_FRACTION, _residual_phi

from conftest import constant_cubic, sinusoidal_cubic, sinusoidal_quintic


@pytest.fixture(scope="module")
def constant_run():
    return run_soliton(constant_cubic(lam=-1.0), half_length=6.0)


UNFITTED = {"tail_fit_unavailable_left", "tail_fit_unavailable_right"}


def synthetic_pair(rate=2.0, half=10.0, n=2561, shape="front"):
    """A front on a unit background; the grid matches the 128 nodes per
    period of `unit_problem`."""
    grid = Grid(-half, half, n)
    x = grid.x()
    bg = Profile(grid, np.ones(n))
    if shape == "front":
        vals = np.tanh(0.5 * rate * x)
    else:
        vals = np.sign(x) * (1.0 - np.exp(-rate * np.abs(x)))
    return grid, Profile(grid, vals), bg


def unit_problem():
    return constant_cubic(lam=-1.0, n_per=128)


def report_of(phi, bg):
    """The report of phi on bg, read as the ratio phi / bg."""
    w = Profile(phi.grid, phi.values / bg.values)
    return build_report(unit_problem(), w, bg)


def one_period_rate(phi, bg, x0):
    """ln(|d(x0)| / |d(x0 + 1)|) on the right at the node x0, with d =
    phi - bg; T = 1 is 128 nodes."""
    i = int(np.flatnonzero(phi.grid.x() == x0)[0])
    d = phi.values - bg.values
    return float(np.log(abs(d[i]) / abs(d[i + 128])))


def test_residual_phi_tracks_reduced_residual(constant_run):
    # for a unit background the unreduced residual is exactly half the
    # reduced one, up to floating-point reassociation
    run = constant_run
    assert abs(run.report.residual_phi_sup
               - 0.5 * run.report.residual_reduced_sup) <= 1e-12
    assert _residual_phi(run.phi, run.problem.equation(run.grid)) \
        == run.report.residual_phi_sup


def test_a_run_lifts_its_front_once(monkeypatch):
    # the report lifts the front; the run's phi is that lift again, on
    # read, with the same bits
    lifts = []
    for module in (pipeline, verify):
        def counting(w, background_ext, lift=module.lift):
            lifts.append(w)
            return lift(w, background_ext)

        monkeypatch.setattr(module, "lift", counting)
    run = run_soliton(sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128),
                      half_length=6.0)
    assert len(lifts) == 1
    monkeypatch.undo()
    assert run.phi.values.tobytes() == \
        lift(run.w, run.background_ext).values.tobytes()
    assert run.phi.grid == run.grid


def test_residual_phi_second_order_in_h():
    # with a variable coefficient the reduction and the second difference
    # no longer commute exactly; the gap must shrink like h^2
    coarse = run_soliton(sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128),
                         half_length=6.0)
    fine = run_soliton(sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=256),
                       half_length=6.0)
    ratio = (coarse.report.residual_phi_sup / fine.report.residual_phi_sup)
    assert 2.5 <= ratio <= 6.0


def tampered_report(run, vals):
    return build_report(run.problem, Profile(run.grid, vals),
                        run.background_ext)


def test_margins_on_computed_front(constant_run):
    assert constant_run.report.amplitude_margin > 0
    assert constant_run.report.monotonicity_margin > 0


def test_margins_flag_tampering(constant_run):
    vals = constant_run.w.values.copy()
    vals[len(vals) // 3] = 1.0
    assert tampered_report(constant_run, vals).amplitude_margin == 0.0
    vals = constant_run.w.values.copy()
    vals[100], vals[101] = vals[101], vals[100]
    assert tampered_report(constant_run, vals).monotonicity_margin < 0


def test_amplitude_margin_ignores_pinned_boundary(constant_run):
    vals = np.clip(constant_run.w.values, -0.9, 0.9)
    vals[0], vals[-1] = -1.0, 1.0
    report = tampered_report(constant_run, vals)
    assert report.amplitude_margin == pytest.approx(0.1, rel=1e-14)


def test_decay_fit_on_synthetic_exponential():
    grid, phi, bg = synthetic_pair(rate=2.0)
    report = report_of(phi, bg)
    assert report.decay_rate_fit_right == pytest.approx(2.0, abs=1e-4)
    assert report.decay_rate_fit_left == report.decay_rate_fit_right
    assert report.diagnostic_flags == ()
    # read at x0 = 6, the start of the outer quarter of [0, half - 2 T],
    # and at x0 + T = 7
    assert report.decay_rate_fit_right == one_period_rate(phi, bg, 6.0)


def test_decay_fit_floor_flag():
    # a pure exponential read at x0 = 6 and x0 + T = 7: at rate 4.5 both
    # samples stay above the 1e-14 floor, though the tail beyond them
    # does not, and the rate is read to the rounding of 1 - 2e-14; at
    # rate 5, 1 - e^-35 rounds to 1 at x = 7, and each side is flagged
    # with rate 0
    report = report_of(*synthetic_pair(rate=4.5, shape="pure")[1:])
    assert report.diagnostic_flags == ()
    assert (report.decay_rate_fit_left, report.decay_rate_fit_right) \
        == pytest.approx((4.5, 4.5), rel=1e-2)
    report = report_of(*synthetic_pair(rate=5.0, shape="pure")[1:])
    assert set(report.diagnostic_flags) == UNFITTED
    assert (report.decay_rate_fit_left, report.decay_rate_fit_right) \
        == (0.0, 0.0)
    assert report.verified is False


def masked_tails(run):
    """The report's tail rates, ratio errors and flags with each window
    cut by a boolean mask over the whole grid, the cut before slices;
    a side's rate is read at its window's node nearest the core."""
    phi, bg, x = run.phi.values, run.background_ext.values, run.grid.x()
    inner = run.grid.xmax - 2.0 * run.problem.period
    start = inner * (1.0 - TAIL_FRACTION)
    n_per, period = run.problem.n_per, run.problem.period
    near = np.flatnonzero((x <= -start) & (x >= -inner))[-1]
    left = (phi + bg)[[near, near - n_per]]
    near = np.flatnonzero((x >= start) & (x <= inner))[0]
    right = (phi - bg)[[near, near + n_per]]
    flags = set()
    rates = [verify._tail_rate(d, period, side, flags)
             for d, side in ((left, "left"), (right, "right"))]
    cut = run.grid.xmax * (1.0 - TAIL_FRACTION)
    ratio = phi / bg
    return (*rates,
            float(np.max(np.abs(ratio[x <= -cut] + 1.0))),
            float(np.max(np.abs(ratio[x >= cut] - 1.0))),
            tuple(sorted(flags)))


@pytest.mark.parametrize("problem", [
    constant_cubic(lam=-1.0, n_per=128),
    sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128),
    sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=128),
    constant_cubic(lam=-9.0, n_per=128),
], ids=["constant", "cubic", "cubic-quintic", "tail-floor"])
def test_sliced_tail_windows_are_the_masked_ones(problem):
    # at L = 8 and 128 nodes per period the window ends, 4.5 and 6, and
    # the ratio cut, 6, are nodes, where < and <= differ; the searched
    # nodes are the masks' own, so every tail quantity keeps its bits,
    # and at lambda = -9 the outer sample, near the floor, still reads
    run = run_soliton(problem, half_length=8.0)
    x = run.grid.x()
    assert {4.5, 6.0, -4.5, -6.0} <= set(x.tolist())
    left, right, err_left, err_right, flags = masked_tails(run)
    report = run.report
    assert (report.decay_rate_fit_left,
            report.decay_rate_fit_right) == (left, right)
    assert (report.asymptotic_ratio_err_left,
            report.asymptotic_ratio_err_right) == (err_left, err_right)
    assert report.diagnostic_flags == flags == ()


def test_decay_fit_underflow():
    # no tail sample above the floor on either side: each side is
    # flagged, its rate reads 0, and the report fails
    grid = Grid(-10.0, 10.0, 2561)
    x = grid.x()
    vals = np.clip(np.tanh(x), -1.0, 1.0)
    vals[x >= 3.0] = 1.0
    vals[x <= -3.0] = -1.0
    bg = Profile(grid, np.ones(grid.n))
    report = report_of(Profile(grid, vals), bg)
    assert set(report.diagnostic_flags) == UNFITTED
    assert (report.decay_rate_fit_left, report.decay_rate_fit_right) \
        == (0.0, 0.0)
    assert report.verified is False
    assert report.to_dict()["verified"] is False


def test_missing_tail_fit_alone_fails_the_verdict():
    # a tanh front on a background of 1e-10: its tail differences all
    # lie below the floor, while both margins stay positive
    grid = Grid(-10.0, 10.0, 2561)
    bg = Profile(grid, np.full(grid.n, 1e-10))
    report = build_report(unit_problem(), Profile(grid, np.tanh(grid.x())),
                          bg)
    assert report.amplitude_margin == pytest.approx(4.187e-9, rel=1e-3)
    assert report.monotonicity_margin == pytest.approx(8.309e-9, rel=1e-3)
    assert set(report.diagnostic_flags) == UNFITTED
    assert report.verified is False


def test_decay_fit_rejects_short_domain():
    grid, phi, bg = synthetic_pair(half=1.5, n=385)
    with pytest.raises(ValidationError, match="too short"):
        report_of(phi, bg)


@pytest.mark.parametrize("tail_fraction", [0.0, 1.0, 1.5, float("nan")])
def test_build_report_refuses_tail_fraction(tail_fraction):
    grid, phi, bg = synthetic_pair(rate=2.0)
    with pytest.raises(ValidationError, match="tail_fraction"):
        build_report(unit_problem(), phi, bg, tail_fraction=tail_fraction)


def test_asymptotic_ratio_conventions():
    grid, phi, bg = synthetic_pair(rate=2.0)
    report = report_of(phi, bg)
    err_left = report.asymptotic_ratio_err_left
    err_right = report.asymptotic_ratio_err_right
    cut = 7.5
    want = 1.0 - np.tanh(cut)
    assert err_right == pytest.approx(want, rel=1e-10)
    assert err_left == pytest.approx(err_right, rel=1e-10)
    # the exact front shape sign(x) phi+ meets both limits exactly; it
    # takes that shape only beyond the cut, so the tail still has a rate
    x = grid.x()
    modulated = Profile(grid, 1.0 + 0.3 * np.cos(2.0 * np.pi * x))
    w = np.where(np.abs(x) >= cut, np.sign(x), phi.values)
    report = build_report(unit_problem(), Profile(grid, w), modulated)
    assert (report.asymptotic_ratio_err_left,
            report.asymptotic_ratio_err_right) == (0.0, 0.0)


def test_build_report_round_trips_through_json(constant_run):
    report = constant_run.report
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["verified"] is True
    assert set(d) == {"residual_phi_sup", "residual_reduced_sup",
                      "amplitude_margin", "monotonicity_margin",
                      "decay_rate_fit", "asymptotic_ratio_err",
                      "diagnostic_flags", "verified"}


def test_constant_front_decay_rate(constant_run):
    report = constant_run.report
    assert report.decay_rate_fit_right == pytest.approx(2.0, rel=0.03)
    assert report.decay_rate_fit_left == pytest.approx(2.0, rel=0.03)
    assert report.asymptotic_ratio_err_right < 1e-3


@pytest.mark.parametrize("make, half_length", [
    (lambda: sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128), 6.0),
    (lambda: sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=128), None),
    (lambda: constant_cubic(lam=-1.0, n_per=128), 6.0),
], ids=["cubic", "cubic-quintic", "constant"])
def test_run_report_is_the_recomputed_report(make, half_length):
    # the run's report reads the run's reduction; built afresh from the
    # written profiles it must come out the same, bit for bit
    run = run_soliton(make(), half_length=half_length)
    assert run.tail_fraction == TAIL_FRACTION
    assert run.status == "ok"
    again = build_report(run.problem, run.w, run.background_ext,
                         tail_fraction=run.tail_fraction)
    assert json.dumps(again.to_dict(), sort_keys=True) == \
        json.dumps(run.report.to_dict(), sort_keys=True)


def transfer_rate(run):
    """kappa_F = ln mu / T: mu > 1 the larger eigenvalue of the one-period
    transfer product of the linearization (a v')' = q v about w = 1,
    q = sum_p (p - 1) b_p, in the three-point form the front is solved
    in, with the edge weights (a_i + a_(i+1)) / 2. Row i maps
    (v_(i-1), v_i) to (v_i, v_(i+1)); any period of rows gives the same
    eigenvalues."""
    ac = to_allen_cahn(run.problem, run.background_ext)
    q = sum((p - 1) * b for p, b in ac.powers)
    edge = 0.5 * (ac.a[:-1] + ac.a[1:])
    h2 = run.grid.h**2
    product = np.eye(2)
    for i in range(1, 1 + run.problem.n_per):
        row = np.array([[0.0, 1.0],
                        [-edge[i - 1] / edge[i],
                         (edge[i - 1] + edge[i] + h2 * q[i]) / edge[i]]])
        product = row @ product
    mu = np.max(np.abs(np.linalg.eigvals(product)))
    return float(np.log(mu)) / run.problem.period


def shifted_sine(amp, lam=-1.0, n_per=128):
    g = sample_coefficient(f"1 + {amp!r}*sin(2*pi*(x - 0.25))", 1.0, n_per,
                           positive=True)
    return Problem(kind="cubic", lam=lam, period=1.0, g=g)


@pytest.mark.parametrize("problem, half_length", [
    (sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128), 8.0),
    (sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=128), None),
    (sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=128), 8.0),
    (sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=128), None),
    (shifted_sine(0.9), 6.0),
], ids=["cubic-L8", "cubic-auto", "cubic-quintic-L8", "cubic-quintic-auto",
        "strong-L6"])
def test_decay_rate_is_the_transfer_rate_on_modulated_coefficients(
        problem, half_length):
    # Criterion 6 on periodic coefficients: each side's rate is the
    # linearization's. It misses kappa_F by the tail's next term,
    # relative e^(-kappa x0) / kappa or less, at most 1e-3 here, on the
    # shortest window (L = 6, x0 = 3); 2e-3 leaves twice that. A
    # least-squares fit over the window misses by up to 5 % on these
    # inputs (strong-L6), as it averages the periodic wobble.
    run = run_soliton(problem, half_length=half_length)
    assert run.status == "ok"
    kappa = transfer_rate(run)
    for rate in (run.report.decay_rate_fit_left,
                 run.report.decay_rate_fit_right):
        assert abs(rate - kappa) / kappa <= 2e-3


def test_build_report_refuses_a_reduction_on_another_grid():
    grid, phi, bg = synthetic_pair()
    _, _, other = synthetic_pair(half=8.0, n=2049)
    ac = to_allen_cahn(unit_problem(), other)
    with pytest.raises(GridMismatchError):
        build_report(unit_problem(), phi, bg, ac=ac)
