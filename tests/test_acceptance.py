"""End-to-end acceptance checks for the full pipeline.

Each test prints one [PASS]/[FAIL] line with the measured quantities
next to the fixed tolerance, then asserts. Tolerances are stated
up front and are not tuned to the implementation; where a target is
out of reach for the discretization order, the test still states it
and fails honestly rather than loosening the bound.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import (constant_cubic, constant_quintic, cubic_front_exact,
                      quintic_front_exact_g1zero, quintic_front_oracle,
                      sinusoidal_cubic, sinusoidal_quintic)
from darksol import (Coefficient, EvolveOptions, Problem, Profile, evolve_nls,
                     make_ansatz, modulus_deviation, phase_rotation_check,
                     run_background, run_soliton, sample_coefficient)
from darksol.cli import main
from darksol.kink import make_truncated_grid
from darksol.periodic import bracket_bounds, periodic_residual
from darksol.reduction import energy, residual_reduced, to_allen_cahn
from darksol.verify import TAIL_FRACTION, _residual_phi


def check(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve_cli(tmp_path, tag, g_expr, half_length, n_per=128, lam=-1.0):
    """One solve run through the command line; returns (exit, report)."""
    config = tmp_path / f"{tag}.ini"
    config.write_text(
        "[problem]\n"
        "kind = cubic\n"
        f"lambda = {lam}\n"
        "period = 1.0\n"
        f"n_per_period = {n_per}\n"
        f"g = {g_expr}\n"
        "[domain]\n"
        f"l = {half_length}\n",
        encoding="utf-8")
    out = tmp_path / tag
    code = main(["solve-soliton", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, report


def ratio_err(report):
    block = report["soliton_report"]["asymptotic_ratio_err"]
    return max(block["left"], block["right"])


def test_criterion_1_constant_cubic_closed_form():
    # One deferred-correction solve lifts the second-order minimizer
    # (sup error 5.6e-6 at h = 0.01) to fourth order: measured 2.5e-9
    # at h = 0.02, 1.6e-10 at h = 0.01, 6.2e-11 at h = 1/128. Below that
    # the error levels off near 1e-10 (4.3e-11 to 1.7e-10 down to
    # h = 0.0025), where grad_tol and rounding set it, not h.
    tol = 1e-6
    problem = constant_cubic(lam=-1.0, n_per=100)
    t0 = time.perf_counter()
    run = run_soliton(problem, half_length=20.0)
    elapsed = time.perf_counter() - t0
    x = run.grid.x()
    oracle = cubic_front_exact(x - run.crossing, -1.0)
    # oracle self-check: the closed form satisfies the stationary
    # equation up to discretization error of the residual stencil
    self_res = _residual_phi(Profile(run.grid, cubic_front_exact(x, -1.0)),
                             run.problem.equation(run.grid))
    assert self_res <= 1e-3
    core = np.abs(x) <= 20.0 - 2.0 * problem.period
    err = float(np.max(np.abs(run.phi.values - oracle)[core]))
    ok = err <= tol and elapsed <= 10.0
    check(1, "constant cubic closed form, h=0.01",
          ok, f"collar sup error {err:.3e} vs tol {tol:.0e}, "
              f"runtime {elapsed:.2f}s <= 10s, oracle residual {self_res:.1e}")


def test_criterion_2_constant_quintic_quadrature_oracle():
    tol = 1e-6
    problem = constant_quintic(lam=-1.0, n_per=512, g1=0.0)
    run = run_soliton(problem, half_length=9.0)
    x = run.grid.x()
    oracle = quintic_front_oracle(x, 0.0, 1.0)
    self_err = float(np.max(np.abs(oracle - quintic_front_exact_g1zero(x))))
    assert self_err <= 1e-9
    core = np.abs(x) <= 9.0 - 2.0 * problem.period
    err = float(np.max(np.abs(run.w.values - oracle)[core]))
    check(2, "constant quintic vs quadrature oracle",
          err <= tol, f"collar sup error {err:.3e} vs tol {tol:.0e}, "
                      f"oracle self-check {self_err:.1e}")


def test_criterion_3_bracket_and_dual_route():
    problem = sinusoidal_cubic(lam=-1.0, n_per=256, amp=0.5)
    periodic, _, agreement = run_background(problem)
    bracket = bracket_bounds(problem)
    np.testing.assert_allclose([bracket.lower, bracket.upper],
                               [np.sqrt(2.0 / 3.0), np.sqrt(2.0)],
                               rtol=1e-14)
    vals = periodic.profile.values
    strict = bool(np.all(vals > bracket.lower) and np.all(vals < bracket.upper))
    margin = float(min(vals.min() - bracket.lower, bracket.upper - vals.max()))
    residual = float(np.max(np.abs(periodic_residual(problem, vals[:-1]))))
    ok = strict and agreement <= 1e-8 and residual <= 1e-10
    check(3, "background bracket and dual-route agreement",
          ok, f"strict containment {strict} (margin {margin:.3e}), "
              f"route gap {agreement:.3e} <= 1e-08, "
              f"residual {residual:.3e} <= 1e-10")


def test_criterion_4_property_suite(tmp_path, rng):
    a1 = 0.2 + 0.2 * rng.uniform()
    a2 = 0.05 + 0.1 * rng.uniform()
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    random_g = (f"1 + {a1:.6f}*sin(2*pi*x + {p1:.6f})"
                f" + {a2:.6f}*cos(4*pi*x + {p2:.6f})")
    cases = [("constant", "1"),
             ("sinusoidal", "1 + 0.5*sin(2*pi*x)"),
             ("random-smooth", random_g)]
    ok = True
    details = []
    for i, (label, expr) in enumerate(cases):
        code6, rep6 = solve_cli(tmp_path, f"c4_{i}_short", expr, 6.0)
        code7, rep7 = solve_cli(tmp_path, f"c4_{i}_long", expr, 7.0)
        amp = rep6["soliton_report"]["amplitude_margin"]
        mono = rep6["soliton_report"]["monotonicity_margin"]
        e6, e7 = ratio_err(rep6), ratio_err(rep7)
        this = (code6 == 0 and code7 == 0 and amp > 0 and mono > 0
                and e7 < e6)
        ok = ok and this
        details.append(f"{label}: exit {code6}/{code7}, margins "
                       f"({amp:.1e}, {mono:.1e}), ratio err {e6:.1e}->{e7:.1e}")
    check(4, "theorem properties on converged runs", ok, "; ".join(details))


def test_criterion_5_euler_lagrange_consistency(rng):
    tol = 1e-6
    worst = 0.0
    for kind in ("cubic", "quintic"):
        if kind == "cubic":
            problem = sinusoidal_cubic(lam=-1.0, n_per=64, amp=0.5)
        else:
            problem = sinusoidal_quintic(lam=-1.0, n_per=64, amp=0.3, g1=0.5)
        periodic, _, _ = run_background(problem)
        grid = make_truncated_grid(problem.period, 3.0, problem.n_per)
        background = Profile(grid, periodic.coefficient.on_grid(grid))
        ac = to_allen_cahn(problem, background)
        x = grid.x()
        for _ in range(20):
            w = np.tanh(rng.uniform(0.5, 2.0) * x)
            for m in range(1, 4):
                w = w + rng.uniform(-0.15, 0.15) * np.sin(
                    np.pi * m * (x - grid.xmin) / 6.0)
            # the energy's gradient is -2 kf h times the residual
            analytic = -2.0 * ac.kinetic_factor * grid.h * residual_reduced(
                Profile(grid, w), ac).values
            delta = 1e-5
            fd = np.zeros_like(w)
            for i in range(1, grid.n - 1):
                wp = w.copy()
                wp[i] += delta
                wm = w.copy()
                wm[i] -= delta
                fd[i] = (energy(Profile(grid, wp), ac)
                         - energy(Profile(grid, wm), ac)) / (2.0 * delta)
            rel = float(np.max(np.abs(fd[1:-1] - analytic[1:-1]))
                        / np.max(np.abs(analytic)))
            worst = max(worst, rel)
    check(5, "gradient vs finite differences, 40 random profiles",
          worst <= tol, f"worst relative error {worst:.3e} vs tol {tol:.0e}")


def inner_period_rates(run):
    """(left, right) one-period rates read a period nearer the core than
    the report's: ln(|d(x0 - T)| / |d(x0)|) / T at the report's x0."""
    x, n, period = run.grid.x(), run.problem.n_per, run.problem.period
    start = (run.grid.xmax - 2.0 * period) * (1.0 - TAIL_FRACTION)
    phi, bg = run.phi.values, run.background_ext.values
    right = np.searchsorted(x, start, "left")
    left = np.searchsorted(x, -start, "right") - 1
    return (np.log(abs((phi + bg)[left + n] / (phi + bg)[left])) / period,
            np.log(abs((phi - bg)[right - n] / (phi - bg)[right])) / period)


def test_criterion_6_decay_rate_law():
    # The report reads each rate over [x0, x0 + T]; over [x0 - T, x0]
    # the tail must decay at the same rate. For tanh the two differ by
    # the tail's next term, about e^(-kappa (x0 - T)) / kappa relative
    # (1.6e-3 at lam = -4, 3.6e-4 at lam = -1); 5e-3 leaves three times
    # that and fails a tail whose rate drifts by half a percent in two
    # periods.
    agree = 5e-3
    ok = True
    details = []
    for lam, half in [(-0.25, 12.0), (-1.0, 8.0), (-4.0, 5.0)]:
        run = run_soliton(constant_cubic(lam=lam, n_per=128),
                          half_length=half)
        rep = run.report
        expected = 2.0 * np.sqrt(-lam)
        rates = (rep.decay_rate_fit_left, rep.decay_rate_fit_right)
        drift = max(abs(inner - rate) / rate for inner, rate in
                    zip(inner_period_rates(run), rates))
        this = all(abs(r - expected) / expected <= 0.03 for r in rates) \
            and drift <= agree
        ok = ok and this
        details.append(f"lam={lam}: C0=({rates[0]:.4f}, {rates[1]:.4f}) "
                       f"vs {expected:g}, periods agree to {drift:.1e}")
    check(6, "exponential decay rates within 3%", ok, "; ".join(details))


def test_criterion_7_dynamical_validation():
    run = run_soliton(constant_cubic(lam=-1.0, n_per=100), half_length=10.0)
    psi0 = make_ansatz(run.phi, -1.0)
    coarse = evolve_nls(psi0, run.problem,
                        EvolveOptions(dt=1e-3, t_max=5.0, snapshot_every=500))
    dev_coarse = modulus_deviation(coarse, run.phi)
    phase = phase_rotation_check(coarse, -1.0)
    fine = evolve_nls(psi0, run.problem,
                      EvolveOptions(dt=5e-4, t_max=5.0, snapshot_every=1000))
    dev_fine = modulus_deviation(fine, run.phi)
    ratio = dev_coarse / dev_fine
    ok = (dev_coarse <= 1e-4 and phase.rel_err <= 1e-3
          and 3.0 <= ratio <= 5.0)
    check(7, "time evolution of the computed soliton",
          ok, f"modulus deviation {dev_coarse:.3e} <= 1e-04 at dt=1e-3 to "
              f"t=5, phase slope rel err {phase.rel_err:.1e} <= 1e-03, "
              f"dt-halving ratio {ratio:.2f} in [3, 5]")


def test_criterion_8_translation_covariance():
    base = sinusoidal_cubic(lam=-1.0, n_per=128, amp=0.5)
    grad_tol = 1e-8

    def shifted(k_nodes):
        # g translated by k_nodes samples: g(x - k_nodes * h)
        g = Coefficient(samples=np.roll(base.g.samples, k_nodes),
                        period=base.g.period)
        return dataclasses.replace(base, g=g)

    run_a = run_soliton(base, half_length=20.0)
    run_full = run_soliton(shifted(128), half_length=20.0)
    diff_full = float(np.max(np.abs(run_full.w.values - run_a.w.values)))

    quarter = shifted(32)
    run_q = run_soliton(quarter, half_length=20.0)
    diff_q = float(np.max(np.abs(run_q.w.values[32:]
                                 - run_a.w.values[:-32])))
    shift = run_q.crossing - run_a.crossing
    ok = diff_full <= 10 * grad_tol and diff_q <= 10 * grad_tol \
        and abs(shift - 0.25) <= 1e-2
    check(8, "minimizer translates with the coefficient",
          ok, f"full-period shift sup diff {diff_full:.1e}, quarter-period "
              f"node-shifted sup diff {diff_q:.1e} <= {10 * grad_tol:.0e}, "
              f"crossing moved by {shift:.4f}")


def test_criterion_9_no_amplitude_restriction(tmp_path):
    # g ranges over [0.1, 1.9]: far outside the regime g_min > g_max / 3
    # of a contraction argument, yet the pipeline must still converge
    # with positive margins.
    expr = "1 + 0.9*sin(2*pi*x)"
    code6, rep6 = solve_cli(tmp_path, "c9_short", expr, 6.0)
    code7, rep7 = solve_cli(tmp_path, "c9_long", expr, 7.0)
    amp = rep6["soliton_report"]["amplitude_margin"]
    mono = rep6["soliton_report"]["monotonicity_margin"]
    e6, e7 = ratio_err(rep6), ratio_err(rep7)
    g_min, g_max = rep6["problem"]["g_min"], rep6["problem"]["g_max"]
    ok = (code6 == 0 and code7 == 0 and rep6["status"] == "ok"
          and g_min <= g_max / 3 and amp > 0 and mono > 0 and e7 < e6)
    check(9, "convergence outside the contraction regime",
          ok, f"g in [{g_min:.2f}, {g_max:.2f}], exit "
              f"{code6}/{code7}, margins ({amp:.1e}, {mono:.1e}), "
              f"ratio err {e6:.1e}->{e7:.1e}")


# The a = 0.9 points whose tail still rounds to 1 at automatic L: the
# slowest local rate on the cell undershoots the tail's true rate there,
# the Floquet exponent of ROADMAP item 2.
_SWEEP_OPEN = {(-0.25, 0.9), (-0.5, 0.9), (-1.0, 0.9)}


@pytest.mark.parametrize("lam, amp", [
    pytest.param(lam, amp, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: L from the Floquet exponent"))
    if (lam, amp) in _SWEEP_OPEN else (lam, amp)
    for lam in (-0.25, -0.5, -1.0, -2.0, -4.0, -9.0)
    for amp in (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)])
def test_criterion_9_amplitude_sweep_at_automatic_truncation(lam, amp):
    # g = 1 + a sin on the lambda x amplitude grid, L chosen by the program
    run = run_soliton(sinusoidal_cubic(lam=lam, n_per=128, amp=amp))
    check(9, "lambda x amplitude sweep, automatic L",
          run.status == "ok",
          f"lam={lam}, a={amp}: L={run.grid.xmax:g}, status {run.status}, "
          f"flags {sorted(run.minimize.flags)}")
