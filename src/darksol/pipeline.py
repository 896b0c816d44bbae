"""End-to-end drivers tying the stages together.

A soliton run is: validate the problem, solve the periodic background
(Newton), cross-check it against the monotone iteration, extend it to
a truncated symmetric domain, reduce, find the front (a certified
minimizer of the reduced energy, lifted to fourth order by one deferred
correction), and assemble the verification report. The run's status is
`ok` when the report verifies and `property_violation` when it does
not. Everything the command line writes comes out of the run object
built here.
"""

from dataclasses import dataclass

import numpy as np

from .kink import (MinimizeOptions, MinimizeResult, make_truncated_grid,
                   minimize, report_crossing, select_truncation)
from .model import Grid, Problem, Profile, validate_problem
from .periodic import (MonotoneResult, PeriodicResult,
                       monotone_iteration_oracle, solve_periodic)
from .reduction import correction_source, lift, to_allen_cahn
from .verify import TAIL_FRACTION, SolitonReport, build_report

__all__ = ["SolitonRun", "run_background", "run_soliton"]


@dataclass(frozen=True, eq=False)
class SolitonRun:
    problem: Problem
    periodic: PeriodicResult
    monotone: MonotoneResult
    monotone_agreement_sup: float
    half_length: float
    grid: Grid
    background_ext: Profile
    minimize: MinimizeResult
    w: Profile
    phi: Profile
    crossing: float
    report: SolitonReport
    run_flags: frozenset
    status: str
    tail_fraction: float


def run_background(problem: Problem):
    """Solve the periodic background twice and measure the disagreement."""
    validate_problem(problem)
    periodic = solve_periodic(problem)
    monotone = monotone_iteration_oracle(problem)
    agreement = float(np.max(np.abs(
        periodic.profile.values - monotone.from_below.values)))
    return periodic, monotone, agreement


def run_soliton(problem: Problem,
                half_length: float | None = None,
                minimize_options: MinimizeOptions | None = None,
                tail_fraction: float = TAIL_FRACTION) -> SolitonRun:
    """Full pipeline from problem data to a verified front profile."""
    periodic, monotone, agreement = run_background(problem)

    if half_length is None:
        half_length = select_truncation(problem)
    grid = make_truncated_grid(problem.period, half_length, problem.n_per)
    background_ext = Profile(grid, periodic.coefficient.on_grid(grid))
    ac = to_allen_cahn(problem, background_ext)

    result = minimize(
        ac, lambda w: correction_source(problem, ac, background_ext, w),
        minimize_options)
    w = result.profile
    phi = lift(w, background_ext)
    crossing = report_crossing(w)
    # The report carries only what is recomputable from the written
    # profiles; solver-side flags stay on the run object.
    report = build_report(problem, w, background_ext,
                          tail_fraction=tail_fraction)
    status = "ok" if report.verified else "property_violation"
    return SolitonRun(problem=problem, periodic=periodic, monotone=monotone,
                      monotone_agreement_sup=agreement,
                      half_length=float(half_length), grid=grid,
                      background_ext=background_ext, minimize=result,
                      w=w, phi=phi, crossing=crossing, report=report,
                      run_flags=result.flags,
                      status=status, tail_fraction=tail_fraction)
