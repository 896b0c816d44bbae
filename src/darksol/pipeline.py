"""End-to-end drivers tying the stages together.

A soliton run is: validate the problem, solve the periodic background
once (Newton, certified by its own sub/supersolution enclosure), extend
it to a truncated symmetric domain, reduce, find the front (a certified
minimizer of the reduced energy, lifted to fourth order by one deferred
correction), and assemble the verification report; the first three
steps are `truncated_background`. The run's status is read from the
report's one verdict: `ok` when it verifies, else `property_violation`.
Everything the command line writes comes out of the run object built
here.
`run_background` is the two-route background check: Newton and the
monotone oracle, with their disagreement.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import _verdict_status
from .kink import (MinimizeResult, make_truncated_grid, minimize,
                   report_crossing, select_truncation)
from .model import Grid, Problem, Profile, validate_problem
from .periodic import (PeriodicResult, monotone_iteration_oracle,
                       solve_periodic)
from .reduction import WeightedAC, correction_source, lift, to_allen_cahn
from .verify import TAIL_FRACTION, SolitonReport, build_report

__all__ = ["SolitonRun", "run_background", "run_soliton",
           "truncated_background"]


@dataclass(frozen=True, eq=False)
class SolitonRun:
    problem: Problem
    periodic: PeriodicResult
    grid: Grid
    background_ext: Profile
    ac: WeightedAC
    minimize: MinimizeResult
    w: Profile
    crossing: float
    report: SolitonReport
    # the outer share of the half-domain that the report's tail checks read
    tail_fraction: ClassVar[float] = TAIL_FRACTION

    @property
    def phi(self) -> Profile:
        """The front lifted to phi = w phi+, formed on each read."""
        return lift(self.w, self.background_ext)

    @property
    def status(self) -> str:
        """`ok` when the report verifies, else `property_violation`."""
        return _verdict_status(self.report.verified)


def run_background(problem: Problem):
    """Solve the periodic background twice and measure the disagreement."""
    validate_problem(problem)
    periodic = solve_periodic(problem)
    monotone = monotone_iteration_oracle(problem)
    agreement = float(np.max(np.abs(
        periodic.profile.values - monotone.from_below.values)))
    return periodic, monotone, agreement


def truncated_background(problem: Problem,
                         half_length: float | None = None):
    """`(periodic, background_ext)`: the validated problem's background
    solve and its extension onto [-L, L], L by `select_truncation` when
    no half length is given."""
    validate_problem(problem)
    periodic = solve_periodic(problem)
    if half_length is None:
        half_length = select_truncation(problem, periodic.profile)
    grid = make_truncated_grid(problem.period, half_length, problem.n_per)
    return periodic, Profile(grid, periodic.coefficient.on_grid(grid))


def run_soliton(problem: Problem,
                half_length: float | None = None) -> SolitonRun:
    """Full pipeline from problem data to a verified front profile."""
    periodic, background_ext = truncated_background(problem, half_length)
    ac = to_allen_cahn(problem, background_ext)

    result = minimize(ac, lambda w, residual: correction_source(
        ac, background_ext, w, residual))
    w = result.profile
    crossing = report_crossing(w)
    # The report carries only what is recomputable from the written
    # profiles; solver-side flags stay on the run object. It reads the
    # run's own reduction, with the bits a fresh one gives.
    report = build_report(problem, w, background_ext, ac=ac)
    return SolitonRun(problem=problem, periodic=periodic,
                      grid=background_ext.grid, background_ext=background_ext,
                      ac=ac, minimize=result, w=w, crossing=crossing,
                      report=report)
