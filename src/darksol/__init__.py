"""Dark-soliton profiles of the defocusing NLS with periodic coefficients.

The public surface re-exports the problem data types, the periodic
background solvers, the reduced-energy minimizer, the verification
report and the time evolution driver. The command line lives in
darksol.cli.
"""

from .errors import (ConfigError, DarksolError, ExpressionError,
                     GridMismatchError, NonConvergence, NoSignChange,
                     PhaseUndefined, SingularLinearization, StepDivergence,
                     ValidationError)
from .evolve import (ComplexField, EvolveOptions, PhaseCheck, Trajectory,
                     evolve_nls, kink_drift, make_ansatz, modulus_deviation,
                     phase_rotation_check)
from .exprparse import CompiledExpression, compile_expression
from .kink import (MinimizeResult, make_truncated_grid, minimize,
                   report_crossing, select_truncation)
from .model import (Coefficient, Grid, Problem, Profile, sample_coefficient,
                    validate_problem)
from .periodic import (Bracket, MonotoneResult, PeriodicResult,
                       bracket_bounds, monotone_iteration_oracle,
                       periodic_residual, solve_periodic)
from .pipeline import (SolitonRun, run_background, run_soliton,
                       truncated_background)
from .reduction import (WeightedAC, energy, lift, residual_reduced,
                        to_allen_cahn)
from .verify import SolitonReport, build_report

__version__ = "0.1.0"
