"""Solve the periodic background for a sinusoidal coefficient.

Shows the constant bracket, the Newton solve on one period with the
width of its verified enclosure, and the monotone-iteration cross-check
that approaches the same profile from an ordered pair of constant
states.
"""

import numpy as np

from darksol import Problem, sample_coefficient
from darksol.periodic import (bracket_bounds, monotone_iteration_oracle,
                              periodic_residual, solve_periodic)

g = sample_coefficient("1 + 0.5*sin(2*pi*x)", period=1.0, n_per_period=256,
                       positive=True)
problem = Problem(kind="cubic", lam=-1.0, period=1.0, g=g)

bracket = bracket_bounds(problem)
print(f"coefficient range      [{g.cmin:.3f}, {g.cmax:.3f}]")
print(f"constant bracket       ({bracket.lower:.6f}, {bracket.upper:.6f})")

result = solve_periodic(problem)
vals = result.profile.values
residual = np.max(np.abs(periodic_residual(problem, vals[:-1])))
print(f"Newton iterations      {result.iterations}")
print(f"residual sup           {residual:.3e}")
print(f"enclosure width        {result.enclosure_width:.3e}")
print(f"profile range          [{vals.min():.6f}, {vals.max():.6f}]")
print(f"inside bracket         {bool(np.all(vals > bracket.lower) and np.all(vals < bracket.upper))}")

oracle = monotone_iteration_oracle(problem)
gap = np.max(np.abs(vals - oracle.from_below.values))
print(f"monotone sweeps        {oracle.iterations}")
print(f"route disagreement     {gap:.3e}")
