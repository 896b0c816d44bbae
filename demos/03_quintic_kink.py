"""Cubic-quintic front against a closed-form solution.

With no cubic interaction and zero potential the reduced front has the
explicit form sqrt(2) tanh(x) / sqrt(3 - tanh(x)^2); the computed
minimizer should match it away from the pinned boundary.
"""

import numpy as np

from darksol import Problem, run_soliton, sample_coefficient

potential = sample_coefficient("0", period=1.0, n_per_period=512)
problem = Problem(kind="cubic-quintic", lam=-1.0, period=1.0,
                  potential=potential, g1=0.0)

run = run_soliton(problem, half_length=9.0)
x = run.grid.x()
t = np.tanh(x)
exact = np.sqrt(2.0) * t / np.sqrt(3.0 - t * t)

core = np.abs(x) <= 7.0
err = np.max(np.abs(run.w.values - exact)[core])
print(f"status                 {run.status}")
print(f"grid                   {run.grid.n} nodes, h = {run.grid.h:g}")
print(f"closed-form sup error  {err:.3e}  (|x| <= 7)")
print(f"decay rate (1 period)  {run.report.decay_rate_fit_right:.4f}  "
      f"(slope of the linearization: 2)")
print(f"amplitude margin       {run.report.amplitude_margin:.3e}")
print(f"monotonicity margin    {run.report.monotonicity_margin:.3e}")
