"""Full pipeline: periodic background, reduction, minimization, report.

Runs the dark-soliton computation for an inhomogeneous coefficient and
prints the verification report that a file-writing run would store.
"""

import json

import numpy as np

from darksol import Problem, run_soliton, sample_coefficient

g = sample_coefficient("1 + 0.5*sin(2*pi*x)", period=1.0, n_per_period=256,
                       positive=True)
problem = Problem(kind="cubic", lam=-1.0, period=1.0, g=g)

run = run_soliton(problem)

print(f"status                 {run.status}")
print(f"half length            {run.grid.xmax:g}  "
      f"(grid of {run.grid.n} nodes, h = {run.grid.h:g})")
print(f"background enclosure   {run.periodic.enclosure_width:.3e}")
print(f"gradient sup / h       {run.minimize.grad_sup_per_h:.3e}")
print(f"front crossing at      {run.crossing:+.6f}")
print(f"energy                 {run.minimize.final_energy:.8f}")
print(f"phi dips to            {np.min(np.abs(run.phi.values)):.3e}")
print(f"run flags              {sorted(run.minimize.flags) or '(none)'}")
print()
print(json.dumps(run.report.to_dict(), indent=2))
