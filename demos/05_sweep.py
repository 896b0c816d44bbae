"""Parameter sweep through the command-line entry point.

Writes a config file, runs the sweep in-process, and tabulates each
side's one-period decay rate (the `c0_left` and `c0_right` columns of
`summary.csv`) against the linearized prediction 2 sqrt(-lam).
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from darksol.cli import main, read_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else \
    Path(tempfile.mkdtemp(prefix="darksol-sweep-"))
out.mkdir(parents=True, exist_ok=True)
config = out / "sweep.ini"
config.write_text("""\
[problem]
kind = cubic
lambda = -1.0
period = 1.0
n_per_period = 128
g = 1 + a*sin(2*pi*x)

[domain]
l = 8

[sweep]
lambda = -0.5, -1.0, -2.0
amplitude = 0.0, 0.5
""", encoding="utf-8")

code = main(["sweep", "--config", str(config), "--out", str(out),
             "--workers", "2"])
print(f"exit code {code}; outputs in {out}")

rows = read_csv(out / "summary.csv")
# read_csv reads numbers; the status strings come from the sweep's report
statuses = json.loads((out / "report.json").read_text())["statuses"]
print(f"{'lambda':>8} {'amp':>5} {'rate left':>9} {'rate right':>10} "
      f"{'2*sqrt(-lam)':>13} {'status':>8}")
for i in range(rows["lambda"].size):
    lam = rows["lambda"][i]
    print(f"{lam:8.2f} {rows['amplitude'][i]:5.2f} "
          f"{rows['c0_left'][i]:9.4f} {rows['c0_right'][i]:10.4f} "
          f"{2 * np.sqrt(-lam):13.4f} {statuses[i]:>8}")
