"""Seeded inputs for the three workloads, plus the fixed named cases.

Everything here is plain data built from the seed; the program only
ever sees the generated problems and config files.

The seeded front draws keep the coefficient even about the domain
centre, so the front's position is fixed by symmetry, and cap the
amplitude at 0.8 and the half length where the tail would round to
exactly +-1. Outside that region the program at the commit that added
this benchmark fails or grinds for seconds per draw (random phases make
the front travel against weak pinning; long domains underflow the
tail), which a time-bounded loop with a failure-free contract cannot
hold steady. Those inputs are not dropped: the moving-front and
automatic-truncation cases run in every pass as the fixed ROADMAP
baseline cases, and the known failures run as the named failure probes
of the traced run.
"""

import math
from dataclasses import dataclass

import numpy as np

# Every pass holds each (model, n_per, half length) combination this
# many times, so the mix of grid sizes is the same for every seed.
REPLICATES = 2
HALF_LENGTHS = (6, 7, 8, 9, 10)
# Extra constant-coefficient cubic draws per pass (closed-form gate).
N_CONSTANT = 2
AMP_MAX = 0.8
LAM_RANGE = (-4.0, -0.25)


@dataclass(frozen=True)
class FrontCase:
    """One front problem: g = 1 + amp*cos(2 pi (x - phase)) for the cubic
    model, V = amp*|lam|*cos(2 pi (x - phase)) with g1 for the quintic."""

    name: str
    kind: str
    lam: float
    amp: float
    n_per: int
    half_length: float | None
    phase: float = 0.0
    g1: float = 0.0

    def problem(self):
        from darksol.model import Problem, sample_coefficient
        amp, phase, lam = self.amp, self.phase, self.lam

        def wave(x):
            return np.cos(2.0 * np.pi * (x - phase))

        if self.kind == "cubic":
            g = sample_coefficient(lambda x: 1.0 + amp * wave(x), 1.0,
                                   self.n_per, positive=True)
            return Problem(kind="cubic", lam=lam, period=1.0, g=g)
        v = sample_coefficient(lambda x: amp * abs(lam) * wave(x), 1.0,
                               self.n_per)
        return Problem(kind="cubic-quintic", lam=lam, period=1.0,
                       potential=v, g1=self.g1)

    @property
    def constant_cubic(self):
        return self.kind == "cubic" and self.amp == 0.0


def _lam_floor(half_length):
    """Most negative lambda for a half length: keeping 2 sqrt(-lam) L <= 28
    leaves 1 - |w| far above rounding at the pinned ends."""
    return max(LAM_RANGE[0], -(14.0 / half_length) ** 2)


def _lhs(rng, n):
    """One stratified uniform sample per stratum, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_lam(u, lo=LAM_RANGE[0], hi=LAM_RANGE[1]):
    return -math.exp(math.log(-hi) + u * (math.log(-lo) - math.log(-hi)))


# The four cases of the ROADMAP "Measured baseline" table, all anchors
# of the traced run; the three in FRONTS_FIXED also run in every fronts
# pass. The first and the last make the front travel (sine coefficient),
# the last one for 5,000 flow steps; the first and third use automatic
# truncation.
BASELINE = (
    FrontCase("baseline_sin05_auto", "cubic", -1.0, 0.5, 256, None,
              phase=0.25),
    FrontCase("baseline_const_L20", "cubic", -1.0, 0.0, 100, 20.0),
    FrontCase("baseline_quintic_auto", "cubic-quintic", -1.0, 0.3, 256,
              None, g1=0.5),
    FrontCase("baseline_sin09_L6", "cubic", -1.0, 0.9, 128, 6.0,
              phase=0.25),
)

# The criterion-1 case ends property_violation at the commit that added
# this benchmark (at L = 20 the tail rounds to exactly 1, so the
# amplitude margin is 0); it runs only as an anchor.
FRONTS_FIXED = tuple(c for c in BASELINE if c.name != "baseline_const_L20")

# Inputs the program fails on at the commit that added this benchmark
# (ROADMAP items 2 and 3). The traced run attempts each once and books
# the outcome in the failure ledger.
FAILURE_PROBES = (
    FrontCase("probe_sin05_lam4_auto", "cubic", -4.0, 0.5, 256, None,
              phase=0.25),
    FrontCase("probe_sin09_lam1_auto", "cubic", -1.0, 0.9, 128, None,
              phase=0.25),
    FrontCase("probe_sin09_lam4_auto", "cubic", -4.0, 0.9, 128, None,
              phase=0.25),
    FrontCase("probe_sin09_lam9_auto", "cubic", -9.0, 0.9, 128, None,
              phase=0.25),
    FrontCase("probe_const_lam4_L10", "cubic", -4.0, 0.0, 256, 10.0),
)


def front_draws(seed, block=0):
    """One block of seeded draws, in a seeded order. Blocks of one seed
    are independent draws over the same strata."""
    rng = np.random.default_rng([seed, 1, block])
    cells = [(kind, n_per, half)
             for kind in ("cubic", "cubic-quintic")
             for n_per in (128, 256)
             for half in HALF_LENGTHS
             for _ in range(REPLICATES)]
    u_lam, u_amp = _lhs(rng, len(cells)), _lhs(rng, len(cells))
    draws = []
    for i, (kind, n_per, half) in enumerate(cells):
        draws.append(FrontCase(
            name=f"b{block}.draw{i:02d}", kind=kind,
            lam=_log_lam(u_lam[i], lo=_lam_floor(half)),
            amp=float(AMP_MAX * u_amp[i]), n_per=n_per,
            half_length=float(half),
            # 0 puts a maximum of the coefficient at the centre, 0.5 a minimum.
            phase=0.5 * float(rng.integers(0, 2)),
            g1=float(rng.uniform(0.1, 1.0))))
    for j, u in enumerate(_lhs(rng, N_CONSTANT)):
        # Long enough that truncation error stays below the h^2 error
        # the closed-form gate checks.
        lam = _log_lam(u, -4.0, -1.0)
        draws.append(FrontCase(
            name=f"b{block}.const{j}", kind="cubic", lam=lam, amp=0.0,
            n_per=int(rng.choice([128, 256])),
            half_length=float(min(10, int(14.0 / math.sqrt(-lam))))))
    order = rng.permutation(len(draws))
    return [draws[k] for k in order]


@dataclass(frozen=True)
class EvolveCase:
    name: str
    front: FrontCase
    steps: int
    dt: float = 1e-3
    snapshot_every: int = 50


def evolve_cases(seed):
    """The two grids of the dynamics workload: the criterion-7 set-up and
    a modulated one with a seeded lambda and quarter-period phase."""
    rng = np.random.default_rng([seed, 2])
    crit7 = FrontCase("crit7_const_n2001", "cubic", -1.0, 0.0, 100, 10.0)
    modulated = FrontCase(
        "sin05_n4097", "cubic", _log_lam(rng.random(), -1.25, -0.8), 0.5,
        256, 8.0, phase=0.25 * float(rng.integers(0, 4)))
    return (EvolveCase("crit7_const_n2001", crit7, steps=250),
            EvolveCase("sin05_n4097", modulated, steps=250))


# Criterion 7 as a named anchor: dt = 1e-3 to t = 5 at n = 2001.
CRIT7_ANCHOR = EvolveCase("anchor_crit7", FrontCase(
    "crit7", "cubic", -1.0, 0.0, 100, 10.0), steps=5000, snapshot_every=500)


def solve_config(case: FrontCase) -> str:
    """INI text for a solve-soliton / verify run of one front case."""
    lines = ["[problem]", f"kind = {case.kind}", f"lambda = {case.lam!r}",
             "period = 1.0", f"n_per_period = {case.n_per}"]
    if case.kind == "cubic":
        lines.append(f"g = 1 + {case.amp!r}*cos(2*pi*(x - {case.phase!r}))")
    else:
        v_amp = case.amp * abs(case.lam)
        lines.append(f"v = {v_amp!r}*cos(2*pi*(x - {case.phase!r}))")
        lines.append(f"g1 = {case.g1!r}")
    if case.half_length is not None:
        lines += ["[domain]", f"l = {case.half_length:g}"]
    return "\n".join(lines) + "\n"


def cli_configs(seed):
    """Two solve configs (cycled) and one sweep config for the cli workload.

    The sweep is a 2 x 2 lambda x amplitude grid with automatic
    truncation, one point per stratum.
    """
    # One cubic and one quintic draw on fixed grids, so the file sizes
    # the CLI writes and re-reads are the same for every seed.
    draws = front_draws(seed)
    solves = [next(d for d in draws if (d.kind, d.n_per, d.half_length)
                   == cell)
              for cell in (("cubic", 256, 8.0), ("cubic-quintic", 128, 8.0))]
    rng = np.random.default_rng([seed, 3])
    lams = (_log_lam(rng.random(), -4.0, -1.5),
            _log_lam(rng.random(), -1.5, -0.5))
    amps = (float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.3, 0.6)))
    sign = "+" if rng.random() < 0.5 else "-"
    sweep = "\n".join([
        "[problem]", "kind = cubic", "lambda = -1.0", "period = 1.0",
        "n_per_period = 128", f"g = 1 {sign} a*cos(2*pi*x)",
        "[sweep]", "lambda = " + ", ".join(repr(v) for v in lams),
        "amplitude = " + ", ".join(repr(v) for v in amps)]) + "\n"
    return [solve_config(d) for d in solves], sweep


# The fixed CLI anchor: the sweep from demos/05_sweep.py.
CLI_ANCHOR_SWEEP = """\
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
"""
