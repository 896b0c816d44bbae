"""The three workloads: one client, closed loop, whole passes.

A workload is a set-up (done once per process) plus a pass: a list of
operations with the same mix of cases every time. `measure` repeats
whole passes until the time is up. Each operation is timed on its own;
its correctness gates run after the clock stops.

Library calls go through module attributes looked up at call time
(``pipeline.run_soliton``), so the tracer's wrappers see them.
"""

import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


class GateFailure(Exception):
    """An output of the program is wrong; the run reports no numbers."""


@dataclass
class Op:
    name: str
    call: object            # () -> result; raises the program's errors
    check: object           # (result) -> (outcome, units); raises GateFailure


@dataclass
class Record:
    name: str
    seconds: float
    units: int              # operations this call counts as
    outcome: str            # "ok" or the failure class / status
    innermost: str | None = None
    pass_no: int = 0
    ref_s: float = 0.0      # reference kernel time measured after its pass


@dataclass
class Gates:
    """Tallies of the checks that passed, for the result's detail line."""

    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def passed(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def same_bytes(self, gate, key, blob):
        """Repeats of one input must give byte-identical output."""
        digest = hashlib.sha256(blob).hexdigest()
        first = self.digests.setdefault((gate, key), digest)
        if first != digest:
            raise GateFailure(f"{gate}: {key} differs between repeats")
        self.passed(gate)


# Passes of the reference kernel per sample; about 20 ms on a 2 GHz core.
REF_REPEATS = 80


@functools.cache
def _reference_data():
    from scipy.linalg import solve_banded
    n = 3000
    ab = np.zeros((3, n), dtype=complex)
    ab[0], ab[1], ab[2] = 0.1j, 1.0 + 0.5j, 0.1j
    return solve_banded, ab, np.ones(n, dtype=complex), np.linspace(0, 1, n)


def reference_seconds():
    """Wall time of a fixed kernel that uses no darksol code: a complex
    banded solve, array arithmetic and a Python loop, the same mix the
    program runs. Timing it after every pass tracks the host's speed,
    which on a shared machine swings by up to 1.3x between 20-second
    windows; ratios to it cancel that swing (to 1.09x in the same test).
    """
    solve_banded, ab, b, x = _reference_data()
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        y = solve_banded((1, 1), ab, b, check_finite=False)
        np.abs(y) ** 2 * np.cos(x) + y.real
        total = 0.0
        for k in range(200):
            total += 0.5 * k
    return time.perf_counter() - start


def measure(workload, seconds=None, count=None, tracer=None):
    """Run whole passes until `seconds` elapse, or exactly `count` ops.

    In the timed form every pass is followed by one sample of the
    workload's reference (`workload.reference()`, seconds), stored on
    the pass's records. The program's own errors
    (`workload.errors`) end an operation as a failure; anything else is
    a defect of the benchmark and propagates.
    """
    records = []
    if count is None:
        workload.reference()    # warm
    deadline = time.perf_counter() + (seconds or 0.0)
    pass_no = 0
    while True:
        pass_no += 1
        first = len(records)
        for op in workload.pass_ops():
            if count is not None and len(records) >= count:
                return records
            if tracer is not None:
                tracer.draw = f"{op.name}#{len(records)}"
            start = time.perf_counter()
            try:
                result = op.call()
            except workload.errors as exc:
                elapsed = time.perf_counter() - start
                records.append(Record(
                    op.name, elapsed, 1, type(exc).__name__,
                    tracer.innermost(exc) if tracer is not None else None,
                    pass_no))
                continue
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            try:
                outcome, units = op.check(result)
            finally:
                if tracer is not None:
                    tracer.paused = False
            records.append(Record(op.name, elapsed, units, outcome,
                                  pass_no=pass_no))
        if count is None:
            ref = workload.reference()
            for r in records[first:]:
                r.ref_s = ref
            if time.perf_counter() >= deadline:
                return records


def tail_percentile(values):
    """Highest whole percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    pct = int(100 * (n - 10) / n)
    while pct > 0 and n - int(np.ceil(pct / 100 * n)) < 10:
        pct -= 1
    index = max(0, int(np.ceil(pct / 100 * n)) - 1)
    return pct, ordered[index]


def summarize(records):
    """Throughput and latency over the timed operations.

    Throughput is the median over passes of one pass's operations per
    busy second: every pass holds the same mix of cases, and the median
    keeps a burst of load from other processes out of the figure. The
    `_ref` forms divide each time by the reference-kernel time measured
    after the same pass (a time in reference-kernel units).
    """
    passes = {}
    for r in records:
        units, busy, _ = passes.get(r.pass_no, (0, 0.0, 0.0))
        passes[r.pass_no] = (units + r.units, busy + r.seconds, r.ref_s)
    per_unit_ms = [1e3 * r.seconds / r.units for r in records]
    pct, tail = tail_percentile(per_unit_ms)
    return {"ops": sum(r.units for r in records), "calls": len(records),
            "passes": len(passes), "busy_s": sum(r.seconds for r in records),
            "ref_ms": 1e3 * statistics.median(p[2] for p in passes.values()),
            "ops_per_s": statistics.median(u / b for u, b, _ in
                                           passes.values()),
            "ops_per_ref": statistics.median(u * ref / b for u, b, ref in
                                             passes.values()),
            "op_p50_ms": statistics.median(per_unit_ms),
            "op_p50_ref": statistics.median(r.seconds / r.units / r.ref_s
                                            for r in records),
            "tail_pct": pct, "op_tail_ms": tail}


# ---------------------------------------------------------------- fronts

class Fronts:
    """run_soliton over the fixed baseline cases and the seeded draws.

    Pass k is the fixed cases plus block k of fresh seeded draws, so a
    run averages over many draws while the fixed cases repeat.
    """

    def __init__(self, seed):
        from darksol.errors import DarksolError
        self.errors = DarksolError
        self.seed = seed
        self.block = 0
        self.gates = Gates()
        self.fixed = [(case, case.problem()) for case in inputs.FRONTS_FIXED]
        self.next_block = self._block(0)
        self.pass_size = len(self.fixed) + len(self.next_block)

    reference = staticmethod(reference_seconds)

    def _block(self, k):
        return [(case, case.problem())
                for case in inputs.front_draws(self.seed, k)]

    def pass_ops(self):
        from darksol import pipeline
        block, self.block = self.next_block, self.block + 1
        self.next_block = self._block(self.block)
        for case, problem in self.fixed + block:
            yield Op(case.name,
                     lambda p=problem, c=case: pipeline.run_soliton(
                         p, half_length=c.half_length),
                     lambda run, c=case: self.check(c, run))

    def check(self, case, run):
        if run.status != "ok":
            return run.status, 1
        check_front(self.gates, case, run)
        return "ok", 1


def check_front(gates, case, run):
    """Gates on one ok front: the verify rule, the closed form, repeats."""
    from darksol import verify
    again = verify.build_report(run.problem, run.w, run.background_ext,
                                tail_fraction=run.tail_fraction)
    if json.dumps(again.to_dict(), sort_keys=True) != \
            json.dumps(run.report.to_dict(), sort_keys=True):
        raise GateFailure(f"{case.name}: recomputed report differs")
    gates.passed("report_recomputes")
    if case.constant_cubic:
        # Closed form tanh(sqrt(-lam) x); README: sup error ~0.056 h^2 at
        # lam = -1, scaling with -lam. Compared on the inner half, where
        # the truncated domain's own error is far smaller.
        x = run.grid.x()
        core = np.abs(x) <= 0.5 * run.grid.xmax
        exact = np.tanh(np.sqrt(-case.lam) * (x - run.crossing))
        err = float(np.max(np.abs(run.w.values - exact)[core]))
        tol = 0.1 * -case.lam * run.grid.h ** 2
        if not err <= tol:
            raise GateFailure(f"{case.name}: closed-form error {err:.3e} "
                              f"> {tol:.3e}")
        gates.passed("closed_form_tanh")
    gates.same_bytes("repeat_identical_w", case.name, run.w.values.tobytes())


# -------------------------------------------------------------- dynamics

class Dynamics:
    """evolve_nls from solitons computed in set-up, then the three checks.

    One operation evolves both grids in turn, so every operation has
    the same cost and the median is not split between two grid sizes.
    """

    def __init__(self, seed):
        from darksol import evolve, pipeline
        from darksol.errors import DarksolError
        self.errors = DarksolError
        self.gates = Gates()
        self.cases = []
        for case in inputs.evolve_cases(seed):
            run = pipeline.run_soliton(case.front.problem(),
                                       half_length=case.front.half_length)
            if run.status != "ok":
                raise GateFailure(f"{case.name}: set-up soliton {run.status}")
            self.cases.append((case, run, evolve.make_ansatz(run.phi,
                                                             case.front.lam)))
        self.pass_size = 1

    reference = staticmethod(reference_seconds)

    def pass_ops(self):
        yield Op("evolve_both_grids",
                 lambda: [evolve_once(*c) for c in self.cases],
                 self.check)

    def check(self, outs):
        for (case, run, _), out in zip(self.cases, outs):
            check_evolution(self.gates, case, run, out)
        return "ok", sum(out[0].n_steps for out in outs)


def evolve_once(case, run, psi0):
    from darksol import evolve
    traj = evolve.evolve_nls(psi0, run.problem, evolve.EvolveOptions(
        dt=case.dt, t_max=case.steps * case.dt,
        snapshot_every=case.snapshot_every))
    deviation = evolve.modulus_deviation(traj, run.phi)
    phase = evolve.phase_rotation_check(traj, case.front.lam)
    drift = evolve.kink_drift(traj, case.front.lam)
    return traj, deviation, phase, drift


def check_evolution(gates, case, run, out):
    traj, deviation, phase, drift = out
    h = run.grid.h
    if not (deviation <= 1e-4 and phase.rel_err <= 1e-3 and drift < 2 * h):
        raise GateFailure(
            f"{case.name}: modulus deviation {deviation:.2e}, phase error "
            f"{phase.rel_err:.2e}, drift {drift:.2e} (limits 1e-4, 1e-3, "
            f"{2 * h:.2e})")
    gates.passed("evolution_invariants")
    last = traj.fields[-1]
    gates.same_bytes("repeat_identical_field", case.name,
                     last.re.tobytes() + last.im.tobytes())


# ------------------------------------------------------------------- cli

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def run_child(args, timeout=150):
    """Run a fresh interpreter to completion; returns its exit code."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode


class Cli:
    """The command line as the README runs it: solve-soliton, verify on
    that output, and a small two-worker sweep, one process at a time.

    With in_process=True the same commands go through cli.main in this
    interpreter and the sweep runs with one worker (the traced form).
    """

    def __init__(self, seed, in_process=False, tag="cli"):
        self.in_process = in_process
        # cli.main maps the program's errors to exit codes itself.
        self.errors = ()
        self.gates = Gates()
        self.dir = OUT / f"{tag}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        solves, sweep = inputs.cli_configs(seed)
        self.solves = []
        for i, text in enumerate(solves):
            path = self.dir / f"solve{i}.ini"
            path.write_text(text, encoding="utf-8")
            self.solves.append(path)
        self.sweep = self.dir / "sweep.ini"
        self.sweep.write_text(sweep, encoding="utf-8")
        self.iteration = 0
        self.pass_size = 3
        # Sweep rows are operations too: attempted and not ended ok.
        self.rows = 0
        self.rows_failed = 0

    def reference(self):
        """A fresh interpreter importing numpy and scipy.linalg, the
        start-up work every CLI call shares that is not darksol's."""
        if self.in_process:
            return reference_seconds()
        start = time.perf_counter()
        if run_child(["-c", "import numpy, scipy.linalg"]) != 0:
            raise GateFailure("reference interpreter failed")
        return time.perf_counter() - start

    def command(self, argv):
        if self.in_process:
            from darksol import cli
            return cli.main(argv)
        return run_child(["-m", "darksol", *argv])

    def pass_ops(self):
        k = self.iteration
        self.iteration += 1
        config = self.solves[k % len(self.solves)]
        out = self.dir / f"solve{k % len(self.solves)}"
        sweep_out = self.dir / f"sweep{k}"
        workers = "1" if self.in_process else "2"
        yield Op("cli_solve",
                 lambda: self.command(["solve-soliton", "--config",
                                       str(config), "--out", str(out)]),
                 lambda code: self.check_exit("solve", code))
        yield Op("cli_verify",
                 lambda: self.command(["verify", "--config", str(config),
                                       "--out", str(out)]),
                 lambda code: self.check_exit("verify", code))
        yield Op("cli_sweep",
                 lambda: self.command(["sweep", "--config", str(self.sweep),
                                       "--out", str(sweep_out),
                                       "--workers", workers]),
                 lambda code: self.check_sweep(code, sweep_out))

    def check_exit(self, what, code):
        if what == "verify" and code != 0:
            raise GateFailure(f"darksol verify exited {code}")
        return ("ok" if code == 0 else f"exit_{code}"), 1

    def check_sweep(self, code, sweep_out):
        if code != 0:
            return f"exit_{code}", 1
        blob = (sweep_out / "summary.csv").read_bytes()
        self.gates.same_bytes("sweep_summary_identical", "summary.csv", blob)
        statuses = [line.rsplit(",", 1)[-1]
                    for line in blob.decode().splitlines()[1:]]
        self.rows += len(statuses)
        self.rows_failed += sum(s != "ok" for s in statuses)
        return "ok", 1


def cli_names(records):
    """Median wall seconds of each CLI command."""
    out = {}
    for name in ("cli_solve", "cli_verify", "cli_sweep"):
        times = [r.seconds for r in records if r.name == name]
        out[f"{name}_s"] = statistics.median(times) if times else None
    return out


WORKLOADS = {"fronts": Fronts, "dynamics": Dynamics, "cli": Cli}
