"""Command line: solve, verify, evolve and sweep from INI configs.

Every command returns the exit code `errors.EXIT_CODES` gives for the
status it writes or the error it raised. All file output is
deterministic for a given config: floats are written with 17
significant digits (exact round-trip), JSON keys are sorted, and sweep
rows are emitted in config order regardless of worker count.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import svgplot
from ._banded import lapack
from .errors import EXIT_CODES, ConfigError, DarksolError, _verdict_status
from .evolve import (EvolveOptions, evolve_nls, kink_drift, make_ansatz,
                     modulus_deviation, phase_rotation_check)
from .exprparse import compile_expression
from .kink import select_truncation  # noqa: F401  (bench/spans.py TARGETS)
from .model import Grid, Problem, Profile, sample_coefficient, validate_problem
from .pipeline import run_background, run_soliton, truncated_background
from .reduction import lift, residual_reduced, to_allen_cahn
from .verify import build_report

SCHEMA_VERSION = 1
# Fixed evolution gates: sup | |psi| - |psi_0| |, phase-slope relative error
_MODULUS_TOL = 1e-4
_PHASE_TOL = 1e-3

_KNOWN_KEYS = {
    "problem": {"kind", "lambda", "period", "n_per_period", "g", "g_table",
                "v", "v_table", "g1"},
    "domain": {"l"},
    "evolve": {"dt", "t_max", "snapshot_every", "initial"},
    "sweep": {"lambda", "amplitude"},
}


@dataclass(frozen=True)
class RunConfig:
    kind: str
    lam: float
    period: float
    n_per_period: int
    coefficient_source: object
    g1: float
    half_length: float | None
    dt: float | None
    t_max: float | None
    snapshot_every: int
    initial: str
    sweep_lambdas: tuple
    sweep_amplitudes: tuple | None
    raw: dict
    config_hash: str


def _float_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(blob.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, cast, default=None, required=False):
        if not cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return default
        text = cp.get(section, key)
        try:
            return cast(text)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"bad value {text!r} for {key!r} in [{section}]") from exc

    kind = get("problem", "kind", str, required=True)
    if kind not in ("cubic", "cubic-quintic"):
        raise ConfigError(f"unknown problem kind {kind!r}")
    lam = get("problem", "lambda", float, required=True)
    period = get("problem", "period", float, default=1.0)
    n_per = get("problem", "n_per_period", int, default=256)

    name = "g" if kind == "cubic" else "v"
    expr = get("problem", name, str)
    table = get("problem", f"{name}_table", str)
    if (expr is None) == (table is None):
        raise ConfigError(
            f"{kind} model needs exactly one of {name} / {name}_table")
    source = expr if expr is not None else _float_list(table)
    g1 = get("problem", "g1", float, default=0.0)

    raw = {section: dict(cp[section]) for section in cp.sections()}
    return RunConfig(
        kind=kind, lam=lam, period=period, n_per_period=n_per,
        coefficient_source=source, g1=g1,
        half_length=get("domain", "l", float),
        dt=get("evolve", "dt", float),
        t_max=get("evolve", "t_max", float),
        snapshot_every=get("evolve", "snapshot_every", int, default=100),
        initial=get("evolve", "initial", str, default="soliton"),
        sweep_lambdas=_float_list(get("sweep", "lambda", str, default="")),
        sweep_amplitudes=(
            _float_list(get("sweep", "amplitude", str))
            if cp.has_option("sweep", "amplitude") else None),
        raw=raw,
        config_hash=hashlib.sha256(blob).hexdigest())


def build_problem(cfg: RunConfig, lam: float | None = None,
                  amplitude: float | None = None) -> Problem:
    """Instantiate the problem, optionally overriding lambda and binding
    the sweep amplitude variable `a` in coefficient expressions."""
    variables = {} if amplitude is None else {"a": amplitude}
    lam = cfg.lam if lam is None else lam
    cubic = cfg.kind == "cubic"
    coeff = sample_coefficient(cfg.coefficient_source, cfg.period,
                               cfg.n_per_period, positive=cubic,
                               variables=variables)
    if cubic:
        return Problem(kind="cubic", lam=lam, period=cfg.period, g=coeff)
    return Problem(kind="cubic-quintic", lam=lam, period=cfg.period,
                   potential=coeff, g1=cfg.g1)


def _cells(col):
    """One CSV column as text: a column of strings as it is, numbers in
    round-trip form (.17g), formatted as one batch of Python floats."""
    if all(isinstance(value, str) for value in col):
        return col
    return [format(value, ".17g")
            for value in np.asarray(col, dtype=float).tolist()]


def write_csv(path, names, columns):
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("ragged csv columns")
    cells = [_cells(col) for col in columns]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_csv(path):
    """Read a CSV written by write_csv back into named float columns."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise ConfigError(f"{path} has no data rows")
    names = lines[0].split(",")
    data = {name: [] for name in names}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ConfigError(f"ragged row in {path}")
        for name, part in zip(names, parts):
            try:
                data[name].append(float(part))
            except ValueError:
                data[name].append(np.nan)
    return {name: np.asarray(vals) for name, vals in data.items()}


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _problem_block(problem: Problem) -> dict:
    block = {
        "kind": problem.kind,
        "lambda": problem.lam,
        "period": problem.period,
        "n_per_period": problem.n_per,
    }
    name = "g" if problem.is_cubic else "v"
    block[f"{name}_min"] = problem.model_coefficient.cmin
    block[f"{name}_max"] = problem.model_coefficient.cmax
    if not problem.is_cubic:
        block["g1"] = problem.g1
    return block


_NOTES = {
    "coefficient_extrema": "coefficient extrema are taken over the sampled "
                           "nodes, not the continuous expression",
    "dynamics_tolerances": "dynamical tolerances are fixed gates that depend "
                           "on the discretization, not model constants",
}


def _base_report(command, cfg: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_hash": cfg.config_hash,
        "config": cfg.raw,
        "notes": _NOTES,
    }


def _background_blocks(periodic, **oracle) -> dict:
    """The `bracket` and `periodic` report blocks of a background solve,
    with the oracle's numbers when it ran."""
    return {
        "bracket": {"lower": periodic.bracket.lower,
                    "upper": periodic.bracket.upper},
        "periodic": {
            "residual_sup": periodic.residual_sup,
            "newton_iterations": periodic.iterations,
            "enclosure_width": periodic.enclosure_width,
            **oracle,
        },
    }


def _write_phi_plus(out_dir, periodic):
    x = periodic.profile.grid.x()
    write_csv(os.path.join(out_dir, "phi_plus.csv"), ["x", "phi_plus"],
              [x, periodic.profile.values])
    return x


def cmd_solve_periodic(cfg: RunConfig, out_dir) -> int:
    problem = build_problem(cfg)
    periodic, monotone, agreement = run_background(problem)
    x = _write_phi_plus(out_dir, periodic)
    report = _base_report("solve-periodic", cfg)
    # solve_periodic returns only at its rounding floor with a verified
    # enclosure and raises NonConvergence otherwise
    report.update({
        "problem": _problem_block(problem),
        **_background_blocks(periodic, monotone_iterations=monotone.iterations,
                             monotone_agreement_sup=agreement),
        "verified": True,
        "status": "ok",
    })
    write_json(os.path.join(out_dir, "report.json"), report)
    svgplot.line_plot(os.path.join(out_dir, "plot.svg"),
                      [("phi_plus", x, periodic.profile.values)],
                      title="periodic background", xlabel="x",
                      ylabel="phi_plus")
    return EXIT_CODES[report["status"]]


_SOLITON_COLUMNS = ("x", "phi_plus_ext", "w", "phi", "residual_reduced")


def _soliton_columns(w: Profile, background: Profile, ac) -> dict:
    """soliton.csv by column name, from the ratio, its background and
    the reduction onto that background."""
    return dict(zip(_SOLITON_COLUMNS, (
        w.grid.x(), background.values, w.values, lift(w, background).values,
        residual_reduced(w, ac).values)))


def cmd_solve_soliton(cfg: RunConfig, out_dir) -> int:
    run = run_soliton(build_problem(cfg), cfg.half_length)
    _write_phi_plus(out_dir, run.periodic)
    columns = _soliton_columns(run.w, run.background_ext, run.ac)
    write_csv(os.path.join(out_dir, "soliton.csv"), list(columns),
              list(columns.values()))
    report = _base_report("solve-soliton", cfg)
    report.update({
        "problem": _problem_block(run.problem),
        **_background_blocks(run.periodic),
        "truncation": {
            "half_length": run.grid.xmax,
            "n_nodes": run.grid.n,
            "h": run.grid.h,
            "tail_fraction": run.tail_fraction,
        },
        "minimize": {
            "polish_iterations": run.minimize.polish_iterations,
            "grad_sup_per_h": run.minimize.grad_sup_per_h,
            "final_energy": run.minimize.final_energy,
            "crossing": run.crossing,
        },
        "run_flags": sorted(run.minimize.flags),
        "soliton_report": run.report.to_dict(),
        "verified": run.report.verified,
        "status": run.status,
    })
    write_json(os.path.join(out_dir, "report.json"), report)
    x, background, w, phi = _SOLITON_COLUMNS[:4]
    svgplot.line_plot(os.path.join(out_dir, "plot.svg"),
                      [(name, columns[x], columns[name])
                       for name in (phi, background, w)],
                      title="front profile", xlabel="x", ylabel="value")
    return EXIT_CODES[run.status]


def cmd_verify(cfg: RunConfig, out_dir) -> int:
    """Re-read a solve-soliton output directory and recompute its report.

    Every column of soliton.csv, rebuilt from x, phi_plus_ext and w, and
    the recomputed scalar block must equal the stored ones exactly; the
    files are written with round-trip precision, so any difference means
    they no longer describe the run.
    """
    report_path = os.path.join(out_dir, "report.json")
    try:
        with open(report_path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {report_path}: {exc}") from exc
    if stored.get("config_hash") != cfg.config_hash:
        raise ConfigError("config file does not match the stored run")
    columns = read_csv(os.path.join(out_dir, "soliton.csv"))
    for name in _SOLITON_COLUMNS:
        if name not in columns:
            raise ConfigError(f"soliton.csv is missing column {name!r}")

    problem = build_problem(cfg)
    x, background, w = (columns[name] for name in _SOLITON_COLUMNS[:3])
    grid = Grid(xmin=float(x[0]), xmax=float(x[-1]), n=int(x.size))
    validate_problem(problem, grid)
    background, w = Profile(grid, background), Profile(grid, w)
    ac = to_allen_cahn(problem, background)
    recomputed = build_report(problem, w, background, ac=ac)

    mismatches = [
        f"soliton.csv column {name!r} differs from its rebuild"
        for name, values in _soliton_columns(w, background, ac).items()
        if not np.array_equal(values, columns[name])]
    stored_block = stored.get("soliton_report")
    recomputed_block = json.loads(json.dumps(recomputed.to_dict()))
    if stored_block != recomputed_block:
        mismatches.append("recomputed report differs from the stored one")

    payload = _base_report("verify", cfg)
    payload.update({
        "source_report": report_path,
        "match": not mismatches,
        "mismatches": mismatches,
        "soliton_report": recomputed.to_dict(),
        "verified": recomputed.verified and not mismatches,
    })
    write_json(os.path.join(out_dir, "verify_report.json"), payload)
    return EXIT_CODES[_verdict_status(payload["verified"])]


def cmd_evolve(cfg: RunConfig, out_dir) -> int:
    if cfg.dt is None or cfg.t_max is None:
        raise ConfigError("evolve needs dt and t_max in [evolve]")
    options = EvolveOptions(dt=cfg.dt, t_max=cfg.t_max,
                            snapshot_every=cfg.snapshot_every)
    if cfg.initial not in ("soliton", "background"):
        raise ConfigError(f"unknown initial state {cfg.initial!r}")

    problem = build_problem(cfg)
    track_front = cfg.initial == "soliton"
    if track_front:
        reference = run_soliton(problem, cfg.half_length).phi
    else:
        _, reference = truncated_background(problem, cfg.half_length)

    psi0 = make_ansatz(reference, problem.lam)
    traj = evolve_nls(psi0, problem, options)
    deviation = modulus_deviation(traj, reference)
    phase = phase_rotation_check(traj, problem.lam)
    drift = kink_drift(traj, problem.lam) if track_front else None

    drift_limit = 2.0 * reference.grid.h if track_front else None
    verified = (deviation <= _MODULUS_TOL and phase.rel_err <= _PHASE_TOL
                and (drift is None or drift < drift_limit))

    x = reference.grid.x()
    fields = traj.fields
    write_csv(os.path.join(out_dir, "snapshots.csv"),
              ["t", "x", "re", "im", "modulus"],
              [np.repeat(traj.times, x.size), np.tile(x, len(fields)),
               np.concatenate([field.re for field in fields]),
               np.concatenate([field.im for field in fields]),
               np.concatenate([field.modulus() for field in fields])])

    payload = _base_report("evolve", cfg)
    payload.update({
        "problem": _problem_block(problem),
        "dt": options.dt,
        "t_max_effective": traj.n_steps * options.dt,
        "n_steps": traj.n_steps,
        "boundary": "pinned-rotating",
        "initial": cfg.initial,
        "modulus_deviation_sup": deviation,
        "modulus_tol": _MODULUS_TOL,
        "phase": {"slope": phase.slope, "rel_err": phase.rel_err,
                  "ref_index": phase.ref_index, "tol": _PHASE_TOL},
        "front_drift": drift,
        "front_drift_limit": drift_limit,
        "verified": verified,
        "status": _verdict_status(verified),
    })
    write_json(os.path.join(out_dir, "dynamics.json"), payload)
    svgplot.line_plot(os.path.join(out_dir, "plot.svg"),
                      [("modulus t=0", x, traj.fields[0].modulus()),
                       (f"modulus t={traj.times[-1]:g}", x,
                        traj.fields[-1].modulus())],
                      title="evolution snapshots", xlabel="x",
                      ylabel="modulus")
    return EXIT_CODES[payload["status"]]


_SWEEP_COLUMNS = ["index", "lambda", "amplitude", "half_length", "energy",
                  "crossing", "residual_reduced_sup", "amplitude_margin",
                  "monotonicity_margin", "c0_left", "c0_right", "status"]


def _sweep_row(payload) -> dict:
    """One sweep row; everything picklable so workers can run it."""
    cfg = payload["cfg"]
    lam = payload["lam"]
    amplitude = payload["amplitude"]
    row = {name: float("nan") for name in _SWEEP_COLUMNS[:-1]}
    row["index"] = payload["index"]
    row["lambda"] = lam
    row["amplitude"] = float("nan") if amplitude is None else amplitude
    try:
        run = run_soliton(build_problem(cfg, lam=lam, amplitude=amplitude),
                          cfg.half_length)
        rep = run.report
        row.update({
            "half_length": run.grid.xmax,
            "energy": run.minimize.final_energy,
            "crossing": run.crossing,
            "residual_reduced_sup": rep.residual_reduced_sup,
            "amplitude_margin": rep.amplitude_margin,
            "monotonicity_margin": rep.monotonicity_margin,
            "c0_left": rep.decay_rate_fit_left,
            "c0_right": rep.decay_rate_fit_right,
        })
        row["status"] = run.status
    except DarksolError as exc:
        row["status"] = exc.status
    return row


def cmd_sweep(cfg: RunConfig, out_dir, workers: int) -> int:
    if cfg.sweep_amplitudes is not None:
        source = cfg.coefficient_source
        if not (isinstance(source, str) and "a" in compile_expression(
                source, variables=("x", "a")).variables):
            raise ConfigError(
                "[sweep] amplitude is bound to `a`, which the coefficient "
                "never uses")
    # An empty lambda list is a legal degenerate sweep: header-only output.
    amplitudes = cfg.sweep_amplitudes if cfg.sweep_amplitudes is not None \
        else (None,)
    payloads = []
    for lam in cfg.sweep_lambdas:
        for amplitude in amplitudes:
            payloads.append({"index": len(payloads), "cfg": cfg,
                             "lam": lam, "amplitude": amplitude})
    if workers > 1 and payloads:
        # the process pool's module is imported here, by the pooled
        # sweep alone, so that no other command pays for its import
        from concurrent.futures import ProcessPoolExecutor

        # Bound here, LAPACK is inherited by forked workers instead of
        # imported by each; a worker beyond one per row would sit idle.
        lapack()
        with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads))) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(payload) for payload in payloads]

    write_csv(os.path.join(out_dir, "summary.csv"), _SWEEP_COLUMNS,
              [[row[name] for row in rows] for name in _SWEEP_COLUMNS])

    payload = _base_report("sweep", cfg)
    payload.update({
        "n_rows": len(rows),
        "statuses": [row["status"] for row in rows],
    })
    write_json(os.path.join(out_dir, "report.json"), payload)

    ok = [row for row in rows if row["status"] == "ok"]
    if ok:
        lam_axis = np.asarray([row["lambda"] for row in ok])
        c0_axis = np.asarray([row["c0_right"] for row in ok])
        order = np.argsort(lam_axis)
        svgplot.line_plot(os.path.join(out_dir, "plot.svg"),
                          [("fitted decay rate", lam_axis[order],
                            c0_axis[order])],
                          title="decay rate sweep", xlabel="lambda",
                          ylabel="C0")
    return EXIT_CODES["ok"]


_COMMANDS = {
    "solve-periodic": cmd_solve_periodic,
    "solve-soliton": cmd_solve_soliton,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="darksol",
        description="Dark-soliton profiles of the defocusing NLS with "
                    "periodic coefficients")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True)
        if name == "sweep":
            cmd.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, max(1, args.workers))
        return _COMMANDS[args.command](cfg, args.out)
    except DarksolError as exc:
        print(f"darksol: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.status]


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
