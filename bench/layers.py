"""Per-layer numbers from a traced run.

`run_anchors` runs the fixed named inputs under the tracer: the four
ROADMAP baseline cases, the criterion-7 evolution, a CLI solve, verify
and sweep, and the failure probes. `layer_metrics` turns the recorded
spans into self times and counts. Every metric is averaged over the
calls that produced it, so runs of different lengths compare; spans of
the failure probes feed only the failure counts.
"""

import statistics
import time
from collections import defaultdict

import inputs
import workloads
from spans import self_times
from workloads import OUT, Record, run_child

def _record_call(tracer, name, call):
    """Run one named anchor under the tracer; failures become records."""
    from darksol.errors import DarksolError
    tracer.draw = name
    start = time.perf_counter()
    try:
        result = call()
    except DarksolError as exc:
        return Record(name, time.perf_counter() - start, 1,
                      type(exc).__name__, tracer.innermost(exc)), None
    return Record(name, time.perf_counter() - start, 1, "ok"), result


def _solve(tracer, case):
    """One named run_soliton under the tracer; the record has its status."""
    from darksol import pipeline
    problem = case.problem()
    rec, run = _record_call(tracer, case.name, lambda: pipeline.run_soliton(
        problem, half_length=case.half_length))
    if run is not None:
        rec.outcome = run.status
    return rec


def run_anchors(tracer, tag):
    """Fixed named inputs under the tracer. Returns (records, anchors, probes)
    where `anchors` holds per-stage wall times of each named case."""
    from darksol import cli, evolve, pipeline
    records, table = [], {}
    for case in inputs.BASELINE:
        rec = _solve(tracer, case)
        records.append(rec)
        table[case.name] = stage_times(tracer, case.name, rec)

    anchor = inputs.CRIT7_ANCHOR
    front = anchor.front
    tracer.draw = f"{anchor.name}_setup"
    run = pipeline.run_soliton(front.problem(), half_length=front.half_length)
    rec, out = _record_call(tracer, anchor.name, lambda: workloads.evolve_once(
        anchor, run, evolve.make_ansatz(run.phi, front.lam)))
    if out is not None:
        workloads.check_evolution(workloads.Gates(), anchor, run, out)
    records.append(rec)
    table[anchor.name] = stage_times(tracer, anchor.name, rec)

    # CLI: one solve and verify of the first baseline case, the demo sweep
    # in process with one worker, and the same sweep in a fresh process
    # with two workers for the pool efficiency.
    adir = OUT / f"anchor-{tag}"
    adir.mkdir(parents=True, exist_ok=True)
    solve_ini = adir / "solve.ini"
    solve_ini.write_text(inputs.solve_config(inputs.BASELINE[0]),
                         encoding="utf-8")
    sweep_ini = adir / "sweep.ini"
    sweep_ini.write_text(inputs.CLI_ANCHOR_SWEEP, encoding="utf-8")
    for name, argv in (
            ("anchor_cli_solve", ["solve-soliton", "--config", str(solve_ini),
                                  "--out", str(adir / "solve")]),
            ("anchor_cli_verify", ["verify", "--config", str(solve_ini),
                                   "--out", str(adir / "solve")]),
            ("anchor_cli_sweep", ["sweep", "--config", str(sweep_ini),
                                  "--out", str(adir / "sweep1"),
                                  "--workers", "1"])):
        rec, code = _record_call(tracer, name, lambda a=argv: cli.main(a))
        if code not in (None, 0):
            rec.outcome = f"exit_{code}"
        records.append(rec)
        table[name] = stage_times(tracer, name, rec)

    tracer.draw = None
    imports = [timed_child(["-c", "import darksol.cli"]) for _ in range(3)]
    start = time.perf_counter()
    code = run_child(["-m", "darksol", "sweep", "--config", str(sweep_ini),
                      "--out", str(adir / "sweep2"), "--workers", "2"])
    pool_wall = time.perf_counter() - start
    if code != 0:
        raise workloads.GateFailure(f"two-worker sweep exited {code}")
    if (adir / "sweep1" / "summary.csv").read_bytes() != \
            (adir / "sweep2" / "summary.csv").read_bytes():
        raise workloads.GateFailure("sweep summary depends on worker count")
    probes = {"cli_import_s": imports, "pool_sweep_wall_s": pool_wall,
              "pool_workers": 2}

    records += [_solve(tracer, case) for case in inputs.FAILURE_PROBES]
    tracer.draw = None
    return records, table, probes


def timed_child(args):
    start = time.perf_counter()
    if run_child(args) != 0:
        raise workloads.GateFailure(f"python {' '.join(args)} failed")
    return time.perf_counter() - start


def stage_times(tracer, draw, record):
    """Inclusive wall ms per traced function for one named case, with the
    iteration counts the spans carry (the ROADMAP baseline table)."""
    stages, counts = defaultdict(float), defaultdict(int)
    for span in tracer.spans:
        if span.draw == draw:
            stages[_leaf(span) + "_ms"] += 1e3 * (span.end - span.start)
            for key, value in (span.info or {}).items():
                if key in ("flow", "polish", "iters", "steps"):
                    counts[f"{_leaf(span)}_{key}"] += value
    out = {k: round(v, 3) for k, v in sorted(stages.items())}
    out.update(sorted(counts.items()))
    out["total_ms"] = round(1e3 * record.seconds, 3)
    out["outcome"] = record.outcome
    return out


def _leaf(span):
    return span.name.rsplit(".", 1)[-1]


def _caller(span):
    # "darksol.kink.solve_tridiagonal" -> "kink"
    return span.name.split(".")[1]


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(tracer, records, probes, overhead_pct):
    """Per-layer metrics by name (None where the layer left no span)."""
    spans = tracer.spans
    own = self_times(spans)
    use = [i for i, s in enumerate(spans)
           if not (s.draw or "").startswith("probe_")]
    by_leaf = defaultdict(list)
    for i in use:
        by_leaf[_leaf(spans[i])].append(i)

    def ok(leaf):
        return [i for i in by_leaf[leaf] if spans[i].error is None]

    def mean_self_ms(leaves):
        idx = [i for leaf in leaves for i in ok(leaf)]
        return _ratio(1e3 * sum(own[i] for i in idx), len(idx))

    def info_sum(leaf, key):
        return sum((spans[i].info or {}).get(key, 0) for i in ok(leaf))

    m = {}
    mins = ok("minimize")
    flow = info_sum("minimize", "flow")
    m["kink.minimize_ms"] = mean_self_ms(["minimize"])
    m["kink.flow_iters"] = _ratio(flow, len(mins))
    m["kink.polish_iters"] = _ratio(info_sum("minimize", "polish"), len(mins))
    m["kink.ms_per_flow_iter"] = _ratio(
        1e3 * sum(own[i] for i in mins), flow)
    m["kink.polish_deferred_frac"] = _ratio(
        info_sum("minimize", "deferred"), len(mins))
    m["kink.nodes"] = _ratio(info_sum("minimize", "nodes"), len(mins))

    newton, oracle = ok("solve_periodic"), ok("monotone_iteration_oracle")
    m["periodic.newton_ms"] = mean_self_ms(["solve_periodic"])
    m["periodic.newton_iters"] = _ratio(info_sum("solve_periodic", "iters"),
                                        len(newton))
    m["periodic.oracle_ms"] = mean_self_ms(["monotone_iteration_oracle"])
    m["periodic.oracle_iters"] = _ratio(
        info_sum("monotone_iteration_oracle", "iters"), len(oracle))

    solves = len(by_leaf["run_soliton"])
    m["reduction.to_allen_cahn_calls"] = _ratio(len(by_leaf["to_allen_cahn"]),
                                                solves)
    m["verify.build_report_ms"] = mean_self_ms(["build_report"])
    pipeline_self = sum(own[i] for i in use if spans[i].layer == "pipeline")
    m["pipeline.self_ms"] = _ratio(1e3 * pipeline_self, solves)

    steps = info_sum("evolve_nls", "steps")
    evolve_ids = set(by_leaf["evolve_nls"])
    banded = defaultdict(list)
    for i in by_leaf["solve_tridiagonal"] + by_leaf["solve_cyclic"]:
        banded[(_leaf(spans[i]), _caller(spans[i]))].append(i)

    def calls_and_us(leaf, caller, per):
        idx = banded[(leaf, caller)]
        return (_ratio(len(idx), per),
                _ratio(1e6 * sum(spans[i].end - spans[i].start
                                 for i in idx), len(idx)))

    (m["banded.tridiagonal_calls.kink"],
     m["banded.tridiagonal_us.kink"]) = calls_and_us(
        "solve_tridiagonal", "kink", len(by_leaf["minimize"]))
    (m["banded.tridiagonal_calls.evolve"],
     m["banded.tridiagonal_us.evolve"]) = calls_and_us(
        "solve_tridiagonal", "evolve", steps)
    (m["banded.cyclic_calls.periodic"],
     m["banded.cyclic_us.periodic"]) = calls_and_us(
        "solve_cyclic", "periodic", len(newton) + len(oracle))

    m["evolve.step_us"] = _ratio(
        1e6 * sum(own[i] for i in ok("evolve_nls")), steps)
    m["evolve.solves_per_step"] = m["banded.tridiagonal_calls.evolve"]
    m["model.on_grid_calls_per_step"] = _ratio(
        sum(1 for i in by_leaf["on_grid"] if spans[i].parent in evolve_ids),
        steps)
    m["evolve.check_ms"] = mean_self_ms(
        ["modulus_deviation", "phase_rotation_check", "kink_drift"])

    m["cli.import_s"] = statistics.median(probes["cli_import_s"])
    m["cli.load_config_ms"] = mean_self_ms(["load_config"])
    m["cli.write_ms"] = mean_self_ms(["write_csv", "write_json", "line_plot"])
    m["cli.read_ms"] = mean_self_ms(["read_csv"])
    rows = ok("_sweep_row")
    m["cli.sweep_row_ms"] = _ratio(
        1e3 * sum(spans[i].end - spans[i].start for i in rows), len(rows))
    # Row time of the anchor sweep (one worker, in process) against the
    # wall time of the same sweep on the two-worker pool.
    probes["pool_row_sum_s"] = sum(spans[i].end - spans[i].start
                                   for i in rows
                                   if spans[i].draw == "anchor_cli_sweep")
    m["cli.pool_efficiency"] = _ratio(
        probes["pool_row_sum_s"],
        probes["pool_workers"] * probes["pool_sweep_wall_s"])

    failures = failure_counts(records)
    m["kink.nonconvergence"] = failures["kink.nonconvergence"]
    m["verify.tail_underflow"] = failures["verify.tail_underflow"]
    m["pipeline.property_violation"] = failures["pipeline.property_violation"]
    m["trace.overhead_pct"] = overhead_pct
    return m


def failure_counts(records):
    """The failure ledger, split by the span that raised (innermost)."""
    counts = {"kink.nonconvergence": 0, "verify.tail_underflow": 0,
              "pipeline.property_violation": 0}
    for r in records:
        where = r.innermost or "untraced"
        if r.outcome == "NonConvergence" and where.endswith(".minimize"):
            key = "kink.nonconvergence"
        elif r.outcome == "TailUnderflow" and where.endswith(".build_report"):
            key = "verify.tail_underflow"
        elif r.outcome == "property_violation":
            key = "pipeline.property_violation"
        elif r.outcome != "ok":
            key = f"{where}:{r.outcome}"
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
    return counts
