"""darksol benchmark: one command, three workloads.

    python3 bench/run.py --workload fronts|dynamics|cli --seed N \\
                         --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.

--trace 0 times the workload with nothing wrapped and prints the
end-to-end metrics: set-up time, peak memory, and throughput and median
operation time in units of a reference kernel timed after every pass
(ops_per_ref, op_p50_ref; see workloads.reference_seconds), which
cancels the host's own speed swings. --trace 1 runs the workload for
half the time untraced, replays the same operations with spans around
every layer call (bench/spans.py), then runs the fixed anchors and
failure probes, and prints the per-layer metrics; the traced/untraced
gap is reported as trace.overhead_pct.

The last stdout line is the result object (correct, attempted, failed,
metrics). The line before it is a detail object: provenance, the
metrics under their per-workload names, the gates that passed and the
failure ledger. A failed correctness gate prints correct=false with no
numbers and exits 1; a checkout without src/darksol exits 2.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import OUT, ROOT, SRC, GateFailure  # noqa: E402

# Set-up probes run before and again after the timed loop, so the median
# sees the host at both ends of the run.
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def require_src():
    package = SRC / "darksol"
    if not (package / "__init__.py").is_file():
        print(f"bench: {package} not found; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    return package


def import_program():
    """Import darksol from this checkout's src/, never from elsewhere."""
    package = require_src()
    sys.path.insert(0, str(SRC))
    import darksol
    if Path(darksol.__file__).resolve().parent != package.resolve():
        print(f"bench: imported darksol from {darksol.__file__}",
              file=sys.stderr)
        sys.exit(2)


def make_workload(name, seed, trace_form=False):
    """Set-up of one workload. The timed cli form runs the program only
    in child processes, so it does not import it here."""
    if name == "cli" and not trace_form:
        require_src()
        return workloads.Cli(seed)
    import_program()
    if name == "cli":
        return workloads.Cli(seed, in_process=True, tag="cli-inproc")
    return workloads.WORKLOADS[name](seed)


def setup_seconds(args):
    """Times from a fresh interpreter to ready-to-time, one per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            print(f"bench: set-up probe exited {code}", file=sys.stderr)
            sys.exit(2)
        samples.append(elapsed)
    return samples


def peak_rss_mb(children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
    except OSError:
        pass
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def provenance(args):
    import numpy
    import scipy
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=False).stdout.split() or (None, None)
        if top and Path(top).resolve() == ROOT.resolve():
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    # A checkout without git still identifies the code it measured.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def ledger(records):
    return [{"op": r.name, "outcome": r.outcome, "innermost": r.innermost}
            for r in records if r.outcome != "ok"]


def counts(records, work):
    attempted = len(records) + getattr(work, "rows", 0)
    failed = sum(r.outcome != "ok" for r in records) + \
        getattr(work, "rows_failed", 0)
    return attempted, failed


def named_metrics(workload, summary, records, setup_s, rss, fail_frac):
    """The end-to-end numbers under their per-workload names."""
    named = {"setup_s": setup_s, "peak_rss_mb": rss, "fail_frac": fail_frac}
    if workload == "fronts":
        named.update(solves_per_s=summary["ops_per_s"],
                     solve_p50_ms=summary["op_p50_ms"],
                     solve_tail_ms=summary["op_tail_ms"],
                     solve_tail_pct=summary["tail_pct"],
                     solve_samples=summary["calls"])
    elif workload == "dynamics":
        named.update(evolve_steps_per_s=summary["ops_per_s"],
                     evolve_step_p50_ms=summary["op_p50_ms"])
    else:
        named.update(workloads.cli_names(records))
    return named


def run_timed(args, detail):
    load_before = os.getloadavg()[0]
    samples = setup_seconds(args)
    work = make_workload(args.workload, args.seed)
    records = workloads.measure(work, seconds=args.seconds)
    samples += setup_seconds(args)
    setup_s = statistics.median(samples)
    summary = workloads.summarize(records)
    attempted, failed = counts(records, work)
    rss = peak_rss_mb(children=args.workload == "cli")
    metrics = {"setup_s": setup_s, "ops_per_ref": summary["ops_per_ref"],
               "op_p50_ref": summary["op_p50_ref"], "peak_rss_mb": rss}
    detail.update(
        named=named_metrics(args.workload, summary, records, setup_s, rss,
                            failed / attempted),
        summary=summary, setup_samples_s=samples, gates=work.gates.counts,
        ledger=ledger(records),
        load_avg_1m={"before": load_before, "after": os.getloadavg()[0]})
    return attempted, failed, metrics


def run_traced(args, detail):
    import layers
    from spans import Tracer
    load_before = os.getloadavg()[0]
    work = make_workload(args.workload, args.seed, trace_form=True)
    untraced = workloads.measure(work, seconds=args.seconds / 2)
    replay = make_workload(args.workload, args.seed, trace_form=True)
    replay.gates = work.gates
    tracer = Tracer()
    tracer.install()
    try:
        # Same operations again, so traced fronts must match byte for byte.
        traced = workloads.measure(replay, count=len(untraced), tracer=tracer)
        anchor_records, anchors, probes = layers.run_anchors(
            tracer, f"{args.workload}-{args.seed}")
    finally:
        tracer.remove()
    if not tracer.restored():
        raise GateFailure("tracing wrappers were left installed")
    # The first pass runs cold in the untraced half only; leave it out
    # when there is more than one.
    warm = slice(work.pass_size if len(untraced) > work.pass_size else 0,
                 None)
    untraced_s = sum(r.seconds for r in untraced[warm])
    traced_s = sum(r.seconds for r in traced[warm])
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    per_layer = layers.layer_metrics(tracer, traced + anchor_records, probes,
                                     overhead)
    attempted_u, failed_u = counts(untraced, work)
    attempted_t, failed_t = counts(traced, replay)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(trace_path, "wt", encoding="utf-8") as handle:
        for i, span in enumerate(tracer.spans):
            handle.write(json.dumps(span.as_dict(i)) + "\n")
    detail.update(
        gates=work.gates.counts, anchors=anchors,
        ledger=ledger(untraced + traced + anchor_records),
        failure_counts=layers.failure_counts(traced + anchor_records),
        pool={"row_sum_s": probes["pool_row_sum_s"],
              "workers": probes["pool_workers"],
              "sweep_wall_s": probes["pool_sweep_wall_s"]},
        cli_import_samples_s=probes["cli_import_s"],
        overhead={"untraced_s": untraced_s, "traced_s": traced_s,
                  "ops": len(traced[warm])},
        missing_spans=tracer.missing,
        spans=len(tracer.spans), trace_file=str(trace_path.relative_to(ROOT)),
        load_avg_1m={"before": load_before, "after": os.getloadavg()[0]})
    return attempted_u + attempted_t, failed_u + failed_t, per_layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    detail = {"workload": args.workload, "trace": args.trace}
    try:
        if args.trace:
            attempted, failed, values = run_traced(args, detail)
        else:
            attempted, failed, values = run_timed(args, detail)
    except GateFailure as exc:
        print(f"bench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    # A layer that left no span reads 0 and is named here.
    detail["missing_metrics"] = [n for n in units if values.get(n) is None]
    detail["provenance"] = provenance(args)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values.get(name) or 0.0,
                                 "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as handle:
        json.dump({"detail": detail, "result": result}, handle, indent=1,
                  default=str)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
