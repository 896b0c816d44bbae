"""Smoke test of the benchmark itself. Run from the repository root:

    python3 bench/smoke.py

Checks, with a one-second run of every workload:
  * every metric named in BENCHMARK.json is emitted, with its unit,
    by --trace 0 (end_to_end) and --trace 1 (per_layer);
  * a traced replay of the same fronts draws gives byte-identical w;
  * the tracing wrappers are gone after the traced run.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SEED = 0


def fail(message):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
                check=False)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
            *_, detail, result = (json.loads(line) for line in
                                  proc.stdout.strip().splitlines())
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or result["correct"] is not True:
                fail(f"{workload} trace {trace}: bad result {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace}: metrics {sorted(got)} "
                     f"!= {sorted(want)}")
            if detail["missing_metrics"]:
                fail(f"{workload} trace {trace}: no spans for "
                     f"{detail['missing_metrics']}")
            print(f"smoke: {workload} trace {trace}: {len(got)} metrics ok")


def check_traced_replay():
    import spans
    import workloads
    originals = {}
    for module_name, attr, _ in spans.TARGETS:
        owner, leaf = spans._resolve(module_name, attr)
        originals[(module_name, attr)] = owner.__dict__[leaf]
    work = workloads.Fronts(SEED)
    workloads.measure(work, count=work.pass_size)
    replay = workloads.Fronts(SEED)
    replay.gates = work.gates
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Shares work.gates, so any w differing from the untraced pass
        # raises GateFailure.
        workloads.measure(replay, count=work.pass_size, tracer=tracer)
    except workloads.GateFailure as exc:
        fail(f"traced replay: {exc}")
    finally:
        tracer.remove()
    if work.gates.counts.get("repeat_identical_w") != 2 * work.pass_size:
        fail(f"traced replay compared {work.gates.counts}")
    if not tracer.spans:
        fail("traced replay recorded no spans")
    print(f"smoke: traced replay of {work.pass_size} fronts byte-identical")
    for (module_name, attr), original in originals.items():
        owner, leaf = spans._resolve(module_name, attr)
        if owner.__dict__[leaf] is not original:
            fail(f"{module_name}.{attr} still wrapped")
    if not tracer.restored():
        fail("Tracer.restored() is false")
    print("smoke: wrappers removed")


if __name__ == "__main__":
    check_traced_replay()
    check_metrics()
    print("smoke: all checks passed")
