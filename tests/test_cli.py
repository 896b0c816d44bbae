import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darksol
from darksol import _banded
from darksol.cli import load_config, main, read_csv, write_csv
from darksol.errors import EXIT_CODES, ConfigError, DarksolError

BASE = """\
[problem]
kind = cubic
lambda = -1.0
period = 1.0
n_per_period = 64
g = 1

[domain]
l = 4
"""

SINUSOIDAL = """\
[problem]
kind = cubic
lambda = -1.0
period = 1.0
n_per_period = 64
g = 1 + 0.5*sin(2*pi*x)

[domain]
l = 4
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(command, config, out):
    return main([command, "--config", str(config), "--out", str(out)])


def test_load_config_fields(tmp_path):
    path = write_config(tmp_path, BASE)
    cfg = load_config(path)
    assert cfg.kind == "cubic"
    assert cfg.lam == -1.0
    assert cfg.n_per_period == 64
    assert cfg.half_length == 4.0
    assert cfg.coefficient_source == "1"
    assert cfg.config_hash == hashlib.sha256(path.read_bytes()).hexdigest()
    # defaults
    assert cfg.sweep_lambdas == ()
    assert cfg.sweep_amplitudes is None


def test_readme_configs_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) >= 2
    for k, block in enumerate(blocks):
        load_config(write_config(tmp_path, block, name=f"readme{k}.ini"))


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")
    cases = [
        BASE + "\n[turbo]\nspeed = 11\n",
        BASE + "\n[evolve]\nwarp = 9\n",
        BASE.replace("kind = cubic", "kind = septic"),
        BASE.replace("lambda = -1.0", ""),
        BASE.replace("g = 1", "g = 1\ng_table = 1,1,1"),
        BASE.replace("g = 1", ""),
        BASE.replace("lambda = -1.0", "lambda = minus one"),
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text, name="bad.ini"))


@pytest.mark.parametrize("command, section, key", [
    ("solve-periodic", "periodic", "residual_tol = 1e-10"),
    ("solve-soliton", "minimize", "grad_tol = 1e-8"),
], ids=["periodic", "minimize"])
def test_periodic_section_is_refused(tmp_path, capsys, command, section,
                                     key):
    # neither the background solve nor the front solve has options left;
    # a config that still sets one is refused rather than silently ignored
    config = write_config(tmp_path, BASE + f"\n[{section}]\n{key}\n")
    assert run_cli(command, config, tmp_path / "out") == 2
    assert f"unknown config section [{section}]" in capsys.readouterr().err


def test_load_config_table_and_inline_comments(tmp_path):
    text = """\
[problem]
kind = cubic
lambda = -1.0   ; chemical potential
period = 1.0
n_per_period = 3
g_table = 1.0, 1.25, 0.75  # one period of samples
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.coefficient_source == (1.0, 1.25, 0.75)


def test_csv_round_trip_is_exact(tmp_path, rng):
    path = tmp_path / "data.csv"
    a = rng.standard_normal(257)
    b = np.exp(rng.uniform(-300, 300, 257))
    write_csv(path, ["a", "b"], [a, b])
    back = read_csv(path)
    np.testing.assert_array_equal(back["a"], a)
    np.testing.assert_array_equal(back["b"], b)


def per_cell_csv(path, names, columns):
    """The reference writer: every cell formatted on its own."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for i in range(len(columns[0])):
            handle.write(",".join(
                col[i] if isinstance(col[i], str)
                else format(float(col[i]), ".17g")
                for col in columns) + "\n")


def test_csv_text_matches_the_per_cell_writer(tmp_path, rng):
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, tiny / 3,
               -5e-324, 1e308, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0]
    n = len(special)
    columns = [np.array(special), rng.standard_normal(n),
               np.exp(rng.uniform(-700, 700, n)),
               list(range(n)),
               [float(v) for v in rng.standard_normal(n)],
               ["ok", "property_violation", "nan"] * (n // 3)]
    names = ["special", "normal", "wide", "index", "floats", "status"]
    write_csv(tmp_path / "batch.csv", names, columns)
    per_cell_csv(tmp_path / "cell.csv", names, columns)
    assert (tmp_path / "batch.csv").read_bytes() == \
        (tmp_path / "cell.csv").read_bytes()


def test_solve_periodic_outputs(tmp_path):
    config = write_config(tmp_path, SINUSOIDAL)
    out = tmp_path / "out"
    assert run_cli("solve-periodic", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "solve-periodic"
    assert report["verified"] is True
    assert report["periodic"]["residual_sup"] <= 1e-10
    assert report["periodic"]["monotone_agreement_sup"] <= 1e-8
    assert 0 < report["periodic"]["enclosure_width"] <= 1e-8
    assert report["bracket"]["lower"] <= report["bracket"]["upper"]
    problem = report["problem"]
    assert problem["g_min"] <= problem["g_max"] / 3
    assert (out / "plot.svg").read_text().startswith("<svg")
    data = read_csv(out / "phi_plus.csv")
    assert data["x"].size == 65
    assert data["phi_plus"][0] == data["phi_plus"][-1]


def test_a_stalled_background_is_not_reported(tmp_path, monkeypatch,
                                              capsys):
    # a Newton step that moves no node while the residual is above its
    # rounding floor ends the run as nonconvergence, with no report
    def no_step(lower, diag, upper, rhs):
        return np.zeros_like(rhs)

    monkeypatch.setattr(darksol.periodic, "solve_cyclic", no_step)
    config = write_config(tmp_path, SINUSOIDAL)
    out = tmp_path / "out"
    assert run_cli("solve-periodic", config, out) == \
        EXIT_CODES["nonconvergence"]
    assert "moves no node" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_solve_soliton_and_verify_round_trip(tmp_path):
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["verified"] is True
    assert report["soliton_report"]["amplitude_margin"] > 0
    assert report["minimize"]["grad_sup_per_h"] <= 1e-8
    assert abs(report["minimize"]["crossing"]) <= 0.1
    data = read_csv(out / "soliton.csv")
    np.testing.assert_array_equal(data["phi"],
                                  data["phi_plus_ext"] * data["w"])

    assert run_cli("verify", config, out) == 0
    verify = json.loads((out / "verify_report.json").read_text())
    assert verify["match"] is True
    assert verify["mismatches"] == []
    assert verify["soliton_report"] == report["soliton_report"]
    # the background's uniqueness is proved, not flagged: no regime
    # margins beside the input's own numbers
    assert set(report) == {
        "schema_version", "command", "config_hash", "config", "notes",
        "problem", "bracket", "periodic", "truncation", "minimize",
        "run_flags", "soliton_report", "verified", "status"}
    assert set(report["problem"]) == {"kind", "lambda", "period",
                                      "n_per_period", "g_min", "g_max"}
    # no key that reads 0 on every run (the gradient flow is gone)
    assert set(report["minimize"]) == {
        "polish_iterations", "grad_sup_per_h", "final_energy", "crossing"}
    # one background solve, certified by its own enclosure
    assert set(report["periodic"]) == {
        "residual_sup", "newton_iterations", "enclosure_width"}


def test_each_soliton_command_builds_one_reduction(tmp_path, monkeypatch):
    # soliton.csv's residual_reduced column reads the reduction that the
    # run (solve-soliton) or the recomputed report (verify) was built on
    from darksol import cli, pipeline, reduction, verify
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduction.to_allen_cahn(*args, **kwargs)

    for module in (cli, pipeline, verify):
        monkeypatch.setattr(module, "to_allen_cahn", counted)
    config = write_config(tmp_path, SINUSOIDAL)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    assert len(calls) == 1
    assert run_cli("verify", config, out) == 0
    assert len(calls) == 2
    verify_report = json.loads((out / "verify_report.json").read_text())
    assert verify_report["match"] is True


def tamper_and_verify(tmp_path, column):
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    lines = (out / "soliton.csv").read_text().splitlines()
    parts = lines[len(lines) // 2].split(",")
    parts[lines[0].split(",").index(column)] = "0.123456"
    lines[len(lines) // 2] = ",".join(parts)
    (out / "soliton.csv").write_text("\n".join(lines) + "\n")
    assert run_cli("verify", config, out) == 4
    verify = json.loads((out / "verify_report.json").read_text())
    assert verify["match"] is False
    assert verify["mismatches"]


def test_verify_catches_tampering(tmp_path):
    tamper_and_verify(tmp_path, "w")


@pytest.mark.parametrize("column", ["x", "phi_plus_ext", "phi",
                                    "residual_reduced"])
def test_verify_catches_tampering_in_every_column(tmp_path, column):
    # every column is rebuilt from x, phi_plus_ext and w and compared,
    # so a changed interior x is caught although the grid is rebuilt
    # from the end points alone; w is the case above
    tamper_and_verify(tmp_path, column)


def test_verify_rejects_missing_column(tmp_path):
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    lines = (out / "soliton.csv").read_text().splitlines()
    trimmed = [",".join(line.split(",")[:-1]) for line in lines]
    (out / "soliton.csv").write_text("\n".join(trimmed) + "\n")
    assert run_cli("verify", config, out) == 2


def test_verify_rejects_a_profile_without_rows(tmp_path, capsys):
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    header = (out / "soliton.csv").read_text().splitlines()[0]
    (out / "soliton.csv").write_text(header + "\n")
    capsys.readouterr()
    assert run_cli("verify", config, out) == 2
    assert "soliton.csv has no data rows" in capsys.readouterr().err


def test_verify_rejects_config_mismatch(tmp_path):
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 0
    other = write_config(tmp_path, BASE + "\n# tweaked\n", name="other.ini")
    assert run_cli("verify", other, out) == 2


def test_positive_lambda_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, BASE.replace("lambda = -1.0",
                                                 "lambda = 1.0"))
    assert run_cli("solve-soliton", config, tmp_path / "out") == 2
    assert "lambda must be negative" in capsys.readouterr().err


def test_non_finite_g1_is_rejected(tmp_path, capsys):
    text = BASE.replace("kind = cubic", "kind = cubic-quintic")
    config = write_config(tmp_path, text.replace("g = 1", "v = 0\ng1 = nan"))
    assert run_cli("solve-soliton", config, tmp_path / "out") == 2
    assert "g1 must be finite" in capsys.readouterr().err


def test_every_error_has_an_exit_code():
    exported = [obj for obj in vars(darksol).values()
                if isinstance(obj, type) and issubclass(obj, DarksolError)]
    failures = {cls.status for cls in exported}
    assert failures == {"validation_error", "nonconvergence",
                        "property_violation"}
    assert failures < set(EXIT_CODES)


# a steep front (decay rate 8) on a long domain: the tail has reached
# the background to the last bit long before the report's outer quarter
TAIL_UNDERFLOW = BASE.replace("lambda = -1.0", "lambda = -16.0").replace(
    "l = 4", "l = 8")


def test_tail_underflow_is_a_property_violation(tmp_path):
    # the run writes its outputs, and the unfitted tails fail the verdict
    # there and in verify, which re-reads them
    config = write_config(tmp_path, TAIL_UNDERFLOW)
    out = tmp_path / "out"
    assert run_cli("solve-soliton", config, out) == 4
    for name in ("phi_plus.csv", "soliton.csv", "plot.svg"):
        assert (out / name).is_file()
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "property_violation"
    assert report["verified"] is False
    flags = report["soliton_report"]["diagnostic_flags"]
    assert {"tail_fit_unavailable_left",
            "tail_fit_unavailable_right"} <= set(flags)
    assert run_cli("verify", config, out) == 4
    config = write_config(tmp_path, TAIL_UNDERFLOW
                          + "\n[sweep]\nlambda = -16\n", name="sweep.ini")
    out = tmp_path / "sweep"
    assert run_cli("sweep", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["statuses"] == ["property_violation"]


def test_fine_grid_background_solves(tmp_path):
    # the periodic residual's rounding floor here is above 1e-10, so
    # the background solve must not stop on a residual tolerance
    text = (SINUSOIDAL.replace("n_per_period = 64", "n_per_period = 1024")
            .replace("l = 4", "l = 8"))
    config = write_config(tmp_path, text)
    for command in ("solve-periodic", "solve-soliton"):
        out = tmp_path / command
        assert run_cli(command, config, out) == 0
        report = json.loads((out / "report.json").read_text())
        # the width is the rounding floor carried through J^-1: 1.26e-8
        assert 0 < report["periodic"]["enclosure_width"] <= 2e-8
        if command == "solve-periodic":
            assert report["periodic"]["monotone_agreement_sup"] <= 1e-9


def test_incommensurate_half_length_is_rejected(tmp_path):
    config = write_config(tmp_path, BASE.replace("l = 4", "l = 6.5"))
    assert run_cli("solve-soliton", config, tmp_path / "out") == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_half_length_is_rejected(tmp_path, capsys, value):
    config = write_config(tmp_path, BASE.replace("l = 4", f"l = {value}"))
    assert run_cli("solve-soliton", config, tmp_path / "out") == 2
    assert "not finite" in capsys.readouterr().err
    sweep = write_config(tmp_path, BASE.replace("l = 4", f"l = {value}")
                         + "\n[sweep]\nlambda = -0.25, -1\n", name="sweep.ini")
    assert run_cli("sweep", sweep, tmp_path / "sweep") == 0
    report = json.loads((tmp_path / "sweep" / "report.json").read_text())
    assert report["statuses"] == ["validation_error"] * 2


def test_evolve_needs_time_parameters(tmp_path):
    config = write_config(tmp_path, BASE)
    assert run_cli("evolve", config, tmp_path / "out") == 2
    config = write_config(tmp_path, BASE + "\n[evolve]\ndt = 1e-3\nt_max = 0\n")
    assert run_cli("evolve", config, tmp_path / "out") == 2


def test_evolve_soliton(tmp_path):
    config = write_config(
        tmp_path, BASE + "\n[evolve]\ndt = 2e-3\nt_max = 0.1\n"
                         "snapshot_every = 25\n")
    out = tmp_path / "out"
    assert run_cli("evolve", config, out) == 0
    dyn = json.loads((out / "dynamics.json").read_text())
    assert dyn["verified"] is True
    assert dyn["n_steps"] == 50
    assert dyn["modulus_deviation_sup"] <= 1e-4
    assert dyn["phase"]["rel_err"] <= 1e-3
    # the gates are fixed, and written beside what they judged
    assert dyn["modulus_tol"] == 1e-4
    assert dyn["phase"]["tol"] == 1e-3
    assert dyn["front_drift"] is not None
    assert dyn["front_drift"] < dyn["front_drift_limit"]
    snaps = read_csv(out / "snapshots.csv")
    n = 2 * 4 * 64 + 1
    assert snaps["t"].size == 3 * n
    np.testing.assert_allclose(np.unique(snaps["t"]), [0.0, 0.05, 0.1],
                               atol=1e-12)


def test_evolve_background_has_no_front(tmp_path):
    config = write_config(
        tmp_path, BASE + "\n[evolve]\ndt = 2e-3\nt_max = 0.05\n"
                         "initial = background\n")
    out = tmp_path / "out"
    assert run_cli("evolve", config, out) == 0
    dyn = json.loads((out / "dynamics.json").read_text())
    assert dyn["front_drift"] is None
    assert dyn["initial"] == "background"
    assert dyn["verified"] is True
    # the soliton start's domain: 2 L n_per + 1 nodes per snapshot
    snaps = read_csv(out / "snapshots.csv")
    assert snaps["t"].size == np.unique(snaps["t"]).size * (2 * 4 * 64 + 1)
    # with no l, L is the one solve-soliton chooses for the same config
    text = BASE.replace("l = 4\n", "")
    config = write_config(tmp_path, text + "\n[evolve]\ndt = 2e-3\n"
                          "t_max = 0.05\ninitial = background\n", "auto.ini")
    assert run_cli("evolve", config, tmp_path / "auto") == 0
    assert run_cli("solve-soliton", config, tmp_path / "auto") == 0
    half = json.loads((tmp_path / "auto" / "report.json").read_text())[
        "truncation"]["half_length"]
    x = read_csv(tmp_path / "auto" / "snapshots.csv")["x"]
    assert (x.min(), x.max()) == (-half, half)


@pytest.mark.parametrize("initial", ["soliton", "background"])
def test_evolve_refuses_a_bad_tail_fraction(tmp_path, capsys, initial):
    # the tail window is no setting: whatever evolve starts from, a
    # config that sets one is refused as an unknown key
    text = BASE.replace("l = 4", "l = 4\ntail_fraction = 1.5")
    config = write_config(tmp_path, text + "\n[evolve]\ndt = 2e-3\n"
                          f"t_max = 0.05\ninitial = {initial}\n")
    assert run_cli("evolve", config, tmp_path / "out") == 2
    assert "unknown key 'tail_fraction' in [domain]" in \
        capsys.readouterr().err


def test_sweep_rows_and_failure_isolation(tmp_path):
    config = write_config(
        tmp_path, BASE + "\n[sweep]\nlambda = -0.25, -1, 0.5\n")
    out = tmp_path / "out"
    assert run_cli("sweep", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_rows"] == 3
    assert report["statuses"] == ["ok", "ok", "validation_error"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "index" and header[-1] == "status"
    bad = lines[3].split(",")
    assert bad[1] == "0.5"
    assert bad[-1] == "validation_error"
    assert bad[4] == "nan"


def test_sweep_is_deterministic_across_workers(tmp_path):
    config = write_config(
        tmp_path, BASE + "\n[sweep]\nlambda = -0.25, -1, 0.5\n")
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", str(config), "--out", str(serial),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(parallel),
                 "--workers", "2"]) == 0
    assert (serial / "summary.csv").read_bytes() == \
        (parallel / "summary.csv").read_bytes()


def test_sweep_pool_has_at_most_one_worker_per_row(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker starts; LAPACK must already be bound when the pool is made,
    # so that forked workers inherit it
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append((max_workers, _banded.lapack.cache_info().currsize))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    config = write_config(
        tmp_path, BASE + "\n[sweep]\nlambda = -0.25, -1, 0.5\n")
    for workers, pool_size in (("4", 3), ("2", 2)):
        _banded.lapack.cache_clear()
        assert main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / workers), "--workers", workers]) == 0
        assert made.pop() == (pool_size, 1)


STARTUP_CHECK = """\
import sys
import darksol
assert "scipy" not in sys.modules, "import darksol"
from darksol import cli
assert "scipy" not in sys.modules, "import darksol.cli"
pool = "concurrent.futures.process"
assert pool not in sys.modules, "import darksol.cli"
config, out, fresh = sys.argv[1:]
assert cli.main(["verify", "--config", config, "--out", out]) == 0
assert "scipy" not in sys.modules, "verify"
assert pool not in sys.modules, "verify"
assert cli.main(["solve-soliton", "--config", config, "--out", fresh]) == 0
assert "scipy" in sys.modules, "solve-soliton"
assert "scipy.linalg" not in sys.modules, "solve-soliton"
assert pool not in sys.modules, "solve-soliton"
import scipy.linalg.lapack
from darksol import _banded
assert _banded.lapack() is scipy.linalg.lapack._flapack
assert _banded.lapack().dgtsv is scipy.linalg.lapack.dgtsv
"""


def test_scipy_loads_at_the_first_linear_solve(tmp_path):
    # fresh interpreters, since this one imported scipy for the oracles:
    # importing the package and verifying a stored run solve nothing, and
    # a solve loads LAPACK's extension without the scipy.linalg package,
    # which a later import of it then shares; the process pool's module
    # is left to the pooled sweep
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    config = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    solve = subprocess.run(
        [sys.executable, "-m", "darksol", "solve-soliton", "--config",
         str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert solve.returncode == 0, solve.stderr
    check = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK, str(config), str(out),
         str(tmp_path / "fresh")],
        env=env, capture_output=True, text=True, timeout=120)
    assert check.returncode == 0, check.stderr


def test_sweep_empty_is_header_only(tmp_path):
    config = write_config(tmp_path, BASE + "\n[sweep]\n")
    out = tmp_path / "out"
    assert run_cli("sweep", config, out) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["n_rows"] == 0
    assert not (out / "plot.svg").exists()


def test_sweep_amplitude_binding(tmp_path):
    text = BASE.replace("g = 1", "g = 1 + a*sin(2*pi*x)")
    config = write_config(tmp_path, text + "\n[sweep]\nlambda = -1\n"
                                           "amplitude = 0, 0.4\n")
    out = tmp_path / "out"
    assert run_cli("sweep", config, out) == 0
    data = read_csv(out / "summary.csv")
    np.testing.assert_allclose(data["amplitude"], [0.0, 0.4])
    np.testing.assert_allclose(data["lambda"], [-1.0, -1.0])
    report = json.loads((out / "report.json").read_text())
    assert report["statuses"] == ["ok", "ok"]


def test_sweep_books_a_zero_divisor_as_a_row(tmp_path):
    text = BASE.replace("g = 1", "g = 1 + 0.1/a")
    config = write_config(tmp_path, text + "\n[sweep]\nlambda = -1\n"
                                           "amplitude = 0, 1\n")
    out = tmp_path / "out"
    assert run_cli("sweep", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["statuses"] == ["validation_error", "ok"]
    assert run_cli("solve-soliton", write_config(
        tmp_path, BASE.replace("g = 1", "g = 1 + 1/0")),
        tmp_path / "solo") == EXIT_CODES["validation_error"]


def test_sweep_amplitude_needs_a_in_the_coefficient(tmp_path):
    # A coefficient that never reads `a` would give identical rows.
    sweep = "\n[sweep]\nlambda = -1\namplitude = 0, 0.4\n"
    table = BASE.replace("g = 1", "g_table = " + ", ".join(["1"] * 64))
    for text in (SINUSOIDAL, table):
        config = write_config(tmp_path, text + sweep)
        out = tmp_path / "out"
        assert run_cli("sweep", config, out) == EXIT_CODES["validation_error"]
        assert not (out / "summary.csv").exists()
        # Other commands still run on the same config.
        assert run_cli("solve-periodic", config, out) == 0


COMMANDS = ["solve-periodic", "solve-soliton", "verify", "evolve", "sweep"]


@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in COMMANDS),
    *((command, "--workers") for command in COMMANDS if command != "sweep"),
])
def test_flags_that_change_no_result_are_refused(tmp_path, command, flag):
    # nothing draws a random number, and only a sweep has rows to share
    # out, so these flags end in argparse's usage error
    config = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(tmp_path),
              flag, "1" if flag == "--seed" else "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["modulus_tol = 1e-4", "phase_tol = 1e-3"])
def test_evolve_gates_are_not_config_keys(tmp_path, capsys, key):
    config = write_config(tmp_path, BASE + "\n[evolve]\ndt = 2e-3\n"
                                           f"t_max = 0.1\n{key}\n")
    assert run_cli("evolve", config, tmp_path / "out") == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve-periodic", "solve-soliton",
                                     "verify", "sweep"])
def test_tail_fraction_is_an_unknown_key(tmp_path, capsys, command):
    # every report's tail checks read the outer quarter of each half;
    # a config that still sets the window is refused before any work
    text = BASE.replace("l = 4", "l = 4\ntail_fraction = 0.25")
    config = write_config(tmp_path, text + "\n[sweep]\nlambda = -1, -4\n")
    out = tmp_path / "out"
    assert run_cli(command, config, out) == 2
    assert "unknown key 'tail_fraction' in [domain]" in \
        capsys.readouterr().err
    assert not out.exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    config = write_config(tmp_path, SINUSOIDAL)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("solve-soliton", config, first) == 0
    assert run_cli("solve-soliton", config, second) == 0
    assert (first / "soliton.csv").read_bytes() == \
        (second / "soliton.csv").read_bytes()
    assert (first / "report.json").read_bytes() == \
        (second / "report.json").read_bytes()
