"""The benchmark's front gate must hold on the program as it is.

`bench/workloads.check_front` recomputes each ok front's report from
its profiles (`build_report(..., tail_fraction=run.tail_fraction)`),
compares its bytes with the run's, and checks constant cubics against
the closed form at `run.crossing` on `run.grid`. A change to any of
these names or to the report's bits fails here, not only in the
benchmark. The module is loaded from its file and changes nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from darksol import pipeline

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    # the module imports its sibling `inputs` by name
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", _BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
        sys.modules.pop("inputs", None)
    return module


def gated(workloads, case):
    """The gates that `check_front` passed on one ok run of the case."""
    run = pipeline.run_soliton(case.problem(), half_length=case.half_length)
    assert run.status == "ok", case.name
    gates = workloads.Gates()
    workloads.check_front(gates, case, run)
    return gates.counts


def test_front_gate_holds_on_the_fixed_cases(workloads):
    for case in workloads.inputs.FRONTS_FIXED:
        assert gated(workloads, case) == {"report_recomputes": 1,
                                          "repeat_identical_w": 1}


def test_front_gate_holds_on_a_seeded_constant_draw(workloads):
    case = next(c for c in workloads.inputs.front_draws(921)
                if c.constant_cubic)
    assert gated(workloads, case) == {"report_recomputes": 1,
                                      "closed_form_tanh": 1,
                                      "repeat_identical_w": 1}
