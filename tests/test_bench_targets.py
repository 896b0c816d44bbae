"""The benchmark's span targets must name callables the program still has.

`bench/spans.py` wraps each (module, attribute) in `TARGETS`; a target
that no longer resolves is only listed as missing, and its span drops
out of a traced run silently. This reads the table and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, layer", _targets())
def test_span_target_resolves_to_a_callable(module_name, attr, layer):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({layer})"
