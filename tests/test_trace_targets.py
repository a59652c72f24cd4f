"""Every function the benchmark's span tracer wraps exists in the
package, so that no layer of a traced run silently reads zero."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_trace_target_resolves(module_name, attr):
    module = importlib.import_module(f"gmtauber.{module_name}")
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
