"""Every function the benchmark's span tracer wraps exists in the
package, and `import gmtauber.cli` loads its module, so that no layer
of a traced run silently reads zero."""

import importlib
import importlib.util
import subprocess
import sys
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


def test_cli_import_loads_every_traced_module():
    # trace_child.py wraps only the modules that `import gmtauber.cli`
    # has loaded, so a lazy import in cli would zero that layer's spans.
    modules = sorted({f"gmtauber.{m}" for m, _ in _targets()})
    script = f"import sys, gmtauber.cli; print(sorted(set({modules!r}) - set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
