"""The package entry points: `import gmtauber` loads no submodule and
not numpy, its lazy names are the submodules' own objects, library
imports leave the environment and the cycle collector alone, the `gmt`
entry holds OpenBLAS to one thread unless the caller chose a count,
runs with the collector off and its objects frozen, leaves the collector
next to nothing to find, ends quietly when its stdout's reader leaves
early, and exits 2 with one line when stdout cannot be written. Each
check runs in a fresh interpreter, since this one has numpy loaded
already and its collector is pytest's."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script: str, **env: str) -> str:
    """Run script in a fresh interpreter with OPENBLAS_NUM_THREADS unset
    unless given; its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(p for p in (str(SRC), base.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120,
        env={**base, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_not_numpy():
    out = _run(
        """
        import sys
        import gmtauber
        print(sorted(m for m in sys.modules
                     if m == "numpy" or m.startswith(("numpy.", "gmtauber."))))
        """
    )
    assert out == "[]\n"


def test_lazy_names_are_listed_and_are_the_submodules_objects():
    _run(
        """
        import importlib
        import gmtauber

        missing = set(gmtauber.__all__) - set(dir(gmtauber))  # before any access
        assert not missing, missing
        names = [n for n in gmtauber.__all__ if n != "__version__"]
        assert len(names) == len(set(names)) == 51, names
        for name in names:
            module = importlib.import_module("gmtauber." + gmtauber._SOURCE[name])
            assert getattr(gmtauber, name) is getattr(module, name), name
        assert gmtauber.__version__ == "0.1.0"
        assert gmtauber.tauber is importlib.import_module("gmtauber.tauber")
        try:
            gmtauber.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        """
    )


def test_library_use_leaves_the_environment_alone():
    _run(
        """
        import gc
        import io
        import os
        from contextlib import redirect_stdout

        before = dict(os.environ)
        import gmtauber.cli
        from gmtauber import *
        with redirect_stdout(io.StringIO()):
            assert gmtauber.cli.main(["generate", "--generator", "ex2", "--n-max", "3"]) == 0
        assert dict(os.environ) == before
        assert gc.isenabled() and gc.get_freeze_count() == 0, gc.get_freeze_count()
        """
    )


_GMT = """
    import io
    import os
    import runpy
    import sys
    from contextlib import redirect_stdout

    sys.argv = ["gmt", "generate", "--generator", "ex2", "--n-max", "3"]
    with redirect_stdout(io.StringIO()) as out:
        try:
            runpy.run_module("gmtauber", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    assert out.getvalue().startswith("log:\\n"), out.getvalue()
    assert "numpy" in sys.modules
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_gmt_entry_runs_numpy_on_one_thread():
    assert _run(_GMT) == "1 1\n"


def test_gmt_entry_keeps_a_caller_set_thread_count():
    value, _ = _run(_GMT, OPENBLAS_NUM_THREADS="3").split()
    assert value == "3"


def test_gmt_entry_runs_with_the_collector_off_and_frozen():
    out = _run(_GMT + "    import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)\n")
    assert out.splitlines()[-1] == "False True"


_COLLECT = """
    import gc
    import io
    from contextlib import redirect_stdout

    gc.disable()
    import gmtauber.cli
    with redirect_stdout(io.StringIO()):
        assert gmtauber.cli.main(ARGV) == 0
    print(gc.collect())
"""


def _unreachable(argv: list[str]) -> int:
    """Objects a collection finds after one `cli.main(argv)` in a fresh
    interpreter whose collector was off from the start, as under `gmt`."""
    return int(_run(_COLLECT.replace("ARGV", repr(argv))))


@pytest.mark.parametrize("command", ["generate", "analyze", "ifn-analyze", "report"])
def test_gmt_run_leaves_the_collector_next_to_nothing(tmp_path, command):
    """`gmt` never collects, so a run's cyclic garbage must be small and
    must not grow with N."""
    found = {}
    for n in (1000, 100000):
        out, doc = str(tmp_path / f"{n}.out"), str(tmp_path / f"{n}.json")
        source = ["--n-max", str(n), "--no-timestamp"]
        argv = {
            "generate": ["generate", "--generator", "ex4-ifn", "--n-max", str(n), "--out", out],
            "analyze": ["analyze", "--generator", "ex1", *source, "--out", doc],
            "ifn-analyze": ["ifn-analyze", "--generator", "ex4-ifn", *source, "--mode", "otimes",
                            "--format", "csv", "--out", out],
            "report": ["report", "--in", doc, "--format", "csv", "--out", out],
        }
        if command == "report":
            _unreachable(argv["analyze"])
        found[n] = _unreachable(argv[command])
    assert max(found.values()) < 1000, found
    assert found[100000] - found[1000] <= 50, found


def test_console_script_is_the_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert re.search(r'^gmt = "gmtauber\.__main__:run"$', pyproject, re.M)
    import gmtauber.__main__ as entry

    assert callable(entry.run)


def _reader_leaves(module: str) -> None:
    # `gmt generate | head -1`: the sequence is written in chunks, and the
    # chunk after the reader has gone meets a closed pipe.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "generate", "--generator", "ex4-ifn",
         "--n-max", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"0.001371742112482853,0.984375\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_gmt_entry_ends_quietly_when_the_reader_leaves():
    _reader_leaves("gmtauber")


def test_cli_module_entry_ends_quietly_when_the_reader_leaves():
    _reader_leaves("gmtauber.cli")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["generate", "analyze", "report"])
def test_gmt_entry_exits_2_when_stdout_is_full(tmp_path, command, buffered):
    """Every write to stdout fails on /dev/full: one error line and exit 2,
    with stdout block-buffered (its exit flush fails too) or not."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env = dict(base, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), base.get("PYTHONPATH")) if p
    ))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    gmt = [sys.executable, "-m", "gmtauber"]
    analyze = ["analyze", "--generator", "ex2", "--n-max", "200", "--no-timestamp"]
    if command == "generate":
        argv = ["generate", "--generator", "ex2", "--n-max", "3"]
    elif command == "analyze":
        argv = analyze
    else:
        report = tmp_path / "a.json"
        subprocess.run([*gmt, *analyze, "--out", str(report)], check=True, env=env, timeout=120)
        argv = ["report", "--in", str(report)]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [*gmt, *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
