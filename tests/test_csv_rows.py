"""The CSV row writer of `gmt --format csv`: split across forked children
on chunk boundaries, it writes the bytes of the one-process loop kept in
`support`, leaves no child process or temporary file behind, and turns a
child's failure into an error in the caller."""

import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest

from gmtauber import cli

import support

C = cli.CSV_CHUNK_ROWS
HEADER = b"n,a,b,c\n"


def _columns(length: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(length)
    a = rng.standard_normal(length)
    a[::7] = -0.0
    with np.errstate(over="ignore"):
        b = np.exp(rng.uniform(-800.0, 800.0, length))  # inf, subnormals, 0.0
    c = rng.uniform(0.0, 1.0, length)
    c[::11] = np.nan
    return a, b, c


def _write(path, columns) -> bytes:
    with open(path, "wb") as f:
        f.write(HEADER)  # buffered, unflushed when the children fork
        cli._write_csv_rows(f, columns)
    return path.read_bytes()


def _oracle(path, columns) -> bytes:
    with open(path, "wb") as f:
        f.write(HEADER)
        support.write_csv_rows_oracle(f, columns, C)
    return path.read_bytes()


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """The pids forked during the test, recorded in the parent."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "length", [1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 5 * C + 3]
)
def test_split_rows_equal_the_one_process_loop(tmp_path, monkeypatch, forks, cpus, length):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    columns = _columns(length)
    assert _write(tmp_path / "split.csv", columns) == _oracle(tmp_path / "one.csv", columns)
    chunks = -(-length // C)
    assert len(forks) == min(cpus, chunks) - 1
    assert _no_child_left()


def test_failing_child_raises_in_the_caller(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    real = cli._format_rows

    def format_rows(f, columns, start, stop):
        if start > 0:  # only children format rows past part 0
            raise OSError("no space left")
        real(f, columns, start, stop)

    monkeypatch.setattr(cli, "_format_rows", format_rows)
    with pytest.raises(RuntimeError, match=f"rows {2 * C}..{4 * C - 1} failed"):
        _write(tmp_path / "r.csv", _columns(5 * C + 3))
    assert len(forks) == 2
    assert _no_child_left()


def test_fork_warning_is_suppressed_under_error_filters(tmp_path, monkeypatch):
    # A live thread makes the process multi-threaded at fork, which is
    # what Python >= 3.12 warns about.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    columns = _columns(2 * C + 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _write(tmp_path / "split.csv", columns)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == _oracle(tmp_path / "one.csv", columns)


def test_cli_with_a_failing_child_does_not_exit_0(tmp_path):
    script = textwrap.dedent(
        """
        import sys
        from gmtauber import cli

        real = cli._format_rows

        def format_rows(f, columns, start, stop):
            if start > 0:
                raise OSError("no space left")
            real(f, columns, start, stop)

        cli._usable_cpus = lambda: 2
        cli._format_rows = format_rows
        sys.exit(cli.main(sys.argv[1:]))
        """
    )
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, "-c", script, "ifn-analyze", "--generator", "ex4-ifn",
         "--n-max", str(2 * C + 5), "--format", "csv", "--out", str(tmp_path / "r.csv"),
         "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode not in (0, 2, 3)
    assert f"rows {C}..{2 * C + 5} failed" in proc.stderr
    assert "no space left" in proc.stderr  # the child's own traceback
    assert list(tmpdir.iterdir()) == []
