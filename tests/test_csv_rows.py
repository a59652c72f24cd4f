"""The row writer of `gmt --format csv` and of sequence files: one block
of rows at a time in one process, it writes the bytes of the per-value
loop kept in `support` at every block boundary, for any number of
columns and for strided column views; it starts no process and makes no
temporary file, and its memory is one block's, not the table's."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from gmtauber import cli, floatfmt, generators

import support

C = 1 << 13  # the rows of one block of a one-column table
HEADER = b"header\n"  # still in f's buffer when the rows are written


def _columns(length: int, n_cols: int = 5) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(length)
    a = rng.standard_normal(length)
    a[::7] = -0.0
    with np.errstate(over="ignore"):
        b = np.exp(rng.uniform(-800.0, 800.0, length))  # inf, subnormals, 0.0
    c = rng.uniform(0.0, 1.0, length)
    c[::11] = np.nan
    d = np.round(rng.uniform(-1e17, 1e17, length) * 10.0 ** -rng.integers(0, 18, length))
    e = rng.standard_normal(length)
    e[::5] = -1.2345678901234567e-300  # a 24-byte repr: its block takes a fourth word
    return (a, b, c, d, e)[:n_cols]


def _write(path, columns) -> bytes:
    with open(path, "wb") as f:
        f.write(HEADER)
        floatfmt.write_rows(f, columns, index=True)
    return path.read_bytes()


def _oracle(path, columns) -> bytes:
    with open(path, "wb") as f:
        f.write(HEADER)
        support.write_csv_rows_oracle(f, columns, C)
    return path.read_bytes()


LENGTHS = pytest.mark.parametrize(
    "length", [1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 5 * C + 3]
)


@pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 5])
@LENGTHS
def test_split_rows_equal_the_one_process_loop(tmp_path, n_cols, length):
    columns = _columns(length, n_cols)
    assert _write(tmp_path / "split.csv", columns) == _oracle(tmp_path / "one.csv", columns)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("n_cols", [1, 2, 3, 4, 5])
def test_rows_around_block_edges(tmp_path, n_cols, blocks, offset):
    """A table whose length is a multiple of the block's rows, 8192 //
    n_cols, give or take one row."""
    columns = _columns(blocks * (C // n_cols) + offset, n_cols)
    assert _write(tmp_path / "split.csv", columns) == _oracle(tmp_path / "one.csv", columns)


@pytest.mark.parametrize("kind", ["real", "ifn"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@LENGTHS
def test_split_sequence_equals_the_one_process_loop(tmp_path, length, stride, kind):
    """The same writer under generators.write_sequence, with no index, on
    column views that step through their memory by stride values."""
    mu, nu = _columns(length * stride, 2)
    a, b = mu[::stride], nu[::stride]
    if kind == "real":
        values, want = a, "log:\n" + "".join(f"{v!r}\n" for v in a.tolist())
    else:
        values = np.stack([mu, nu])[:, ::stride]
        want = "".join(f"{u!r},{v!r}\n" for u, v in zip(a.tolist(), b.tolist()))
    path = tmp_path / "seq.txt"
    with open(path, "wb") as f:
        generators.write_sequence(f, values)
    assert path.read_bytes() == want.encode("ascii")


def test_rows_are_written_in_one_process_with_no_temporary_file(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("no process may be started")

    monkeypatch.setattr(os, "fork", no_fork)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    columns = _columns(5 * C + 3, 3)
    assert _write(tmp_path / "one.csv", columns) == _oracle(tmp_path / "oracle.csv", columns)
    out = tmp_path / "r.csv"
    assert cli.main([
        "ifn-analyze", "--generator", "ex4-ifn", "--n-max", str(2 * C + 5),
        "--format", "csv", "--out", str(out), "--no-timestamp",
    ]) == 0
    assert out.read_bytes().count(b"\n") == 2 * C + 7  # the header and rows 0..2C+5
    assert list(tmpdir.iterdir()) == []


class _Sink:
    """A binary file that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, data: bytes) -> None:
        self.size += len(data)


def test_memory_is_one_blocks_not_the_tables():
    rng = np.random.default_rng(3)
    columns = tuple(rng.standard_normal(10**6) for _ in range(3))
    floatfmt.rows(np.array([[0.1]]))  # the tables, built once per process
    sink = _Sink()
    tracemalloc.start()
    try:
        floatfmt.write_rows(sink, columns, index=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 50 * 10**6  # the table's text: about 60 MB
    assert peak < 3 * 2**20, peak
