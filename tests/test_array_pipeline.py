"""The real pipeline on float64 log arrays: every public entry point of
gmean and tauber gives the same result for an ndarray of logs as for the
same values as LogReal objects, neither `gmt analyze` nor
`gmt ifn-analyze` allocates anything per index, `gmt generate` holds
one chunk of a sequence file's text at a time, and the sequence-file
reader makes no str per line."""

import io
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from gmtauber import floatfmt
from gmtauber.cli import main
from gmtauber.gmean import gbar_limit_estimate, weighted_geo_means
from gmtauber.generators import (
    generate_array,
    read_ifn_sequence,
    read_real_logs,
    write_ifn_sequence,
    write_real_sequence,
    write_sequence,
)
from gmtauber.mcore import LogReal, MTolerance, TailWindow, star_converges_to
from gmtauber.tauber import (
    landau_estimates,
    recoverability_report,
    slow_oscillation_curve,
    tauber_condition_curve,
)
from gmtauber.weights import LambdaGrid, WeightSequence, default_report_window


def _random_walk(n: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(3).normal(0.0, 0.1, n))


CASES = {
    "ex1-harmonic": (generate_array("ex1", 4000), WeightSequence.harmonic(4001)),
    "exp-decay-ones": (generate_array("exp-decay:c=2", 3000), WeightSequence.ones(3001)),
    "walk-alternating": (_random_walk(2500), WeightSequence.alternating(2500, 2.0, 1.0)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    x, w = CASES[request.param]
    grid = LambdaGrid.default()
    return x, [LogReal(v) for v in x.tolist()], w, grid, default_report_window(x.size, grid)


class TestArrayEqualsObjects:
    def test_gbar_limit_estimate(self, case):
        x, objs, w, _, window = case
        tol = MTolerance(1.01)
        verdict = gbar_limit_estimate(x, w, tol, window)
        assert verdict == gbar_limit_estimate(objs, w, tol, window)
        # The per-element form of the same test on the boxed means.
        means = weighted_geo_means(objs, w)
        assert verdict.limit == means[window.end_index]
        assert verdict.passed == star_converges_to(means, verdict.limit, tol, window)

    @pytest.mark.parametrize("backward", [False, True])
    def test_slow_oscillation_curve(self, case, backward):
        x, objs, _, grid, window = case
        curve = slow_oscillation_curve(x, grid, window, backward=backward)
        assert curve and curve == slow_oscillation_curve(objs, grid, window, backward=backward)

    @pytest.mark.parametrize("side", [1, 2])
    def test_tauber_condition_curve(self, case, side):
        x, objs, w, grid, window = case
        curve = tauber_condition_curve(x, w, grid, window, side)
        assert curve and curve == tauber_condition_curve(objs, w, grid, window, side)

    def test_landau_estimates(self, case):
        x, objs, _, _, window = case
        assert landau_estimates(x, window) == landau_estimates(objs, window)

    def test_recoverability_report(self, case):
        x, objs, w, grid, window = case
        report = recoverability_report(x, w, grid, window)
        assert report == recoverability_report(objs, w, grid, window)
        # The shared prefix sums give what the standalone entry points give.
        assert report.gbar_verdict == gbar_limit_estimate(
            x, w, MTolerance.default(), window
        )
        assert report.curves["con1"] == tauber_condition_curve(x, w, grid, window, 1)
        assert report.curves["con2"] == tauber_condition_curve(x, w, grid, window, 2)

    def test_non_finite_array_rejected(self):
        x = np.array([0.0, 1.0, np.nan, 0.5])
        with pytest.raises(ValueError):
            recoverability_report(x, WeightSequence.ones(4), LambdaGrid.of([0.5, 1.5]),
                                  TailWindow(1, 2))


def test_analyze_allocates_nothing_per_index():
    # 200001 indices: one boxed object or list slot per index would
    # exceed the bound by itself (a LogReal and its float take ~100 bytes).
    argv = [
        "analyze", "--generator", "ex1", "--weights", "harmonic",
        "--n-max", "200000", "--window", "99000:99255", "--no-timestamp",
    ]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def test_ifn_analyze_csv_allocates_nothing_per_index(tmp_path):
    # 100000 pairs: an IFN object per index (a frozen dataclass with its
    # dict and two floats, ~200 bytes) would take 20 MB by itself. Traced
    # peaks: 48.2 MB with per-index objects, 13.4 MB on the (2, N) rows.
    path = tmp_path / "seq.txt"
    write_ifn_sequence(path, generate_array("ex4-ifn", 99999))
    argv = [
        "ifn-analyze", "--in", str(path), "--mode", "otimes",
        "--weights", "alternating:1,3", "--format", "csv",
        "--out", str(tmp_path / "r.csv"), "--no-timestamp",
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 30e6, f"traced peak {peak / 1e6:.1f} MB"


def _traced_main(argv: list[str]) -> tuple[int, int]:
    """main(argv)'s exit code and traced peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("spec, bound_mb", [("exp-decay:c=2", 40), ("ex4-ifn", 60)])
def test_generate_writes_one_chunk_at_a_time(tmp_path, spec, bound_mb):
    # 10^6 indices. Traced peaks: 75.6 and 86.1 MB with the whole text
    # as bytes and then as a str, 24.2 and 44.0 MB one chunk at a time,
    # where the generated values and their temporaries set the peak.
    argv = ["generate", "--generator", spec, "--n-max", "999999"]
    out = tmp_path / "seq.txt"
    code, peak = _traced_main(argv + ["--out", str(out)])
    assert code == 0
    assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"
    assert b"\r" not in out.read_bytes()
    # The same chunks into stdout's binary buffer: 24.0 and 44.0 MB, where
    # a BytesIO of the whole text, then a str of it, peaked at 75.1 and 97.0.
    piped = tmp_path / "piped.txt"
    with open(piped, "wb") as f, io.TextIOWrapper(f, encoding="ascii") as stream:
        with redirect_stdout(stream):
            code, peak = _traced_main(argv)
    assert code == 0
    assert peak < bound_mb * 1e6, f"traced peak to stdout {peak / 1e6:.1f} MB"
    assert piped.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "form, bound_mb",
    [("log", 40), ("plain", 36), ("weights", 36), ("ifn", 12), ("log-blank", 48)],
)
def test_reading_a_file_makes_no_str_per_line(tmp_path, form, bound_mb):
    # 10^6 lines, 22 or 19 MB of text, or 2*10^5 IFN pairs, 5.4 MB. Traced
    # peaks: 32.1, 28.5, 28.5 and 9.4 MB with the file's bytes held once
    # and decoded a chunk at a time, against 54.5, 47.3, 47.3 and 14.8 MB
    # with a str of the text and its re-encoded UTF-8 bytes alive for the
    # C pass (67.8 MB for the plain form while math.log took a list of
    # every value), and 101.2, 94.0 and 124.7 MB for the first three with
    # a list of every stripped line and a float() per line. A ' ' line
    # after the 'log:' header sends the file to the per-line pass:
    # 123.5 MB with a list of every line, 30.6 MB one line at a time.
    spec, n_max = ("ex4-ifn", 199999) if form == "ifn" else ("exp-decay:c=2", 999999)
    rows = generate_array(spec, n_max)
    path = tmp_path / "seq.txt"
    with open(path, "wb") as f:
        if form == "log-blank":
            f.write(b"log:\n \n")
            floatfmt.write_rows(f, (rows,), index=False)
        elif form in ("log", "ifn"):
            write_sequence(f, rows)  # a 'log:' header and logs, or 'mu,nu' pairs
        else:
            floatfmt.write_rows(f, (np.exp(rows),), index=False)
    read = {"weights": WeightSequence.from_file, "ifn": read_ifn_sequence}.get(form, read_real_logs)
    tracemalloc.start()
    try:
        values = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == rows.shape[-1]
    assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"
