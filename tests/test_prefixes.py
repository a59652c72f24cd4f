"""The prefix sums: one in-place longdouble S per real sequence, with
float64 P and means, bit-identical to the full-length longdouble
formulas in `support`; built once per real sequence by each consumer,
reached by the CLI through the public consumers; and small enough to
measure."""

import io
import struct
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gmtauber
from gmtauber import gmean
from gmtauber.cli import main
from gmtauber.generators import generate_array
from gmtauber.gmean import transform_log_values
from gmtauber.ifn import IFN, IFNRows, ifn_tauber_report, ifwa_means, ifwg_means
from gmtauber.mcore import MTolerance, TailWindow
from gmtauber.tauber import (
    ReportThresholds,
    recoverability_report,
    tauber_condition_curve,
)
from gmtauber.weights import LambdaGrid, WeightSequence, default_report_window, usable_end

from support import (
    condition_curve_oracle,
    longdouble_prefixes,
    report_prefix_fields_oracle,
    transform_log_values_oracle,
)

# numpy's ufuncs work through buffers of this many elements when they
# cast, as the longdouble divide into float64 does.
UFUNC_BUFFER = 8192


def _logs(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0.0, 3.0, n)
    if kind == "near-700":
        return rng.choice([-700.0, 700.0]) + rng.normal(0.0, 1e-3, n)
    if kind == "alternating-700":
        return np.where(np.arange(n) % 2 == 0, 700.0, -700.0) + rng.uniform(-1.0, 1.0, n)
    if kind == "walk":
        return np.cumsum(rng.normal(0.0, 0.1, n))
    return np.full(n, rng.uniform(-700.0, 700.0))  # constant


def _weights(kind: str, n: int, rng: np.random.Generator) -> WeightSequence:
    if kind == "ones":
        return WeightSequence.ones(n)
    if kind == "harmonic":
        return WeightSequence.harmonic(n)
    p = rng.uniform(0.0, 3.0, n)
    if kind == "zeros-after-p0":
        p[rng.random(n) < 0.4] = 0.0
    elif kind == "zero-tail":
        p[1 + n // 2 :] = 0.0
    p[0] = rng.uniform(0.1, 3.0)
    return WeightSequence(p)


@st.composite
def prefix_cases(draw):
    """(x, w, grid, window): lengths around one, two and three ufunc
    buffers as well as short and arbitrary ones."""
    n = draw(
        st.one_of(
            st.integers(4, 64),
            st.integers(UFUNC_BUFFER - 8, UFUNC_BUFFER + 8),
            st.integers(2 * UFUNC_BUFFER - 8, 3 * UFUNC_BUFFER + 8),
            st.integers(4, 30000),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_kind = draw(st.sampled_from(["normal", "near-700", "alternating-700", "walk", "constant"]))
    weight_kind = draw(
        st.sampled_from(["ones", "harmonic", "random", "zeros-after-p0", "zero-tail"])
    )
    x = _logs(log_kind, n, rng)
    # weights may be longer than the sequence; only the first n are used
    w = _weights(weight_kind, n + draw(st.integers(0, 3)), rng)
    grid = draw(
        st.sampled_from(
            [LambdaGrid.default(), LambdaGrid.of([0.5, 0.9, 1.1, 1.5]), LambdaGrid.of([1.25])]
        )
    )
    end = usable_end(n, grid)
    if end >= 1 and draw(st.booleans()):
        window = default_report_window(n, grid)
    else:
        start = draw(st.integers(0, end))
        window = TailWindow(start, draw(st.integers(start, end)))
    return x, w, grid, window


def _bits(curve: dict[float, float]) -> dict[str, bytes]:
    return {lam.hex(): struct.pack("<d", v) for lam, v in curve.items()}


class TestBitIdenticalToLongdoubleOracle:
    @given(prefix_cases())
    @settings(max_examples=150, deadline=None)
    def test_transform_log_values(self, case):
        x, w, _, _ = case
        means = transform_log_values(x, w)
        assert means.dtype == np.float64
        assert means.tobytes() == transform_log_values_oracle(x, w).tobytes()

    @given(prefix_cases(), st.sampled_from([1, 2]))
    @settings(max_examples=150, deadline=None)
    def test_condition_curve(self, case, side):
        x, w, grid, window = case
        S, P = longdouble_prefixes(x, w)
        expected = condition_curve_oracle(x, S, P, grid, window, side)
        assert _bits(tauber_condition_curve(x, w, grid, window, side)) == _bits(expected)

    @given(prefix_cases())
    @settings(max_examples=100, deadline=None)
    def test_recoverability_report(self, case):
        # Only the gbar verdict and the con1/con2 curves read the
        # prefixes; the other fields are covered in test_tauber.
        x, w, grid, window = case
        if window.end_index < 1:
            return  # the Landau ratio needs an index n >= 1
        tol = MTolerance(1.01)
        report = recoverability_report(x, w, grid, window, ReportThresholds(theta=1.5, gbar_tol=tol))
        gbar, con1, con2 = report_prefix_fields_oracle(x, w, grid, window, tol)
        assert report.gbar_verdict == gbar
        assert struct.pack("<d", report.gbar_verdict.limit.log_value) == struct.pack(
            "<d", gbar.limit.log_value
        )
        assert _bits(report.curves["con1"]) == _bits(con1)
        assert _bits(report.curves["con2"]) == _bits(con2)

    def test_longer_weights_and_empty_prefix(self):
        w = WeightSequence.harmonic(10)
        x = np.array([0.5, -0.25, 3.0])
        assert transform_log_values(x, w).tobytes() == transform_log_values_oracle(x, w).tobytes()
        assert gmean._prefix_sums(np.empty(0), w).size == 0
        with pytest.raises(ValueError, match="shorter than the sequence"):
            transform_log_values(np.zeros(11), w)


class _Counter:
    """Counts the calls of one gmtauber function through every module
    binding that holds it."""

    def __init__(self, monkeypatch, original):
        self.calls = 0

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        modules = [gmtauber.gmean, gmtauber.tauber, gmtauber.ifn, gmtauber.cli]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)


@pytest.fixture
def builds(monkeypatch):
    return _Counter(monkeypatch, gmean._prefix_sums)


def test_each_consumer_builds_once_per_sequence(builds):
    # The mean verdict and both condition curves of a report share one
    # S; the IFN functions build one per component.
    x = generate_array("ex2", 500)
    w = WeightSequence.ones(501)
    grid = LambdaGrid.default()
    window = default_report_window(x.size, grid)
    for consume in (
        lambda: transform_log_values(x, w),
        lambda: tauber_condition_curve(x, w, grid, window, 1),
        lambda: recoverability_report(x, w),
    ):
        builds.calls = 0
        consume()
        assert builds.calls == 1
    seq = [IFN(0.3 + 0.1 * (n % 2), 0.4) for n in range(400)]
    w = WeightSequence.ones(400)
    for consume in (
        lambda: ifwa_means(seq, w),
        lambda: ifwg_means(seq, w),
        lambda: ifn_tauber_report(seq, w, mode="oplus"),
        lambda: ifn_tauber_report(seq, w, mode="otimes"),
    ):
        builds.calls = 0
        consume()
        assert builds.calls == 2


@pytest.mark.parametrize(
    "argv, consumers, n_builds",
    [
        (["analyze", "--generator", "ex1", "--weights", "harmonic", "--n-max", "3000"],
         [], 1),
        (["ifn-analyze", "--generator", "ex4-ifn", "--n-max", "2000", "--mode", "oplus"],
         ["ifwa_means", "ifn_tauber_report"], 4),
        (["ifn-analyze", "--generator", "ex4-ifn", "--n-max", "2000", "--mode", "otimes"],
         ["ifwg_means", "ifn_tauber_report"], 4),
    ],
)
def test_cli_reaches_the_public_consumers(monkeypatch, builds, argv, consumers, n_builds):
    # `ifn-analyze` takes its means and reports from the public
    # functions, the names perfbench/trace_child.py times each layer by.
    # `analyze` builds one S and shares it between its mean verdict, its
    # means and its report, so it calls neither public consumer.
    counters = [_Counter(monkeypatch, getattr(gmtauber.cli, name)) for name in consumers]
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["--no-timestamp"]) == 0
    assert [c.calls for c in counters] == [1] * len(consumers)
    assert builds.calls == n_builds


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_allocates_one_longdouble_array():
    # N = 10^6: S takes 16 MB (16-byte longdouble on x86-64) and the
    # float64 means 8 MB; one more full-length longdouble temporary, a
    # widened P or an undivided quotient, would cross the bound.
    n = 10**6
    x = generate_array("ex1", n - 1)
    w = WeightSequence.harmonic(n)
    peak = _traced_peak(lambda: transform_log_values(x, w))
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"


def _component_report_peak(n: int) -> float:
    rows = IFNRows(generate_array("ex4-ifn", n - 1))
    w = WeightSequence.ones(n)
    grid = LambdaGrid.of([0.99, 1.01])
    peak = _traced_peak(
        lambda: ifn_tauber_report(rows, w, grid, TailWindow(90000, 90999), mode="otimes")
    )
    return peak / n


def test_component_report_frees_each_s_before_the_next():
    # A second live S, or a full-length means array, would cross 40
    # bytes per index at N = 10^5.
    per_index = _component_report_peak(10**5)
    assert per_index < 40, f"traced peak {per_index:.1f} bytes per index"


def test_component_report_holds_one_component_log_at_a_time():
    # ifn_tauber_report holds one component's float64 log (8 bytes per
    # index) and its S (16) at a time, plus window-sized arrays: 25 bytes
    # per index at N = 10^5 (33 while both logs were built up front).
    per_index = _component_report_peak(10**5)
    assert per_index < 30, f"traced peak {per_index:.1f} bytes per index"


@pytest.mark.parametrize("means", [ifwa_means, ifwg_means], ids=lambda f: f.__name__)
def test_ifn_means_take_each_log_into_its_output_row(means):
    # 44 bytes per index at N = 10^5: the (2, N) means, each row holding
    # its component's log, then S and the log-means of one component at a
    # time. Both logs formed apart from the means read 60.
    n = 10**5
    rows = IFNRows(generate_array("ex4-ifn", n - 1))
    w = WeightSequence.ones(n)
    per_index = _traced_peak(lambda: means(rows, w)) / n
    assert per_index < 46, f"traced peak {per_index:.1f} bytes per index"


def test_extended_precision_lives_in_gmean_and_weights():
    # The precision rule of S and P has one home each, so that a portable
    # replacement for longdouble changes two modules.
    package = Path(gmtauber.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "longdouble" in p.read_text())
    assert users == ["gmean.py", "weights.py"]


@pytest.mark.parametrize(
    "argv, bound",
    [
        # 51 bytes per index (88 before the in-place S).
        (["analyze", "--generator", "ex1", "--weights", "harmonic", "--window", "40000:40999",
          "--format", "csv"], 60),
        # 78 bytes per index, in the otimes means (90 before the in-place
        # means, 122 before the in-place S); the component report peaks at
        # 75 (83 while it built both component logs up front).
        (["ifn-analyze", "--generator", "ex4-ifn", "--mode", "otimes",
          "--lambda-grid", "0.99,1.01", "--window", "90000:90999", "--format", "csv"], 100),
        # 42 bytes per index: the logs, p, P and one S, with no full-length
        # means (51 while the mean transform built its own S and means).
        (["analyze", "--generator", "ex1", "--weights", "harmonic", "--window", "40000:40999",
          "--format", "json"], 46),
    ],
)
def test_run_memory_per_index(tmp_path, argv, bound):
    n = 10**5
    argv = argv + ["--n-max", str(n - 1), "--out", str(tmp_path / "r"), "--no-timestamp"]
    peak = _traced_peak(lambda: main(argv))
    assert peak < bound * n, f"traced peak {peak / n:.1f} bytes per index"
