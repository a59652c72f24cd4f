import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber import weights
from gmtauber.mcore import TailWindow
from gmtauber.weights import (
    LambdaGrid,
    WeightSequence,
    lambda_index,
    partial_sum,
    sva_plus_estimate,
)

import support


class TestLambdaIndex:
    @pytest.mark.parametrize(
        "lam,n,expected",
        [(1.5, 7, 10), (1.0, 13, 13), (0.5, 9, 4), (2.0, 0, 0)],
    )
    def test_floor_arithmetic(self, lam, n, expected):
        assert lambda_index(lam, n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lambda_index(0.0, 3)


class TestWeightSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSequence([])
        with pytest.raises(ValueError):
            WeightSequence([0.0, 1.0])
        with pytest.raises(ValueError):
            WeightSequence([1.0, -0.5])
        with pytest.raises(ValueError):
            WeightSequence([1.0, math.nan])

    @pytest.mark.parametrize("p, first", [([1e308, 1e308], 1), ([1.0, 1.7e308, 1e308], 2)])
    def test_overflowing_partial_sums_raise(self, p, first):
        # P never decreases, so an inf anywhere shows at P[-1]; the cast
        # that overflows warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"overflow from index {first}$"):
                WeightSequence(p)

    def test_zero_weights_allowed_after_first(self):
        w = WeightSequence([1.0, 0.0, 0.0, 2.0])
        assert partial_sum(w, 2) == 1.0
        assert partial_sum(w, 3) == 3.0

    def test_partial_sum_ones(self):
        assert partial_sum(WeightSequence.ones(20), 10) == 11.0

    def test_partial_sum_harmonic(self):
        w = WeightSequence.harmonic(5)
        assert partial_sum(w, 2) == pytest.approx(11.0 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 17, 10**6])
    def test_harmonic_is_one_over_n_plus_one(self, n):
        expected = 1.0 / (np.arange(n, dtype=np.float64) + 1.0)
        assert WeightSequence.harmonic(n).p.tobytes() == expected.tobytes()

    def test_partial_sum_alternating(self):
        w = WeightSequence.alternating(6, 2.0, 1.0)
        assert partial_sum(w, 3) == 6.0

    def test_partial_sum_out_of_range(self):
        with pytest.raises(IndexError):
            partial_sum(WeightSequence.ones(3), 3)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=200),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_cumulative_matches_fresh_summation(self, rest, first):
        p = [first] + rest
        w = WeightSequence(p)
        for n in (0, len(p) // 2, len(p) - 1):
            fresh = math.fsum(p[: n + 1])
            assert partial_sum(w, n) == pytest.approx(fresh, rel=1e-12)

    def test_partial_sums_nondecreasing(self):
        rng = np.random.default_rng(3)
        p = np.concatenate([[1.0], rng.uniform(0.0, 5.0, size=499), np.zeros(100)])
        w = WeightSequence(p)
        assert np.all(np.diff(w.P) >= 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60),
        st.floats(min_value=1e-3, max_value=1e6),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=300, deadline=None)
    def test_chunked_P_is_the_full_longdouble_cumsum(self, rest, first, chunk):
        # A short chunk puts several chunk boundaries inside a short p.
        p = np.array([first] + rest)
        expected = np.cumsum(p, dtype=np.longdouble).astype(np.float64)
        with mock.patch.object(weights, "P_CHUNK", chunk):
            assert WeightSequence(p).P.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "n", [1, 5, weights.P_CHUNK - 1, weights.P_CHUNK, weights.P_CHUNK + 1, 300001]
    )
    def test_chunked_P_at_chunk_boundaries(self, n):
        p = np.random.default_rng(n).uniform(0.0, 3.0, n)
        p[0] = 1.0
        expected = np.cumsum(p, dtype=np.longdouble).astype(np.float64)
        assert WeightSequence(p).P.tobytes() == expected.tobytes()

    def test_harmonic_holds_one_chunk_beyond_p_and_P(self):
        # p and P take 8 MB each at 10^6 indices. A full-length longdouble
        # cumsum added 16 MB more (traced peak 40.0 MB); one chunk adds 1 MB.
        tracemalloc.start()
        try:
            WeightSequence.harmonic(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_from_file(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("2.0\n1.0\n\n0.5\n")
        w = WeightSequence.from_file(f)
        assert list(w.p) == [2.0, 1.0, 0.5]

    @pytest.mark.parametrize(
        "text",
        [
            "2.0\r\n1.0\r\n\r\n  \r\n\t\r\n0.5\r\n",
            "\n\n1_0\n2.5\n",
            "1.0\nnan\n",
            "1.0\n-1\n",
            "1,2\n",
            "1.0\n-1\nabc\n",
            "",
            "log:\n1.0\n",
            " log: \n2.0\n",
            "1.0\r2.0\r",
            "1.0\x0c2.0\n",
        ],
        ids=[
            "crlf-blank", "underscore", "nan", "negative", "pair", "bad-value-then-token", "empty",
            "log-header", "spaced-log-header", "cr-only", "form-feed",
        ],
    )
    def test_from_file_matches_per_line(self, tmp_path, text):
        f = tmp_path / "w.txt"
        f.write_bytes(text.encode())

        def outcome(read):
            try:
                return read(f).p.view(np.uint64).tolist()
            except ValueError as exc:
                return ("ValueError", str(exc))

        expected = outcome(support.read_weights_oracle)
        assert outcome(WeightSequence.from_file) == expected
        if not text:
            assert expected == ("ValueError", "weights must be a non-empty 1-d sequence")


class TestLambdaGrid:
    def test_default_grid(self):
        grid = LambdaGrid.default()
        assert 2.0 in grid.values and 0.5 in grid.values
        assert grid.above_one[0] == 2.0
        assert grid.above_one[-1] == 1.0 + 2.0**-6
        assert grid.below_one[0] == 0.5
        assert grid.below_one[-1] == 1.0 - 2.0**-6
        assert len(grid.values) == 13  # 0.5 deduplicated

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaGrid.of([1.0, 2.0])
        with pytest.raises(ValueError):
            LambdaGrid.of([-0.5])
        with pytest.raises(ValueError):
            LambdaGrid.of([])
        with pytest.raises(ValueError):
            LambdaGrid.of([2.0, 2.0])


class TestSvaPlusEstimate:
    def test_single_point_window_ones(self):
        # P_10/P_5 - 1 = 11/6 - 1 = 5/6 for unit weights.
        w = WeightSequence.ones(11)
        est = sva_plus_estimate(w, LambdaGrid.of([2.0]), TailWindow(5, 5))
        assert est.per_lambda[2.0] == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_ones_verdict_true_on_late_window(self):
        w = WeightSequence.ones(4001)
        est = sva_plus_estimate(w, LambdaGrid.of([0.5, 2.0]), TailWindow(1000, 2000))
        assert est.verdict
        # P_{lambda n}/P_n tends to lambda, so the estimates approach |lambda-1|.
        assert est.per_lambda[2.0] == pytest.approx(1.0, abs=2e-3)
        assert est.per_lambda[0.5] == pytest.approx(0.5, abs=2e-3)

    def test_constant_weights_converge_to_lambda_gap(self):
        # Window [N, 2N] at N = 10^4: estimate within 1e-2 of |lambda - 1|.
        n_len = 40_001
        w = WeightSequence(np.full(n_len, 3.0))
        grid = LambdaGrid.default()
        est = sva_plus_estimate(w, grid, TailWindow(10_000, 20_000))
        for lam, val in est.per_lambda.items():
            assert val == pytest.approx(abs(lam - 1.0), abs=1e-2)

    def test_harmonic_weights_drift_to_zero_and_fail(self):
        # P_n ~ log n so the ratios collapse toward 1; by 4e6 the finest
        # grid lambdas drop under the 1e-3 floor and the verdict flips.
        n_len = 8_200_001
        w = WeightSequence(1.0 / (np.arange(n_len, dtype=np.float64) + 1.0))
        grid = LambdaGrid.default()
        early = sva_plus_estimate(w, grid, TailWindow(5_000, 10_000))
        late = sva_plus_estimate(w, grid, TailWindow(3_900_000, 4_100_000))
        lam = grid.above_one[-1]
        assert late.per_lambda[lam] < early.per_lambda[lam]
        assert late.per_lambda[lam] <= 1e-3
        assert not late.verdict

    def test_lambda_index_out_of_bounds(self):
        w = WeightSequence.ones(10)
        with pytest.raises(ValueError):
            sva_plus_estimate(w, LambdaGrid.of([2.0]), TailWindow(5, 9))
