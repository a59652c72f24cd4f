import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber.mcore import (
    LogReal,
    MTolerance,
    TailWindow,
    _safe_exp,
    as_logs,
    is_mstar_bounded,
    mabs,
    mdelta,
    mdist,
    star_converges_to,
)


def L(x: float) -> LogReal:
    return LogReal.of(x)


class TestLogReal:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LogReal.of(0.0)
        with pytest.raises(ValueError):
            LogReal.of(-3.0)
        with pytest.raises(ValueError):
            LogReal.of(math.inf)
        with pytest.raises(ValueError):
            LogReal.from_log(math.nan)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=300)
    def test_round_trip(self, r):
        assert L(r).value == pytest.approx(r, rel=1e-12)

    def test_arithmetic_in_log_domain(self):
        a, b = L(8.0), L(2.0)
        assert (a * b).value == pytest.approx(16.0, rel=1e-12)
        assert (a / b).value == pytest.approx(4.0, rel=1e-12)
        assert (a**2).value == pytest.approx(64.0, rel=1e-12)
        assert a.reciprocal().value == pytest.approx(0.125, rel=1e-12)

    def test_value_saturates_only_where_exp_overflows(self):
        assert LogReal(709.5).value == _safe_exp(709.5) == math.exp(709.5)
        assert LogReal(709.79).value == _safe_exp(709.79) == math.inf

    def test_survives_huge_exponents(self):
        big = LogReal.from_log(1e5)
        assert (big / big).log_value == 0.0
        assert mabs(big).log_value == 1e5


class TestMTolerance:
    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            MTolerance(bad)

    def test_default_is_tight(self):
        assert MTolerance.default().value == 1 + 1e-6


class TestTailWindow:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TailWindow(5, 4)
        with pytest.raises(ValueError):
            TailWindow(-1, 4)
        assert len(TailWindow(3, 7)) == 5

    def test_last_half(self):
        win = TailWindow.last_half(10)
        assert (win.start_index, win.end_index) == (5, 9)
        assert TailWindow.last_half(1).indices() == range(0, 1)

    def test_check_fits(self):
        with pytest.raises(ValueError):
            TailWindow(0, 10).check_fits(10)


class TestMabs:
    def test_value_above_one(self):
        assert mabs(L(2.0)).value == pytest.approx(2.0, rel=1e-12)

    def test_boundary(self):
        assert mabs(L(1.0)).log_value == 0.0

    def test_reciprocal_branch(self):
        assert mabs(L(0.25)).value == pytest.approx(4.0, rel=1e-12)


class TestMdist:
    def test_identity_of_indiscernibles(self):
        # Ties return exactly 1 (log 0), no epsilon fudging.
        assert mdist(L(2.0), L(2.0)).log_value == 0.0

    def test_direct_ratio(self):
        assert mdist(L(8.0), L(2.0)).value == pytest.approx(4.0, rel=1e-12)

    def test_symmetry(self):
        assert mdist(L(2.0), L(8.0)).value == pytest.approx(4.0, rel=1e-12)


class TestMdelta:
    def test_ratio(self):
        seq = [L(2.0), L(0.5)]
        assert mdelta(seq, 1).value == pytest.approx(0.25, rel=1e-12)

    def test_constant_sequence(self):
        seq = [L(7.0)] * 3
        assert mdelta(seq, 2).log_value == 0.0

    def test_index_zero_is_first_element(self):
        assert mdelta([L(5.0)], 0).value == pytest.approx(5.0, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            mdelta([L(1.0)], 1)
        with pytest.raises(IndexError):
            mdelta([L(1.0)], -1)
        with pytest.raises(IndexError):
            mdelta(np.array([1.0]), 1)

    def test_log_array_is_read_as_logs(self):
        logs = np.array([0.5, 1.5, -2.0])
        seq = [LogReal(v) for v in logs.tolist()]
        for n in range(3):
            assert mdelta(logs, n) == mdelta(seq, n)
        assert mdelta(logs, 1) == LogReal(1.0)
        with pytest.raises(ValueError, match="must be finite"):
            mdelta(np.array([0.0, np.inf]), 0)


def oscillating(n_max: int) -> list[LogReal]:
    # 2 on even indices, 1/2 on odd: multiplicatively bounded, divergent.
    return [LogReal.from_log(math.log(2) * (-1.0) ** n) for n in range(n_max + 1)]


class TestStarConvergesTo:
    def test_oscillating_sequence_diverges(self):
        seq = oscillating(100)
        assert not star_converges_to(seq, L(1.0), MTolerance(1.5), TailWindow(10, 100))
        assert not star_converges_to(seq, L(1.0), MTolerance(1.5))

    def test_constant_sequence(self):
        seq = [L(3.0)] * 50
        assert star_converges_to(seq, L(3.0), MTolerance(1 + 1e-12))

    def test_exp_decay_within_tolerance(self):
        seq = [LogReal.from_log(1.0 / (n + 1)) for n in range(401)]
        assert star_converges_to(seq, L(1.0), MTolerance(1.01), TailWindow(200, 400))

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            star_converges_to([L(1.0)] * 5, L(1.0), MTolerance(2.0), TailWindow(0, 10))


class TestIsMstarBounded:
    def test_oscillating_is_star_bounded(self):
        assert is_mstar_bounded(oscillating(200), L(3.0), TailWindow(0, 200))

    def test_vanishing_sequence_is_not(self):
        seq = [L(1.0 / n) for n in range(1, 2001)]
        assert not is_mstar_bounded(seq, L(1000.0), TailWindow(999, 1999))

    def test_constant_one_with_tiny_bound(self):
        assert is_mstar_bounded([L(1.0)] * 10, L(1.0001), TailWindow(0, 9))

    def test_bound_must_exceed_one(self):
        with pytest.raises(ValueError):
            is_mstar_bounded([L(1.0)], L(1.0), TailWindow(0, 0))

    @given(
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=6.0),
        st.data(),
    )
    @settings(max_examples=200)
    def test_log_array_matches_logreals(self, logs, log_bound, data):
        start = data.draw(st.integers(0, len(logs) - 1))
        window = data.draw(
            st.one_of(st.none(), st.integers(start, len(logs) - 1).map(
                lambda end: TailWindow(start, end)))
        )
        bound = LogReal(log_bound)
        boxed = is_mstar_bounded([LogReal(v) for v in logs], bound, window)
        assert is_mstar_bounded(np.array(logs), bound, window) is boxed


logreals = st.floats(min_value=-700.0, max_value=700.0).map(LogReal.from_log)


class TestMultiplicativeAxioms:
    """The |.|* and d* properties, randomized."""

    @given(logreals)
    @settings(max_examples=300)
    def test_mabs_at_least_one(self, u):
        assert mabs(u).log_value >= 0.0

    @given(logreals)
    @settings(max_examples=300)
    def test_mabs_of_reciprocal(self, u):
        assert mabs(u.reciprocal()).log_value == mabs(u).log_value

    @given(logreals, logreals)
    @settings(max_examples=300)
    def test_submultiplicative(self, u, v):
        lhs = mabs(u * v).log_value
        rhs = mabs(u).log_value + mabs(v).log_value
        assert lhs <= rhs + 1e-12

    @given(logreals, logreals, logreals)
    @settings(max_examples=300)
    def test_triangle(self, u, v, z):
        assert (
            mdist(u, v).log_value
            <= mdist(u, z).log_value + mdist(z, v).log_value + 1e-12
        )

    @given(logreals, st.floats(min_value=-700.0, max_value=700.0))
    @settings(max_examples=300)
    def test_interval_characterization(self, u, log_v):
        # mabs(u) <= v iff 1/v <= u <= v, exact in log-domain.
        bounded = mabs(u).log_value <= log_v
        inside = -log_v <= u.log_value <= log_v
        assert bounded == inside


class TestEquivalenceWithOrdinaryConvergence:
    """On sequences bounded away from 0 and inf, the windowed star test
    and a plain absolute-difference test agree for clear-cut cases."""

    def test_agreement(self):
        rng = np.random.default_rng(7)
        window = TailWindow(500, 999)
        for _ in range(20):
            a = float(np.exp(rng.uniform(-1, 1)))
            converges = bool(rng.integers(0, 2))
            if converges:
                devs = rng.uniform(-1e-6, 1e-6, size=1000)
            else:
                devs = rng.uniform(0.5, 1.0, size=1000) * rng.choice([-1, 1], size=1000)
            seq = [LogReal.of(a * math.exp(d)) for d in devs]
            star = star_converges_to(seq, LogReal.of(a), MTolerance(1.01), window)
            plain = all(
                abs(seq[n].value - a) < 0.005 * a for n in window.indices()
            )
            assert star == plain == converges


class TestAsLogs:
    def test_logreal_sequence_is_unboxed(self):
        x = as_logs([LogReal(1.5), LogReal(-2.0)])
        assert x.dtype == np.float64
        assert x.tolist() == [1.5, -2.0]

    def test_array_passes_through_as_float64(self):
        x = np.array([0.25, -3.0])
        assert as_logs(x) is x
        ints = as_logs(np.array([1, 2, 3]))
        assert ints.dtype == np.float64 and ints.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite.*index 2"):
            as_logs(np.array([0.0, 1.0, bad, 2.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-d"):
            as_logs(np.zeros((3, 2)))
