import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber.mcore import LogReal, MTolerance, TailWindow
from gmtauber.weights import (
    LambdaGrid,
    WeightSequence,
    default_report_window,
    sva_plus_estimate,
    usable_end,
)
from gmtauber.tauber import (
    ReportThresholds,
    landau_estimates,
    recoverability_report,
    slow_oscillation_curve,
    slow_oscillation_estimate,
    tauber_con1_estimate,
    tauber_con2_estimate,
    tauber_condition_curve,
)
from gmtauber.generators import generate, generate_array
from gmtauber.gmean import _range_reduce
from gmtauber.weights import _lambda_blocks

from support import slow_oscillation_curve_oracle


def L(x: float) -> LogReal:
    return LogReal.of(x)


def linear(n_max: int) -> list[LogReal]:
    return generate("linear", n_max)


# ---------------------------------------------------------------------------
# Independent brute-force oracles (plain loops, plain floats)


def brute_block_mean(logs, p, P, lam, window, side) -> float | None:
    worst = None
    for n in window.indices():
        ln = math.floor(lam * n)
        if side == 1:
            if not P[ln] > P[n]:
                continue
            s = math.fsum(p[k] * (logs[k] - logs[n]) for k in range(n + 1, ln + 1))
            val = abs(s) / (P[ln] - P[n])
        else:
            if not P[n] > P[ln]:
                continue
            s = math.fsum(p[k] * (logs[n] - logs[k]) for k in range(ln + 1, n + 1))
            val = abs(s) / (P[n] - P[ln])
        worst = val if worst is None else max(worst, val)
    return None if worst is None else math.exp(worst)


def brute_slow_osc(logs, lam, window, backward) -> float | None:
    worst = None
    for n in window.indices():
        ln = math.floor(lam * n)
        lo, hi = (ln, n) if backward else (n, ln)
        for m in range(lo + 1, hi + 1):
            val = abs(logs[m] - logs[n])
            worst = val if worst is None else max(worst, val)
    return None if worst is None else math.exp(worst)


class TestAgainstBruteForce:
    def test_condition_curves_match(self):
        rng = np.random.default_rng(17)
        logs = rng.normal(0, 1.5, size=400)
        u = [LogReal.from_log(float(lv)) for lv in logs]
        p = np.concatenate([[1.0], rng.uniform(0.0, 2.0, size=399)])
        w = WeightSequence(p)
        P = [math.fsum(p[: k + 1]) for k in range(400)]
        window = TailWindow(40, 150)
        grid = LambdaGrid.of([2.0, 1.25, 0.5, 0.75])
        c1 = tauber_condition_curve(u, w, grid, window, side=1)
        c2 = tauber_condition_curve(u, w, grid, window, side=2)
        for lam in (2.0, 1.25):
            expect = brute_block_mean(logs, p, P, lam, window, side=1)
            assert c1[lam] == pytest.approx(expect, rel=1e-10)
        for lam in (0.5, 0.75):
            expect = brute_block_mean(logs, p, P, lam, window, side=2)
            assert c2[lam] == pytest.approx(expect, rel=1e-10)

    def test_slow_osc_curves_match(self):
        rng = np.random.default_rng(23)
        logs = rng.normal(0, 1.0, size=300)
        u = [LogReal.from_log(float(lv)) for lv in logs]
        window = TailWindow(30, 120)
        grid = LambdaGrid.of([1.5, 0.5])
        fwd = slow_oscillation_curve(u, grid, window)
        back = slow_oscillation_curve(u, grid, window, backward=True)
        assert fwd[1.5] == pytest.approx(
            brute_slow_osc(logs, 1.5, window, False), rel=1e-12
        )
        assert back[0.5] == pytest.approx(
            brute_slow_osc(logs, 0.5, window, True), rel=1e-12
        )


def _log_values(kind: str, length: int, rng) -> np.ndarray:
    if kind == "small-int":  # ties and plateaus
        return rng.integers(-2, 3, size=length).astype(float)
    if kind == "monotone":
        return np.cumsum(rng.exponential(1.0, size=length))
    if kind == "walk":
        return np.cumsum(rng.normal(0.0, 1.0, size=length))
    # steps of hundreds push block deviations past exp(709): estimates saturate
    return np.cumsum(rng.normal(0.0, 400.0, size=length))


_near_one = st.integers(1, 12).map(lambda j: 2.0**-j)
_lambdas_above = st.one_of(
    _near_one.map(lambda d: 1.0 + d),
    st.floats(1.0, 3.0, exclude_min=True),
)
_lambdas_below = st.one_of(
    _near_one.map(lambda d: 1.0 - d),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def slow_osc_cases(draw):
    kind = draw(st.sampled_from(["small-int", "monotone", "walk", "saturating"]))
    length = draw(st.integers(1, 2000))
    seed = draw(st.integers(0, 2**32 - 1))
    logs = _log_values(kind, length, np.random.default_rng(seed))
    below = draw(st.lists(_lambdas_below, min_size=1, max_size=4, unique=True))
    above = draw(st.lists(_lambdas_above, max_size=4, unique=True))
    grid = LambdaGrid.of(below + above)
    bound = usable_end(length, grid)
    start = draw(st.integers(0, bound))
    end = draw(st.integers(start, bound))
    return [LogReal.from_log(float(v)) for v in logs], grid, TailWindow(start, end)


class TestSlowOscillationOracle:
    @given(slow_osc_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_identical_to_per_n_loop(self, case, backward):
        u, grid, window = case
        try:
            expect = slow_oscillation_curve_oracle(u, grid, window, backward=backward)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                slow_oscillation_curve(u, grid, window, backward=backward)
            return
        got = slow_oscillation_curve(u, grid, window, backward=backward)
        assert list(got.items()) == list(expect.items())


@st.composite
def block_walk_cases(draw):
    """A lambda grid drawn as in slow_osc_cases and a window of up to 2000
    indices below 2^34, often across a binade boundary of some lambda * n,
    with the length its largest block needs."""
    below = draw(st.lists(_lambdas_below, max_size=4, unique=True))
    above = draw(st.lists(_lambdas_above, min_size=0 if below else 1, max_size=4, unique=True))
    grid = LambdaGrid.of(below + above)
    width = draw(st.integers(0, 2000))
    lam = draw(st.sampled_from(grid.values))
    binade = st.integers(1, 33).map(lambda j: int(min(2.0**j / lam, 2.0**34)) - width // 2)
    start = draw(st.one_of(st.integers(0, 4000), st.integers(0, 2**34), binade))
    start = min(max(start, 0), 2**34)
    end = start + width
    return grid, TailWindow(start, end), max(end, math.floor(grid.max_lambda * end)) + 1


class TestBlockLevels:
    """_range_reduce answers each sparse-table level's queries as one
    contiguous run, which holds because along one lambda's blocks lo, hi
    and the level floor(log2(hi - lo)) never decrease."""

    @given(block_walk_cases())
    @settings(max_examples=300, deadline=None)
    def test_blocks_never_step_back(self, case):
        grid, window, length = case
        for lam, ns, lo, hi in _lambda_blocks(grid.values, window, length):
            keep = hi > lo
            lo, hi = lo[keep].tolist(), hi[keep].tolist()
            levels = [(b - a).bit_length() - 1 for a, b in zip(lo, hi)]
            for seq in (lo, hi, levels):
                assert seq == sorted(seq), lam

    def test_decreasing_levels_raise(self):
        values = np.arange(10.0)
        lo, hi = np.array([0, 4]), np.array([3, 6])  # lengths 4, then 3
        with pytest.raises(ValueError, match="nondecreasing"):
            _range_reduce(values, lo, hi, np.maximum)

    def test_block_lengths_can_shrink_below_one(self):
        # For lambda < 1 the lengths n - floor(lambda * n) can drop by one,
        # here within one level; a drop across a power of two would raise.
        lam = 0.9999999906867743
        lengths = [n - math.floor(lam * n) for n in range(536870916, 536870919)]
        assert lengths == [6, 6, 5]


class TestSlowOscillation:
    def test_constant_sequence_is_exactly_one(self):
        u = [L(5.0)] * 200
        assert slow_oscillation_estimate(u, window=TailWindow(10, 90)) == 1.0

    def test_oscillating_sequence_pins_at_four(self):
        u = generate("ex2", 2000)
        grid = LambdaGrid.of([2.0, 1.5, 1.0625])
        curve = slow_oscillation_curve(u, grid, TailWindow(100, 1000))
        for lam, val in curve.items():
            assert val == pytest.approx(4.0, rel=1e-12)

    def test_linear_growth_flattens(self):
        u = linear(10_200)
        grid = LambdaGrid.default()
        curve = slow_oscillation_curve(
            u, LambdaGrid.of([1.0 + 2.0**-6]), TailWindow(1000, 10_000)
        )
        assert curve[1.0 + 2.0**-6] <= 1.016
        est = slow_oscillation_estimate(
            u, LambdaGrid.of([1.0 + 2.0**-6, 1.125]), TailWindow(1000, 5000)
        )
        assert est <= 1.016

    def test_empty_blocks_skip_lambda(self):
        u = [L(1.0)] * 5
        grid = LambdaGrid.of([1.01])
        assert slow_oscillation_curve(u, grid, TailWindow(1, 3)) == {}
        with pytest.raises(ValueError):
            slow_oscillation_estimate(u, grid, TailWindow(1, 3))

    def test_backward_branch(self):
        u = generate("ex2", 500)
        est = slow_oscillation_estimate(
            u, LambdaGrid.of([0.5, 0.9375]), TailWindow(50, 400), backward=True
        )
        assert est == pytest.approx(4.0, rel=1e-12)

    def test_out_of_bounds_lambda_raises(self):
        u = [L(1.0)] * 100
        with pytest.raises(ValueError):
            slow_oscillation_curve(u, LambdaGrid.of([2.0]), TailWindow(10, 60))

    def test_out_of_range_error_is_shared(self):
        # One block walk raises for every per-lambda curve and for SVA+.
        x, w = np.zeros(10), WeightSequence.ones(10)
        grid, win = LambdaGrid.of([0.5, 1.5, 2.0]), TailWindow(5, 9)
        expect = "lambda index floor(2.0 * 9) = 18 exceeds the materialized sequence length 10"
        calls = [
            lambda: slow_oscillation_curve(x, grid, win),
            lambda: tauber_condition_curve(x, w, grid, win, side=1),
            lambda: sva_plus_estimate(w, grid, win),
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == expect


class TestConditionEstimates:
    def test_constant_sequence_is_exactly_one(self):
        u = [L(2.0)] * 300
        w = WeightSequence.ones(300)
        win = TailWindow(10, 140)
        assert tauber_con1_estimate(u, w, window=win) == 1.0
        assert tauber_con2_estimate(u, w, window=win) == 1.0

    def test_oscillating_sequence_stays_near_two(self):
        u = generate("ex2", 20_000)
        w = WeightSequence.ones(20_001)
        win = TailWindow(1000, 10_000)
        assert 1.9 <= tauber_con1_estimate(u, w, window=win) <= 2.1
        assert 1.9 <= tauber_con2_estimate(u, w, window=win) <= 2.1

    def test_exp_decay_settles_to_one(self):
        u = generate("exp-decay", 20_000)
        w = WeightSequence.ones(20_001)
        early = TailWindow(200, 1000)
        late = TailWindow(2000, 10_000)
        c1_early = tauber_con1_estimate(u, w, window=early)
        c1_late = tauber_con1_estimate(u, w, window=late)
        assert c1_late < c1_early
        assert c1_late <= 1.001
        assert tauber_con2_estimate(u, w, window=late) <= 1.001

    def test_linear_growth_settles(self):
        u = linear(20_000)
        w = WeightSequence.ones(20_001)
        est = tauber_con2_estimate(u, w, window=TailWindow(1000, 10_000))
        assert est <= 1.02

    def test_degenerate_weights_raise(self):
        p = np.concatenate([[1.0], np.zeros(199)])
        u = [L(2.0)] * 200
        with pytest.raises(ValueError):
            tauber_con1_estimate(
                u, WeightSequence(p), LambdaGrid.of([1.5]), TailWindow(10, 100)
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        logs = rng.normal(0, 2.0, size=2000)
        w = WeightSequence(rng.uniform(0.2, 2.0, size=2000))
        win = TailWindow(100, 900)
        grid = LambdaGrid.default()
        for scale in (math.exp(5.0), math.exp(-5.0)):
            u1 = [LogReal.from_log(float(lv)) for lv in logs]
            u2 = [LogReal.from_log(float(lv + math.log(scale))) for lv in logs]
            for fn in (tauber_con1_estimate, tauber_con2_estimate):
                e1, e2 = fn(u1, w, grid, win), fn(u2, w, grid, win)
                assert math.log(e1) == pytest.approx(math.log(e2), abs=1e-12)
            s1 = slow_oscillation_estimate(u1, grid, win)
            s2 = slow_oscillation_estimate(u2, grid, win)
            assert math.log(s1) == pytest.approx(math.log(s2), abs=1e-12)


class TestLandauEstimates:
    def test_constant(self):
        bound, vanish = landau_estimates([L(4.0)] * 100, TailWindow(1, 99))
        assert bound == 1.0
        assert vanish

    def test_linear_growth_bounded_by_e(self):
        bound, vanish = landau_estimates(linear(100), TailWindow(1, 100))
        assert bound == pytest.approx((101 / 100) ** 100, rel=1e-9)
        assert bound < math.e
        assert not vanish

    def test_oscillating_blows_up(self):
        u = generate("ex2", 200)
        bound, vanish = landau_estimates(u, TailWindow(1, 100))
        assert bound == pytest.approx(4.0**100, rel=1e-9)
        assert not vanish
        # Far enough out the auxiliary sequence overflows: reported as inf.
        u_big = generate("ex2", 2000)
        bound_big, _ = landau_estimates(u_big, TailWindow(1, 2000))
        assert math.isinf(bound_big)

    def test_window_must_start_past_zero(self):
        with pytest.raises(ValueError):
            landau_estimates([L(1.0)] * 10, TailWindow(0, 9))

    def test_saturates_only_where_exp_overflows(self):
        x = np.array([0.0, 709.5, 709.5, 1e6])
        bound, _ = landau_estimates(x, TailWindow(1, 1))
        assert bound == math.exp(709.5)
        bound, _ = landau_estimates(x, TailWindow(1, 3))
        assert bound == math.inf


@st.composite
def landau_cases(draw):
    """Log sequences with every |x| well below 709 (so no estimate
    saturates), a grid on both branches and a window in the usable range.
    'harmonic' (x_k = a H_k) makes the link nearly tight."""
    kind = draw(st.sampled_from(["harmonic", "bounded-steps", "walk", "small-int"]))
    length = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(1.0, length)
    if kind == "harmonic":
        steps = draw(st.floats(0.1, 5.0)) / k
    elif kind == "bounded-steps":
        steps = rng.uniform(-1.0, 1.0, length - 1) * draw(st.floats(0.1, 5.0)) / k
    elif kind == "walk":
        steps = rng.normal(0.0, 1.0, length - 1)
    else:
        steps = rng.integers(-2, 3, length - 1).astype(float)
    x = np.cumsum(np.concatenate(([rng.normal()], steps)))
    below = draw(st.lists(_lambdas_below, min_size=1, max_size=4, unique=True))
    above = draw(st.lists(_lambdas_above, min_size=1, max_size=4, unique=True))
    grid = LambdaGrid.of(below + above)
    bound = usable_end(length, grid)
    start = draw(st.integers(0, bound))
    return x, grid, TailWindow(start, draw(st.integers(start, bound)))


class TestLemmaHierarchy:
    def test_bounded_ratio_power_controls_slow_oscillation(self):
        # If |(u_n/u_{n-1})^n|* stays under H, in-block ratios stay under
        # H^(lambda - 1); checked for the finest grid lambda.
        rng = np.random.default_rng(77)
        H = 3.0
        lam = 1.0 + 2.0**-6
        n_len = 2100
        window = TailWindow(100, 1000)
        for _ in range(50):
            theta = rng.uniform(-1.0, 1.0, size=n_len)
            steps = np.zeros(n_len)
            steps[1:] = theta[1:] * math.log(H) / np.arange(1, n_len)
            logs = np.cumsum(steps) + rng.normal()
            u = [LogReal.from_log(float(lv)) for lv in logs]
            bound, _ = landau_estimates(u, TailWindow(1, n_len - 1))
            assert bound <= H * (1 + 1e-12)
            curve = slow_oscillation_curve(u, LambdaGrid.of([lam]), window)
            assert curve[lam] <= H ** (lam - 1.0) * (1 + 1e-12)

    @given(landau_cases())
    @settings(max_examples=200, deadline=None)
    def test_landau_bound_controls_slow_oscillation(self, case):
        """ln slow_osc(lambda) <= L |ln lambda| on both branches, with
        L = max k |x_k - x_{k-1}| over the span the blocks cover.

        In exact arithmetic, for m in n's block, |x_m - x_n| <= L sum 1/k
        over the k between them, <= L ln(m/n) (lambda > 1) or L ln(n/m)
        (lambda < 1), and m/n <= lambda or n/m < 1/lambda.

        Slack, with u = 2^-53 and EPS = 2u: floor(fl(lambda n)) can
        exceed lambda n when the product rounds up to an integer, so m/n
        <= lambda (1 + u) and the exact bound is L (|ln lambda| + u). The
        curve value is fl(exp(fl(x_m - x_n))) (the block extrema are
        exact), so its math.log is at most d (1 + 4u) + 3u for the exact
        deviation d, counting u for the subtraction and an ulp each for
        exp and log. The bound computed below, fl(L^ fl(|log lambda|))
        with L^ = fl(k fl(|x_k - x_{k-1}|)), is at least
        L |ln lambda| (1 - 6u). Together: log(value) <=
        bound (1 + 6 EPS) + L^ EPS + 2 EPS, which the test loosens to
        8 EPS in the relative term.
        """
        x, grid, window = case
        ns = np.arange(window.start_index, window.end_index + 1)
        eps = np.finfo(float).eps
        checked = 0
        for backward in (False, True):
            curve = slow_oscillation_curve(x, grid, window, backward=backward)
            for lam, value in curve.items():
                lns = np.floor(lam * ns).astype(np.int64)
                lo, hi = (lns, ns) if backward else (ns, lns)
                keep = hi > lo
                k = np.arange(lo[keep].min() + 1, hi[keep].max() + 1)
                L = float(np.max(k * np.abs(x[k] - x[k - 1])))
                bound = L * abs(math.log(lam))
                assert math.log(value) <= bound * (1 + 8 * eps) + (L + 2) * eps, (
                    backward, lam, math.log(value), bound,
                )
                checked += 1
        assert checked or window.end_index == 0


class TestRecoverabilityReport:
    def test_constant_all_pass(self):
        u = [L(3.0)] * 400
        rep = recoverability_report(u, WeightSequence.ones(400))
        assert rep.gbar_verdict.passed
        assert rep.con1_estimate == 1.0
        assert rep.con2_estimate == 1.0
        assert rep.slow_osc_estimate == 1.0
        assert rep.slow_osc_backward_estimate == 1.0
        assert rep.landau_bound_estimate == 1.0
        assert rep.landau_vanish
        assert rep.recovery_verdict

    def test_exp_decay_recovers(self):
        u = generate("exp-decay", 20_000)
        rep = recoverability_report(
            u,
            WeightSequence.ones(20_001),
            window=TailWindow(2000, 10_000),
            thresholds=ReportThresholds(theta=1.05, gbar_tol=MTolerance(1.01)),
        )
        assert rep.gbar_verdict.passed
        assert rep.con1_estimate <= 1.05
        assert rep.recovery_verdict

    def test_alternating_blowup_is_summable_but_not_recoverable(self):
        u = generate("ex1", 100_000)
        rep = recoverability_report(
            u,
            WeightSequence.harmonic(100_001),
            window=TailWindow(20_000, 50_000),
            thresholds=ReportThresholds(theta=1.05, gbar_tol=MTolerance(1.2)),
        )
        assert rep.gbar_verdict.passed
        assert math.isinf(rep.con1_estimate)
        assert math.isinf(rep.con2_estimate)
        assert not rep.recovery_verdict

    def test_estimates_at_least_one(self):
        rng = np.random.default_rng(5)
        u = [LogReal.from_log(float(lv)) for lv in rng.normal(0, 1, size=600)]
        rep = recoverability_report(u, WeightSequence.ones(600))
        for est in (
            rep.con1_estimate,
            rep.con2_estimate,
            rep.slow_osc_estimate,
            rep.slow_osc_backward_estimate,
            rep.landau_bound_estimate,
        ):
            assert est >= 1.0

    def test_estimate_defaults_use_the_report_window(self):
        x = generate_array("exp-decay", 999)
        w = WeightSequence.ones(x.size)
        rep = recoverability_report(x, w)
        assert tauber_con1_estimate(x, w) == rep.con1_estimate
        assert tauber_con2_estimate(x, w) == rep.con2_estimate
        assert slow_oscillation_estimate(x) == rep.slow_osc_estimate
        assert slow_oscillation_estimate(x, backward=True) == rep.slow_osc_backward_estimate
        assert sva_plus_estimate(w).window == rep.window

    def test_default_window_respects_grid(self):
        win = default_report_window(101, LambdaGrid.default())
        assert (win.start_index, win.end_index) == (25, 50)
        win2 = default_report_window(101, LambdaGrid.of([0.5]))
        assert win2.end_index == 100

    def test_report_carries_curves(self):
        u = generate("ex2", 800)
        rep = recoverability_report(u, WeightSequence.ones(801))
        assert set(rep.curves) == {
            "con1",
            "con2",
            "slow_osc_forward",
            "slow_osc_backward",
        }
        assert all(v >= 1.0 for v in rep.curves["con1"].values())


class TestNecessityConsistency:
    def test_convergent_plus_sva_weights_drive_conditions_down(self):
        # Star-convergent inputs with unit weights: condition estimates
        # shrink toward 1 as the window moves out.
        rng = np.random.default_rng(13)
        n_len = 20_001
        w = WeightSequence.ones(n_len)
        for _ in range(5):
            c = float(rng.uniform(-0.5, 0.5))
            u = [LogReal.from_log(c / (n + 1.0)) for n in range(n_len)]
            early = tauber_con1_estimate(u, w, window=TailWindow(200, 1000))
            late = tauber_con1_estimate(u, w, window=TailWindow(2000, 10_000))
            assert late <= early
            assert late <= 1.01
