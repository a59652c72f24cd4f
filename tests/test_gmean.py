import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber.mcore import LogReal, MTolerance, TailWindow, mdist
from gmtauber.weights import WeightSequence
from gmtauber.gmean import (
    decomposition_identity_check,
    gbar_limit_estimate,
    transform_log_values,
    weighted_geo_means,
)
from gmtauber.generators import generate

from support import decomposition_identity_oracle


def L(x: float) -> LogReal:
    return LogReal.of(x)


def direct_mean_log(values: list[float], p: list[float], n: int) -> float:
    """Small-case oracle: plain-float products, no prefix machinery."""
    num = math.fsum(p[k] * math.log(values[k]) for k in range(n + 1))
    return num / math.fsum(p[: n + 1])


class TestWeightedGeoMeans:
    def test_constant_sequence(self):
        w = WeightSequence([2.0, 0.3, 1.0, 4.0])
        means = weighted_geo_means([L(5.0)] * 4, w)
        for m in means:
            assert m.value == pytest.approx(5.0, rel=1e-14)

    def test_balanced_pair(self):
        means = weighted_geo_means([L(2.0), L(0.5)], WeightSequence([1.0, 1.0]))
        assert means[1].log_value == 0.0

    def test_first_mean_is_first_element(self):
        means = weighted_geo_means([L(7.0), L(2.0)], WeightSequence([3.0, 1.0]))
        assert means[0].value == pytest.approx(7.0, rel=1e-14)

    def test_oscillating_with_alternating_weights(self):
        # Heavier weight on the 2s pulls the mean to 2^(1/3).
        u = generate("ex2", 4000)
        w = WeightSequence.alternating(4001, 2.0, 1.0)
        means = weighted_geo_means(u, w)
        assert means[1].value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        # Odd-index means are exact; even-index ones drift in at O(1/n).
        assert means[3999].value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)
        assert means[4000].value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-3)

    def test_alternating_blowup_with_harmonic_weights(self):
        # p_k log u_k = (-1)^k exactly, so P_n log w_n alternates in {0, 1}.
        u = generate("ex1", 3000)
        w = WeightSequence.harmonic(3001)
        means = weighted_geo_means(u, w)
        for n in (0, 1, 10, 999, 3000):
            r = means[n].log_value * w.P[n]
            assert min(abs(r), abs(r - 1.0)) < 1e-11

    def test_zero_weight_indices_are_ignored(self):
        u = [L(2.0), L(1e6), L(4.0)]
        w = WeightSequence([1.0, 0.0, 1.0])
        means = weighted_geo_means(u, w)
        assert means[1].value == pytest.approx(2.0, rel=1e-14)
        assert means[2].value == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(11)
        values = list(np.exp(rng.uniform(-2, 2, size=30)))
        p = [0.7] + list(rng.uniform(0.0, 3.0, size=29))
        means = weighted_geo_means([L(v) for v in values], WeightSequence(p))
        for n in (0, 7, 29):
            assert means[n].log_value == pytest.approx(
                direct_mean_log(values, p, n), abs=1e-12
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_geo_means([], WeightSequence([1.0]))
        with pytest.raises(ValueError):
            weighted_geo_means([L(1.0), L(2.0)], WeightSequence([1.0]))


class TestGbarLimitEstimate:
    def test_constant(self):
        v = gbar_limit_estimate([L(3.0)] * 100, WeightSequence.ones(100))
        assert v.passed
        assert v.limit.value == pytest.approx(3.0, rel=1e-12)

    def test_alternating_blowup_recovered_by_harmonic_weights(self):
        # log w_n decays like 1/log n, so the tolerance must match the
        # window: 1/P_10000 ~ 0.102 asks for tol above exp(0.102).
        u = generate("ex1", 20_000)
        v = gbar_limit_estimate(
            u, WeightSequence.harmonic(20_001), MTolerance(1.15), TailWindow(10_000, 20_000)
        )
        assert v.passed
        assert mdist(v.limit, L(1.0)).value < 1.15

    def test_alternating_blowup_not_recovered_by_unit_weights(self):
        u = generate("ex1", 20_000)
        v = gbar_limit_estimate(
            u, WeightSequence.ones(20_001), MTolerance(1.1), TailWindow(10_000, 20_000)
        )
        assert not v.passed


class TestDecompositionIdentity:
    def test_constant_sequence_residual_is_zero(self):
        u = [L(4.0)] * 30
        res = decomposition_identity_check(u, WeightSequence.ones(30), 2.0, 10)
        assert res.log_value <= 1e-12

    def test_oscillating_below_one_branch(self):
        u = generate("ex2", 50)
        res = decomposition_identity_check(u, WeightSequence.ones(51), 0.5, 20)
        assert res.value <= 1 + 1e-10

    def test_matches_independent_evaluation(self):
        # Recompute both sides from scratch in plain floats for one case.
        rng = np.random.default_rng(5)
        values = list(np.exp(rng.uniform(-1, 1, size=25)))
        p = list(rng.uniform(0.2, 2.0, size=25))
        u = [L(v) for v in values]
        w = WeightSequence(p)
        lam, n = 2.0, 10
        ln = math.floor(lam * n)
        P = [math.fsum(p[: k + 1]) for k in range(25)]
        wlog = [direct_mean_log(values, p, k) for k in range(25)]
        lhs = math.log(values[n]) - wlog[n]
        block = math.fsum(
            p[k] * (math.log(values[k]) - math.log(values[n]))
            for k in range(n + 1, ln + 1)
        )
        rhs = (P[ln] / (P[ln] - P[n])) * (wlog[ln] - wlog[n]) - block / (P[ln] - P[n])
        assert lhs == pytest.approx(rhs, abs=1e-12)
        res = decomposition_identity_check(u, w, lam, n)
        assert res.log_value == pytest.approx(abs(lhs - rhs), abs=1e-12)

    def test_randomized_both_branches(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lam = float(rng.uniform(1.05, 3.0)) if rng.integers(2) else float(
                rng.uniform(0.3, 0.95)
            )
            n = int(rng.integers(5, 60))
            length = max(n, math.floor(lam * n)) + 1
            u = [LogReal.from_log(float(lv)) for lv in rng.normal(0, 2, size=length)]
            p = rng.uniform(0.1, 2.0, size=length)
            res = decomposition_identity_check(u, WeightSequence(p), lam, n)
            assert res.value <= 1 + 1e-10

    def test_precondition_on_partial_sums(self):
        # All weights beyond n are zero: the block never moves P.
        p = np.concatenate([[1.0], np.ones(10), np.zeros(30)])
        u = [L(2.0)] * 41
        with pytest.raises(ValueError):
            decomposition_identity_check(u, WeightSequence(p), 2.0, 15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.floats(1.01, 3.0), st.floats(0.2, 0.99)),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_one_branch_matches_both_written_out(self, lam, n, seed, zeros):
        # Bit for bit, on both lambda sides; some weights are zero, so
        # that blocks with equal logs and stalled partial sums occur.
        rng = np.random.default_rng(seed)
        length = max(n, math.floor(lam * n)) + 1
        logs = rng.choice([-1.5, 0.0, 0.25, 2.0], size=length) + rng.normal(0, 1e-3, length)
        p = rng.uniform(0.1, 2.0, size=length)
        if zeros:
            p[1:][rng.random(length - 1) < 0.5] = 0.0
        u = [LogReal(v) for v in logs.tolist()]
        w = WeightSequence(p)
        try:
            expected = decomposition_identity_oracle(u, w, lam, n).log_value.hex()
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                decomposition_identity_check(u, w, lam, n)
            assert str(got.value) == str(exc)
            return
        assert decomposition_identity_check(u, w, lam, n).log_value.hex() == expected
        assert decomposition_identity_check(logs, w, lam, n).log_value.hex() == expected

    @pytest.mark.parametrize(
        "lam, n, text",
        [
            (2.0, 15, "precondition P_lambda_n > P_n violated at (lambda=2.0, n=15)"),
            (0.5, 30, "precondition P_n > P_lambda_n violated at (lambda=0.5, n=30)"),
        ],
    )
    def test_precondition_texts(self, lam, n, text):
        # p is zero from index 11 on, so the block (15, 30] of either
        # case leaves the partial sums where they were.
        p = np.concatenate([np.ones(11), np.zeros(30)])
        u = [L(2.0)] * 41
        with pytest.raises(ValueError) as got:
            decomposition_identity_check(u, WeightSequence(p), lam, n)
        assert str(got.value) == text
        with pytest.raises(ValueError) as got:
            decomposition_identity_oracle(u, WeightSequence(p), lam, n)
        assert str(got.value) == text

    def test_lambda_one_rejected(self):
        with pytest.raises(ValueError):
            decomposition_identity_check([L(1.0)] * 5, WeightSequence.ones(5), 1.0, 2)

    def test_needs_materialized_sequence(self):
        with pytest.raises(IndexError):
            decomposition_identity_check([L(1.0)] * 10, WeightSequence.ones(10), 2.0, 8)


class TestRegularity:
    """Sequences converging to a keep their mean limit at a (spot check;
    the full 100 x 5 sweep lives in the acceptance suite)."""

    def test_small_sweep(self):
        rng = np.random.default_rng(99)
        n_len = 1500
        window = TailWindow.last_half(n_len)
        for _ in range(10):
            a = float(np.exp(rng.uniform(-2, 2)))
            c = float(rng.uniform(-0.008, 0.008))
            q = float(rng.uniform(0.3, 0.8))
            seq = [LogReal.of(a * math.exp(c * q**n)) for n in range(n_len)]
            w = WeightSequence(rng.uniform(0.5, 2.0, size=n_len))
            v = gbar_limit_estimate(seq, w, MTolerance(1.01), window)
            assert v.passed
            assert mdist(v.limit, LogReal.of(a)).value < 1.01
