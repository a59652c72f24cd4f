import math

import numpy as np
import pytest

from gmtauber.mcore import MTolerance, TailWindow
from gmtauber.weights import WeightSequence
from gmtauber.tauber import ReportThresholds
from gmtauber.ifn import (
    ADD_IDENTITY,
    MUL_IDENTITY,
    AdditionLimitOutcome,
    EpsilonIFN,
    IFN,
    PartialOrder,
    add,
    addition_limit_check,
    gp_otimes_verdict,
    ifn_tauber_report,
    ifwa_means,
    ifwg_means,
    in_addition_region,
    multiply,
    np_oplus_verdict,
    oplus_convergence_check,
    oplus_sandwich_holds,
    otimes_convergence_check,
    otimes_sandwich_holds,
    partial_order_cmp,
    power,
    scalar_mul,
    subtract,
    total_order_cmp,
    zhangxu_limit_check,
    zhangxu_limit_check_sampled,
)
from gmtauber.generators import generate

from support import fold_ifwa, fold_ifwg, random_fold_sequence


def drifting(n_max: int) -> list[IFN]:
    # Climbs toward (1/2, 1/3) along the constant-score line.
    return generate("nonunique", n_max)


def random_ifn(rng) -> IFN:
    mu = rng.uniform(0.0, 1.0)
    nu = (1.0 - mu) * rng.uniform(0.0, 1.0)
    return IFN(mu, nu)


class TestIFNConstruction:
    def test_accessors(self):
        a = IFN(0.5, 0.3)
        assert a.score == pytest.approx(0.2)
        assert a.accuracy == pytest.approx(0.8)
        assert a.hesitancy == pytest.approx(0.2)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            IFN(0.7, 0.5)
        with pytest.raises(ValueError):
            IFN(-0.1, 0.5)
        with pytest.raises(ValueError):
            IFN(0.5, math.nan)

    def test_clamps_rounding_overshoot(self):
        a = IFN(0.6, 0.4 + 5e-13)
        assert a.mu + a.nu <= 1.0
        b = IFN(-5e-13, 0.5)
        assert b.mu == 0.0

    def test_boundary_values(self):
        assert IFN(1.0, 0.0).hesitancy == 0.0
        assert IFN(0.0, 1.0).score == -1.0


class TestTotalOrder:
    def test_score_decides(self):
        assert total_order_cmp(IFN(0.5, 0.3), IFN(0.4, 0.1)) == -1

    def test_equal(self):
        assert total_order_cmp(IFN(0.5, 0.3), IFN(0.5, 0.3)) == 0

    def test_accuracy_breaks_score_ties(self):
        # 0.6 - 0.4 and 0.5 - 0.3 are a float hair apart; they must tie
        # on score and fall through to the accuracy comparison.
        assert total_order_cmp(IFN(0.6, 0.4), IFN(0.5, 0.3)) == 1

    def test_totality_and_consistency_with_partial(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            a, b = random_ifn(rng), random_ifn(rng)
            c = total_order_cmp(a, b)
            assert c in (-1, 0, 1)
            rel = partial_order_cmp(a, b)
            if rel is PartialOrder.LESS_L:
                assert c == -1
            elif rel is PartialOrder.GREATER_L:
                assert c == 1
            elif rel is PartialOrder.EQUAL:
                assert c == 0


class TestPartialOrder:
    def test_strict_dominance(self):
        assert partial_order_cmp(IFN(0.6, 0.2), IFN(0.5, 0.3)) is PartialOrder.GREATER_L

    def test_equal(self):
        assert partial_order_cmp(IFN(0.5, 0.3), IFN(0.5, 0.3)) is PartialOrder.EQUAL

    def test_incomparable(self):
        assert (
            partial_order_cmp(IFN(0.6, 0.4), IFN(0.5, 0.3))
            is PartialOrder.INCOMPARABLE
        )


class TestArithmetic:
    def test_add(self):
        c = add(IFN(0.5, 0.3), IFN(0.2, 0.4))
        assert c.mu == pytest.approx(0.6, abs=1e-15)
        assert c.nu == pytest.approx(0.12, abs=1e-15)

    def test_add_identity_and_absorbing(self):
        a = IFN(0.4, 0.25)
        assert add(a, ADD_IDENTITY) == a
        assert add(MUL_IDENTITY, a) == IFN(1.0, 0.0)

    def test_add_commutes(self):
        a, b = IFN(0.3, 0.5), IFN(0.6, 0.1)
        assert add(a, b) == add(b, a)

    def test_subtract_quotient_branch(self):
        d = subtract(IFN(0.5, 0.2), IFN(0.2, 0.5))
        assert d.mu == pytest.approx(0.375, abs=1e-15)
        assert d.nu == pytest.approx(0.4, abs=1e-15)

    def test_subtract_guard_failure_falls_back(self):
        # nu1*pi2 = 0.3*0.4 > pi1*nu2 = 0.2*0.4
        assert subtract(IFN(0.5, 0.3), IFN(0.2, 0.4)) == ADD_IDENTITY

    def test_subtract_self(self):
        a = IFN(0.5, 0.3)
        assert subtract(a, a) == ADD_IDENTITY

    def test_multiply(self):
        c = multiply(IFN(0.5, 0.3), IFN(0.2, 0.4))
        assert c.mu == pytest.approx(0.1, abs=1e-15)
        assert c.nu == pytest.approx(0.58, abs=1e-15)

    def test_multiply_identity_and_absorbing(self):
        a = IFN(0.4, 0.25)
        assert multiply(a, MUL_IDENTITY) == a
        assert multiply(ADD_IDENTITY, a) == IFN(0.0, 1.0)

    def test_scalar_mul(self):
        c = scalar_mul(2.0, IFN(0.5, 0.3))
        assert c.mu == pytest.approx(0.75, abs=1e-15)
        assert c.nu == pytest.approx(0.09, abs=1e-15)
        assert scalar_mul(1.0, IFN(0.5, 0.3)) == IFN(0.5, 0.3)
        assert scalar_mul(0.0, IFN(0.5, 0.3)) == ADD_IDENTITY

    def test_scalar_mul_preconditions(self):
        with pytest.raises(ValueError):
            scalar_mul(2.0, IFN(1.0, 0.0))
        with pytest.raises(ValueError):
            scalar_mul(2.0, IFN(0.5, 0.0))
        with pytest.raises(ValueError):
            scalar_mul(-1.0, IFN(0.5, 0.3))

    def test_power(self):
        c = power(IFN(0.5, 0.3), 2.0)
        assert c.mu == pytest.approx(0.25, abs=1e-15)
        assert c.nu == pytest.approx(0.51, abs=1e-15)
        assert power(IFN(0.5, 0.3), 1.0) == IFN(0.5, 0.3)
        assert power(IFN(0.5, 0.3), 0.0) == MUL_IDENTITY

    def test_power_preconditions(self):
        with pytest.raises(ValueError):
            power(IFN(0.0, 0.5), 2.0)
        with pytest.raises(ValueError):
            power(IFN(0.5, 1.0), 2.0)

    def test_closure_randomized(self):
        # Every operation must land back inside the simplex; the IFN
        # constructor enforces that, so surviving the loop is the test.
        rng = np.random.default_rng(2024)
        for _ in range(100_000):
            a, b = random_ifn(rng), random_ifn(rng)
            c = rng.uniform(0.0, 6.0)
            add(a, b)
            subtract(a, b)
            multiply(a, b)
            if a.mu < 1.0 and a.nu > 0.0:
                scalar_mul(c, a)
            if a.mu > 0.0 and a.nu < 1.0:
                power(a, c)


class TestEpsilonIFN:
    def test_views(self):
        e = EpsilonIFN(0.05)
        assert e.additive_form == IFN(0.05, 0.95)
        assert e.multiplicative_form == IFN(0.95, 0.05)
        assert (
            partial_order_cmp(e.additive_form, IFN(0.0, 1.0)) is PartialOrder.GREATER_L
        )
        assert (
            partial_order_cmp(e.multiplicative_form, IFN(1.0, 0.0))
            is PartialOrder.LESS_L
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            EpsilonIFN(bad)


class TestAdditionRegion:
    def test_constructive_membership(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            xi = random_ifn(rng)
            if xi.nu == 0.0:
                continue
            beta = random_ifn(rng)
            a = add(xi, beta)
            assert in_addition_region(a, xi)

    def test_self_membership(self):
        xi = IFN(0.4, 0.3)
        assert in_addition_region(xi, xi)

    def test_drifting_sequence_never_in_region(self):
        xi1 = IFN(0.5, 1.0 / 3.0)
        for a in drifting(60):
            assert not in_addition_region(a, xi1)

    def test_zero_nu_candidate_rejected(self):
        assert not in_addition_region(IFN(0.6, 0.0), IFN(0.5, 0.0))


class TestAdditionLimitCheck:
    def test_not_applicable_for_drifting_sequence(self):
        seq = drifting(200)
        out = addition_limit_check(seq, IFN(0.5, 1.0 / 3.0), EpsilonIFN(0.1))
        assert out is AdditionLimitOutcome.NOT_APPLICABLE

    def test_holds_for_constant_decomposable(self):
        xi, beta0 = IFN(0.4, 0.3), IFN(0.05, 0.9)
        target = add(xi, beta0)
        seq = [target] * 50
        assert (
            addition_limit_check(seq, xi, EpsilonIFN(0.2))
            is AdditionLimitOutcome.HOLDS
        )

    def test_holds_for_shrinking_tail(self):
        xi = IFN(0.4, 0.3)
        seq = [
            add(xi, IFN(0.2 / (n + 2.0), 1.0 - 0.3 / (n + 2.0))) for n in range(600)
        ]
        out = addition_limit_check(seq, xi, EpsilonIFN(0.01), TailWindow(300, 599))
        assert out is AdditionLimitOutcome.HOLDS

    def test_fails_when_offset_stays_large(self):
        xi, beta0 = IFN(0.4, 0.3), IFN(0.3, 0.5)
        seq = [add(xi, beta0)] * 50
        assert (
            addition_limit_check(seq, xi, EpsilonIFN(0.01))
            is AdditionLimitOutcome.FAILS
        )


class TestZhangXuCheck:
    def test_drifting_sequence_accepts_both_limits(self):
        seq = drifting(300)
        win = TailWindow(100, 300)
        for xi in (IFN(0.5, 1.0 / 3.0), IFN(7.0 / 12.0, 5.0 / 12.0)):
            assert zhangxu_limit_check(seq, xi, IFN(0.05, 0.9), win)
            assert zhangxu_limit_check_sampled(seq, xi, win)

    def test_constant_sequence_is_its_own_limit(self):
        seq = [IFN(0.4, 0.2)] * 20
        assert zhangxu_limit_check(seq, IFN(0.4, 0.2), IFN(0.01, 0.98))

    def test_far_candidate_rejected(self):
        seq = [IFN(0.5, 0.3)] * 20
        assert not zhangxu_limit_check(seq, IFN(0.9, 0.05), IFN(1e-6, 1 - 1e-6))

    def test_eps_zero_one_rejected(self):
        with pytest.raises(ValueError):
            zhangxu_limit_check([IFN(0.5, 0.3)], IFN(0.5, 0.3), IFN(0.0, 1.0))


class TestComponentConvergence:
    def test_drifting_sequence_has_unique_limit(self):
        seq = drifting(2000)
        win = TailWindow(1000, 2000)
        assert oplus_convergence_check(seq, IFN(0.5, 1.0 / 3.0), 1e-3, win)
        assert not oplus_convergence_check(seq, IFN(7.0 / 12.0, 5.0 / 12.0), 1e-3, win)
        assert otimes_convergence_check(seq, IFN(0.5, 1.0 / 3.0), 1e-3, win)
        assert not otimes_convergence_check(seq, IFN(7.0 / 12.0, 5.0 / 12.0), 1e-3, win)

    def test_constant_sequence(self):
        seq = [IFN(0.3, 0.4)] * 40
        assert oplus_convergence_check(seq, IFN(0.3, 0.4), 1e-9)
        assert otimes_convergence_check(seq, IFN(0.3, 0.4), 1e-9)

    def test_preconditions(self):
        seq = [IFN(0.3, 0.4)] * 10
        with pytest.raises(ValueError):
            oplus_convergence_check(seq, IFN(1.0, 0.0))
        with pytest.raises(ValueError):
            oplus_convergence_check(seq, IFN(0.3, 0.0))
        with pytest.raises(ValueError):
            otimes_convergence_check(seq, IFN(0.0, 0.4))
        with pytest.raises(ValueError):
            otimes_convergence_check(seq, IFN(0.3, 1.0))

    def test_component_and_sandwich_tests_agree(self):
        # Desk-scale equivalence on limits strictly inside the simplex.
        rng = np.random.default_rng(8)
        win = TailWindow(50, 199)
        for _ in range(30):
            mu = rng.uniform(0.15, 0.5)
            nu = rng.uniform(0.15, min(0.5, 0.85 - mu))
            xi = IFN(mu, nu)
            converges = bool(rng.integers(0, 2))
            scale = 1e-5 if converges else 0.05
            seq = [
                IFN(
                    mu + scale * rng.uniform(-1, 1),
                    nu + scale * rng.uniform(-1, 1),
                )
                for _ in range(200)
            ]
            comp_plus = oplus_convergence_check(seq, xi, 1e-3, win)
            comp_times = otimes_convergence_check(seq, xi, 1e-3, win)
            sand_plus = oplus_sandwich_holds(seq, xi, 1e-3, win)
            sand_times = otimes_sandwich_holds(seq, xi, 1e-3, win)
            assert comp_plus == comp_times == converges
            assert sand_plus == sand_times == converges




class TestMeans:
    def test_ifwa_first_pair_exact(self):
        seq = generate("ex3-ifn", 10)
        t = ifwa_means(seq, WeightSequence.ones(11))
        assert t[1].mu == pytest.approx(0.75, abs=1e-13)
        assert t[1].nu == pytest.approx(1.0 / 9.0, abs=1e-13)

    def test_ifwa_constant(self):
        a = IFN(0.3, 0.5)
        t = ifwa_means([a] * 20, WeightSequence.harmonic(20))
        for x in t:
            assert x.mu == pytest.approx(a.mu, abs=1e-13)
            assert x.nu == pytest.approx(a.nu, abs=1e-13)

    def test_ifwa_tail(self):
        seq = generate("ex3-ifn", 1000)
        t = ifwa_means(seq, WeightSequence.ones(1001))
        assert t[-1].mu == pytest.approx(0.75, abs=2e-3)
        assert t[-1].nu == pytest.approx(1.0 / 9.0, abs=2e-3)

    def test_ifwg_first_pair_exact(self):
        seq = generate("ex4-ifn", 10)
        h = ifwg_means(seq, WeightSequence.alternating(11, 1.0, 3.0))
        assert h[1].mu == pytest.approx(1.0 / 27.0, abs=1e-13)
        assert h[1].nu == pytest.approx(7.0 / 8.0, abs=1e-13)

    def test_ifwg_constant(self):
        a = IFN(0.3, 0.5)
        h = ifwg_means([a] * 20, WeightSequence.ones(20))
        for x in h:
            assert x.mu == pytest.approx(a.mu, abs=1e-13)
            assert x.nu == pytest.approx(a.nu, abs=1e-13)

    def test_ifwg_tail(self):
        seq = generate("ex4-ifn", 1000)
        h = ifwg_means(seq, WeightSequence.alternating(1001, 1.0, 3.0))
        assert h[-1].mu == pytest.approx(1.0 / 27.0, abs=2e-3)
        assert h[-1].nu == pytest.approx(7.0 / 8.0, abs=2e-3)

    def test_closed_forms_match_definition_folds(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            seq, p = random_fold_sequence(rng)
            length = len(seq)
            w = WeightSequence(p)
            t = ifwa_means(seq, w)
            h = ifwg_means(seq, w)
            for n in {0, length // 2, length - 1}:
                ot = fold_ifwa(seq, p, n)
                oh = fold_ifwg(seq, p, n)
                assert t[n].mu == pytest.approx(ot.mu, abs=1e-10)
                assert t[n].nu == pytest.approx(ot.nu, abs=1e-10)
                assert h[n].mu == pytest.approx(oh.mu, abs=1e-10)
                assert h[n].nu == pytest.approx(oh.nu, abs=1e-10)

    def test_assumption_violations_fail_loudly(self):
        seq = drifting(10)  # index 0 has nu = 0
        with pytest.raises(ValueError):
            ifwa_means(seq, WeightSequence.ones(11))
        bad = [IFN(0.5, 0.3), IFN(0.0, 0.7)]
        with pytest.raises(ValueError):
            ifwg_means(bad, WeightSequence.ones(2))


class TestMeanVerdicts:
    def test_additive_mean_recovers_hopping_sequence(self):
        seq = generate("ex3-ifn", 1000)
        w = WeightSequence.ones(1001)
        win = TailWindow(500, 1000)
        xi = IFN(0.75, 1.0 / 9.0)
        v = np_oplus_verdict(seq, w, xi, 1e-3, win)
        assert v.passed
        assert v.limit.mu == pytest.approx(0.75, abs=1e-3)
        assert not oplus_convergence_check(seq, xi, 1e-3, win)

    def test_additive_mean_rejects_wrong_limit(self):
        seq = generate("ex3-ifn", 1000)
        v = np_oplus_verdict(
            seq, WeightSequence.ones(1001), IFN(0.8, 0.1), 1e-3, TailWindow(500, 1000)
        )
        assert not v.passed

    def test_geometric_mean_recovers_hopping_sequence(self):
        seq = generate("ex4-ifn", 1000)
        w = WeightSequence.alternating(1001, 1.0, 3.0)
        win = TailWindow(500, 1000)
        xi = IFN(1.0 / 27.0, 7.0 / 8.0)
        v = gp_otimes_verdict(seq, w, xi, 1e-3, win)
        assert v.passed
        assert not otimes_convergence_check(seq, xi, 1e-3, win)

    def test_constant(self):
        a = IFN(0.6, 0.2)
        v = np_oplus_verdict([a] * 40, WeightSequence.ones(40), a, 1e-9)
        assert v.passed
        assert v.limit.mu == pytest.approx(a.mu, abs=1e-12)


class TestMeanRegularity:
    def test_convergent_sequences_keep_their_limit_under_both_means(self):
        # Windowed component convergence to xi implies the windowed mean
        # verdicts at the same xi, for any admissible weights.
        rng = np.random.default_rng(41)
        n_len = 2000
        window = TailWindow(1000, 1999)
        families = [WeightSequence.ones(n_len), WeightSequence.harmonic(n_len)]
        for _ in range(20):
            mu = rng.uniform(0.2, 0.6)
            nu = rng.uniform(0.2, min(0.6, 0.9 - mu))
            xi = IFN(mu, nu)
            c, q = 2e-4, rng.uniform(0.9, 0.999)
            seq = [
                IFN(
                    mu + c * q**n * rng.uniform(-1, 1),
                    nu + c * q**n * rng.uniform(-1, 1),
                )
                for n in range(n_len)
            ]
            assert oplus_convergence_check(seq, xi, 1e-3, window)
            assert otimes_convergence_check(seq, xi, 1e-3, window)
            for w in families:
                assert np_oplus_verdict(seq, w, xi, 1e-3, window).passed
                assert gp_otimes_verdict(seq, w, xi, 1e-3, window).passed


class TestIFNTauberReport:
    def test_hopping_sequence_is_not_recoverable(self):
        seq = generate("ex3-ifn", 1000)
        rep = ifn_tauber_report(seq, WeightSequence.ones(1001), mode="oplus")
        assert rep.component_labels == ("one_minus_mu", "nu")
        assert not rep.recovery_verdict
        assert rep.components["one_minus_mu"].con1_estimate >= 2.0
        assert rep.components["nu"].con1_estimate >= 2.0

    def test_constant_sequence_recovers(self):
        seq = [IFN(0.4, 0.3)] * 400
        rep = ifn_tauber_report(seq, WeightSequence.ones(400), mode="oplus")
        assert rep.recovery_verdict
        rep2 = ifn_tauber_report(seq, WeightSequence.ones(400), mode="otimes")
        assert rep2.recovery_verdict

    def test_slowly_settling_sequence_recovers(self):
        n_len = 8001
        seq = [
            IFN(
                1.0 - 0.25 * math.exp(1.0 / (n + 1.0)),
                (1.0 / 9.0) * math.exp(1.0 / (n + 1.0)),
            )
            for n in range(n_len)
        ]
        w = WeightSequence.ones(n_len)
        thresholds = ReportThresholds(theta=1.05, gbar_tol=MTolerance(1.01))
        rep = ifn_tauber_report(
            seq, w, window=TailWindow(2000, 4000), mode="oplus", thresholds=thresholds
        )
        assert rep.components["one_minus_mu"].gbar_verdict.passed
        assert rep.components["one_minus_mu"].con1_estimate <= 1.05
        assert rep.components["nu"].con1_estimate <= 1.05
        assert rep.recovery_verdict
        v = np_oplus_verdict(seq, w, IFN(0.75, 1.0 / 9.0), 1e-3, TailWindow(4000, 8000))
        assert v.passed

    def test_mode_validation(self):
        seq = [IFN(0.4, 0.3)] * 50
        with pytest.raises(ValueError):
            ifn_tauber_report(seq, WeightSequence.ones(50), mode="bogus")
        # A malformed pair is reported before the mode.
        with pytest.raises(ValueError, match=r"^IFN components must be finite, got \(nan, 0.3\)$"):
            ifn_tauber_report(
                np.array([[0.4, np.nan], [0.3, 0.3]]), WeightSequence.ones(2), mode="bogus"
            )

    @pytest.mark.parametrize(
        "seq, expect",
        [
            ([], ("cannot average an empty sequence",) * 2
             + ("sequence of length 0 is too short for lambda grid max 2.0",) * 2),
            (np.empty((2, 0)), ("cannot average an empty sequence",) * 2
             + ("sequence of length 0 is too short for lambda grid max 2.0",) * 2),
            ([IFN(0.4, 0.3)] * 4 + [IFN(0.4, 0.0), IFN(0.0, 0.3)], (
                "element 4 = IFN(0.4, 0.0) violates the additive-mean assumption "
                "(needs mu < 1 and nu > 0)",
                "element 5 = IFN(0.0, 0.3) violates the geometric-mean assumption "
                "(needs mu > 0 and nu < 1)",
            ) * 2),
            (np.array([[0.4, 1.0, 0.0], [0.3, 0.0, 1.0]]), (
                "element 1 = IFN(1.0, 0.0) violates the additive-mean assumption "
                "(needs mu < 1 and nu > 0)",
                "element 2 = IFN(0.0, 1.0) violates the geometric-mean assumption "
                "(needs mu > 0 and nu < 1)",
            ) * 2),
        ],
    )
    def test_error_texts_per_mode(self, seq, expect):
        # Means and component report share one oplus-domain path; each
        # side keeps its own message, naming the pair unswapped.
        w = WeightSequence.ones(10)
        calls = [
            lambda: ifwa_means(seq, w),
            lambda: ifwg_means(seq, w),
            lambda: ifn_tauber_report(seq, w, mode="oplus"),
            lambda: ifn_tauber_report(seq, w, mode="otimes"),
        ]
        for call, text in zip(calls, expect, strict=True):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == text
        # A bad mode is reported before the domain.
        with pytest.raises(ValueError, match="^mode must be 'oplus' or 'otimes', got 'bogus'$"):
            ifn_tauber_report(seq, w, mode="bogus")

    def test_assumption_checked_per_mode(self):
        seq = [IFN(0.4, 0.3)] * 50 + [IFN(0.4, 0.0)]
        with pytest.raises(ValueError):
            ifn_tauber_report(seq, WeightSequence.ones(51), mode="oplus")
