"""The IFN layer on (2, N) mu/nu rows: every public entry point gives,
bit for bit, what the object-level oracles in `support` give, on lists
of IFN and on IFNRows views, including pairs on the simplex boundary;
errors carry the same text."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gmtauber import ifn
from gmtauber.generators import generate_array, read_ifn_sequence
from gmtauber.ifn import (
    IFN,
    AdditionLimitOutcome,
    EpsilonIFN,
    IFNRows,
    add,
    addition_limit_check,
    as_rows,
    gp_otimes_verdict,
    ifn_tauber_report,
    in_addition_region,
    ifwa_means,
    ifwg_means,
    mean_verdict,
    multiply,
    np_oplus_verdict,
    oplus_convergence_check,
    oplus_sandwich_holds,
    otimes_convergence_check,
    otimes_sandwich_holds,
    partial_order_cmp,
    power,
    scalar_mul,
    simplex_rows,
    subtract,
    total_order_cmp,
    zhangxu_limit_check,
    zhangxu_limit_check_sampled,
)
from gmtauber.mcore import TailWindow
from gmtauber.weights import LambdaGrid, WeightSequence

import support

# mu + nu = 1.0000000000000006 divides once, and the quotients still sum
# above 1: IFN() of the stored pair would divide again and move it.
RENORMALIZED_PAIR = (0.6, 0.4000000000000006)

SPECIAL_PAIRS = [
    (0.0, 1.0),
    (1.0, 0.0),
    (0.0, 0.0),
    (-0.0, 0.5),
    (0.5, -0.0),
    (-1e-13, 0.5),
    (0.3, -1e-13),
    (1.0, 1e-12),
    RENORMALIZED_PAIR,
]
INVALID_PAIRS = [
    (math.nan, 0.5),
    (0.2, math.inf),
    (-1e-11, 0.5),
    (0.7, 0.5),
    (0.5, 0.5 + 2e-12),
]

unit = st.floats(0.0, 1.0)
interior_pairs = st.tuples(unit, unit).map(lambda p: (p[0], (1.0 - p[0]) * p[1]))
# mu + nu in [1, 1 + 1e-12): the division branch.
boundary_pairs = st.tuples(unit, st.floats(0.0, 9e-13)).map(
    lambda p: (p[0], 1.0 - p[0] + p[1])
)
pairs = st.one_of(interior_pairs, boundary_pairs, st.sampled_from(SPECIAL_PAIRS))
raw_pairs = st.one_of(pairs, st.sampled_from(INVALID_PAIRS))


def _hex(a: IFN) -> tuple[str, str]:
    """The exact pair, with 0.0 and -0.0 told apart."""
    return (float(a.mu).hex(), float(a.nu).hex())


def _outcome(fn, *args):
    """(result, warning texts), or the ValueError text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ValueError as exc:
            return ("ValueError", str(exc))
    if isinstance(result, IFN):
        result = _hex(result)
    elif isinstance(result, (list, IFNRows)):
        result = [_hex(a) for a in result]
    elif hasattr(result, "limit"):  # Verdict
        result = (result.passed, _hex(result.limit), result.window, result.tolerance)
    elif not isinstance(result, bool):
        result = repr(result)  # reports: repr shows every float exactly
    return result, [str(w.message) for w in caught]


def _ifns(raw) -> list[IFN]:
    return [IFN(m, v) for m, v in raw]


def _rows(raw) -> np.ndarray:
    return np.array(raw, dtype=np.float64).T.reshape(2, -1)


def _inputs(raw):
    """The same sequence as IFN objects and as an IFNRows view."""
    return _ifns(raw), IFNRows(simplex_rows(_rows(raw)))


@st.composite
def sequences(draw, min_size=1, max_size=40):
    raw = draw(st.lists(pairs, min_size=min_size, max_size=max_size))
    p = draw(st.lists(st.floats(0.05, 2.0), min_size=len(raw), max_size=len(raw)))
    return raw, WeightSequence(p)


# Sequences that settle around a limit, so that the component test passes
# often enough for the sandwich cross-check to run.
@st.composite
def settling_sequences(draw):
    mu = draw(st.floats(0.05, 0.75))
    nu = draw(st.floats(0.05, 0.85 - mu))
    length = draw(st.integers(2, 40))
    scale = draw(st.sampled_from([1e-7, 1e-4, 9e-4, 1e-3, 2e-3, 0.05]))
    jitter = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                           min_size=length, max_size=length))
    raw = [(mu + scale * a, nu + scale * b) for a, b in jitter]
    tol = draw(st.sampled_from([1e-3, 2e-3, 1e-2]))
    start = draw(st.integers(0, length - 1))
    return raw, IFN(mu, nu), tol, TailWindow(start, length - 1)


HYPOTHESIS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestSimplexRows:
    @HYPOTHESIS
    @given(st.lists(raw_pairs, max_size=30))
    def test_matches_ifn_per_column(self, raw):
        expected = _outcome(lambda: [IFN(m, v) for m, v in raw])
        rows = _rows(raw)
        assert _outcome(lambda: list(IFNRows(simplex_rows(rows)))) == expected
        assert _outcome(lambda: list(IFNRows(as_rows(rows)))) == expected

    def test_view_boxes_the_stored_pair(self):
        a = IFN(*RENORMALIZED_PAIR)
        assert a.mu + a.nu > 1.0
        assert IFN(a.mu, a.nu) != a  # normalization is not idempotent
        view = IFNRows(simplex_rows(_rows([RENORMALIZED_PAIR])))
        assert _hex(view[0]) == _hex(a)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            as_rows(np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            as_rows(np.zeros((3, 2)))


class TestIFNRowsView:
    def test_sequence_protocol(self):
        raw = [(0.1, 0.2), (0.3, 0.4), (0.5, -0.0)]
        objs, view = _inputs(raw)
        assert len(view) == 3
        assert view[1] == objs[1] and view[-1] == objs[-1]
        assert _hex(view[-1]) == _hex(objs[-1])
        assert view[1:] == objs[1:] and len(view[::2]) == 2
        assert list(view) == objs and view == objs and objs == view
        assert view != objs[:2] and view != [objs[0], objs[1], IFN(0.5, 0.1)]
        with pytest.raises(IndexError):
            view[3]

    def test_read_only(self):
        rows = simplex_rows(np.array([[0.1, 0.3], [0.2, 0.4]]))
        view = IFNRows(rows)
        with pytest.raises(ValueError):
            view.rows[0, 0] = 0.9
        rows[0, 0] = 0.9  # the caller's array stays writable
        assert view[0].mu == 0.9

    def test_as_rows(self):
        objs, view = _inputs([(0.1, 0.2), (0.3, 0.4)])
        assert as_rows(view) is view.rows
        np.testing.assert_array_equal(as_rows(objs), view.rows)
        assert as_rows([]).shape == (2, 0)


class TestDuality:
    @HYPOTHESIS
    @given(pairs, pairs, st.floats(0.0, 6.0))
    def test_multiply_and_power_bits(self, p, q, c):
        a, b = _ifns([p, q])
        assert _outcome(multiply, a, b) == _outcome(support.multiply_oracle, a, b)
        assert _outcome(power, a, c) == _outcome(support.power_oracle, a, c)
        assert _outcome(power, a, 1.0) == _outcome(support.power_oracle, a, 1.0)

    def test_power_keeps_its_messages(self):
        with pytest.raises(ValueError, match="exponent must be finite"):
            power(IFN(0.5, 0.3), -1.0)
        with pytest.raises(ValueError, match="power needs mu > 0 and nu < 1"):
            power(IFN(0.0, 0.5), 2.0)


class TestOrders:
    @HYPOTHESIS
    @given(pairs, pairs)
    def test_match_the_written_out_rules(self, p, q):
        a, b = _ifns([p, q])
        for x, y in ((a, b), (b, a), (a, a)):
            assert total_order_cmp(x, y) == support.total_order_cmp_oracle(x, y)
            assert partial_order_cmp(x, y) == support.partial_order_cmp_oracle(x, y)


class TestSubtraction:
    @HYPOTHESIS
    @given(pairs, pairs)
    def test_matches_the_written_out_branch(self, p, q):
        a, b = _ifns([p, q])
        for x, y in ((a, b), (b, a), (a, a), (add(b, a), b)):
            # repr shows -0.0, which a quotient of -0.0 keeps.
            assert repr(subtract(x, y)) == repr(support.subtract_oracle(x, y))
            assert in_addition_region(x, y) == support.in_addition_region_oracle(x, y)

    def test_negative_zero_survives_the_clamp(self):
        a, b = IFN(-0.0, 0.5), IFN(0.0, 0.6)
        expected = "IFN(-0.0, 0.8333333333333334)"
        assert repr(subtract(a, b)) == repr(support.subtract_oracle(a, b)) == expected


# Limit candidates xi for the subtraction and total-order limit checks,
# some with nu = 0, where no subtraction goes through the quotient branch.
limits = st.one_of(pairs, unit.map(lambda m: (m, 0.0))).map(lambda p: IFN(*p))
NEAR_ZERO_ONE = [1e-9, 1e-6, 1e-3]


@st.composite
def limit_windows(draw):
    """A sequence near xi: within 4e-13 of it, or xi + beta_n for beta_n
    from near (0, 1) to far from it, so that every outcome of the
    subtraction-based check occurs; and a window, or None."""
    xi = draw(limits)
    length = draw(st.integers(1, 30))
    unit_pairs = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
    jitter = draw(st.lists(unit_pairs, min_size=length, max_size=length))
    scale = draw(st.sampled_from([4e-13] + NEAR_ZERO_ONE + [0.05, 0.5]))
    if scale == 4e-13:
        raw = [(xi.mu + scale * u, xi.nu + scale * v) for u, v in jitter]
    else:
        betas = [IFN(scale * abs(u), (1.0 - scale * abs(u)) * (1.0 - scale * abs(v)))
                 for u, v in jitter]
        raw = [(c.mu, c.nu) for c in (add(xi, b) for b in betas)]
    start = draw(st.one_of(st.none(), st.integers(0, length - 1)))
    return raw, xi, None if start is None else TailWindow(start, length - 1)


class TestLimitNotionsMatchObjects:
    """The subtraction-based and total-order limit checks on rows give the
    per-element oracle's outcome on a list of IFN, an IFNRows view and raw
    (2, N) rows."""

    @staticmethod
    def _same_as_oracle(raw, xi, eps, zx_eps, window):
        objs, view = _inputs(raw)
        checks = [
            (addition_limit_check, support.addition_limit_check_oracle,
             (xi, EpsilonIFN(eps), window)),
            (zhangxu_limit_check, support.zhangxu_limit_check_oracle, (xi, zx_eps, window)),
            (zhangxu_limit_check_sampled, support.zhangxu_limit_check_sampled_oracle,
             (xi, window)),
        ]
        for fn, oracle, args in checks:
            expected = _outcome(oracle, objs, *args)
            for form in (objs, view, _rows(raw)):
                assert _outcome(fn, form, *args) == expected

    zx_eps = st.one_of(
        st.sampled_from(NEAR_ZERO_ONE + [0.05, 0.3]).map(lambda e: IFN(e, 1.0 - e)),
        st.sampled_from([IFN(0.02, 0.0), IFN(0.5, 0.2), IFN(0.0, 1.0)]),
    )

    @HYPOTHESIS
    @given(settling_sequences(), limits, st.sampled_from(NEAR_ZERO_ONE + [0.3, 1.0]), zx_eps)
    def test_settling_sequences(self, case, other, eps, zx_eps):
        raw, xi, _, window = case
        for limit in (xi, other):
            self._same_as_oracle(raw, limit, eps, zx_eps, window)

    @HYPOTHESIS
    @given(limit_windows(), st.sampled_from(NEAR_ZERO_ONE + [0.02, 0.3, 1.0]), zx_eps)
    def test_sequences_near_the_limit(self, case, eps, zx_eps):
        raw, xi, window = case
        self._same_as_oracle(raw, xi, eps, zx_eps, window)

    def test_a_limit_on_the_mu_edge_has_no_quotient(self):
        # (1.0, 5e-324) has nu > 0 but 1 - mu = 0: the quotient would
        # divide by zero, so no element lies in its addition region.
        a, xi = IFN(1.0, 0.0), IFN(1.0, 5e-324)
        assert subtract(a, xi) == support.subtract_oracle(a, xi) == IFN(0.0, 1.0)
        assert not in_addition_region(a, xi)
        out = addition_limit_check([a] * 4, xi, EpsilonIFN(0.5))
        assert out is AdditionLimitOutcome.NOT_APPLICABLE

    def test_no_object_per_element(self, monkeypatch):
        counts = {"_box": 0, "IFN": 0}
        box, post_init = ifn._box, IFN.__post_init__

        def counted_box(mu, nu):
            counts["_box"] += 1
            return box(mu, nu)

        def counted_post_init(self):
            counts["IFN"] += 1
            post_init(self)

        monkeypatch.setattr(ifn, "_box", counted_box)
        monkeypatch.setattr(IFN, "__post_init__", counted_post_init)

        def run(length: int) -> dict[str, int]:
            # Windows on which every check holds, so that each reads all
            # of it: xi + beta_n with beta_n -> (0, 1), every element in
            # the addition region, and the drift of `nonunique`.
            n = np.arange(length, dtype=np.float64)
            beta = np.stack([0.2 / (n + 50.0), 1.0 - 0.3 / (n + 50.0)])
            xi = IFN(0.4, 0.3)
            seq = IFNRows(simplex_rows(np.stack(ifn._add_pair(xi.mu, xi.nu, *beta))))
            drift, limit = IFNRows(generate_array("nonunique", length - 1)), IFN(0.5, 1.0 / 3.0)
            counts.update(_box=0, IFN=0)
            assert addition_limit_check(seq, xi, EpsilonIFN(0.01)) is AdditionLimitOutcome.HOLDS
            assert zhangxu_limit_check(drift, limit, IFN(1e-3, 1.0 - 1e-3))
            assert zhangxu_limit_check_sampled(drift, limit)
            return dict(counts)

        few, many = run(20), run(20000)  # windows of 10 and 10^4 elements
        assert few == many, (few, many)


# Pairs next to a vertex of the simplex, where the closed forms round
# W(mu) above W(1 - nu) (dually W(nu) above W(1 - mu)): unclamped, the
# means and the power leave the simplex and raise IFN's error.
EDGE_SEQ = [(1.0, 0.0), (5.638568035048517e-13, 1.0)]
EDGE_PAIR = (5.313976378846972e-13, 0.9999999999994686)


class TestSimplexClamp:
    @pytest.mark.parametrize("swap", [False, True])
    def test_means(self, swap):
        fn, oracle = (ifwa_means, support.ifwa_means_oracle) if swap else (
            ifwg_means, support.ifwg_means_oracle)
        raw = [p[::-1] for p in EDGE_SEQ] if swap else EDGE_SEQ
        objs, view = _inputs(raw)
        w = WeightSequence.ones(2)
        means = fn(objs, w)
        assert [a.mu + a.nu for a in means] == [1.0, 1.0]
        assert _outcome(fn, view, w) == _outcome(oracle, objs, w) == _outcome(fn, objs, w)
        other = ifwa_means if fn is ifwg_means else ifwg_means
        swapped = other(_ifns([p[::-1] for p in raw]), w)
        assert [_hex(a)[::-1] for a in swapped] == [_hex(a) for a in means]

    def test_power_and_scalar_multiple(self):
        a = power(IFN(*EDGE_PAIR), 0.5)
        assert a.mu + a.nu == 1.0
        assert _outcome(power, IFN(*EDGE_PAIR), 0.5) == _outcome(
            support.power_oracle, IFN(*EDGE_PAIR), 0.5)
        b = scalar_mul(0.5, IFN(*EDGE_PAIR[::-1]))
        assert _hex(b) == _hex(a)[::-1]


class TestRowsMatchObjects:
    @HYPOTHESIS
    @given(sequences())
    def test_means(self, case):
        raw, w = case
        objs, view = _inputs(raw)
        for fn, oracle in ((ifwa_means, support.ifwa_means_oracle),
                           (ifwg_means, support.ifwg_means_oracle)):
            expected = _outcome(oracle, objs, w)
            assert _outcome(fn, objs, w) == expected
            assert _outcome(fn, view, w) == expected

    @HYPOTHESIS
    @given(settling_sequences(), st.sampled_from([1e-3, 0.02, 0.3, 1.0]))
    def test_checks_and_sandwiches(self, case, eps):
        raw, xi, tol, window = case
        objs, view = _inputs(raw)
        checks = [
            (oplus_convergence_check, support.oplus_convergence_oracle, (xi, tol, window)),
            (otimes_convergence_check, support.otimes_convergence_oracle, (xi, tol, window)),
            (oplus_sandwich_holds, support.oplus_sandwich_oracle, (xi, eps, window)),
            (otimes_sandwich_holds, support.otimes_sandwich_oracle, (xi, eps, window)),
        ]
        for fn, oracle, args in checks:
            expected = _outcome(oracle, objs, *args)
            assert _outcome(fn, objs, *args) == expected
            assert _outcome(fn, view, *args) == expected

    @HYPOTHESIS
    @given(settling_sequences())
    def test_verdicts(self, case):
        raw, xi, tol, window = case
        objs, view = _inputs(raw)
        w = WeightSequence.harmonic(len(raw))
        for fn, oracle in ((np_oplus_verdict, support.np_oplus_verdict_oracle),
                           (gp_otimes_verdict, support.gp_otimes_verdict_oracle)):
            expected = _outcome(oracle, objs, w, xi, tol, window)
            assert _outcome(fn, objs, w, xi, tol, window) == expected
            assert _outcome(fn, view, w, xi, tol, window) == expected

    @HYPOTHESIS
    @given(sequences(min_size=3), st.sampled_from(["oplus", "otimes"]))
    def test_tauber_report(self, case, mode):
        raw, w = case
        objs, view = _inputs(raw)
        grid = LambdaGrid.of([0.5, 0.9, 1.1, 1.5])
        expected = _outcome(support.ifn_tauber_report_oracle, objs, w, grid, None, mode)
        assert _outcome(ifn_tauber_report, objs, w, grid, None, mode) == expected
        assert _outcome(ifn_tauber_report, view, w, grid, None, mode) == expected


class TestEveryEntryPointTakesRows:
    """A list of IFN, an IFNRows view and raw (2, N) rows are one
    sequence to every windowed check and to mean_verdict."""

    @staticmethod
    def _same_on_all_forms(fn, raw, *args):
        objs, view = _inputs(raw)
        expected = _outcome(fn, objs, *args)
        assert _outcome(fn, view, *args) == expected
        assert _outcome(fn, _rows(raw), *args) == expected
        return expected

    @HYPOTHESIS
    @given(settling_sequences(), st.sampled_from([1e-3, 0.02, 0.3, 1.0]))
    def test_limit_checks(self, case, eps):
        raw, xi, tol, window = case
        for limit in (xi, IFN(0.01, 0.98), IFN(0.0, 1.0)):
            for w in (window, None):
                self._same_on_all_forms(addition_limit_check, raw, limit, EpsilonIFN(eps), w)
                self._same_on_all_forms(zhangxu_limit_check, raw, limit, IFN(eps, 0.0), w)
                self._same_on_all_forms(zhangxu_limit_check_sampled, raw, limit, w)

    @HYPOTHESIS
    @given(settling_sequences())
    def test_mean_verdict(self, case):
        raw, xi, tol, window = case
        for check in (oplus_convergence_check, otimes_convergence_check):
            for w in (window, None):
                self._same_on_all_forms(mean_verdict, raw, check, xi, tol, w)

    def test_mean_verdict_on_raw_rows_uses_the_sequence_window(self):
        rows = _rows([(0.5, 0.3)] * 9 + [(0.6, 0.2)])
        verdict = mean_verdict(rows, oplus_convergence_check, IFN(0.5, 0.3))
        assert verdict.window == TailWindow(5, 9)
        assert verdict.limit == IFN(0.6, 0.2)
        assert not verdict.passed

    def test_addition_limit_check_on_raw_rows(self):
        rows = _rows([(0.5, 0.45)] * 4)
        out = addition_limit_check(rows, IFN(0.0, 1.0), EpsilonIFN(0.6))
        assert out.value == "holds"


MALFORMED_LINES = [
    "abc", "0.5", "0.1,0.2,0.3", "0.5,x", ",", "0.1,", "nan,0.2", "0.7,0.5",
    "-1e-13,0.5", "-1e-11,0.5", "1e400,0", "0.3 , 0.4", "1_0e-1,0.2",
    # str.splitlines() breaks these lines where the C parser, reading the
    # raw text, would only strip whitespace and take the pair.
    "0.5\x0c,0.3", "0.5,\x0b0.3", "0.5\x1c,0.3", "0.5\x85,0.3", "0.5\u2028,0.3",
]
# Lines that the per-line reader parses with float() and the C pass
# rejects: whitespace-only lines, non-ASCII digits (1.0 + 0.5 then fails
# IFN(); 0.1 + 0.5 does not), and pairs that only str.splitlines()
# separates; then a CRLF line, which both take.
PER_LINE_ONLY_LINES = [
    "  ", "\t", "\u0661,0.5", "0.\u0661,0.5", "0.5,0.3\r0.1,0.2",
    "0.5,0.3\x0c0.1,0.2", "0.5,0.3\u20280.1,0.2", "0.5,0.3\r",
]


def _line(pair):
    return f"{pair[0]!r},{pair[1]!r}"


class TestReaderMatchesPerLine:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(pairs.map(_line),
                              st.sampled_from([""] + PER_LINE_ONLY_LINES + MALFORMED_LINES)),
                    max_size=25))
    def test_same_pairs_or_same_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("ifn") / "seq.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(support.read_ifn_sequence_oracle, path)
        assert _outcome(read_ifn_sequence, path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "0.5\n0.25\n0.125\n",
            "0.1,0.2,0.3\n0.2,0.3,0.4\n",
            "",
            "\n  \n\t\n\n",
            "0.5,0.25\r\n0.125,0.5\r\n",
            "0.5,0.25\n\n0.125,0.5",
        ],
        ids=["one-field", "three-fields", "empty", "blank-only", "crlf", "no-final-newline"],
    )
    def test_whole_files(self, tmp_path, text):
        path = tmp_path / "seq.txt"
        path.write_bytes(text.encode())
        expected = _outcome(support.read_ifn_sequence_oracle, path)
        assert _outcome(read_ifn_sequence, path) == expected
