import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber.generators import (
    GeneratorError,
    generate,
    generate_array,
    generator_kind,
    list_generators,
    read_ifn_sequence,
    read_real_logs,
    read_real_sequence,
    write_ifn_sequence,
    write_real_sequence,
    write_sequence,
)

from support import generate_oracle, read_real_sequence_oracle


class TestGenerate:
    def test_oscillating_prefix(self):
        seq = generate("ex2", 4)
        assert [u.value for u in seq[:4]] == pytest.approx([2.0, 0.5, 2.0, 0.5])

    def test_count_is_inclusive_of_n_max(self):
        assert len(generate("constant:c=3", 2)) == 3
        assert len(generate("ex2", 0)) == 1

    def test_constant_param(self):
        seq = generate("constant:c=3", 2)
        assert all(u.value == pytest.approx(3.0, rel=1e-14) for u in seq)

    def test_alternating_blowup_log_values(self):
        seq = generate("ex1", 3)
        assert [u.log_value for u in seq] == [1.0, -2.0, 3.0, -4.0]

    def test_exp_decay(self):
        seq = generate("exp-decay:c=2", 3)
        assert seq[1].log_value == pytest.approx(1.0)
        assert generate("exp-decay", 0)[0].log_value == pytest.approx(1.0)

    def test_linear(self):
        seq = generate("linear", 4)
        assert seq[4].value == pytest.approx(5.0, rel=1e-14)

    def test_drifting_ifn_first_terms(self):
        seq = generate("nonunique", 1)
        assert seq[0].mu == pytest.approx(1.0 / 6.0)
        assert seq[0].nu == pytest.approx(0.0, abs=1e-15)
        assert seq[1].mu == pytest.approx(0.25)
        assert seq[1].nu == pytest.approx(1.0 / 12.0)

    def test_hopping_ifn_pairs(self):
        seq = generate("ex3-ifn", 1)
        assert (seq[0].mu, seq[0].nu) == pytest.approx((7.0 / 8.0, 1.0 / 27.0))
        assert (seq[1].mu, seq[1].nu) == pytest.approx((0.5, 1.0 / 3.0))
        seq4 = generate("ex4-ifn", 1)
        assert (seq4[0].mu, seq4[0].nu) == pytest.approx((1.0 / 729.0, 63.0 / 64.0))
        assert (seq4[1].mu, seq4[1].nu) == pytest.approx((1.0 / 9.0, 0.75))

    def test_kinds(self):
        assert generator_kind("ex1") == "real"
        assert generator_kind("constant:c=2") == "real"
        assert generator_kind("ex3-ifn") == "ifn"
        assert "ex2" in list_generators()

    def test_unknown_generator(self):
        with pytest.raises(GeneratorError):
            generate("bogus", 5)
        with pytest.raises(GeneratorError):
            generator_kind("bogus")

    def test_bad_params(self):
        with pytest.raises(GeneratorError):
            generate("constant:c=abc", 5)
        with pytest.raises(GeneratorError):
            generate("constant:3", 5)
        with pytest.raises(GeneratorError):
            generate("constant:c=0", 5)
        with pytest.raises(GeneratorError):
            generate("ex2:c=3", 5)
        with pytest.raises(GeneratorError):
            generate("constant:z=1", 5)
        with pytest.raises(GeneratorError):
            generate("ex2", -1)

    @pytest.mark.parametrize("spec", ["constant:c=3,c=4", "constant:c=3,c=3", "exp-decay:c=2, c =2"])
    def test_repeated_param(self, spec):
        with pytest.raises(GeneratorError, match="parameter 'c' is given more than once"):
            generator_kind(spec)


class TestSequenceFiles:
    def test_real_round_trip_log_domain(self, tmp_path):
        path = tmp_path / "seq.txt"
        seq = generate("ex1", 50)
        write_real_sequence(path, seq)
        assert path.read_text().splitlines()[0] == "log:"
        assert b"\r" not in path.read_bytes()
        back = read_real_sequence(path)
        assert [u.log_value for u in back] == [u.log_value for u in seq]

    def test_real_plain_decimals(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("2.0\n0.5\n\n4.0\n")
        back = read_real_sequence(path)
        assert [u.value for u in back] == pytest.approx([2.0, 0.5, 4.0])

    def test_real_plain_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2.0\n-1.0\n")
        with pytest.raises(ValueError):
            read_real_sequence(path)

    def test_ifn_round_trip(self, tmp_path):
        path = tmp_path / "ifn.txt"
        seq = generate("ex3-ifn", 20)
        write_ifn_sequence(path, seq)
        assert b"\r" not in path.read_bytes()
        back = read_ifn_sequence(path)
        assert back == seq

    def test_ifn_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5,0.3\n0.5\n")
        with pytest.raises(ValueError):
            read_ifn_sequence(path)

    def test_empty_files(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            read_real_sequence(path)
        with pytest.raises(ValueError):
            read_ifn_sequence(path)

    @pytest.mark.parametrize("length", [0, 1, 5, 20_000])
    def test_text_is_the_repr_of_each_value(self, length):
        """The one-line-per-value formats hold repr of each float, for
        lists and arrays alike."""
        rng = np.random.default_rng(length)
        logs = rng.standard_normal(length) * np.float64(1e3) ** rng.integers(-3, 4, length)
        mu, nu = rng.uniform(0.0, 0.5, (2, length))
        want_real = "\n".join(["log:", *map(repr, logs.tolist())]) + "\n"
        want_ifn = "\n".join(f"{m!r},{v!r}" for m, v in zip(mu.tolist(), nu.tolist())) + "\n"
        for real, pair in ((logs, (mu, nu)), (logs.tolist(), (mu.tolist(), nu.tolist()))):
            for values, want in ((real, want_real), (pair, want_ifn)):
                f = io.BytesIO()
                write_sequence(f, values)
                assert f.getvalue().decode("ascii") == want


def _bits(values) -> np.ndarray:
    """Bit patterns, so that equality also tells 0.0 from -0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


ORACLE_SPECS = sorted(set(list_generators()) | {"constant:c=3", "exp-decay:c=2"})


class TestVectorizedMatchesPerElement:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 17, 10**5])
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_exact_values(self, spec, n_max):
        oracle = generate_oracle(spec, n_max)
        values = generate_array(spec, n_max)
        if generator_kind(spec) == "real":
            assert values.shape == (n_max + 1,)
            np.testing.assert_array_equal(
                _bits(values), _bits([u.log_value for u in oracle])
            )
        else:
            assert values.shape == (2, n_max + 1)
            np.testing.assert_array_equal(_bits(values[0]), _bits([a.mu for a in oracle]))
            np.testing.assert_array_equal(_bits(values[1]), _bits([a.nu for a in oracle]))
        if n_max <= 17:
            assert generate(spec, n_max) == oracle

    # At N = 10^6. ex1: the index array (8 MB) and the result (8 MB) are
    # the only full-length arrays, 16.1 MB traced (33.0 MB when the signs
    # were picked with np.where). linear: n + 1 is a third, 24.0 MB
    # (48.0 MB while math.log took a list of n + 1's floats).
    @pytest.mark.parametrize("spec, bound_mb", [("ex1", 20), ("linear", 28)])
    def test_builds_in_bounded_memory(self, spec, bound_mb):
        tracemalloc.start()
        try:
            generate_array(spec, 999_999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("spec", ["exp-decay:c=inf", "exp-decay:c=nan", "constant:c=inf"])
    def test_non_finite_logs_rejected_like_per_element(self, spec):
        with pytest.raises(ValueError):
            generate_oracle(spec, 3)
        with pytest.raises(ValueError):
            generate_array(spec, 3)


def _oracle_outcome(path):
    try:
        return [u.log_value for u in read_real_sequence_oracle(path)]
    except ValueError as exc:
        return ("ValueError", str(exc))


def _array_outcome(path):
    try:
        logs = read_real_logs(path)
    except ValueError as exc:
        return ("ValueError", str(exc))
    assert logs.dtype == np.float64
    return logs.tolist()


class TestArrayReaderMatchesPerLine:
    def test_plain_decimals(self, tmp_path):
        rng = random.Random(5)
        values = [rng.lognormvariate(0.0, 30.0) for _ in range(3000)]
        text = [f"{v!r}" for v in values] + ["1e-300", "  2.5  ", "", "7", "1.7976931348623157e308"]
        path = tmp_path / "plain.txt"
        path.write_text("\n".join(text) + "\n")
        expected = [u.log_value for u in read_real_sequence_oracle(path)]
        np.testing.assert_array_equal(_bits(read_real_logs(path)), _bits(expected))
        assert read_real_sequence(path) == read_real_sequence_oracle(path)

    def test_log_domain(self, tmp_path):
        rng = random.Random(6)
        values = [rng.uniform(-800.0, 800.0) for _ in range(3000)] + [0.0, -0.0]
        path = tmp_path / "log.txt"
        path.write_text("log:\n" + "\n".join(f"{v!r}" for v in values) + "\n\n")
        expected = [u.log_value for u in read_real_sequence_oracle(path)]
        np.testing.assert_array_equal(_bits(read_real_logs(path)), _bits(expected))
        assert read_real_sequence(path) == read_real_sequence_oracle(path)

    def test_header_only_is_rejected(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("log:\n\n")
        expected = ("ValueError", f"sequence file {path} has no values")
        assert _oracle_outcome(path) == _array_outcome(path) == expected

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x80"], ids=["invalid-byte", "cut-at-end"])
    def test_undecodable_bytes_report_their_offset_in_the_file(self, tmp_path, bad):
        # Past the reader's first decoded chunk (64 Ki characters), where a
        # chunk-relative offset would differ from Path.read_text()'s.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"log:\n" + b"1.0\n" * 50000 + bad)
        expected = _oracle_outcome(path)
        assert expected[0] == "ValueError" and "position 200005" in expected[1]
        assert _array_outcome(path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "1.0\nabc\n",
            "1.0\nnan\n",
            "1.0\ninf\n",
            "1.0\n0\n",
            "1.0\n-0.0\n",
            "1.0\n-2.5\n",
            "1.0\n-1\nabc\n",
            "log:\n0.1\nabc\n",
            "log:\n0.1\nnan\n",
            "log:\n0.1\n-inf\n",
            "log:\n0.1\ninf\nabc\n",
            "\n\n",
        ],
    )
    def test_same_rejections(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        expected = _oracle_outcome(path)
        assert expected[0] == "ValueError"
        assert _array_outcome(path) == expected


# Lines the per-line reader and the C pass may read differently: blank and
# whitespace-only lines, header look-alikes, tokens that float() takes and
# numpy's C parser does not (or the other way round), bad values, and
# lines that only str.splitlines() or universal newlines break in two.
BLANK_LINES = ["", "  ", "\t"]
HEADER_LINES = ["log:", " log: ", "log:1.0", "log: 1.0", "log:\x0c2.0", "LOG:"]
REAL_TRICKY_LINES = BLANK_LINES + HEADER_LINES + [
    "1_0", "\u0661", "0.\u0661", "nan", "inf", "0", "-0.0", "-1", "abc", "1.0,2.0", "0x10",
    "2.5\r3.5", "0.5\x0c0.25",
]
positive_reprs = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
finite_reprs = st.floats(allow_nan=False, allow_infinity=False).map(repr)


def _log_bits_outcome(read, path):
    """The bit patterns of the logs read, or the ValueError text."""
    try:
        logs = read(path)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return _bits(logs).tolist()


class TestRealReaderMatchesPerLineProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        # Blank lines and header look-alikes before the values, which
        # decide whether the file is log-domain.
        st.lists(st.sampled_from(BLANK_LINES + HEADER_LINES), max_size=3),
        st.lists(
            st.one_of(positive_reprs, finite_reprs, st.sampled_from(REAL_TRICKY_LINES)),
            max_size=25,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_same_logs_or_same_error(self, tmp_path_factory, head, lines, end):
        path = tmp_path_factory.mktemp("real") / "seq.txt"
        path.write_bytes("".join(ln + end for ln in head + lines).encode())
        expected = _log_bits_outcome(
            lambda p: [u.log_value for u in read_real_sequence_oracle(p)], path
        )
        assert _log_bits_outcome(read_real_logs, path) == expected
