"""gmtauber.floatfmt against Python's repr, compared as bytes: random
bit patterns, the values where Ryu's branches and repr's layout switch,
and CSV rows with their index column."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtauber import floatfmt


def _lines(values: np.ndarray) -> bytes:
    return floatfmt.rows(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def _repr_lines(values: np.ndarray) -> bytes:
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got, want = _lines(values), _repr_lines(values)
    if got != want:  # name the first value that differs
        for v, g, w in zip(values.tolist(), got.split(b"\n"), want.split(b"\n")):
            assert g == w, f"{v!r}: got {g!r}"
        assert got == want


def _from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _with_neighbours(values) -> np.ndarray:
    """values, their neighbours on both sides, and all their negatives."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the neighbour of the largest double is inf
        v = np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_random_bit_patterns(bits):
    _assert_repr(_from_bits(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_hypothesis_floats(values):
    _assert_repr(values)


def test_a_million_seeded_bit_patterns():
    rng = np.random.default_rng(20181)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    for part in np.array_split(bits, 8):
        _assert_repr(_from_bits(part))


def test_powers_of_two():
    _assert_repr(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024, dtype=np.int64))))


def test_powers_of_ten():
    _assert_repr(_with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_integers():
    _assert_repr(np.arange(0, 10**5 + 1, dtype=np.int64).astype(np.float64))
    near = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(np.float64)
    _assert_repr(_with_neighbours(near))


def test_dyadic_fractions():
    k = np.arange(1, 600, dtype=np.int64).astype(np.float64)
    powers = np.ldexp(1.0, np.arange(1, 64, dtype=np.int64))
    _assert_repr((k[:, None] / powers[None, :]).ravel())


def test_layout_switch_points_and_exponent_widths():
    # positional for decimal exponents -4..15, then d.ddde±XX with two
    # exponent digits up to 99 and three from 100
    _assert_repr(_with_neighbours([
        1e-5, 1e-4, 0.001, 0.1, 1.0, 10.0, 1e15, 1e16, 9.999999999999999e-05,
        9999999999999998.0, 123456789012345678.0, 1e99, 1e100, 1e-99, 1e-100,
        9.999999999999999e99, 9.999999999999999e-100, 1.7976931348623157e308,
    ]))


def test_subnormals():
    _assert_repr(_from_bits(np.arange(1, 10**5, dtype=np.uint64)))
    rng = np.random.default_rng(7)
    _assert_repr(_from_bits(rng.integers(1, 2**52, size=10**5, dtype=np.uint64)))
    _assert_repr(_with_neighbours([2.2250738585072014e-308, 2.225073858507201e-308]))


def test_ryu_regressions():
    _assert_repr(_with_neighbours([
        -2.109808898695963e16, 4.940656e-318, 1.18575755e-316, 2.989102097996e-312,
        9.0608011534336e15, 4.708356024711512e18, 9.409340012568248e18,
        5.764607523034235e39,
    ]))


def test_zeros_infinities_and_nans():
    nan_bits = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFFFFFFFFFFFFFFF]
    _assert_repr(np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, 0.5, -0.5], dtype=np.float64),
        _from_bits(nan_bits),
    ]))
    assert _lines(_from_bits(nan_bits)) == b"nan\n" * 4


def _csv_oracle(values: np.ndarray, first: int | None) -> bytes:
    lines = []
    for i, row in enumerate(values.tolist()):
        cells = [repr(v) for v in row]
        if first is not None:
            cells.insert(0, str(first + i))
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("first", [None, 0, 7, 9_990, 99_999_990, 10**15 - 5])
@pytest.mark.parametrize("n_rows", [0, 1, 40, 2049, 5000])
def test_rows_with_an_index(first, n_rows):
    rng = np.random.default_rng(n_rows)
    values = rng.standard_normal((n_rows, 3))
    values[::5, 1] = -1.2345678901234567e-300  # a 24-byte repr
    values[::7, 2] = np.nan
    values[::3, 0] = -0.0
    assert floatfmt.rows(values, first) == _csv_oracle(values, first)


@pytest.mark.parametrize("first", [-1, 10**17 - 2])
def test_rows_rejects_indices_it_cannot_write(first):
    with pytest.raises(ValueError, match="row indices"):
        floatfmt.rows(np.zeros((3, 1), dtype=np.float64), first)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.floats(width=64), min_size=3, max_size=3), max_size=30),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**16)),
)
def test_rows_hypothesis(table, first):
    values = np.array(table, dtype=np.float64).reshape(-1, 3)
    assert floatfmt.rows(values, first) == _csv_oracle(values, first)


def test_import_builds_no_tables():
    """`gmt` pays for the tables only when it formats a float."""
    script = textwrap.dedent(
        """
        import gmtauber.cli
        from gmtauber import floatfmt
        built = [f.cache_info().currsize
                 for f in (floatfmt._exponent_tables, floatfmt._layout_tables)]
        assert built == [0, 0], built
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
