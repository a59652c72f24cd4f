"""Built-in example sequences and the text formats for sequence files.

Real sequences are written log-domain by default (header line ``log:``)
so that blow-ups like exp(+-(n+1)) stay representable as text; fuzzy
sequences are one ``mu,nu`` pair per line, and every line ends in LF.
All generators produce indices 0..n_max inclusive. One function,
`_read_table`, reads and parses every real, IFN and weight file.
"""

import array
import io
import math
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .mcore import LogReal, as_logs
from .ifn import IFN, IFNRows, as_rows, simplex_rows

__all__ = [
    "GeneratorError",
    "generate",
    "generate_array",
    "generator_kind",
    "list_generators",
    "write_real_sequence",
    "read_real_sequence",
    "read_real_logs",
    "write_sequence",
    "write_ifn_sequence",
    "read_ifn_sequence",
]

LOG_HEADER = "log:"
# Line breaks of str.splitlines() other than '\n' and '\r', which text
# files read with universal newlines never hold.
_SPLITLINES_ONLY_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class GeneratorError(ValueError):
    """Unknown generator id or invalid generator parameters."""


# Each generator maps the index array n = 0..n_max to its values: the
# logs for a real sequence, the (mu, nu) rows for an IFN one. Per-parity
# constants are computed once with Python float arithmetic, and `linear`
# keeps math.log, so every value equals the one the per-element formula
# gives (np.log can differ from math.log in the last bit).


def _alternate(n: np.ndarray, even, odd) -> np.ndarray:
    return np.where(n % 2 == 0, even, odd)


def _ex1(n: np.ndarray, params: dict) -> np.ndarray:
    # Alternating exponential blow-up exp(+-(n+1)), kept in log-domain;
    # built in place, with no second full-length array.
    v = n + 1.0
    v[1::2] *= -1.0
    return v


def _ex2(n: np.ndarray, params: dict) -> np.ndarray:
    # 2 on even indices, 1/2 on odd ones.
    return _alternate(n, math.log(2.0), -math.log(2.0))


def _constant(n: np.ndarray, params: dict) -> np.ndarray:
    c = params.get("c", 1.0)
    if not c > 0:
        raise GeneratorError(f"constant generator needs c > 0, got {c}")
    return np.full(n.size, LogReal.of(c).log_value)


def _exp_decay(n: np.ndarray, params: dict) -> np.ndarray:
    # exp(c / (n+1)) -> 1; the standard slowly-settling positive sequence.
    c = params.get("c", 1.0)
    return c / (n + 1.0)


def _linear(n: np.ndarray, params: dict) -> np.ndarray:
    return np.fromiter(map(math.log, n + 1.0), np.float64, n.size)


def _nonunique(n: np.ndarray, params: dict) -> np.ndarray:
    # Drifts up to (1/2, 1/3) along the constant-score line mu - nu = 1/6.
    d = 1.0 / (n + 3.0)
    return np.stack([0.5 - d, 1.0 / 3.0 - d])


# ex3-ifn and ex4-ifn hop with the exponent e = (-1)^n + 2: 3 on even
# indices, 1 on odd ones.


def _ex3_ifn(n: np.ndarray, params: dict) -> np.ndarray:
    # Components hop between exponent 1 and 3 of the base pair (1/2, 1/3).
    return np.stack([
        _alternate(n, 1.0 - 0.5**3.0, 1.0 - 0.5**1.0),
        _alternate(n, (1.0 / 3.0) ** 3.0, (1.0 / 3.0) ** 1.0),
    ])


def _ex4_ifn(n: np.ndarray, params: dict) -> np.ndarray:
    return np.stack([
        _alternate(n, (1.0 / 9.0) ** 3.0, (1.0 / 9.0) ** 1.0),
        _alternate(n, 1.0 - 0.25**3.0, 1.0 - 0.25**1.0),
    ])


_REGISTRY: dict[str, tuple[str, Callable, frozenset[str]]] = {
    "ex1": ("real", _ex1, frozenset()),
    "ex2": ("real", _ex2, frozenset()),
    "constant": ("real", _constant, frozenset({"c"})),
    "exp-decay": ("real", _exp_decay, frozenset({"c"})),
    "linear": ("real", _linear, frozenset()),
    "nonunique": ("ifn", _nonunique, frozenset()),
    "ex3-ifn": ("ifn", _ex3_ifn, frozenset()),
    "ex4-ifn": ("ifn", _ex4_ifn, frozenset()),
}


def _parse_spec(spec: str) -> tuple[str, dict]:
    name, _, tail = spec.partition(":")
    params: dict[str, float] = {}
    if tail:
        for item in tail.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise GeneratorError(
                    f"generator parameter {item!r} must look like key=value"
                )
            try:
                value = float(val)
            except ValueError:
                raise GeneratorError(f"generator parameter {item!r} is not numeric")
            if not math.isfinite(value):
                raise GeneratorError(f"generator parameter {item!r} must be finite")
            key = key.strip()
            if key in params:
                raise GeneratorError(f"generator parameter {key!r} is given more than once")
            params[key] = value
    return name, params


def list_generators() -> list[str]:
    return sorted(_REGISTRY)


def _lookup(spec: str) -> tuple[str, Callable, dict]:
    name, params = _parse_spec(spec)
    if name not in _REGISTRY:
        raise GeneratorError(
            f"unknown generator {name!r}; available: {', '.join(list_generators())}"
        )
    kind, fn, allowed = _REGISTRY[name]
    unknown = set(params) - allowed
    if unknown:
        raise GeneratorError(
            f"generator {name!r} does not take parameter(s) {sorted(unknown)}"
        )
    return kind, fn, params


def generator_kind(spec: str) -> str:
    """'real' or 'ifn' for a generator spec like 'constant:c=3'."""
    return _lookup(spec)[0]


def generate_array(spec: str, n_max: int) -> np.ndarray:
    """Values of a named sequence for indices 0..n_max inclusive: the
    float64 logs (shape (n_max+1,)) of a real sequence, or the normalized
    mu and nu rows (shape (2, n_max+1), see ifn.simplex_rows) of an IFN
    one."""
    kind, fn, params = _lookup(spec)
    if n_max < 0:
        raise GeneratorError(f"n_max must be nonnegative, got {n_max}")
    values = fn(np.arange(n_max + 1, dtype=np.int64), params)
    return as_logs(values) if kind == "real" else simplex_rows(values)


def generate(spec: str, n_max: int) -> list:
    """Materialize a named sequence as LogReal or IFN objects."""
    values = generate_array(spec, n_max)
    if values.ndim == 1:
        return [LogReal(v) for v in values.tolist()]
    return list(IFNRows(values))


def write_sequence(f, values: Sequence[float] | np.ndarray) -> None:
    """A sequence file into the binary file f: a 1-d array of logs as a
    'log:' header and one repr per line, (2, N) mu and nu rows as one
    'repr(mu),repr(nu)' line per pair, or one empty line for no pairs."""
    from . import floatfmt  # compiled on first use: runs that print no floats skip it

    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        f.write(f"{LOG_HEADER}\n".encode("ascii"))
    elif values.shape[1] == 0:
        f.write(b"\n")
    columns = (values,) if values.ndim == 1 else tuple(values)
    floatfmt.write_rows(f, columns, index=False)


def write_real_sequence(path: str | Path, seq: Sequence[LogReal] | np.ndarray) -> None:
    """One log value per line under a 'log:' header."""
    with open(path, "wb") as f:
        write_sequence(f, as_logs(seq))


def _header_lines(lines: Iterable[str]) -> int:
    """The number of leading lines a 'log:' header takes: through the first
    non-blank line if it is, stripped, 'log:', else 0."""
    for i, ln in enumerate(lines, 1):
        if ln.strip():
            return i if ln.strip() == LOG_HEADER else 0
    return 0


def _real_logs(rows: np.ndarray, logged: bool) -> np.ndarray:
    """A real file's logs from its (1, n) table: its values after a 'log:'
    header, else their math.log. The first bad value raises LogReal's or
    LogReal.of's error."""
    ok = np.isfinite(rows) if logged else np.isfinite(rows) & (rows > 0)
    if not ok.all():  # the constructor raises its error for the first bad value
        (LogReal if logged else LogReal.of)(rows.flat[np.argmin(ok)].item())
    if logged:
        return rows[0]
    return np.fromiter(map(math.log, rows[0]), np.float64, rows.size)


def read_real_logs(path: str | Path) -> np.ndarray:
    """Read either plain positive decimals or log-domain values into a
    float64 log array."""
    rows, logged = _read_table(path, 1, _real_logs, header=True)
    if rows.size == 0:
        raise ValueError(f"sequence file {path} {'has no values' if logged else 'is empty'}")
    return _real_logs(rows, logged)


def read_real_sequence(path: str | Path) -> list[LogReal]:
    """read_real_logs as LogReal objects."""
    return [LogReal(x) for x in read_real_logs(path).tolist()]


def write_ifn_sequence(path: str | Path, seq: Sequence[IFN]) -> None:
    """One 'mu,nu' pair per line."""
    with open(path, "wb") as f:
        write_sequence(f, as_rows(seq))


def read_ifn_sequence(path: str | Path) -> IFNRows:
    """One 'mu,nu' pair per line, as a read-only sequence of IFN over the
    normalized (2, N) rows. A malformed file raises the ValueError of its
    first bad line: a line that is not a pair of floats, or a pair that
    IFN() rejects."""
    rows, _ = _read_table(path, 2, lambda rows, _: simplex_rows(rows))
    if rows.shape[1] == 0:
        raise ValueError(f"sequence file {path} is empty")
    return IFNRows(simplex_rows(rows))


def _read_table(path: str | Path, ncols: int, check=None, header=False) -> tuple[np.ndarray, bool]:
    """The (ncols, n) float64 table of a sequence file, one row of
    comma-separated floats per non-blank line (n = 0 where there is none),
    and whether a 'log:' header came first (looked for only if `header`).
    The first bad line raises float()'s error, or for ncols = 2 that of a
    line that is not a 'mu,nu' pair, after check(the rows before it,
    header found): an earlier row's error comes first.

    The bytes are read once, so a pipe reads as a file does, and decoded a
    chunk at a time as open() decodes them. One C pass (numpy's loadtxt)
    reads the lines after the header if it takes them whole, with no
    warning (as on a text with no data), as n >= 1 rows of ncols floats:
    its number syntax is a subset of float()'s, with the same values and
    whitespace stripping. Anything else, such as whitespace-only lines,
    '1_0' or non-ASCII digits, or a row of another width, goes line by line:
    one decoded line at a time, into one growing array of floats.
    """
    f = io.TextIOWrapper(io.BytesIO(Path(path).read_bytes()))
    # The C pass splits lines at '\n' alone and strips the other
    # str.splitlines() breaks as whitespace: a file holding one goes line
    # by line. The scan decodes the whole text, so that a decoding error
    # comes before any line's.
    plain = True
    try:
        while chunk := f.read(1 << 16):  # 64 Ki characters a step
            plain = plain and not any(c in chunk for c in _SPLITLINES_ONLY_BREAKS)
    except UnicodeDecodeError:
        f.buffer.getvalue().decode(f.encoding)  # the offset in the file, as read_text() gives
        raise
    if plain:
        f.seek(0)
        skip = _header_lines(f) if header else 0
        if not skip:
            f.seek(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                table = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                table = np.empty((0, 0))
        if not caught and table.shape[0] and table.shape[1] == ncols:
            return table.T, skip > 0
    lines = _text_lines(f)
    skip = _header_lines(lines) if header else 0
    if not skip:
        lines = _text_lines(f)
    values = array.array("d")
    for i, ln in enumerate(lines, skip):
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split(",") if ncols > 1 else [ln]  # one column: the whole line to float()
        try:
            if len(fields) != ncols:
                raise ValueError(f"line {i + 1} of {path} is not a 'mu,nu' pair: {ln!r}")
            values.extend([float(x) for x in fields])
        except ValueError:
            if check is not None:
                check(_columns(values, ncols), skip > 0)
            raise
    return _columns(values, ncols), skip > 0


def _text_lines(f: io.TextIOWrapper) -> Iterator[str]:
    """The str.splitlines() lines of the text stream f from its start,
    one at a time: the '\n' lines that f yields, split at the other breaks."""
    f.seek(0)
    return (ln for piece in f for ln in piece.splitlines())


def _columns(values: array.array, ncols: int) -> np.ndarray:
    """The (ncols, n) table of the row-major values, over their buffer."""
    return np.frombuffer(values, dtype=np.float64).reshape(-1, ncols).T
