"""Multiplicative-calculus primitives on the positive reals.

Every quantity lives in log-domain: a positive real r is stored as
log(r), so sequences like exp(+-(n+1)) stay representable long after
exp() itself would overflow. The multiplicative absolute value, the
multiplicative distance and the windowed convergence checks all reduce
to ordinary absolute values and differences of the stored logs.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LogReal",
    "MTolerance",
    "TailWindow",
    "Verdict",
    "mabs",
    "mdist",
    "mdelta",
    "star_converges_to",
    "is_mstar_bounded",
    "log_array",
    "from_log_array",
    "as_logs",
    "resolve_window",
]


@dataclass(frozen=True)
class LogReal:
    """A strictly positive real number stored as its natural log."""

    log_value: float

    def __post_init__(self):
        if not math.isfinite(self.log_value):
            raise ValueError(f"log_value must be finite, got {self.log_value}")

    @classmethod
    def of(cls, value: float) -> "LogReal":
        """Wrap a plain positive real."""
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"need a finite positive real, got {value}")
        return cls(math.log(value))

    @classmethod
    def from_log(cls, log_value: float) -> "LogReal":
        return cls(float(log_value))

    @property
    def value(self) -> float:
        """The represented number; overflows to inf beyond exp(709)."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def __mul__(self, other: "LogReal") -> "LogReal":
        return LogReal(self.log_value + other.log_value)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        return LogReal(self.log_value - other.log_value)

    def __pow__(self, exponent: float) -> "LogReal":
        return LogReal(self.log_value * exponent)

    def reciprocal(self) -> "LogReal":
        return LogReal(-self.log_value)

    # Order on (0, inf) is the order of the logs.
    def __lt__(self, other: "LogReal") -> bool:
        return self.log_value < other.log_value

    def __le__(self, other: "LogReal") -> bool:
        return self.log_value <= other.log_value

    def __repr__(self) -> str:
        return f"LogReal(log_value={self.log_value!r})"


@dataclass(frozen=True)
class MTolerance:
    """Multiplicative epsilon: a real strictly greater than 1."""

    value: float

    def __post_init__(self):
        if not (self.value > 1 and math.isfinite(self.value)):
            raise ValueError(f"multiplicative tolerance must be > 1, got {self.value}")

    @classmethod
    def default(cls) -> "MTolerance":
        # Tight default, meant for closed-form/exact cases.
        return cls(1 + 1e-6)

    @property
    def log(self) -> float:
        return math.log(self.value)


@dataclass(frozen=True)
class TailWindow:
    """Inclusive index range [start_index, end_index] used as finite
    evidence for statements about the tail of a sequence."""

    start_index: int
    end_index: int

    def __post_init__(self):
        if self.start_index < 0 or self.end_index < self.start_index:
            raise ValueError(
                f"need 0 <= start <= end, got [{self.start_index}, {self.end_index}]"
            )

    @classmethod
    def last_half(cls, length: int) -> "TailWindow":
        """Default evidence window: the last half of a length-n sequence."""
        if length < 1:
            raise ValueError("cannot take a window of an empty sequence")
        return cls(length // 2, length - 1)

    def indices(self) -> range:
        return range(self.start_index, self.end_index + 1)

    def __len__(self) -> int:
        return self.end_index - self.start_index + 1

    def check_fits(self, length: int, what: str = "sequence") -> None:
        if self.end_index >= length:
            raise ValueError(
                f"window [{self.start_index}, {self.end_index}] does not fit "
                f"{what} of length {length}"
            )


@dataclass(frozen=True)
class Verdict:
    """Windowed diagnostic outcome: an estimated limit plus a pass flag.

    `limit` is a LogReal for real-sequence verdicts and an IFN for the
    fuzzy-number ones. `tolerance` is multiplicative (> 1) in the first
    case and absolute in the second.
    """

    passed: bool
    limit: object
    window: TailWindow
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def mabs(u: LogReal) -> LogReal:
    """Multiplicative absolute value: u for u >= 1, else 1/u."""
    return LogReal(abs(u.log_value))


def mdist(u: LogReal, v: LogReal) -> LogReal:
    """Multiplicative distance |u/v|*; equals 1 exactly iff u == v."""
    return LogReal(abs(u.log_value - v.log_value))


def mdelta(seq: Sequence[LogReal] | np.ndarray, n: int) -> LogReal:
    """Multiplicative difference u_n / u_{n-1}, with u_0 at n = 0. An
    ndarray holds the logs (see as_logs)."""
    logs = isinstance(seq, np.ndarray)
    if logs:
        seq = as_logs(seq)
    if n < 0 or n >= len(seq):
        raise IndexError(f"index {n} out of range for sequence of length {len(seq)}")
    if logs:
        return LogReal(float(seq[n] - seq[n - 1]) if n else float(seq[0]))
    if n == 0:
        return seq[0]
    return seq[n] / seq[n - 1]


def resolve_window(
    window: TailWindow | None, length: int, what: str = "sequence"
) -> TailWindow:
    """The window policy of every windowed check: the last half of a
    length-`length` sequence when `window` is None, and in either case a
    window that fits (`what` names the sequence in the error)."""
    if window is None:
        window = TailWindow.last_half(length)
    window.check_fits(length, what)
    return window


def star_converges_to(
    seq: Sequence[LogReal] | np.ndarray,
    a: LogReal,
    tol: MTolerance,
    window: TailWindow | None = None,
) -> bool:
    """Windowed proxy for *convergence to `a`.

    True iff |u_n / a|* < tol for every n in the window. This is finite
    evidence about the window, not a decision about the infinite tail.
    """
    x = as_logs(seq)
    window = resolve_window(window, x.size)
    block = x[window.start_index : window.end_index + 1]
    return bool(np.all(np.abs(block - a.log_value) < tol.log))


def is_mstar_bounded(
    seq: Sequence[LogReal] | np.ndarray,
    bound: LogReal,
    window: TailWindow | None = None,
) -> bool:
    """True iff |u_n|* < bound for every n in the window (bound > 1)."""
    if not bound.log_value > 0:
        raise ValueError("the *bound must be > 1")
    x = as_logs(seq)
    window = resolve_window(window, x.size)
    block = x[window.start_index : window.end_index + 1]
    return bool(np.all(np.abs(block) < bound.log_value))


def log_array(seq: Iterable[LogReal]) -> np.ndarray:
    """Dense float64 array of the stored logs (bulk-computation view)."""
    seq = list(seq) if not isinstance(seq, (list, tuple)) else seq
    return np.fromiter((u.log_value for u in seq), dtype=np.float64, count=len(seq))


def from_log_array(logs: np.ndarray) -> list[LogReal]:
    return [LogReal(float(lv)) for lv in logs]


def as_logs(u: Sequence[LogReal] | np.ndarray) -> np.ndarray:
    """The float64 log array of a real sequence, the one form the bulk
    computations work on.

    A sequence of LogReal is unboxed with log_array. An ndarray is taken
    to hold the logs already; it must be 1-d and finite, the invariant
    LogReal enforces element by element.
    """
    if not isinstance(u, np.ndarray):
        return log_array(u)
    x = np.asarray(u, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a log array must be 1-d, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(f"log values must be finite, got {float(x[n])} at index {n}")
    return x
